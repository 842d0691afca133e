"""The package's public names: ``__all__`` is exactly what ``import *`` gives;
each loads its submodule on first use; every name a module imports is used;
and every command and the library example of the README run."""

import ast
import contextlib
import io
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest

import zetabounds
from zetabounds import cli

PUBLIC_NAMES = {
    "BoundCoefficients", "BoundCurve", "BoundParams", "CertifiedComplex",
    "DEFAULT_PARAMS", "EMConfig", "EvalPoint", "Objective", "OptResult",
    "SampleSpec", "SUPPORTED_CHECKS", "VdCParams", "VerificationReport",
    "bernoulli_number", "compensated_sum", "crossover_scan",
    "default_em_config", "exp_sum_exact", "geometric_grid", "head_sum_bound",
    "mid_tail_sum_bound", "optimize_params", "shifted_diff_maxima",
    "tail_error_bound", "theorem1_bound", "theorem2_bound", "theorem2_coeffs",
    "theorem2_parts_exact", "vdc_params_for_log_block",
    "vdc_second_derivative_bound", "verify_lemma", "verify_theorem_envelope",
    "vertex_max_bound", "weyl_differencing_rhs", "zeta_em", "zeta_prime_em",
}

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = pathlib.Path(zetabounds.__file__).resolve().parent


def test_all_names_resolve_once():
    names = zetabounds.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(zetabounds, name), name


def test_star_import_runs():
    namespace: dict = {}
    exec("from zetabounds import *", namespace)
    assert set(zetabounds.__all__) <= set(namespace)


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 36
    assert set(zetabounds.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_every_import_is_used(module):
    """A name a module imports (``from __future__`` aside) is read in that
    module; in ``__init__.py`` it is listed in ``__all__``."""
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    if module == "__init__.py":
        used = set(zetabounds.__all__)
    else:
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_every_top_level_definition_is_read():
    """A top-level ``def`` or ``class`` of ``src/`` is read by name somewhere
    in ``src/`` or listed in ``__all__``; a module's dunder hooks, which the
    interpreter calls, aside.  A piece left behind when its caller moves is
    caught here."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    read = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}:{node.name}" for module, tree in sorted(trees.items()) for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in read and node.name not in zetabounds.__all__
              and not (node.name.startswith("__") and node.name.endswith("__"))]
    assert unread == []


def test_public_table_names_each_name_once_where_it_is_defined():
    """``__init__.py`` imports nothing, so the import rule above checks nothing
    there: each entry of its table must be bound at the top level of the
    module the table names, by a def, a class or an assignment."""
    table = zetabounds._PUBLIC
    names = [name for module_names in table.values() for name in module_names]
    assert len(names) == len(set(names))
    assert set(table) == {path.stem for path in SRC.glob("*.py")} - {"__init__", "cli"}
    for module, module_names in table.items():
        defined = set()
        for node in ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        assert sorted(set(module_names) - defined) == [], module


def run_fresh(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter that imports
    this package from its source tree."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_no_submodule_and_first_use_loads_its_own():
    lines = run_fresh("""
        import sys
        import zetabounds
        def loaded():
            return sorted(m for m in sys.modules if m.startswith("zetabounds.") or m == "numpy")
        print(loaded())
        zetabounds.zeta_prime_em
        print(loaded())
        print("zeta_prime_em" in vars(zetabounds))
    """)
    assert lines == ["[]", "['numpy', 'zetabounds.numerics', 'zetabounds.zeta']", "True"]


def test_public_names_are_their_modules_attributes():
    lines = run_fresh("""
        import sys
        import zetabounds
        values = {name: getattr(zetabounds, name) for name in zetabounds.__all__}
        for module, names in zetabounds._PUBLIC.items():
            owner = sys.modules[f"zetabounds.{module}"]
            assert getattr(zetabounds, module) is owner, module
            for name in names:
                assert values[name] is getattr(owner, name), name
        print(len(values))
    """)
    assert lines == ["36"]


def test_dir_lists_public_names_and_submodules():
    listed = dir(zetabounds)
    assert {"__all__", *zetabounds.__all__, *zetabounds._PUBLIC} <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        zetabounds.no_such_name


def test_from_imports_still_work_in_a_fresh_interpreter():
    lines = run_fresh("""
        from zetabounds import cli
        from zetabounds import *
        print(cli.__name__, zeta_prime_em.__module__, verify_lemma.__module__)
    """)
    assert lines == ["zetabounds.cli zetabounds.zeta zetabounds.verify"]


def test_import_and_dir_need_no_numpy():
    lines = run_fresh("""
        import sys
        sys.modules["numpy"] = None
        import zetabounds
        print(zetabounds.__version__, "zeta_prime_em" in dir(zetabounds))
        try:
            zetabounds.zeta_prime_em
        except ImportError:
            print("ImportError")
    """)
    assert lines == [f"{zetabounds.__version__} True", "ImportError"]


# The bound path: tuning, the crossover scan and both theorems' bounds,
# printed as float.hex.  {before} runs before the package is imported.
BOUND_PATH = """
    import sys
    {before}
    import zetabounds as Z
    result = Z.optimize_params(Z.Objective.minimize_bound_at_t(1e4), budget=200)
    coeffs = Z.theorem2_coeffs(result.best)
    values = [
        result.objective_value, Z.crossover_scan(result.best, t_max=1e30),
        Z.theorem1_bound(1e4).total, Z.theorem2_bound(1e4, result.best, coeffs).total,
        *coeffs.C, *coeffs.c, *coeffs.Q,
    ]
    print(" ".join(v.hex() for v in values))
    print(sorted(m for m, v in sys.modules.items()
                 if v is not None and m.split(".")[0] in ("numpy", "zetabounds")))
"""
BOUND_PATH_MODULES = "['zetabounds', 'zetabounds.bounds', 'zetabounds.numerics', 'zetabounds.optimize']"


def test_bound_path_needs_no_numpy_and_keeps_its_bits():
    plain = run_fresh(BOUND_PATH.format(before=""))
    blocked = run_fresh(BOUND_PATH.format(before='sys.modules["numpy"] = None'))
    with_numpy = run_fresh(BOUND_PATH.format(before="import numpy"))
    assert plain[1] == blocked[1] == BOUND_PATH_MODULES  # numpy never loaded
    assert "'numpy'" in with_numpy[1]
    assert plain[0] == blocked[0] == with_numpy[0]


def test_integer_without_numpy_takes_int_and_rejects_bool():
    lines = run_fresh("""
        import sys
        sys.modules["numpy"] = None
        from zetabounds.numerics import _integer
        print(_integer("n", 3), _integer("n", 2**70) == 2**70)
        for value in (True, 3.0, "3"):
            try:
                _integer("n", value)
            except ValueError as exc:
                print(exc)
    """)
    assert lines == [
        "3 True", "n must be an integer, got True", "n must be an integer, got 3.0",
        "n must be an integer, got '3'",
    ]


def test_readme_library_example_uses_public_names():
    block = re.search(r"from zetabounds import \(([^)]*)\)", README.read_text(encoding="utf-8"))
    assert block is not None, "README has no library example"
    names = {n.strip() for n in block.group(1).split(",") if n.strip()}
    assert names
    assert names <= set(zetabounds.__all__), names - set(zetabounds.__all__)


def test_readme_runs(tmp_path, monkeypatch, capsys):
    """Every `zetabounds ...` command line of the README exits 0 and writes
    output, relative --out paths under $ZETABOUNDS_OUT; then the library
    example runs and prints the crossover it quotes."""
    text = README.read_text(encoding="utf-8")
    commands = [line.split("#")[0].split()[1:] for line in text.splitlines()
                if line.startswith("    zetabounds ")]
    assert len(commands) == 10
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    for argv in commands:
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr().out
        if "--out" in argv:
            out = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
        assert out.startswith("# ") and out.count("\n") >= 2, argv

    example = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    assert example is not None, "README has no library example"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(example.group(1), {})
    assert float(printed.getvalue().split()[-1]) == pytest.approx(19291.5, rel=1e-5)
