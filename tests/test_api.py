"""The package's public names: ``__all__`` is exactly what ``import *`` gives;
every name a module imports is used; and every command and the library
example of the README run."""

import ast
import contextlib
import io
import pathlib
import re

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
