import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zetabounds
from zetabounds import cli
from zetabounds.bounds import DEFAULT_PARAMS, BoundParams
from zetabounds.cli import _bound_params, _build_parser, main


def run_cli(args, tmp_path, name="out.csv", env_dir=None, monkeypatch=None):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestBoundCommand:
    def test_worked_example_row(self, tmp_path):
        code, text = run_cli(["bound", "--t", "7.389056", "--theorem", "1"], tmp_path)
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("# t,thm1_total")
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(22.493, abs=1e-3)

    def test_both_theorems_at_large_t(self, tmp_path):
        code, text = run_cli(["bound", "--t", "1000"], tmp_path)
        assert code == 0
        header = text.splitlines()[0].lstrip("# ").split(",")
        row = text.strip().splitlines()[1].split(",")
        rec = dict(zip(header, row))
        assert float(rec["thm1_total"]) > 0
        assert float(rec["thm2_total"]) > 0
        assert float(rec["Q4"]) > 0

    def test_sweep_rows_ascending(self, tmp_path):
        code, text = run_cli(
            ["bound", "--t-min", "10", "--t-max", "1000", "--samples", "7",
             "--theorem", "1"],
            tmp_path,
        )
        assert code == 0
        ts = [float(line.split(",")[0]) for line in text.strip().splitlines()[1:]]
        assert ts == sorted(ts) and len(ts) == 7

    def test_usage_error_below_threshold(self, tmp_path):
        code, _ = run_cli(["bound", "--t", "5", "--theorem", "1"], tmp_path)
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bound", "--t", "1"], "t=1 below theorem-1 threshold 7.389056"),
            (["bound", "--t", "7.389", "--trace"], "t=7.389 below theorem-1 threshold 7.389056"),
            # a grid straddling e^2: the row of every point below it would be empty
            (["bound", "--t-min", "2", "--t-max", "100", "--samples", "5"],
             "t=2 below theorem-1 threshold 7.389056"),
        ],
    )
    def test_no_theorem_reaches_t_is_usage_error(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flags, params",
        [
            ([], DEFAULT_PARAMS),
            (["--k", "3", "--tau", "4", "--q", "5", "--t1", "500", "--t2", "900"],
             BoundParams(k=3.0, tau=4.0, q=5.0, t1=500.0, t2=900.0)),
        ],
    )
    def test_parameter_flags_parse_to_params(self, flags, params):
        args = _build_parser().parse_args(["bound", "--t", "1e4", *flags])
        assert _bound_params(args) == params

    def test_byte_identical_reruns(self, tmp_path):
        args = ["bound", "--t-min", "500", "--t-max", "5000", "--samples", "9"]
        _, a = run_cli(args, tmp_path, name="a.csv")
        _, b = run_cli(args, tmp_path, name="b.csv")
        assert a == b and a


class TestEvalCommand:
    def test_certified_row(self, tmp_path):
        code, text = run_cli(["eval", "--t", "50"], tmp_path)
        assert code == 0
        header = text.splitlines()[0].lstrip("# ").split(",")
        row = dict(zip(header, text.strip().splitlines()[1].split(",")))
        assert float(row["error_bound"]) < 1e-8
        mod = math.hypot(float(row["re_zeta_prime"]), float(row["im_zeta_prime"]))
        assert float(row["abs_zeta_prime"]) == pytest.approx(mod, rel=1e-12)

    def test_theorem_gate(self, tmp_path):
        code, _ = run_cli(["eval", "--t", "0.5", "--theorem", "1"], tmp_path)
        assert code == 1

    def test_seventeen_digit_roundtrip(self, tmp_path):
        _, text = run_cli(["eval", "--t", "123.456"], tmp_path)
        value = text.strip().splitlines()[1].split(",")[1]
        assert float(value) == float(format(float(value), ".17g"))

    def test_json_lines_format(self, tmp_path):
        code, text = run_cli(
            ["eval", "--t", "30", "--format", "json-lines"], tmp_path, name="o.jsonl"
        )
        assert code == 0
        rec = json.loads(text.strip())
        assert rec["schema_version"] == 1
        assert rec["kind"] == "eval"
        assert "abs_zeta_prime" in rec

    def test_unreachable_tolerance_exits_nonconverged(self, tmp_path):
        # the best truncation remainder at t=50 sits around 1e-40, so a
        # 1e-60 request cannot converge; rows are still written, but the
        # run signals non-convergence
        code, text = run_cli(["eval", "--t", "50", "--tol", "1e-60"], tmp_path)
        assert code == 3
        assert len(text.strip().splitlines()) == 2


class TestVerifyCommand:
    def test_weight_sum_check_clean_exit(self, tmp_path):
        code, text = run_cli(
            ["verify", "--lemma", "4.6", "--max-m", "1000"], tmp_path
        )
        assert code == 0
        assert "violations" in text.splitlines()[0]
        row = text.strip().splitlines()[1].split(",")
        assert row[0] == "4.6"
        assert int(row[2]) == 0

    def test_weight_sum_check_beside_a_sampled_envelope(self, tmp_path):
        # --samples sizes the envelope grid; check 4.6 still checks every M
        argv = ["verify", "--lemma", "4.6", "--max-m", "100"]
        envelope = ["--theorem", "1", "--t-max", "100", "--samples", "3"]
        code, text = run_cli(argv + envelope, tmp_path)
        assert code == 0
        _, lemma_only = run_cli(argv, tmp_path)
        _, envelope_only = run_cli(["verify", *envelope], tmp_path)
        assert text.splitlines()[1:] == lemma_only.splitlines()[1:] + envelope_only.splitlines()[1:]

    def test_vertex_check(self, tmp_path):
        code, text = run_cli(
            ["verify", "--lemma", "2.5", "--samples", "500", "--seed", "3"],
            tmp_path,
        )
        assert code == 0

    def test_theorem_envelope(self, tmp_path):
        code, text = run_cli(
            ["verify", "--theorem", "1", "--t-min", "10", "--t-max", "500",
             "--samples", "10"],
            tmp_path,
        )
        assert code == 0
        assert text.strip().splitlines()[1].startswith("theorem-1")

    def test_needs_target(self, tmp_path):
        code, _ = run_cli(["verify"], tmp_path)
        assert code == 1

    def test_unknown_lemma_usage_error(self, tmp_path):
        code, _ = run_cli(["verify", "--lemma", "7.7"], tmp_path)
        assert code == 1


class TestScanCommand:
    def test_rows_and_positive_slack(self, tmp_path):
        code, text = run_cli(
            ["scan", "--t-min", "10", "--t-max", "200", "--samples", "6",
             "--theorem", "1"],
            tmp_path,
        )
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            assert float(row[3]) > 0  # slack = bound - oracle - budget


class TestOptimizeCommand:
    def test_trace_output(self, tmp_path, capsys):
        code, text = run_cli(
            ["optimize", "--objective", "bound-at-t", "--t", "20000",
             "--budget", "80"],
            tmp_path,
        )
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("# step,k,tau,q,t1,t2,objective")
        objs = [float(line.split(",")[-1]) for line in lines[1:]]
        assert objs == sorted(objs, reverse=True)


class TestOutputRouting:
    def test_env_dir_resolution(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZETABOUNDS_OUT", str(tmp_path))
        code = main(["bound", "--t", "1000", "--out", "routed.csv"])
        assert code == 0
        assert (tmp_path / "routed.csv").exists()

    def test_stdout_default(self, capsys):
        code = main(["bound", "--t", "1000", "--theorem", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# t,")

    def test_bad_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1


# One library call per subcommand, where the CLI reads it (eval, verify and
# scan import theirs when they run), and an argv that reaches it.
LIBRARY_CALLS = {
    "eval": ("zetabounds.zeta.zeta_prime_em", ["eval", "--t", "50"]),
    "bound": ("zetabounds.cli.theorem1_bound", ["bound", "--t", "1e4"]),
    "verify": ("zetabounds.verify.verify_lemma", ["verify", "--lemma", "2.1", "--samples", "2"]),
    "optimize": ("zetabounds.cli.optimize_params", ["optimize", "--budget", "10"]),
    "scan": ("zetabounds.verify.envelope_points", ["scan", "--t", "1e3", "--theorem", "1"]),
}


@pytest.mark.parametrize("command", sorted(LIBRARY_CALLS))
def test_library_value_error_is_one_error_line(command, monkeypatch, capsys):
    # main alone turns a ValueError into a usage error, whichever call raised it
    name, argv = LIBRARY_CALLS[command]

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(name, boom)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"


def _module_env():
    env = dict(os.environ)
    src = str(pathlib.Path(zetabounds.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", "zetabounds.cli", *argv],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )


def test_module_entry_point_runs():
    result = _run_module("eval", "--t", "50")
    assert result.returncode == 0, result.stderr
    golden = pathlib.Path(__file__).with_name("golden") / "eval_t50.stdout"
    assert result.stdout == golden.read_text(encoding="utf-8")
    assert result.stderr == ""


def test_module_entry_point_usage_error():
    result = _run_module("eval", "--t", "nan")
    assert result.returncode == 1
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert "Traceback" not in result.stderr


# Runs each argv of a JSON list through main in a fresh interpreter, after
# {before}; prints one JSON record per argv: stdout, stderr, exit code and
# the package's modules and numpy, where loaded by then.
FRESH_MAIN = """
import contextlib, io, json, sys
{before}
from zetabounds.cli import main
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    loaded = sorted(m for m, v in sys.modules.items()
                    if v is not None and (m == "numpy" or m.split(".")[0] == "zetabounds"))
    print(json.dumps({{"stdout": out.getvalue(), "stderr": err.getvalue(),
                      "exit": f"{{code}}\\n", "modules": loaded}}))
"""
# What bound and optimize load, and what verify and scan load: every module.
_BOUND_PATH = ["zetabounds", "zetabounds.bounds", "zetabounds.cli", "zetabounds.numerics",
               "zetabounds.optimize"]
_EVERY_MODULE = sorted([*_BOUND_PATH, "numpy", "zetabounds.expsums", "zetabounds.verify",
                        "zetabounds.zeta"])


def _run_fresh_main(argvs, before=""):
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_MAIN.format(before=before), json.dumps(argvs)],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_bound_and_optimize_goldens_replay_without_numpy():
    from test_golden import CASES, GOLDEN_DIR

    names = [name for name in CASES if name.startswith(("bound_", "optimize_"))]
    assert len(names) == 7
    records = _run_fresh_main([CASES[n] for n in names], 'sys.modules["numpy"] = None')
    for name, record in zip(names, records):
        assert record["modules"] == _BOUND_PATH, name
        for stream in ("stdout", "stderr", "exit"):
            golden = (GOLDEN_DIR / f"{name}.{stream}").read_text(encoding="utf-8")
            assert record[stream] == golden, (name, stream)


# Each subcommand, an argv that runs it, and the modules loaded once it has
# run: eval, verify and scan load what they call when they run.
SUBCOMMAND_MODULES = {
    "bound": (["bound", "--t", "1e4"], _BOUND_PATH),
    "optimize": (["optimize", "--objective", "bound-at-t", "--t", "1e4", "--crossover"],
                 _BOUND_PATH),
    "eval": (["eval", "--t", "1e4"], sorted([*_BOUND_PATH, "numpy", "zetabounds.zeta"])),
    "verify": (["verify", "--lemma", "4.6", "--max-m", "100"], _EVERY_MODULE),
    "scan": (["scan", "--t", "1e3", "--theorem", "1"], _EVERY_MODULE),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_each_subcommand_loads_only_what_it_calls(command):
    argv, modules = SUBCOMMAND_MODULES[command]
    [record] = _run_fresh_main([argv])
    assert record["exit"] == "0\n", record["stderr"]
    assert record["modules"] == modules


def test_verify_help_lists_every_check_id(capsys):
    from zetabounds.verify import SUPPORTED_CHECKS

    assert main(["verify", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"check id ({', '.join(SUPPORTED_CHECKS)}) or 'all'" in text


def test_closed_pipe_ends_quietly():
    # `| head -1`: the reader leaves after one line, long before the rows
    # (about 320 kB) are written
    argv = ["bound", "--t-min", "500", "--t-max", "1e5", "--samples", "1000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "zetabounds.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    assert proc.stdout.readline().startswith(b"# t,")
    proc.stdout.close()
    assert proc.wait(timeout=120) == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_overflowing_weighted_sums_are_infeasible_points():
    # Q1 and Q3 weighted by 1.5e307 overflow the sum at some points only;
    # those count as infeasible, not as non-convergence (exit 3)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(OVERFLOW_SOME)
    assert code == 0, err.getvalue()
    assert math.isfinite(float(out.getvalue().splitlines()[-1].split(",")[-1]))


# Weights under which every weighted Q sum overflows, or only some do.
OVERFLOW_ALL = ["optimize", "--objective", "weighted", "--weights",
                "1e308,1e308,1e308,1e308,1e308,1e308", "--budget", "10"]
OVERFLOW_SOME = ["optimize", "--objective", "weighted", "--weights",
                 "1.5e307,0,1.5e307,0,0,0", "--budget", "10"]

# The message of an input error, where a test pins it.
ERROR_MESSAGES = {
    "bound --t 1e4 --k 1e200": "C1 is not finite",
    "optimize --objective bound-at-t --t 5": "the objective's t must be >= e^6, got 5.0",
    " ".join(OVERFLOW_ALL): "the objective is not finite at any point the scan evaluated",
    "verify --theorem 1 --t-min 2e4": "need 0 < t_min <= t_max",
    "verify --theorem 2 --t-min 500 --t-max 100": "need 0 < t_min <= t_max",
    "verify --theorem 1 --t-max 2e5": "exceeds the certified ceiling",
    "verify --lemma 4.6 --max-m 100000001": "check 4.6 needs 1 <= max M <= 100000000",
    "verify --lemma 2.2 --samples 3": "check 2.2 splits its samples over 4 variants",
    "verify --lemma 2.1 --seed -1": "seed must be a non-negative integer",
    # verify sweeps a range; a single --t is not one of its options
    "verify --theorem 1 --t 50 --samples 3": "ambiguous option: --t could match --t-min",
    # optimize rejects an option that the chosen objective would ignore
    "optimize --objective q1 --t 5": "--t applies only to --objective bound-at-t",
    "optimize --objective weighted --t 1e4": "--t applies only to --objective bound-at-t",
    "optimize --weights 1,1,1,1,1,1": "--weights applies only to --objective weighted",
    "optimize --objective q1 --weights 0,0,0,0,0,0":
        "--weights applies only to --objective weighted",
    "optimize --crossover-t-max 1": "--crossover-t-max applies only with --crossover",
    "optimize --crossover-t-max 1e30 --budget 10":
        "--crossover-t-max applies only with --crossover",
    # tol must be finite and positive
    "eval --t 50 --tol nan": "tol must be finite and positive",
    "eval --t 50 --tol inf": "tol must be finite and positive",
    "eval --t 50 --tol 0": "tol must be finite and positive",
    "eval --t 50 --tol -1": "tol must be finite and positive",
    # verify, scan and bound reject an option that their run would ignore
    "verify --lemma 2.1 --samples 2 --max-m 5": "--max-m applies only to check 4.6",
    "verify --lemma 4.3 --samples 2 --max-m 5": "--max-m applies only to check 4.6",
    "verify --lemma 2.1 --samples 2 --t-min 100":
        "--t-min and --t-max apply only with --theorem",
    "verify --theorem 1 --samples 2 --seed 5": "--seed applies only with --lemma",
    # check 4.6 checks every M of its range, so it takes no count or seed
    "verify --lemma 4.6 --max-m 10 --samples 5":
        "--samples does not apply to check 4.6, which checks every M",
    "verify --lemma 4.6 --max-m 10 --seed 3":
        "--seed does not apply to check 4.6, which checks every M",
    "verify --lemma 4.6 --max-m 10 --theorem 1 --samples 2 --seed 3":
        "--seed does not apply to check 4.6, which checks every M",
    "verify --lemma 2.1 --samples 2 --k 3": "--k applies only to theorem 2",
    "verify --theorem 1 --samples 2 --k 3": "--k applies only to theorem 2",
    "scan --theorem 1 --t 100 --k 3": "--k applies only to theorem 2",
    "bound --t 100 --theorem 1 --k 3": "--k applies only to theorem 2",
    # no t of the grid reaches e^6, so no theorem-2 figure is printed
    "bound --t 100 --k 3": "--k applies only to theorem 2",
    # 1e5 / 5e-324 overflows; the grid's middle point was inf, reported as
    # above the certified ceiling
    "eval --t-min 5e-324 --t-max 1e5 --samples 3": "grid ends must have a finite, normal ratio",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--t", "nan"],
        ["bound", "--t", "nan"],
        ["bound", "--t", "1e400"],
        ["bound", "--t", "1e4", "--k", "1e200"],
        ["scan", "--t", "inf", "--theorem", "1"],
        ["bound", "--t-min", "500", "--t-max", "1e4", "--samples", "0"],
        ["verify", "--lemma", "2.5", "--samples", "0"],
        ["verify", "--lemma", "4.6", "--max-m", "0"],
        ["verify", "--lemma", "4.6", "--max-m", "100000001"],
        ["verify", "--lemma", "2.2", "--samples", "3"],
        ["verify", "--lemma", "2.1", "--seed", "-1"],
        ["optimize", "--objective", "weighted", "--weights", "a,b"],
        ["eval", "--t", "50", "--seed", "1"],
        ["eval", "--t", "50", "--out", "{missing}"],
        ["optimize", "--crossover", "--crossover-t-max", "1"],
        ["optimize", "--crossover", "--crossover-t-max", "nan"],
        ["optimize", "--objective", "bound-at-t", "--t", "5"],
        ["verify", "--theorem", "1", "--t-min", "2e4"],
        ["verify", "--theorem", "2", "--t-min", "500", "--t-max", "100"],
        ["verify", "--theorem", "1", "--t-max", "2e5"],
        ["verify", "--theorem", "1", "--t", "50", "--samples", "3"],
        OVERFLOW_ALL,
        ["optimize", "--objective", "q1", "--t", "5"],
        ["optimize", "--objective", "weighted", "--t", "1e4"],
        ["optimize", "--weights", "1,1,1,1,1,1"],
        ["optimize", "--objective", "q1", "--weights", "0,0,0,0,0,0"],
        ["optimize", "--crossover-t-max", "1"],
        ["optimize", "--crossover-t-max", "1e30", "--budget", "10"],
        *(["eval", "--t", "50", "--tol", tol] for tol in ("nan", "inf", "0", "-1")),
        ["verify", "--lemma", "2.1", "--samples", "2", "--max-m", "5"],
        ["verify", "--lemma", "4.3", "--samples", "2", "--max-m", "5"],
        ["verify", "--lemma", "2.1", "--samples", "2", "--t-min", "100"],
        ["verify", "--theorem", "1", "--samples", "2", "--seed", "5"],
        ["verify", "--lemma", "4.6", "--max-m", "10", "--samples", "5"],
        ["verify", "--lemma", "4.6", "--max-m", "10", "--seed", "3"],
        ["verify", "--lemma", "4.6", "--max-m", "10", "--theorem", "1", "--samples", "2",
         "--seed", "3"],
        ["verify", "--lemma", "2.1", "--samples", "2", "--k", "3"],
        ["verify", "--theorem", "1", "--samples", "2", "--k", "3"],
        ["scan", "--theorem", "1", "--t", "100", "--k", "3"],
        ["bound", "--t", "100", "--theorem", "1", "--k", "3"],
        ["bound", "--t", "100", "--k", "3"],
        ["eval", "--t-min", "5e-324", "--t-max", "1e5", "--samples", "3"],
    ],
)
def test_input_error_is_one_error_line(argv, tmp_path, capsys):
    argv = [a.format(missing=tmp_path / "missing" / "x.csv") for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert ERROR_MESSAGES.get(" ".join(argv), "") in lines[0]


# Hostile spellings of a number: non-finite, zero, negative, overflowing,
# above the 1e5 ceiling, plus a few valid values so that runs get past parsing.
HOSTILE_T = ["nan", "inf", "-inf", "0", "-7", "1e400", "2e5", "1e300", "10", "1e4", "1e5"]
HOSTILE_COUNT = ["nan", "inf", "0", "-3", "1e400", "2.5", "1", "3"]
HOSTILE_FLOAT = ["nan", "inf", "-inf", "0", "-1", "1e400", "1e200", "3"]
PARAM_FLAGS = ["--k", "--tau", "--q", "--t1", "--t2"]
HOSTILE_WEIGHTS = [
    "1e308,1e308,1e308,1e308,1e308,1e308", "1.5e307,0,1.5e307,0,0,0", "1e400,1,1,1,1,1",
    "nan,1,1,1,1,1", "0,0,0,0,0,0", "1,-1,0,0,0,0", "1,1,1", "1,0,0,0,0,0",
]


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["eval", "bound", "scan", "optimize", "verify"]))
    argv = [command]
    if command == "verify":
        # the envelope grid defaults to 50 points, so a count is always given
        argv += ["--theorem", draw(st.sampled_from(["1", "2", "0"]))]
        for flag in ("--t-min", "--t-max"):
            if draw(st.booleans()):
                argv += [flag, draw(st.sampled_from(HOSTILE_T))]
        argv += ["--samples", draw(st.sampled_from(HOSTILE_COUNT))]
        if draw(st.booleans()):
            argv += [draw(st.sampled_from(PARAM_FLAGS)), draw(st.sampled_from(HOSTILE_FLOAT))]
        return argv
    if command == "optimize":
        # budgets of at most 12 evaluations keep a valid run near 1 ms
        argv += ["--budget", draw(st.sampled_from(["nan", "0", "-3", "5", "10", "12"]))]
        if draw(st.booleans()):
            argv += ["--t", draw(st.sampled_from(HOSTILE_T))]
        if draw(st.booleans()):
            argv += ["--crossover"]
        if draw(st.booleans()):
            argv += ["--crossover-t-max", draw(st.sampled_from(HOSTILE_T))]
        if draw(st.booleans()):
            argv += ["--objective", "weighted", "--weights", draw(st.sampled_from(HOSTILE_WEIGHTS))]
        return argv
    span = draw(st.sampled_from(["t", "range", "none"]))
    if span == "t":
        argv += ["--t", draw(st.sampled_from(HOSTILE_T))]
    elif span == "range":
        argv += ["--t-min", draw(st.sampled_from(HOSTILE_T)),
                 "--t-max", draw(st.sampled_from(HOSTILE_T))]
    # a range always gets a count, so that a valid run stays a few points long
    if span == "range" or draw(st.booleans()):
        argv += ["--samples", draw(st.sampled_from(HOSTILE_COUNT))]
    if command == "eval" and draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(HOSTILE_FLOAT))]
    if command != "eval" and draw(st.booleans()):
        argv += [draw(st.sampled_from(PARAM_FLAGS)), draw(st.sampled_from(HOSTILE_FLOAT))]
    if command != "bound" and draw(st.booleans()):
        argv += ["--theorem", draw(st.sampled_from(["1", "2", "0"]))]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=cli_argv())
# Tracebacks that only a few drawn optimize argv lists reach; pinned so
# that every seed runs them.
@example(argv=["optimize", "--crossover", "--crossover-t-max", "1"])
@example(argv=["optimize", "--crossover", "--crossover-t-max", "nan"])
@example(argv=["optimize", "--objective", "bound-at-t", "--t", "5"])
@example(argv=OVERFLOW_ALL)
@example(argv=OVERFLOW_SOME)
def test_hostile_numbers_end_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())


def assert_same_output(implicit, explicit):
    """Both argv lists exit 0 with the same stdout and stderr."""
    outputs = []
    for argv in (implicit, explicit):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0, err.getvalue()
        outputs.append((out.getvalue(), err.getvalue()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "implicit, explicit",
    [
        (["optimize", "--objective", "weighted", "--budget", "10"],
         ["optimize", "--objective", "weighted", "--weights", "1,1,1,1,1,1", "--budget", "10"]),
        (["optimize", "--crossover", "--budget", "10"],
         ["optimize", "--crossover", "--crossover-t-max", "1e30", "--budget", "10"]),
    ],
)
def test_optimize_defaults_apply_only_where_used(implicit, explicit):
    # --weights and --crossover-t-max default to None so that a stray one
    # can be rejected; where they apply, their documented defaults hold
    assert_same_output(implicit, explicit)


# Every theorem-2 parameter flag, spelled at its default.
DEFAULT_PARAM_FLAGS = [
    arg for name in ("k", "tau", "q", "t1", "t2")
    for arg in (f"--{name}", repr(getattr(DEFAULT_PARAMS, name)))
]


@pytest.mark.parametrize(
    "implicit, explicit",
    [
        (["verify", "--lemma", "4.6"], ["verify", "--lemma", "4.6", "--max-m", "10000"]),
        (["verify", "--lemma", "2.1", "--samples", "2"],
         ["verify", "--lemma", "2.1", "--samples", "2", "--seed", "0"]),
        (["verify", "--theorem", "2", "--samples", "2"],
         ["verify", "--theorem", "2", "--samples", "2", *DEFAULT_PARAM_FLAGS]),
        (["scan", "--theorem", "2", "--t", "1e3"],
         ["scan", "--theorem", "2", "--t", "1e3", *DEFAULT_PARAM_FLAGS]),
        (["bound", "--t", "1e4", "--trace"],
         ["bound", "--t", "1e4", "--trace", *DEFAULT_PARAM_FLAGS]),
    ],
)
def test_verify_scan_bound_defaults_apply_only_where_used(implicit, explicit):
    # --max-m, --seed and the parameter flags default to None so that a
    # stray one can be rejected; where they apply, their documented
    # defaults hold
    assert_same_output(implicit, explicit)
