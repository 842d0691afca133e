"""Byte-for-byte golden outputs of representative CLI commands.

Each case stores stdout, stderr and the exit code under tests/golden/.
A change that moves any printed digit must regenerate the files and
explain the diff.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import pathlib

import pytest

from zetabounds.cli import main

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")

CASES = {
    "eval_t50": ["eval", "--t", "50"],
    "eval_decades": ["eval", "--t-min", "10", "--t-max", "1e5", "--samples", "9"],
    "bound_theorem1_e2": ["bound", "--t", "7.389056", "--theorem", "1"],
    "bound_sweep": ["bound", "--t-min", "500", "--t-max", "1e5", "--samples", "100"],
    "bound_trace": ["bound", "--t", "1e4", "--trace"],
    # t1 above e^6 exercises the absorb23 crude-branch padding
    "bound_trace_padded_json": [
        "bound", "--t", "2e4", "--trace", "--format", "json-lines",
        "--k", "3", "--tau", "1.5", "--q", "3", "--t1", "2000", "--t2", "800",
    ],
    "optimize_crossover": [
        "optimize", "--objective", "bound-at-t", "--t", "1e4", "--budget", "600",
        "--crossover",
    ],
    "optimize_q1_crossover": [
        "optimize", "--objective", "q1", "--budget", "600", "--crossover",
    ],
    "optimize_weighted": [
        "optimize", "--objective", "weighted", "--weights", "0.3,0.5,0.2,0.9,0.1,0.4",
        "--budget", "600",
    ],
    "scan_theorem2": ["scan", "--theorem", "2", "--t-min", "500", "--t-max", "1e4",
                      "--samples", "12"],
    "verify_theorem2": ["verify", "--theorem", "2", "--t-min", "500", "--t-max", "1e4",
                        "--samples", "12"],
    "verify_lemma_all": ["verify", "--lemma", "all", "--samples", "20", "--max-m", "500",
                         "--format", "json-lines"],
    "verify_lemma_46": ["verify", "--lemma", "4.6", "--max-m", "10000"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": f"{code}\n"}


def _path(name, stream):
    return GOLDEN_DIR / f"{name}.{stream}"


def first_difference(expected, got):
    """Where two texts first differ, golden line next to the new one."""
    pairs = itertools.zip_longest(
        expected.splitlines(), got.splitlines(), fillvalue="<end of file>"
    )
    for number, (old, new) in enumerate(pairs, 1):
        if old != new:
            return f"line {number}:\n  golden: {old!r}\n  now:    {new!r}"
    return "the texts differ only in their line endings"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    got = run(CASES[name])
    for stream, text in got.items():
        expected = _path(name, stream).read_text(encoding="utf-8")
        assert text == expected, (
            f"{name}.{stream} differs from its golden file at "
            + first_difference(expected, text)
        )


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        for stream, text in run(argv).items():
            with open(_path(case, stream), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
