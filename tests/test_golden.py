"""Byte-for-byte golden outputs of representative CLI commands.

Each case stores stdout, stderr and the exit code under tests/golden/.
A change that moves any printed digit must regenerate the files and
explain the diff.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import itertools
import json
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
    # one block past WEIGHT_INT64_MAX, where relations 3 and 4 leave int64
    "verify_lemma_46_past_int64": ["verify", "--lemma", "4.6", "--max-m", "270000"],
    # enough samples that the quadrature checks integrate several blocks
    "verify_lemma_21_blocks": ["verify", "--lemma", "2.1", "--samples", "1100", "--seed", "3"],
    "verify_lemma_22_blocks": ["verify", "--lemma", "2.2", "--samples", "2000", "--seed", "3"],
    # every phase kind at M up to 20, so the shifted sums run many rows
    "verify_lemma_43_rows": ["verify", "--lemma", "4.3", "--samples", "600", "--seed", "3"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": f"{code}\n"}


def _path(name, stream):
    return GOLDEN_DIR / f"{name}.{stream}"


def table_fields(text):
    """Each value of a CSV table (a '# ' header, then one row a line) or of
    JSON lines, keyed by (row key, column).  The row key is a row's first
    column, or a record's check_id or t.  None for any other text, or for
    a table whose row keys repeat."""
    lines = text.splitlines()
    fields = {}
    try:
        if lines and lines[0].startswith("# ") and "," in lines[0]:
            columns = lines[0][2:].split(",")
            for line in lines[1:]:
                values = line.split(",", len(columns) - 1)
                if len(values) != len(columns):
                    return None
                fields.update({(values[0], col): v for col, v in zip(columns, values)})
            rows = len(lines) - 1
        else:
            for line in lines:
                record = json.loads(line)
                key = record.get("check_id", record.get("t"))
                fields.update({(key, col): json.dumps(v) for col, v in record.items()})
            rows = len(lines)
    except (ValueError, AttributeError):
        return None
    return fields if len({key for key, _ in fields}) == rows else None


def moved_fields(expected, got):
    """Each field that differs, as 'row key, column: old -> new'; for texts
    that are not tables, their first differing line."""
    old, new = table_fields(expected), table_fields(got)
    if old is None or new is None:
        return [first_difference(expected, got)]
    moved = [
        f"{key}, {col}: {old.get((key, col), '<absent>')} -> {new.get((key, col), '<absent>')}"
        for key, col in dict.fromkeys([*old, *new])
        if old.get((key, col)) != new.get((key, col))
    ]
    return moved or [first_difference(expected, got)]


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
    changes = []
    for stream, text in run(CASES[name]).items():
        expected = _path(name, stream).read_text(encoding="utf-8")
        if text != expected:
            changes += [f"{name}.{stream} {change}" for change in moved_fields(expected, text)]
    if changes:
        pytest.fail("differs from the golden files:\n" + "\n".join(changes), pytrace=False)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        for stream, text in run(argv).items():
            with open(_path(case, stream), "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
