"""The benchmark's own calls, run once each in the test suite.

``perfbench/workloads.py`` drives the package through its public names
(``default_em_config(point, for_derivative=True)``, ``SampleSpec(ranges=
...)``, ``Objective.evaluate`` and more).  Each workload's first tiny op
runs here through the workload's own ``run`` and ``check``, so a change
that breaks one of those calls fails the tests, not the benchmark run.
"""

from pathlib import Path
from types import ModuleType

import pytest

import zetabounds

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads() -> ModuleType:
    # executed from source, so no bytecode cache is written next to it
    module = ModuleType("perfbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    return module


WORKLOADS = _workloads().WORKLOADS


def test_every_workload_is_covered():
    assert sorted(WORKLOADS) == ["envelope_sweep", "eval_sweep", "lemma_sweep", "tune"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_tiny_op_runs_and_checks(name):
    workload = WORKLOADS[name]
    op = workload.ops(0, 0, True)[0]
    result = workload.run(zetabounds, op)
    assert workload.check(zetabounds, op, result) is None
    assert workload.record(op, result)
