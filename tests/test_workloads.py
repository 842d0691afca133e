"""The benchmark's own calls, run once each in the test suite.

``perfbench/workloads.py`` drives the package through its public names
(``default_em_config(point, for_derivative=True)``, ``SampleSpec(ranges=
...)``, ``Objective.evaluate`` and more).  Each workload's first tiny op
runs here through the workload's own ``run`` and ``check``, so a change
that breaks one of those calls fails the tests, not the benchmark run.
The tracer of ``perfbench/tracing.py`` is installed on the package too, so a
function that moves away from a site it wraps fails here, not as a silent
zero in a traced run.
"""

from pathlib import Path
from types import ModuleType

import pytest

import zetabounds

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _from_source(name: str) -> ModuleType:
    # executed from source, so no bytecode cache is written next to it
    path = PERFBENCH / f"{name}.py"
    module = ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _from_source("workloads").WORKLOADS

# Sites the tracer names that no longer exist: the quadrature, oracle and
# summation functions that were replaced or renamed before this list was
# taken.  It may shrink, never grow.
STALE_TRACER_SITES = {
    "zetabounds.expsums.compensated_complex_sum",
    "zetabounds.expsums.log_dirichlet_sum",
    "zetabounds.expsums.weight_sums",
    "zetabounds.numerics.compensated_complex_sum",
    "zetabounds.numerics.integrate_adaptive",
    "zetabounds.verify.integrate_adaptive",
    "zetabounds.verify.log_dirichlet_sum",
    "zetabounds.verify.weight_sums",
    "zetabounds.verify.zeta_prime_oracle",
    "zetabounds.zeta.compensated_complex_sum",
    "zetabounds.zeta.eta_oracle",
    "zetabounds.zeta.zeta_prime_oracle",
}


def test_every_workload_is_covered():
    assert sorted(WORKLOADS) == ["envelope_sweep", "eval_sweep", "lemma_sweep", "tune"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_tiny_op_runs_and_checks(name):
    workload = WORKLOADS[name]
    op = workload.ops(0, 0, True)[0]
    result = workload.run(zetabounds, op)
    assert workload.check(zetabounds, op, result) is None
    assert workload.record(op, result)


def test_tracer_finds_no_new_missing_site():
    tracer = _from_source("tracing").Tracer()
    originals = {name: getattr(zetabounds.optimize, name)
                 for name in ("optimize_params", "crossover_scan", "theorem2_bound", "theorem2_coeffs")}
    tracer.install(zetabounds, lambda op: 0)
    try:
        assert all(getattr(zetabounds.optimize, name) is not fn for name, fn in originals.items())
    finally:
        tracer.uninstall()
    assert tracer.missing <= STALE_TRACER_SITES, sorted(tracer.missing - STALE_TRACER_SITES)
    assert all(getattr(zetabounds.optimize, name) is fn for name, fn in originals.items())
