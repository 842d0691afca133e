"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is budgeted to finish in a few minutes on a
laptop-class machine.
"""

import math

import numpy as np
import pytest

from zetabounds.bounds import (
    E2,
    E6,
    BoundParams,
    geom_sum_bounds,
    tail_error_bound,
    theorem1_bound,
    theorem2_bound,
    theorem2_coeffs,
    theorem2_parts_exact,
)
from zetabounds.optimize import Objective, crossover_scan, optimize_params
from zetabounds.verify import SampleSpec, verify_lemma, verify_theorem_envelope
from zetabounds.zeta import EMConfig, EvalPoint, default_em_config, zeta_em, zeta_prime_em

from reference_blocks import block_scheme, closed_form_at, geom_sums_exact
from reference_oracle import default_eta_terms, eta_oracle

P0 = BoundParams(k=2.0, tau=2.0, q=2.0, t1=math.exp(3.0), t2=math.exp(6.0))


def _pass(num: int, msg: str) -> None:
    print(f"ACCEPTANCE {num:02d}: PASS - {msg}")


def test_criterion_01_calibration():
    s2 = EvalPoint(t=0.0, sigma=2.0)
    z = zeta_em(s2, EMConfig(N=50, v=5))
    assert abs(z.value - math.pi**2 / 6.0) < 1e-10

    # direct-summation oracle for the derivative at s=2 (1e6 terms plus a
    # midpoint-corrected integral tail; remainder far below 1e-10)
    n = np.arange(1, 10**6 + 1, dtype=np.float64)
    big_n = float(n[-1])
    partial = float(np.sum(np.log(n) / n**2))
    tail = (math.log(big_n) + 1.0) / big_n - math.log(big_n) / (2.0 * big_n**2)
    oracle = -(partial + tail)
    assert oracle == pytest.approx(-0.9375482543, abs=1e-9)

    zp = zeta_prime_em(s2, EMConfig(N=50, v=5))
    assert abs(zp.value - oracle) < 1e-8
    _pass(1, f"zeta(2) diff {abs(z.value - math.pi**2 / 6):.2e}, "
             f"zeta'(2) diff {abs(zp.value - oracle):.2e}")


def test_criterion_02_cross_oracle_agreement():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        t = math.exp(float(rng.uniform(0.0, math.log(1e4))))
        point = EvalPoint(t=t)
        em = zeta_em(point, default_em_config(point))
        eta = eta_oracle(point, default_eta_terms(t))
        diff = abs(em.value - eta.value)
        budget = em.error_bound + eta.error_bound
        assert diff <= budget, (t, diff, budget)
        worst = max(worst, diff / budget)
    _pass(2, f"100 points t in [1, 1e4]; worst diff/budget {worst:.3f}")


def test_criterion_03_theorem1_envelope():
    report = verify_theorem_envelope(1, (E2, 1e5), 500)
    assert report.samples == 500
    assert report.violations == 0
    assert report.min_slack > report.error_budget_used
    _pass(3, f"500 samples, 0 violations, min slack {report.min_slack:.3f} "
             f"(budget {report.error_budget_used:.2e})")


def test_criterion_04_theorem1_closed_form():
    total = theorem1_bound(E2).total
    assert total == pytest.approx(22.493, abs=0.001)
    _pass(4, f"theorem1_bound(e^2) = {total:.6f}")


def test_criterion_05_tail_bound_linear_forms():
    for t in np.geomspace(E2, 1e6, 600):
        assert tail_error_bound(float(t)) <= 4.455 + 6.047 * math.log(t), t
    for t in np.geomspace(E6, 1e6, 300):
        assert tail_error_bound(float(t)) <= 4.008 + 6.001 * math.log(t), t
    _pass(5, "tail remainder below both linear forms on their grids")


def test_criterion_06_mid_tail_envelope():
    report = verify_lemma("2.4", SampleSpec(samples=50, seed=11))
    assert report.samples == 50
    assert report.violations == 0
    _pass(6, f"50 Euler-Maclaurin range sums over t in [e^2, 1e8], 0 violations, "
             f"min slack {report.min_slack:.3f}")


def test_criterion_07_curvature_envelope():
    report = verify_lemma("4.1", SampleSpec(samples=200, seed=12))
    assert report.samples == 200
    assert report.violations == 0
    _pass(7, f"200 random blocks, 0 violations, min slack {report.min_slack:.3f}")


def test_criterion_08_differencing_and_weight_sums():
    report = verify_lemma("4.3", SampleSpec(samples=100, seed=13))
    assert report.samples == 100
    assert report.violations == 0
    ws = verify_lemma("4.6", SampleSpec(ranges={"M": (1, 10**4)}))
    assert ws.violations == 0
    assert ws.samples == 4 * 10**4
    assert "strict inequality" in ws.notes
    _pass(8, f"differencing 0/100 violations; weight sums 0/{ws.samples} "
             "with strict relations 3-4 noted")


def test_criterion_09_vertex_bound():
    report = verify_lemma("2.5", SampleSpec(samples=10**4, seed=14))
    assert report.samples == 10**4
    assert report.violations == 0
    _pass(9, "10^4 instances (n <= 8), 0 violations")


def test_criterion_10_theorem2_assembly():
    coeffs = theorem2_coeffs(P0)
    assert all(math.isfinite(q) and q > 0 for q in coeffs.Q)

    rng = np.random.default_rng(15)
    for t in np.exp(rng.uniform(6.0, math.log(1e5), size=50)):
        parts = theorem2_parts_exact(float(t), P0)
        assert theorem2_bound(float(t), P0, coeffs).total >= sum(parts.values()) * (
            1 - 1e-12
        ), t

    report = verify_theorem_envelope(2, (E6, 1e5), 200, P0)
    assert report.samples == 200
    assert report.violations == 0
    assert report.min_slack > report.error_budget_used
    _pass(10, f"Q = {tuple(round(q, 4) for q in coeffs.Q)}; dominance at 50 t; "
              f"envelope 0/200 violations, min slack {report.min_slack:.1f}")


def test_criterion_11_geometric_closed_forms():
    rng = np.random.default_rng(16)
    checked = 0
    for _ in range(100):
        t = float(np.exp(rng.uniform(math.log(500.0), math.log(1e6))))
        ratio = float(rng.uniform(1.05, 6.0))
        for alpha3, upper3 in ((2, 3), (1, 2)):
            scheme = block_scheme(t, alpha3 / 3.0, ratio, upper3 / 3.0)
            exact = geom_sums_exact(scheme)
            g = geom_sum_bounds(alpha3, upper3, ratio)
            for name, rows in g.items():
                e_val, b_val = exact[name], closed_form_at(rows, t)
                assert e_val <= b_val + 1e-9 * (1.0 + abs(b_val)), (t, ratio, alpha3)
                checked += 1
    _pass(11, f"{checked} closed-form dominance comparisons, 0 violations")


def test_criterion_12_optimizer_and_crossover():
    obj = Objective.minimize_bound_at_t(1e4)
    result = optimize_params(obj, budget=600)
    at_default = obj.evaluate(P0)
    assert result.objective_value <= at_default

    t_star = crossover_scan(P0, t_max=1e300)
    assert t_star is not None
    coeffs = theorem2_coeffs(P0)

    def beats(t):
        return theorem2_bound(t, P0, coeffs).total < theorem1_bound(t).total

    # both-sided certification at +-1%
    assert beats(t_star)
    assert beats(t_star * 1.01)
    assert not beats(t_star / 1.01)
    _pass(12, f"optimized {result.objective_value:.1f} <= default {at_default:.1f}; "
              f"crossover t* = {t_star:.1f} certified")
