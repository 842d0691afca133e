import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from zetabounds.bounds import (
    E2,
    E3,
    E6,
    BoundCurve,
    BoundParams,
    BLOCK_13,
    BLOCK_23,
    TAIL_REMAINDER,
    block_bound,
    collect,
    crude_bound,
    geom_sum_bounds,
    head_sum_bound,
    mid_tail_sum_bound,
    q_polynomial,
    tail_error_bound,
    theorem1_bound,
    theorem2_bound,
    theorem2_coeffs,
    theorem2_parts_exact,
)
from zetabounds.optimize import DEFAULT_RANGES, PARAM_ORDER

from reference_assembly import theorem2_coeffs_by_puts
from reference_blocks import (
    block13_per_block_bound,
    block23_per_block_bound,
    block_scheme,
    geom_sums_exact,
    closed_form_at,
    resummed,
)
from reference_sums import log_dirichlet_sum

P0 = BoundParams()


class TestTailErrorBound:
    def test_value_at_e2(self):
        got = tail_error_bound(E2)
        assert got == pytest.approx(16.548, abs=1e-3)
        assert got <= 4.455 + 6.047 * 2.0

    def test_linear_forms_dominate(self):
        for t in np.geomspace(E2, 1e6, 400):
            assert tail_error_bound(t) <= 4.455 + 6.047 * math.log(t)
        for t in np.geomspace(E6, 1e6, 200):
            assert tail_error_bound(t) <= 4.008 + 6.001 * math.log(t)

    def test_asymptotic_ratio(self):
        # sqrt((4t^2+1)/(t^2-1)) -> 2 doubles one of the log terms, so the
        # closed form behaves like 6 log t and value/(2 log t) -> 3 (this is
        # what the 6.047 log t linear form reflects)
        ratios = [tail_error_bound(t) / (2 * math.log(t)) for t in (1e12, 1e50, 1e300)]
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[2] == pytest.approx(3.0, abs=5e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_error_bound(1.0)
        with pytest.raises(ValueError):
            tail_error_bound(0.5)


class TestMidTailBound:
    def test_value_at_e2(self):
        assert mid_tail_sum_bound(E2) == pytest.approx(5.944)

    def test_direct_sum_envelope(self):
        # oracle = exact summation over (t, t^2], t = e^2 (about 5.4e4 terms)
        t = E2
        direct = abs(log_dirichlet_sum(t, t, t * t))
        assert direct <= mid_tail_sum_bound(t)

    def test_strictly_increasing(self):
        ts = np.geomspace(E2, 1e5, 50)
        vals = [mid_tail_sum_bound(t) for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            mid_tail_sum_bound(5.0)


class TestHeadSumBound:
    def test_boundary_zero(self):
        assert head_sum_bound(E2, 1.0) == 0.0

    def test_value_at_e4(self):
        assert head_sum_bound(math.exp(4.0), 1.0) == pytest.approx(
            2.0 * math.exp(2.0) * 2.0
        )

    def test_dominates_oscillating_head_sums(self):
        # the quantity the bound is applied to is the complex sum with the
        # n^{-it} phase; the phase-free modulus sum slightly exceeds the
        # integral closed form (by ~4), so only the oscillating sum is a
        # fair oracle here
        n = np.arange(1, 101, dtype=np.float64)
        bound = head_sum_bound(100.0, 1.0)
        for t in (10.0, 50.0, 100.0, 400.0):
            direct = abs(complex(np.sum(np.log(n) * n ** (-0.5 - 1j * t))))
            assert direct <= bound, t

    def test_modulus_sum_exceeds_integral_form(self):
        # documents why the oscillation matters: the term-by-term modulus
        # sum is NOT below the integral closed form
        n = np.arange(1, 101, dtype=np.float64)
        assert float(np.sum(np.log(n) / np.sqrt(n))) > head_sum_bound(100.0, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            head_sum_bound(5.0, 1.0)
        with pytest.raises(ValueError):
            head_sum_bound(100.0, 1.0 / 3.0)  # needs t >= e^6
        with pytest.raises(ValueError):
            head_sum_bound(1e4, 0.5)


class TestTheorem1Bound:
    def test_closed_form_at_e2(self):
        curve = theorem1_bound(E2)
        assert curve.total == pytest.approx(22.493, abs=1e-3)

    def test_closed_form_at_e4(self):
        t = math.exp(4.0)
        expect = 2 * math.sqrt(t) * 4 - 4 * math.sqrt(t) + 8.047 * 4 + 6.399
        curve = theorem1_bound(t)
        assert curve.total == pytest.approx(expect, rel=1e-12)
        assert curve.total == pytest.approx(68.143, abs=2e-3)

    def test_parts_sum_to_total(self):
        for t in (E2, 50.0, 1e4):
            curve = theorem1_bound(t)
            assert curve.total == pytest.approx(sum(curve.per_term.values()), rel=1e-14)

    def test_monotone_beyond_threshold(self):
        ts = np.geomspace(E2, 1e5, 200)
        vals = [theorem1_bound(t).total for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_threshold_with_rounding_slack(self):
        assert theorem1_bound(7.389056).total == pytest.approx(22.493, abs=1e-3)
        with pytest.raises(ValueError):
            theorem1_bound(7.38)


class TestGeomSumClosedForms:
    def test_dominate_exact_sums_randomized(self):
        # the derived closed forms must dominate exact block sums; this is
        # the contract that lets the coefficient assembly stay one-sided
        rng = np.random.default_rng(314)
        min_rel_slack = math.inf
        for _ in range(100):
            t = float(np.exp(rng.uniform(math.log(500.0), math.log(1e6))))
            ratio = float(rng.uniform(1.05, 6.0))
            for alpha3, upper3 in ((2, 3), (1, 2)):
                if t ** (alpha3 / 3.0) < 2.0:
                    continue
                scheme = block_scheme(t, alpha3 / 3.0, ratio, upper3 / 3.0)
                exact = geom_sums_exact(scheme)
                g = geom_sum_bounds(alpha3, upper3, ratio)
                assert g.keys() == exact.keys()
                for e_val, b_val in ((exact[name], closed_form_at(g[name], t)) for name in g):
                    budget = 1e-9 * (1.0 + abs(b_val))
                    assert e_val <= b_val + budget, (t, ratio, alpha3)
                    min_rel_slack = min(min_rel_slack, (b_val - e_val) / (1 + b_val))
        assert min_rel_slack > -1e-12

    def test_single_block_near_equality(self):
        # with one block the decaying closed forms collapse to (almost)
        # the exact value, so only the float budget separates them
        scheme = block_scheme(1000.0, 2.0 / 3.0, 1000.0, 1.0)
        assert scheme.J == 1
        g = geom_sum_bounds(2, 3, 1000.0)
        exact = geom_sums_exact(scheme)
        assert exact["M2(5)"] <= closed_form_at(g["M2(5)"], 1000.0) * (1 + 1e-12)

    def test_rows_per_family(self):
        # (t-exponent in sixths, log power) of each piece, in order
        g = geom_sum_bounds(1, 2, 2.0)
        shapes = {name: [row[:2] for row in rows] for name, rows in g.items()}
        assert shapes == {
            "M0": [(0, 2), (0, 1), (0, 0)], "M1": [(2, 1)],
            "M2(1)": [(-1, 1), (-1, 0)], "M2(2)": [(-2, 1), (-2, 0)],
            "M2(3)": [(-3, 1), (-3, 0)], "M2(5)": [(-5, 1), (-5, 0)],
        }
        assert [row[:2] for row in geom_sum_bounds(2, 3, 2.0)["M2(3)"]] == [(-6, 1), (-6, 0)]

    @pytest.mark.parametrize("ratio", [math.inf, math.nan, 1.0, 0.5])
    def test_rejects_a_ratio_that_is_not_finite_above_1(self, ratio):
        # an infinite ratio made the M1 coefficient nan
        with pytest.raises(ValueError, match="finite ratio > 1"):
            geom_sum_bounds(1, 2, ratio)


class TestBlockBound23:
    def test_crude_branch_value(self):
        value = block_bound(BLOCK_23, E3, P0)
        assert value == pytest.approx(12.963, abs=1e-3)
        assert value == crude_bound(BLOCK_23, P0.t1)

    def test_direct_sum_envelope_t50(self):
        t = 50.0
        value = block_bound(BLOCK_23, t, P0)  # t > t1: block branch
        direct = abs(log_dirichlet_sum(t, t ** (2.0 / 3.0), t))
        per_block = block23_per_block_bound(t, 2.0)
        assert direct <= per_block <= value * (1 + 1e-12)

    def test_direct_sum_envelope_sweep(self):
        for t in (30.0, 100.0, 1e3, 1e4):
            value = block_bound(BLOCK_23, t, P0)
            direct = abs(log_dirichlet_sum(t, t ** (2.0 / 3.0), t))
            assert direct <= value

    def test_coefficients_nonnegative_and_monotone_families(self):
        cs = {k: collect(BLOCK_23, BoundParams(k=k)) for k in (1.1, 2.0, 4.0)}
        for k, C in cs.items():
            assert len(C) == 11
            assert all(x >= 0 for x in C)
            assert C[4] == 0.0  # no t^{-1/6} source term
        # k(k-1)-driven coefficients grow with k; the purely geometric-decay
        # ones shrink (their resummation factors blow up as k -> 1).  C3 and
        # C10 mix both behaviours and are not monotone over this span.
        for idx in (0, 1, 3):
            assert cs[1.1][idx] < cs[2.0][idx] < cs[4.0][idx], idx
        for idx in (5, 6, 7, 8, 10):
            assert cs[1.1][idx] > cs[2.0][idx] > cs[4.0][idx], idx

    def test_coefficients_recompute_from_derivation_pieces(self):
        # oracle: rebuild each coefficient from the derivation's weights
        # u1/5 .. u6/5 and the closed-form rows, added in term order; the
        # same additions in the same order give the same bits
        for k in (1.1, 2.0, 4.0, 1.0 + 2.0**-40, 7.3):
            g = geom_sum_bounds(2, 3, k)
            (lead1, const1), (lead3, const3), (lead5, const5) = (
                [row[2] for row in g[f"M2({d})"]] for d in (1, 3, 5))
            ((_, _, m1),) = g["M1"]
            w1 = 0.2 * (2.0**2.5 * k * (k - 1.0) / math.sqrt(math.pi))
            w2 = 0.2 * (2.0**2.5 * k / math.sqrt(math.pi))
            w3 = 0.2 * (2.0**3.5 * math.sqrt(math.pi) * k)
            w4 = 0.2 * (15.0 * (k - 1.0) / (2.0 * math.pi))
            w5 = 0.2 * (15.0 / (2.0 * math.pi))
            w6 = 0.2 * 15.0
            assert collect(BLOCK_23, BoundParams(k=k)) == (
                w1 * lead1, w1 * const1,  # t^{1/6} log t, t^{1/6}
                w3 * m1 + w4 * lead3, w4 * const3,  # log t, 1
                0.0,  # t^{-1/6}: no source term
                w2 * const3, w6 * const1, w5 * const5,  # t^{-1/2}, t^{-1/3}, t^{-2/3}
                w5 * lead5, w2 * lead3, w6 * lead1,  # t^{-2/3}, t^{-1/2}, t^{-1/3} log t
            ), k

    def test_resummed_consistency(self):
        for k in (1.3, 2.0, 3.7):
            poly = block_bound(BLOCK_23, 1e4, BoundParams(k=k))
            assert resummed(BLOCK_23, 1e4, BoundParams(k=k)) == pytest.approx(
                poly, rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            block_bound(BLOCK_23, 100.0, BoundParams(k=1.0))
        with pytest.raises(ValueError):
            block_bound(BLOCK_23, 10.0, P0)  # t below e^3


class TestBlockBound13:
    def test_crude_branch_value(self):
        value = block_bound(BLOCK_13, E6, P0)
        assert value == pytest.approx(33.556, abs=1e-3)
        assert value == crude_bound(BLOCK_13, P0.t2)

    def test_direct_sum_envelope_t1e4(self):
        t = 1e4
        value = block_bound(BLOCK_13, t, P0)
        direct = abs(log_dirichlet_sum(t, t ** (1.0 / 3.0), t ** (2.0 / 3.0)))
        per_block = block13_per_block_bound(t, P0)
        assert direct <= per_block
        assert direct <= value

    def test_coefficient_consistency_random_params(self):
        # the six-shape polynomial must equal the unfactored resummation
        rng = np.random.default_rng(99)
        for _ in range(20):
            p = BoundParams(
                k=float(rng.uniform(1.2, 5.0)),
                tau=float(rng.uniform(1.2, 5.0)),
                q=float(rng.uniform(2.0, 8.0)),
                t1=float(rng.uniform(E3, math.exp(7.0))),
                t2=float(rng.uniform(E6, math.exp(8.0))),
            )
            t = float(rng.uniform(p.t2 * 1.01, 1e6))
            c = collect(BLOCK_13, p)
            assert resummed(BLOCK_13, t, p) == pytest.approx(
                q_polynomial(t, c), rel=1e-11
            ), p

    def test_coefficients_recompute_from_derivation_pieces(self):
        # c1..c6 from the derivation's weights w_ab, w_c, .., w_g and the
        # closed-form rows, added in term order: the same bits
        rng = np.random.default_rng(13)
        for _ in range(200):
            tau = float(np.exp(rng.uniform(math.log(1.1), math.log(8.0))))
            q = float(np.exp(rng.uniform(math.log(2.0), math.log(8.0))))
            t2 = float(np.exp(rng.uniform(6.0, 10.0)))
            g = geom_sum_bounds(1, 2, tau)
            m0_2, m0_1, m0_0 = (row[2] for row in g["M0"])
            ((_, _, m1),) = g["M1"]
            lead1, const1 = (row[2] for row in g["M2(1)"])
            lead2, const2 = (row[2] for row in g["M2(2)"])
            t2_13 = t2 ** (-1.0 / 3.0)
            tp34 = (tau + 1.0) ** 0.75
            a1, a2 = tau - 1.0 + (q + 1.0) * t2_13, tau - 1.0 + t2_13
            lam = math.sqrt(2.0 * (tau + t2_13) / (5.0 * q))
            sqrt_pi = math.sqrt(math.pi)
            w_ab = math.sqrt(a1 * a2 / q) + lam * (
                math.sqrt(32.0 / (15.0 * sqrt_pi) * (tau - 1.0)) * tp34 * q**0.75)
            w_c = lam * (math.sqrt(32.0 / (15.0 * sqrt_pi)) * tp34 * q**0.75)
            w_d = lam * (math.sqrt(32.0 * sqrt_pi / 3.0) * tp34 * q**0.25)
            w_e = lam * (math.sqrt(5.0 / (2.0 * math.pi) * (tau - 1.0)) * q)
            w_f = lam * (math.sqrt(5.0 / (2.0 * math.pi)) * q)
            w_g = lam * math.sqrt(15.0 * q / 2.0)
            assert collect(BLOCK_13, BoundParams(tau=tau, q=q, t2=t2)) == (
                w_ab * m0_2,
                w_ab * m0_1 + w_d * m1 + w_e * lead1,
                w_ab * m0_0 + w_e * const1,
                w_g * m0_2,
                w_c * lead1 + w_f * lead2 + w_g * m0_1,
                w_c * const1 + w_f * const2 + w_g * m0_0,
            ), (tau, q, t2)

    def test_domain(self):
        with pytest.raises(ValueError):
            block_bound(BLOCK_13, 100.0, P0)  # below e^6
        with pytest.raises(ValueError):
            BoundParams(q=1.5)

    @pytest.mark.parametrize("name", ["k", "tau", "q", "t1", "t2"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            BoundParams(**{name: value})


class TestTheorem2Assembly:
    def test_all_q_finite_positive_at_default(self):
        coeffs = theorem2_coeffs(P0)
        assert len(coeffs.Q) == 6
        assert all(math.isfinite(q) and q > 0 for q in coeffs.Q)

    def test_q_polynomial_dominates_exact_parts(self):
        coeffs = theorem2_coeffs(P0)
        for t in np.geomspace(E6, 1e5, 50):
            parts = theorem2_parts_exact(t, P0)
            total = theorem2_bound(t, P0, coeffs).total
            assert total >= sum(parts.values()) * (1 - 1e-12), t

    def test_dominance_random_parameter_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = BoundParams(
                k=float(rng.uniform(1.2, 6.0)),
                tau=float(rng.uniform(1.2, 6.0)),
                q=float(rng.uniform(2.0, 7.0)),
                t1=float(rng.uniform(E3, math.exp(7.5))),
                t2=float(rng.uniform(E6, math.exp(9.0))),
            )
            coeffs = theorem2_coeffs(p)
            for t in np.exp(rng.uniform(6.0, math.log(1e5), size=50)):
                parts = theorem2_parts_exact(float(t), p)
                total = theorem2_bound(float(t), p, coeffs).total
                assert total >= sum(parts.values()) * (1 - 1e-12), (p, t)

    def test_q4_depends_only_on_tau_t2(self):
        base = theorem2_coeffs(P0).Q[3]
        assert theorem2_coeffs(BoundParams(k=5.0)).Q[3] == base
        assert theorem2_coeffs(BoundParams(q=7.0)).Q[3] == base
        assert theorem2_coeffs(BoundParams(t1=math.exp(5.0))).Q[3] == base
        assert theorem2_coeffs(BoundParams(tau=3.0)).Q[3] != base
        assert theorem2_coeffs(BoundParams(t2=math.exp(7.0))).Q[3] != base

    def test_per_term_sums_to_total_and_matches_q_poly(self):
        coeffs = theorem2_coeffs(P0)
        for t in (E6, 1e3, 1e4, 1e5):
            curve = theorem2_bound(t, P0, coeffs)
            assert curve.total == pytest.approx(sum(curve.per_term.values()), rel=1e-13)
            assert curve.total == pytest.approx(q_polynomial(t, coeffs.Q), rel=1e-12)

    def test_per_term_dominates_its_branchy_part(self):
        coeffs = theorem2_coeffs(BoundParams(t1=math.exp(7.0)))
        p = coeffs.params
        for t in np.geomspace(E6, 1e5, 40):
            curve = theorem2_bound(float(t), p, coeffs)
            parts = theorem2_parts_exact(float(t), p)
            for name, exact in parts.items():
                assert curve.per_term[name] >= exact * (1 - 1e-12), (name, t)

    def test_monotone_beyond_threshold(self):
        coeffs = theorem2_coeffs(P0)
        ts = np.geomspace(E6, 1e6, 200)
        vals = [theorem2_bound(float(t), P0, coeffs).total for t in ts]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_asymptotically_below_theorem1(self):
        # leading shapes t^{1/6}(log t)^2 vs t^{1/2} log t
        for t in (1e8, 1e12, 1e100):
            assert theorem2_bound(t, P0).total < theorem1_bound(t).total

    def test_trace_report_covers_every_q(self):
        coeffs = theorem2_coeffs(BoundParams(t1=math.exp(7.0)))
        report = coeffs.trace_report()
        for i in range(1, 7):
            assert f"Q{i}" in report
        assert "crude-branch padding" in report
        # the trace's in-order sums are the Q vector, bit for bit
        assert_trace_sums_to_q(coeffs)
        assert_trace_sums_to_q(theorem2_coeffs(P0))

    def test_envelope_against_derivative_oracle_spot(self):
        from reference_oracle import zeta_prime_oracle
        from zetabounds.zeta import EvalPoint

        coeffs = theorem2_coeffs(P0)
        for t in (E6, 2e3, 3e4):
            oracle = zeta_prime_oracle(EvalPoint(t))
            assert oracle.converged
            assert abs(oracle.value) + oracle.error_bound <= theorem2_bound(
                t, P0, coeffs
            ).total

    def test_domain(self):
        with pytest.raises(ValueError):
            theorem2_bound(100.0, P0)

    def test_coeffs_params_mismatch_rejected(self):
        coeffs = theorem2_coeffs(P0)
        with pytest.raises(ValueError):
            theorem2_bound(1e4, BoundParams(k=3.0), coeffs)


def assert_trace_sums_to_q(coeffs):
    acc = {f"Q{i}": 0.0 for i in range(1, 7)}
    for entry in coeffs.derivation_trace:
        acc[entry.target] += entry.value
    assert [acc[f"Q{i}"].hex() for i in range(1, 7)] == [q.hex() for q in coeffs.Q]


def _parity_points(n, seed):
    """The 32 corners of DEFAULT_RANGES, points with t1 at e^6 and just
    above it, points outside the box where the assembly raises, then n
    points log-uniform in the box, where t1 falls on both sides of e^6."""
    yield from (BoundParams(**dict(zip(PARAM_ORDER, corner)))
                for corner in itertools.product(*(DEFAULT_RANGES[name] for name in PARAM_ORDER)))
    for t1 in (E6, math.nextafter(E6, math.inf)):
        yield BoundParams(t1=t1)
        yield BoundParams(k=7.9, tau=1.1, q=8.0, t1=t1, t2=E6)
    for k in (6e153, 1e200):
        yield BoundParams(k=k)
        yield BoundParams(k=k, t1=math.exp(7.0))
    rng = random.Random(seed)
    for _ in range(n):
        yield BoundParams(**{
            name: math.exp(rng.uniform(*map(math.log, DEFAULT_RANGES[name])))
            for name in PARAM_ORDER
        })


def _outcome(f, p):
    try:
        return f(p)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestAssemblyPlan:
    """``plan_q`` adds into Q in ASSEMBLY_PLAN order and ``derivation_trace``
    is read off the same plan; both must match the put walk bit for bit."""

    def test_parity_with_put_walk(self):
        raised = t1_sides = 0
        for p in _parity_points(2000, seed=26):
            got, want = _outcome(theorem2_coeffs, p), _outcome(theorem2_coeffs_by_puts, p)
            if isinstance(want, str):
                assert got == want, p
                raised += 1
                continue
            t1_sides |= 1 << (p.t1 > E6)
            for f in dataclasses.fields(want):
                assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), (p, f.name)
            assert repr(got.derivation_trace) == repr(want.derivation_trace), p
            assert got.trace_report() == want.trace_report(), p
            assert_trace_sums_to_q(got)
        assert raised == 4 and t1_sides == 3


class TestOneDefinitionPerPart:
    # Each theorem reads its parts from the stand-alone definitions, so the
    # values agree exactly, not just to rounding.
    def test_theorem1_head_is_head_sum_bound(self):
        for t in [8.025638422954174, *np.geomspace(E2, 1e15, 2000)]:
            assert theorem1_bound(float(t)).per_term["head"] == head_sum_bound(float(t), 1.0), t

    def test_theorem1_parts_are_their_definitions(self):
        for t in np.geomspace(E2 * 1.01, 1e15, 500):
            t = float(t)
            per = theorem1_bound(t).per_term
            assert per["mid_tail"] == mid_tail_sum_bound(t), t
            assert per["tail_error"] == TAIL_REMAINDER[1].at(t), t

    @pytest.mark.parametrize("p", [P0, BoundParams(t1=math.exp(7.0), t2=math.exp(8.0))])
    def test_theorem2_parts_are_their_definitions(self, p):
        coeffs = theorem2_coeffs(p)
        for t in np.geomspace(max(p.t1, p.t2) * 1.01, 1e15, 500):
            t = float(t)
            per = theorem2_bound(t, p, coeffs).per_term
            exact = theorem2_parts_exact(t, p)
            for name in ("head", "mid_tail", "tail_error"):
                assert per[name] == exact[name], (name, t)


class TestMonotonicityInvariant:
    def test_every_bound_operation_monotone_beyond_threshold(self):
        coeffs = theorem2_coeffs(P0)
        cases = [
            (tail_error_bound, E2, 1e6),
            (mid_tail_sum_bound, E2, 1e6),
            (lambda t: head_sum_bound(t, 1.0), E2, 1e6),
            (lambda t: head_sum_bound(t, 1.0 / 3.0), E6, 1e6),
            (lambda t: theorem1_bound(t).total, E2, 1e6),
            (lambda t: theorem2_bound(t, P0, coeffs).total, E6, 1e8),
            (lambda t: block_bound(BLOCK_23, t, P0), E3, 1e6),
            (lambda t: block_bound(BLOCK_13, t, P0), E6, 1e7),
        ]
        for f, lo, hi in cases:
            ts = np.geomspace(lo, hi, 400)
            vals = [f(float(t)) for t in ts]
            assert all(
                v2 >= v1 - 1e-12 * abs(v1) for v1, v2 in zip(vals, vals[1:])
            ), f


class TestBoundCurveInvariants:
    def test_negative_total_rejected(self):
        with pytest.raises(ValueError, match="finite and non-negative"):
            BoundCurve(t=10.0, per_term={"a": 1.0, "b": -2.0})

    def test_total_is_the_sum_of_the_parts(self):
        # at the defaults and 20 seeded points of the search box
        rng = random.Random(27)
        points = [P0, *(BoundParams(**{
            name: math.exp(rng.uniform(*map(math.log, DEFAULT_RANGES[name]))) for name in PARAM_ORDER
        }) for _ in range(20))]
        curves = [theorem1_bound(float(t)) for t in np.geomspace(E2, 1e15, 500)]
        for p in points:
            coeffs = theorem2_coeffs(p)
            curves.extend(theorem2_bound(float(t), p, coeffs) for t in np.geomspace(E6, 1e15, 500))
        assert len(curves) == 500 * 22
        for curve in curves:
            assert curve.total.hex() == math.fsum(curve.per_term.values()).hex(), curve
