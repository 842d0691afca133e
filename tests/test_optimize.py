import dataclasses
import math
import random
import sys

import numpy as np
import pytest

from zetabounds import bounds, optimize
from zetabounds.bounds import BoundParams, theorem1_bound, theorem2_bound
from zetabounds.optimize import (
    DEFAULT_RANGES,
    PARAM_ORDER,
    Objective,
    crossover_scan,
    optimize_params,
)
from zetabounds.bounds import theorem2_coeffs

P0 = BoundParams()


class TestObjective:
    def test_kinds_validate(self):
        Objective.minimize_q1()
        Objective.minimize_bound_at_t(1e4)
        Objective.minimize_weighted_q((1, 0, 0, 0, 0, 1))
        with pytest.raises(ValueError):
            Objective.minimize_bound_at_t(100.0)
        with pytest.raises(ValueError):
            Objective.minimize_weighted_q((0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError):
            Objective.minimize_weighted_q((1, -1, 0, 0, 0, 0))

    def test_exactly_one_of_t_and_weights(self):
        assert [f.name for f in dataclasses.fields(Objective)] == ["t", "weights"]
        with pytest.raises(ValueError, match="exactly one of t and weights"):
            Objective()
        with pytest.raises(ValueError, match="exactly one of t and weights"):
            Objective(t=1e4, weights=(1, 1, 1, 1, 1, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite non-negative weights"):
            Objective.minimize_weighted_q((bad, 1, 1, 1, 1, 1))

    def test_evaluate_matches_direct(self):
        obj = Objective.minimize_bound_at_t(2e4)
        assert obj.evaluate(P0) == theorem2_bound(2e4, P0).total
        assert Objective.minimize_q1().evaluate(P0) == theorem2_coeffs(P0).Q[0]


class TestOptimizeParams:
    def test_beats_default_point(self):
        obj = Objective.minimize_bound_at_t(1e4)
        result = optimize_params(obj, budget=600)
        assert result.objective_value <= obj.evaluate(P0)
        assert result.evaluations <= 600

    def test_trace_non_increasing_and_reproducible(self):
        obj = Objective.minimize_bound_at_t(1e4)
        a = optimize_params(obj, budget=400)
        b = optimize_params(obj, budget=400)
        values = [v for _, v in a.trace]
        assert all(v2 <= v1 for v1, v2 in zip(values, values[1:]))
        assert a.trace == b.trace and a.best == b.best

    def test_objective_value_reproducible_at_best(self):
        obj = Objective.minimize_q1()
        result = optimize_params(obj, budget=300)
        assert obj.evaluate(result.best) == result.objective_value

    def test_best_respects_invariants_and_ranges(self):
        obj = Objective.minimize_bound_at_t(1e4)
        result = optimize_params(obj, budget=500)
        p = result.best
        for name, (lo, hi) in DEFAULT_RANGES.items():
            val = getattr(p, name)
            assert lo * (1 - 1e-12) <= val <= hi * (1 + 1e-12)

    def test_degenerate_budget_returns_grid_best(self):
        obj = Objective.minimize_bound_at_t(1e4)
        result = optimize_params(obj, budget=10)
        assert result.evaluations == 10
        assert result.trace  # at least the seed point
        assert result.objective_value <= obj.evaluate(P0)

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError):
            optimize_params(Objective.minimize_q1(), budget=5)

    def test_non_integer_budget_rejected(self, monkeypatch):
        # budget=10.5 used to make 11 evaluations
        def no_evaluation(*args):
            raise AssertionError("objective evaluated")

        monkeypatch.setattr(Objective, "_evaluate", no_evaluation)
        with pytest.raises(ValueError, match="budget must be an integer, got 10.5"):
            optimize_params(Objective.minimize_q1(), budget=10.5)

    def test_numpy_integer_budget(self):
        obj = Objective.minimize_q1()
        assert optimize_params(obj, budget=np.int64(10)) == optimize_params(obj, budget=10)

    def test_overflowing_weighted_sum_is_infinite(self):
        obj = Objective.minimize_weighted_q((1.5e307, 0, 1.5e307, 0, 0, 0))
        assert obj.evaluate(P0) == math.inf


OBJECTIVES = {
    "bound-at-t": Objective.minimize_bound_at_t(1e4),
    "q1": Objective.minimize_q1(),
    "weighted": Objective.minimize_weighted_q((0.3, 0.5, 0.2, 0.9, 0.1, 0.4)),
}


def _outcome(f, p):
    try:
        return f(p)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestOneSearchCoefficients:
    """optimize_params assembles each point from block-range coefficients
    collected once per search; that must not move a single bit."""

    def test_assembly_equals_theorem2_coeffs(self):
        # four values per axis, so that most of the 200 points share a
        # block range's fields with an earlier one and are served by the memo
        rng = random.Random(17)
        axes = {
            name: [math.exp(rng.uniform(*map(math.log, DEFAULT_RANGES[name]))) for _ in range(4)]
            for name in PARAM_ORDER
        }
        coeffs_of = optimize._coeffs_for_one_search()
        for _ in range(200):
            p = BoundParams(**{name: rng.choice(axes[name]) for name in PARAM_ORDER})
            got, want = _outcome(coeffs_of, p), _outcome(theorem2_coeffs, p)
            if isinstance(want, str):
                assert got == want
                continue
            for f in dataclasses.fields(want):
                assert getattr(got, f.name) == getattr(want, f.name), (p, f.name)
            assert got.trace_report() == want.trace_report()

    @pytest.mark.parametrize("budget", [10, 50, 600])
    @pytest.mark.parametrize("kind", sorted(OBJECTIVES))
    def test_search_equals_reference(self, kind, budget, monkeypatch):
        got = optimize_params(OBJECTIVES[kind], budget=budget)
        # the reference search assembles every point from scratch
        monkeypatch.setattr(optimize, "_coeffs_for_one_search", lambda: theorem2_coeffs)
        want = optimize_params(OBJECTIVES[kind], budget=budget)
        assert got.best == want.best
        assert got.objective_value == want.objective_value
        assert got.trace == want.trace
        assert got.evaluations == want.evaluations

    def test_search_builds_no_trace_entry(self, monkeypatch):
        def no_entry(*args):
            raise AssertionError("a TraceEntry was built")

        monkeypatch.setattr(bounds, "TraceEntry", no_entry)
        with pytest.raises(AssertionError, match="a TraceEntry was built"):
            theorem2_coeffs(P0).trace_report()  # the patch reaches the trace
        for obj in OBJECTIVES.values():
            optimize_params(obj, budget=50)

    def test_nothing_memoised_across_searches(self, monkeypatch):
        calls = []
        coefficients = bounds.BlockTable.coefficients

        def counted(table, *values):
            calls.append(table.source)
            return coefficients(table, *values)

        pieces = []
        for name in ("upper_pieces", "lower_pieces"):
            def build(p, name=name, pieces_of=getattr(optimize, name)):
                pieces.append(name)
                return pieces_of(p)

            monkeypatch.setattr(optimize, name, build)
        monkeypatch.setattr(bounds.BlockTable, "coefficients", counted)
        obj = OBJECTIVES["q1"]
        optimize_params(obj, budget=200)
        first = len(calls)
        optimize_params(obj, budget=200)
        assert 0 < first < 2 * 200  # shared ranges were reused within the search
        assert len(calls) == 2 * first  # but nothing carried over to the next
        # each range is collected only to build its pieces, once per key
        assert [calls.count(table.source) for table in (bounds.BLOCK_23, bounds.BLOCK_13)] == [
            pieces.count("upper_pieces"), pieces.count("lower_pieces")
        ]


class TestCrossoverScan:
    def test_exists_and_certified_at_default(self):
        t_star = crossover_scan(P0, t_max=1e6)
        assert t_star is not None
        assert theorem2_bound(t_star, P0).total < theorem1_bound(t_star).total
        assert (
            theorem2_bound(t_star / 1.000001, P0).total
            >= theorem1_bound(t_star / 1.000001).total
        )
        # both-sided certification at +-1%
        assert theorem2_bound(t_star * 1.01, P0).total < theorem1_bound(t_star * 1.01).total
        assert theorem2_bound(t_star * 0.99, P0).total >= theorem1_bound(t_star * 0.99).total

    def test_none_when_range_too_small(self):
        assert crossover_scan(P0, t_max=math.exp(6.5)) is None

    def test_far_scan_exponent_dominance(self):
        # the leading shapes guarantee a crossover below 1e300 for any
        # finite coefficients
        t_star = crossover_scan(P0, t_max=1e300)
        assert t_star is not None
        assert t_star <= 1e300
        assert theorem2_bound(t_star, P0).total < theorem1_bound(t_star).total

    def test_float_max_range_matches_near_range(self):
        # both linear bounds stay finite up to the largest float
        assert crossover_scan(P0, t_max=sys.float_info.max) == crossover_scan(P0, t_max=1e6)

    def test_t_max_on_the_theorem_domain(self):
        # e^6 (1 - 5e-7) lies in theorem 2's domain, below the default
        # parameters' crossover
        t_max = math.exp(6.0) * (1.0 - 5e-7)
        assert theorem2_bound(t_max, P0).total > theorem1_bound(t_max).total
        assert crossover_scan(P0, t_max=t_max) is None
        with pytest.raises(ValueError, match="t_max must be >= e\\^6"):
            crossover_scan(P0, t_max=math.exp(6.0) * (1.0 - 2e-6))

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            crossover_scan(P0, t_max=100.0)
        with pytest.raises(ValueError):
            crossover_scan(P0, t_max=math.nan)
