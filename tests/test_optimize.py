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

        monkeypatch.setattr(optimize, "_scorer_for_one_search", no_evaluation)
        with pytest.raises(ValueError, match="budget must be an integer, got 10.5"):
            optimize_params(Objective.minimize_q1(), budget=10.5)

    def test_numpy_integer_budget(self):
        obj = Objective.minimize_q1()
        assert optimize_params(obj, budget=np.int64(10)) == optimize_params(obj, budget=10)

    def test_overflowing_weighted_sum_is_infinite(self):
        assert OVERFLOWING.evaluate(P0) == math.inf

    @pytest.mark.parametrize("name, ends, message", [
        ("k", (1.0, 8.0), "k must exceed 1"),
        ("q", (8.0, 1.5), "q must be >= 2"),
        ("t1", (bounds.E3, math.inf), "t1 must be finite"),
    ])
    def test_box_corners_checked_before_any_point_is_scored(self, monkeypatch, name, ends, message):
        # a point is scored from its dict, with no BoundParams of its own
        def no_scoring(obj):
            raise AssertionError("a point was scored")

        monkeypatch.setattr(optimize, "_scorer_for_one_search", no_scoring)
        monkeypatch.setitem(DEFAULT_RANGES, name, ends)
        with pytest.raises(ValueError, match=message):
            optimize_params(Objective.minimize_q1(), budget=10)


OVERFLOWING = Objective.minimize_weighted_q((1.5e307, 0, 1.5e307, 0, 0, 0))
OBJECTIVES = {
    "bound-at-t": Objective.minimize_bound_at_t(1e4),
    "q1": Objective.minimize_q1(),
    "weighted": Objective.minimize_weighted_q((0.3, 0.5, 0.2, 0.9, 0.1, 0.4)),
}
# the tune benchmark's t range, the Q3 that the head's -4 feeds, and a
# weighted sum that overflows at the seed point, which the search starts from
MORE_OBJECTIVES = {
    **{f"bound-at-e{e}": Objective.minimize_bound_at_t(math.exp(e)) for e in (6.0, 13.0, 20.0)},
    "q3": Objective.minimize_weighted_q((0, 0, 1, 0, 0, 0)),
    "overflowing": OVERFLOWING,
}


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _reference_scorer(obj):
    """Every point scored from scratch, by theorem2_coeffs and theorem2_bound."""
    return lambda vals: obj.evaluate(BoundParams(**vals))


def _hexed(result):
    if isinstance(result, str):
        return result
    return (result.best, result.objective_value.hex(), result.evaluations,
            [(p, v.hex()) for p, v in result.trace])


class TestOneSearchCoefficients:
    """optimize_params scores each point from block-range parts built once
    per search; that must not move a single bit."""

    def test_assembly_equals_theorem2_coeffs(self):
        # four values per axis, so that most of the 200 points share a
        # block range's fields with an earlier one and are served by the store
        rng = random.Random(17)
        axes = {
            name: [math.exp(rng.uniform(*map(math.log, DEFAULT_RANGES[name]))) for _ in range(4)]
            for name in PARAM_ORDER
        }
        t = 3e7
        # a unit weight's fsum is that Q exactly
        units = [Objective.minimize_weighted_q(tuple(float(i == j) for j in range(6))) for i in range(6)]
        scorers = [optimize._scorer_for_one_search(obj) for obj in units]
        at_t = optimize._scorer_for_one_search(Objective.minimize_bound_at_t(t))
        for _ in range(200):
            vals = {name: rng.choice(axes[name]) for name in PARAM_ORDER}
            p = BoundParams(**vals)
            want = theorem2_coeffs(p)
            assert [score(vals).hex() for score in scorers] == [q.hex() for q in want.Q], p
            assert at_t(vals).hex() == theorem2_bound(t, p, want).total.hex(), p

    @pytest.mark.parametrize("budget", [10, 50, 600])
    @pytest.mark.parametrize("kind", sorted(OBJECTIVES) + sorted(MORE_OBJECTIVES))
    def test_search_equals_reference(self, kind, budget, monkeypatch):
        obj = {**OBJECTIVES, **MORE_OBJECTIVES}[kind]
        got = _outcome(optimize_params, obj, budget)
        monkeypatch.setattr(optimize, "_scorer_for_one_search", _reference_scorer)
        want = _outcome(optimize_params, obj, budget)
        assert _hexed(got) == _hexed(want)

    def test_infeasible_points_score_infinite(self, monkeypatch):
        # where k > 6, C6 and C10 < 0 with Q fine; where tau > 3, c5 < 0;
        # where tau < 1.5, c is tiny, so Q3 = -4 + c3 + (C's part) < 0 at small k
        def lower_terms(tau, q, t2):
            rows = bounds._differencing_terms(tau, q, t2)
            scale = [1e-6 if tau < 1.5 else 1.0] * len(rows)
            if tau > 3.0:
                scale[4] = -20.0
            return tuple((exp6, block_sum, f * weight) for f, (exp6, block_sum, weight) in zip(scale, rows))

        def upper_terms(k):
            rows = bounds._curvature_terms(k)
            return (rows[0], (*rows[1][:2], -rows[1][2]), *rows[2:]) if k > 6.0 else rows

        monkeypatch.setattr(bounds, "BLOCK_13", dataclasses.replace(bounds.BLOCK_13, terms=lower_terms))
        monkeypatch.setattr(bounds, "BLOCK_23", dataclasses.replace(bounds.BLOCK_23, terms=upper_terms))
        scored = []

        def recording(obj, scorer_for=optimize._scorer_for_one_search):
            score = scorer_for(obj)

            def recorded(vals):
                scored.append((vals, score(vals)))
                return scored[-1][1]

            return recorded

        for obj in (OBJECTIVES["bound-at-t"], OBJECTIVES["weighted"]):
            monkeypatch.setattr(optimize, "_scorer_for_one_search", recording)
            got = optimize_params(obj, budget=600)
            monkeypatch.setattr(optimize, "_scorer_for_one_search", _reference_scorer)
            assert _hexed(got) == _hexed(optimize_params(obj, budget=600))
        faults = {}
        for vals, value in scored:
            message = _outcome(theorem2_coeffs, BoundParams(**vals))
            assert (value == math.inf) == isinstance(message, str), vals
            if value == math.inf:
                faults.setdefault(message.split(" = ")[0], message)
        # the first fault is named C before c before Q, with today's messages
        assert sorted(faults) == ["ValueError: C6", "ValueError: Q3", "ValueError: c5"]
        for message in faults.values():
            assert message.endswith(
                " negative; parameters outside the regime where the six-shape assembly is meaningful")
        both = [vals for vals, _ in scored if vals["k"] > 6.0 and vals["tau"] > 3.0]
        assert both and all(_outcome(theorem2_coeffs, BoundParams(**vals)).startswith("ValueError: C6")
                            for vals in both)

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
        for name in ("upper_pieces", "lower_pieces", "upper_padding"):
            def build(*values, name=name, pieces_of=getattr(optimize, name)):
                pieces.append((name, values))
                return pieces_of(*values)

            monkeypatch.setattr(optimize, name, build)
        monkeypatch.setattr(bounds.BlockTable, "coefficients", counted)
        obj = OBJECTIVES["q1"]
        optimize_params(obj, budget=200)
        first, first_pieces = len(calls), list(pieces)
        optimize_params(obj, budget=200)
        assert 0 < first < 2 * 200  # shared ranges were reused within the search
        assert len(calls) == 2 * first  # but nothing carried over to the next
        assert pieces == 2 * first_pieces
        # each range is collected only to build its pieces, and each key's
        # pieces and each (k, t1)'s padding are built once per search
        names = [name for name, _ in first_pieces]
        assert [calls.count(table.source) for table in (bounds.BLOCK_23, bounds.BLOCK_13)] == [
            2 * names.count("upper_pieces"), 2 * names.count("lower_pieces")
        ]
        assert len(set(map(repr, first_pieces))) == len(first_pieces)
        assert names.count("upper_padding") > names.count("upper_pieces")


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
