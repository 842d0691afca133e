"""Deterministic search over the free bound parameters (k, tau, q, t1, t2).

A coarse geometric grid scan seeds a coordinate-descent refinement with
geometrically shrinking multiplicative steps.  No randomness anywhere:
identical inputs give identical traces.  A search scores its points from
one set of ``bounds.theorem2_stores``, which build and check theorem 2's
pieces per key; its scorer holds only what depends on the objective.  The
crossover scan compares the totals of ``theorem1_parts`` and
``theorem2_parts``, the parts both theorems' bound functions are built from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable

from .bounds import (
    DEFAULT_PARAMS,
    E3,
    E6,
    BoundParams,
    check_coefficients,
    checked_total,
    in_theorem_domain,
    plan_q,
    theorem1_parts,
    theorem2_bound,
    theorem2_coeffs,
    theorem2_fixed_parts,
    theorem2_parts,
    theorem2_stores,
)
from .numerics import _integer, geometric_grid

PARAM_ORDER = tuple(f.name for f in fields(BoundParams))

# The search box; optimize_params checks that BoundParams accepts its corners.
DEFAULT_RANGES: dict[str, tuple[float, float]] = {
    "k": (1.1, 8.0),
    "tau": (1.1, 8.0),
    "q": (2.0, 8.0),
    "t1": (E3, math.exp(8.0)),
    "t2": (E6, math.exp(10.0)),
}


@dataclass(frozen=True)
class Objective:
    """What to minimize over the parameter box: the full bound at a fixed
    t >= e^6, or else the weighted sum of Q1..Q6 with six finite
    non-negative weights, not all zero.  Exactly one of t and weights is
    set.  Minimizing the leading coefficient Q1 is the weighting
    (1, 0, 0, 0, 0, 0): Q is finite and non-negative, so the sum is Q1
    exactly.
    """

    t: float | None = None
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if (self.t is None) == (self.weights is None):
            raise ValueError("an objective takes exactly one of t and weights")
        if self.t is not None:
            if not math.isfinite(self.t):
                raise ValueError(f"the objective's t must be finite, got {self.t}")
            if not in_theorem_domain(self.t, 2):
                raise ValueError(f"the objective's t must be >= e^6, got {self.t}")
        elif not (
            len(self.weights) == 6
            and all(math.isfinite(w) and w >= 0 for w in self.weights)
            and any(w > 0 for w in self.weights)
        ):
            raise ValueError(
                "the objective needs six finite non-negative weights, not all zero, "
                f"got {self.weights}"
            )

    @staticmethod
    def minimize_q1() -> "Objective":
        return Objective(weights=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))

    @staticmethod
    def minimize_bound_at_t(t: float) -> "Objective":
        return Objective(t=t)

    @staticmethod
    def minimize_weighted_q(weights: tuple[float, ...]) -> "Objective":
        return Objective(weights=tuple(weights))

    def evaluate(self, p: BoundParams) -> float:
        try:
            coeffs = theorem2_coeffs(p)
        except ValueError:
            return math.inf  # parameter corner outside the assembly's regime
        return self._weighted(coeffs.Q) if self.t is None else theorem2_bound(self.t, p, coeffs).total

    def _weighted(self, Q: tuple[float, ...]) -> float:
        try:
            return math.fsum(w * q for w, q in zip(self.weights, Q))
        except OverflowError:
            return math.inf  # the weighted sum exceeds the float range


@dataclass(frozen=True)
class OptResult:
    best: BoundParams
    objective_value: float
    trace: tuple[tuple[BoundParams, float], ...] = field(repr=False)
    evaluations: int = 0


def _scorer_for_one_search(obj: Objective) -> Callable[..., float]:
    """``score(vals, below=inf)``: ``obj.evaluate`` at a point given as a
    dict where that value is below ``below``, else some value >= below,
    from parts stored per key (docs/block_assembly.md)."""
    t = obj.t
    fixed = () if t is None else theorem2_fixed_parts(t)
    lower, padded = theorem2_stores(t)  # C and c checked there

    def checked_q(lo: tuple, pad: tuple) -> tuple[float, ...] | None:  # None if Q fails its check
        Q = plan_q(lo[0], pad[0], lo[1], pad[1])
        try:
            check_coefficients("Q", Q)
        except ValueError:
            return None
        return Q

    def score(vals: dict[str, float], below: float = math.inf) -> float:
        try:
            lo, pad = lower(vals["tau"], vals["q"], vals["t2"]), padded(vals["k"], vals["t1"])
        except ValueError:
            return math.inf  # parameter corner outside the assembly's regime
        if t is None:
            Q = checked_q(lo, pad)
            return math.inf if Q is None else obj._weighted(Q)
        try:
            total = checked_total((*fixed, lo[2], pad[2]))
        except ValueError:
            if checked_q(lo, pad) is None:
                return math.inf  # Q's fault is found first, as in theorem2_coeffs
            raise
        # Q decides only whether the point is feasible: a total at or above
        # ``below`` is returned unchecked, since it cannot improve either way.
        return total if total >= below or checked_q(lo, pad) is not None else math.inf

    return score


def optimize_params(obj: Objective, budget: int = 600) -> OptResult:
    """Coarse grid scan over the DEFAULT_RANGES box followed by coordinate
    descent.

    The scan places up to 5 geometric points per axis (fewer under a tight
    budget) and walks them in lexicographic axis order, so grid ties
    resolve to the lexicographically smallest parameters.  Descent then
    cycles the axes in the fixed order (k, tau, q, t1, t2) with
    multiplicative steps that halve after each improvement-free cycle,
    stopping below 1e-3 relative step or when the budget runs out.
    Raises ValueError if no point the scan evaluates has a finite objective.
    """
    budget = _integer("budget", budget)
    if budget < 10:
        raise ValueError("budget must be at least 10 evaluations")
    for end in (0, 1):  # BoundParams checks per-field lower bounds: the corners admit the box
        BoundParams(**{name: DEFAULT_RANGES[name][end] for name in PARAM_ORDER})

    evaluations = 0
    trace: list[tuple[BoundParams, float]] = []
    best_p: BoundParams | None = None
    best_v = math.inf
    score = _scorer_for_one_search(obj)

    def consider(vals: dict[str, float]) -> bool:
        nonlocal evaluations, best_p, best_v
        evaluations += 1
        value = score(vals, best_v)
        if value < best_v:
            best_v, best_p = value, BoundParams(**vals)
            trace.append((best_p, value))
            return True
        return False

    # Seed with the default parameter point, which lies in the box, so the
    # search can never end up worse than the documented defaults.
    consider({name: getattr(DEFAULT_PARAMS, name) for name in PARAM_ORDER})

    per_axis = 5 if budget >= 5**5 else max(2, int(budget ** (1.0 / 5.0)))
    axes = [geometric_grid(*DEFAULT_RANGES[name], per_axis) for name in PARAM_ORDER]
    for combo in itertools.product(*axes):
        if evaluations >= budget:
            break
        consider(dict(zip(PARAM_ORDER, combo)))

    if best_p is None:
        raise ValueError("the objective is not finite at any point the scan evaluated")

    # Coordinate descent with geometric step shrinking.
    step = 0.25
    current = {name: getattr(best_p, name) for name in PARAM_ORDER}
    while step >= 1e-3 and evaluations < budget:
        improved_cycle = False
        for name in PARAM_ORDER:
            lo, hi = DEFAULT_RANGES[name]
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                if evaluations >= budget:
                    break
                candidate = {**current, name: min(max(current[name] * factor, lo), hi)}
                if candidate[name] != current[name] and consider(candidate):
                    current = candidate
                    improved_cycle = True
        if not improved_cycle:
            step *= 0.5

    return OptResult(
        best=best_p,
        objective_value=best_v,
        trace=tuple(trace),
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# Crossover scan
# ---------------------------------------------------------------------------


def crossover_scan(p: BoundParams, t_max: float) -> float | None:
    """Smallest t* in [e^6, t_max] where the six-shape bound drops below
    the direct-integration bound, or None if there is no crossover in
    range.  t_max must be finite and lie in theorem 2's domain
    (``in_theorem_domain``).

    The scan walks a geometric grid (ratio 1.1) in log t, its last step
    clipped to t_max, and bisects the first sign change to width 1e-6 in
    log t, a clipped step from the probe before it.  Each probe compares the
    ``checked_total`` of ``theorem2_parts`` with that of ``theorem1_parts``:
    the totals of ``theorem2_bound(t, p)`` and ``theorem1_bound(t)`` bit for
    bit, without building either curve; p's coefficients are assembled once.
    """
    if not math.isfinite(t_max):
        raise ValueError(f"t_max must be finite, got {t_max}")
    if not in_theorem_domain(t_max, 2):
        raise ValueError("t_max must be >= e^6")
    log_t_max = math.log(t_max)
    coeffs = theorem2_coeffs(p)
    step = math.log(1.1)

    def beats(logt: float) -> bool:
        t = math.exp(logt)
        return checked_total(theorem2_parts(t, coeffs)) < checked_total(theorem1_parts(t))

    logt = left = 6.0
    while not beats(logt):
        if logt >= log_t_max:
            return None
        left, logt = logt, min(logt + step, log_t_max)
    if logt == 6.0:
        return math.exp(logt)  # crossover at (or before) the grid start
    left, right = (logt - step if left + step <= log_t_max else left), logt
    # invariant: thm2 >= thm1 at left, thm2 < thm1 at right
    while right - left > 1e-6:
        mid = 0.5 * (left + right)
        if beats(mid):
            right = mid
        else:
            left = mid
    return math.exp(right)
