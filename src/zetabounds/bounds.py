"""Explicit upper bounds for |zeta'(1/2+it)| and their coefficient assembly.

Two bound families are provided:

* ``theorem1_bound`` -- the direct-integration bound
      2 t^{1/2} log t - 4 t^{1/2} + 8.047 log t + 6.399   (t >= e^2)
  assembled from the head-integral, mid-tail and tail-remainder pieces.

* ``theorem2_bound`` -- the parametric block-decomposition bound
      Q1 t^{1/6} (log t)^2 + Q2 t^{1/6} log t + Q3 t^{1/6}
      + Q4 (log t)^2 + Q5 log t + Q6                      (t >= e^6)
  whose six coefficients are explicit functions of the free parameters
  (k, tau, q, t1, t2).  One terms function per block range (BLOCK_23,
  BLOCK_13) is the single source of the collected coefficients, and one
  ASSEMBLY_PLAN orders both the sum into Q and the derivation trace, which
  routes every intermediate constant so each absorption is auditable; the
  closed-form geometric-sum bounds it relies on are derived in
  docs/block_assembly.md.  The exact block grids and the unfactored
  resummation live with the tests (tests/reference_blocks.py).

Each part of both bounds has one definition, which docs/block_assembly.md
lists.  Every bound function checks its own t-hypothesis, with a relative
slack of 1e-6 so that thresholds like e^2 survive decimal round-tripping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Callable, NamedTuple

E2 = math.exp(2.0)
E3 = math.exp(3.0)
E6 = math.exp(6.0)

HYPOTHESIS_RTOL = 1e-6

# Where each theorem's range starts.
THRESHOLD = {1: E2, 2: E6}


class LogLinear(NamedTuple):
    """The bound log_coef * log t + const."""

    log_coef: float
    const: float

    def at(self, t: float) -> float:
        return self.log_coef * math.log(t) + self.const


# The Dirichlet-type sum over (t, t^2], for t >= e^2.
MID_TAIL = LogLinear(2.0, 1.944)
# Constant-factored tail-remainder forms, valid from each theorem's threshold.
TAIL_REMAINDER = {1: LogLinear(6.047, 4.455), 2: LogLinear(6.001, 4.008)}

_SQRT_PI = math.sqrt(math.pi)


def _at_least(t: float, threshold: float) -> bool:
    """Whether t is finite and t >= threshold, up to HYPOTHESIS_RTOL."""
    return math.isfinite(t) and t >= threshold * (1.0 - HYPOTHESIS_RTOL)


def in_theorem_domain(t: float, which: int) -> bool:
    """Whether t is finite and inside theorem ``which``'s range, t >= e^2
    for theorem 1 and t >= e^6 for theorem 2, up to HYPOTHESIS_RTOL."""
    return _at_least(t, THRESHOLD[which])


def _require_t(t: float, threshold: float, label: str) -> None:
    if not _at_least(t, threshold):
        raise ValueError(f"{label} requires t >= {threshold:.9g}, got {t!r}")


@dataclass(frozen=True)
class BoundParams:
    """Free parameters of the parametric bound.

    k and tau are the geometric block ratios of the upper and lower
    ranges, q sets the differencing depth M = q X_{j-1} / t^{1/3}, and
    t1, t2 are the crossover points below which the crude integral bound
    is used for the respective ranges.
    """

    k: float = 2.0
    tau: float = 2.0
    q: float = 2.0
    t1: float = E3
    t2: float = E6

    def __post_init__(self) -> None:
        for name, value in vars(self).items():  # the fields, in order
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not (self.k > 1.0):
            raise ValueError("k must exceed 1")
        if not (self.tau > 1.0):
            raise ValueError("tau must exceed 1")
        if not (self.q >= 2.0):
            raise ValueError("q must be >= 2")
        if not _at_least(self.t1, E3):
            raise ValueError("t1 must be >= e^3")
        if not _at_least(self.t2, E6):
            raise ValueError("t2 must be >= e^6")


DEFAULT_PARAMS = BoundParams()


@dataclass(frozen=True)
class BoundCurve:
    """A bound value at one t: its named parts, and ``total``, their correctly rounded sum."""

    t: float
    total: float = field(init=False)
    per_term: dict[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", checked_total(self.per_term.values()))


def checked_total(parts) -> float:
    """The correctly rounded sum of a bound's parts, in any order; it must be finite and non-negative."""
    total = math.fsum(parts)
    if not math.isfinite(total) or total < 0:
        raise ValueError("bound total must be finite and non-negative")
    return total


class TraceEntry(NamedTuple):
    target: str  # coefficient receiving the contribution, e.g. "Q2"
    source: str  # producing stage, e.g. "weyl-block-sum"
    shape: str  # t/log shape of the contribution at its origin
    value: float
    note: str = ""

    def format(self) -> str:
        tail = f"  [{self.note}]" if self.note else ""
        return f"{self.target:>3} += {self.value:<24.17g} from {self.source} ({self.shape}){tail}"


@dataclass(frozen=True)
class BoundCoefficients:
    """The derived constants of the parametric bound.

    C holds the 11 upper-range block coefficients (functions of k only),
    c the 6 lower-range coefficients (functions of tau, q, t2), and Q the
    assembled six-shape coefficients.  ``fold23_const``, ``absorb13`` and
    ``absorb23`` are the constant paddings that make the six-shape
    polynomial dominate the branchy per-part bounds on all of t >= e^6.
    ``derivation_trace`` is built when read, from the ASSEMBLY_PLAN rows.
    """

    params: BoundParams
    C: tuple[float, ...]
    c: tuple[float, ...]
    Q: tuple[float, ...]
    fold23_const: float
    absorb13: float
    absorb23: float

    def __post_init__(self) -> None:
        if len(self.C) != 11 or len(self.c) != 6 or len(self.Q) != 6:
            raise ValueError("coefficient vectors must have lengths 11, 6, 6")
        for name, vec in (("C", self.C), ("c", self.c), ("Q", self.Q)):
            check_coefficients(name, vec)

    @cached_property
    def derivation_trace(self) -> tuple[TraceEntry, ...]:
        """One entry per ASSEMBLY_PLAN row, less zero folds and paddings."""
        values = _plan_values(routed(BLOCK_13, self.c), routed(BLOCK_23, self.C), self.absorb13, self.absorb23)
        return tuple(TraceEntry(Q_TARGETS[i], source, shape or Q_NAMES[i], value, note)
                     for (i, source, shape, note, kept), value in zip(ASSEMBLY_PLAN, values) if kept or value)

    def trace_report(self) -> str:
        lines = [
            "# derivation trace: one line per combined/absorbed term",
            "# params: " + " ".join(f"{name}={value!r}" for name, value in vars(self.params).items()),
        ]
        lines.extend(entry.format() for entry in self.derivation_trace)
        for i, x in enumerate(self.Q):
            lines.append(f"Q{i + 1} = {x:.17g}")
        return "\n".join(lines)


def check_coefficients(name: str, vec: tuple[float, ...]) -> None:
    """Raise ValueError naming the first of ``vec`` (name1, name2, ..) that is not finite or negative."""
    if all(map(math.isfinite, vec)) and min(vec) >= 0.0:
        return  # valid; the walk below only names the first fault
    i, x = next((i, x) for i, x in enumerate(vec, 1) if not (math.isfinite(x) and x >= 0.0))
    if not math.isfinite(x):
        raise ValueError(f"{name}{i} is not finite")
    raise ValueError(f"{name}{i} = {x} negative; parameters outside the regime where the six-shape "
                     "assembly is meaningful")


# ---------------------------------------------------------------------------
# Elementary bound pieces
# ---------------------------------------------------------------------------


def tail_error_bound(t: float) -> float:
    """Remainder of replacing the cut-off tail (n > t^2) by integrals:

        2/sqrt(t^2-1) + sqrt((4t^2+1)/(t^2-1)) (2 log t + 2) + 1/t + 2 log t

    Needs t > 1 to be defined; the bound chain uses it from t >= e^2 on.
    """
    if not (t > 1.0):
        raise ValueError(f"tail_error_bound needs t > 1, got {t!r}")
    logt = math.log(t)
    inv_t2 = 1.0 / (t * t) if t < 1e150 else 0.0  # overflow-safe rewrite
    one_minus = 1.0 - inv_t2
    return (
        2.0 / (t * math.sqrt(one_minus))
        + math.sqrt((4.0 + inv_t2) / one_minus) * (2.0 * logt + 2.0)
        + 1.0 / t
        + 2.0 * logt
    )


def mid_tail_sum_bound(t: float) -> float:
    """2 log t + 1.944, bounding the Dirichlet-type sum over (t, t^2]."""
    _require_t(t, E2, "mid_tail_sum_bound")
    return MID_TAIL.at(t)


def integral_bound(x: float, alpha: float) -> float:
    """2 x^{alpha/2} (alpha log x - 2), which is the integral of
    log u / sqrt(u) over [1, x^alpha] less 4: the head bound, and with the
    4 added back the crude bound of a block range."""
    root = math.sqrt(x) if alpha == 1.0 else x ** (alpha / 2.0)
    return 2.0 * root * (alpha * math.log(x) - 2.0)


def head_sum_bound(t: float, alpha: float) -> float:
    """``integral_bound(t, alpha)`` as a bound for the head sum over
    n <= t^alpha.  alpha = 1 needs t >= e^2, alpha = 1/3 needs t >= e^6
    (otherwise the closed form goes negative)."""
    if math.isclose(alpha, 1.0):
        _require_t(t, E2, "head_sum_bound(alpha=1)")
    elif math.isclose(alpha, 1.0 / 3.0):
        _require_t(t, E6, "head_sum_bound(alpha=1/3)")
    else:
        raise ValueError("alpha must be 1 or 1/3")
    value = integral_bound(t, alpha)
    if value < -1e-9:
        raise ValueError("hypothesis violated: head bound negative")
    return max(value, 0.0)


def theorem1_bound(t: float) -> BoundCurve:
    """Direct-integration bound, valid for t >= e^2:

        2 t^{1/2} log t - 4 t^{1/2} + 8.047 log t + 6.399
    """
    _require_t(t, THRESHOLD[1], "theorem1_bound")
    per = {
        "head": max(integral_bound(t, 1.0), 0.0),
        "mid_tail": MID_TAIL.at(t),
        "tail_error": TAIL_REMAINDER[1].at(t),
    }
    return BoundCurve(t, per)


# ---------------------------------------------------------------------------
# Geometric block-sum closed forms (derived; see docs/block_assembly.md)
# ---------------------------------------------------------------------------


M2_DELTAS = (1, 2, 3, 5)
_M2_FAMILIES = tuple((d, f"M2({d})") for d in M2_DELTAS)


def geom_sum_bounds(alpha3: int, upper3: int, ratio: float) -> dict[str, tuple[tuple[int, int, float], ...]]:
    """Closed-form dominants of the per-block log sums for a geometric
    cover X_j = ratio^j t^alpha of (t^alpha, t^upper], alpha = alpha3/3 and
    upper = upper3/3, for a finite ratio > 1 and 0 < alpha3 < upper3.

    Each family ("M0", "M1", "M2(d)") maps to its pieces as (t-exponent in
    sixths, log power, coefficient) rows.  With J < span log t / log ratio + 1
    (span = upper - alpha):

      M0 = sum log X_{j-1}          <= m0_2 (log t)^2 + m0_1 log t + m0_0
      M1 = sum X_{j-1}^{1/2} log X  <= m1 * t^{upper/2} log t
      M2(d) = sum log X / X^{d/2}   <= m2_lead(d) t^{-d alpha/2} log t
                                       + m2_const(d) t^{-d alpha/2}

    M0: the summand log X_{j-1} grows linearly in j, so the sum is below
        the integral of (alpha log t + u log ratio) du over [0, Jbar].
    M1: geometric growth, dominated by the top block: the factor
        sqrt(ratio)/(sqrt(ratio)-1) resums the tail below X_{J-1} <= t^upper,
        and log X_{j-1} <= upper log t.
    M2: geometric decay, dominated by the bottom block X_0 = t^alpha, with
        sum j r^j = r/(1-r)^2 absorbing the linear log growth.
    """
    if not (math.isfinite(ratio) and ratio > 1.0 and 0 < alpha3 < upper3):
        raise ValueError("need a finite ratio > 1 and 0 < alpha3 < upper3")
    alpha, upper = alpha3 / 3.0, upper3 / 3.0
    span = upper - alpha
    logr = math.log(ratio)
    rows = {
        "M0": ((0, 2, span * (alpha + span / 2.0) / logr), (0, 1, alpha + span), (0, 0, logr / 2.0)),
        "M1": ((upper3, 1, math.sqrt(ratio) / (math.sqrt(ratio) - 1.0) * upper),),
    }
    for delta, family in _M2_FAMILIES:
        r = ratio ** (-delta / 2.0)
        d = 1.0 / (1.0 - r)
        g = r / (1.0 - r)
        rows[family] = ((-delta * alpha3, 1, d * alpha), (-delta * alpha3, 0, d * logr * g))
    return rows


# ---------------------------------------------------------------------------
# Block ranges: their terms are the one source of the collected
# coefficients and the derivation trace (docs/block_assembly.md)
# ---------------------------------------------------------------------------

# The (t-exponent in sixths, log-power) shapes of Q1..Q6, which are also
# c1..c6, and of C1..C11, each mapped to its coefficient's index.
Q_SHAPES = {s: i for i, s in enumerate(((1, 2), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0)))}
C_SHAPES = {s: i for i, s in enumerate((
    (1, 1), (1, 0), (0, 1), (0, 0), (-1, 0), (-3, 0),
    (-2, 0), (-4, 0), (-4, 1), (-3, 1), (-2, 1),
))}


def shape_name(exp6: int, logpow: int) -> str:
    """Trace label of t^{exp6/6} (log t)^logpow, e.g. 't^(1/6) log t'."""
    parts = [f"t^({Fraction(exp6, 6)})"] if exp6 else []
    if logpow:
        parts.append("log t" if logpow == 1 else f"log^{logpow} t")
    return " ".join(parts) or "1"


Q_NAMES = tuple(shape_name(*s) for s in Q_SHAPES)
Q_TARGETS = tuple(f"Q{i + 1}" for i in range(len(Q_SHAPES)))


def _shape_value(t: float, exp6: int, logpow: int) -> float:
    return t ** (exp6 / 6.0) * math.log(t) ** logpow


def q_polynomial(t: float, Q: tuple[float, ...]) -> float:
    logt = math.log(t)
    t16 = t ** (1.0 / 6.0)
    return (
        ((Q[0] * logt + Q[1]) * logt + Q[2]) * t16
        + (Q[3] * logt + Q[4]) * logt
        + Q[5]
    )


@dataclass(frozen=True)
class BlockTable:
    """The block range (t^{alpha3/3}, t^{upper3/3}], whose bound holds where
    t^{alpha3/3} >= e^2.  At t <= the ``cutoff`` parameter the range takes
    its crude bound instead.

    ``terms``, at the values of the fields in ``reads``, lists the range's
    source terms  weight * t^{exp6/6} * block_sum  as (exp6, block sum,
    weight) rows, the block sum a family of ``geom_sum_bounds``.
    ``routes`` gives each of ``shapes`` its index in Q (None for a decaying
    shape, folded into Q6), trace label and value at e^6.
    """

    source: str  # derivation-trace stage name
    alpha3: int
    upper3: int
    reads: tuple[str, ...]  # the BoundParams fields ``terms`` takes, block ratio first
    cutoff: str  # the BoundParams field below which the crude bound applies
    terms: Callable[..., tuple[tuple[int, str, float], ...]]
    shapes: dict[tuple[int, int], int]  # each shape's index in ``collect``
    routes: tuple = field(init=False, repr=False)
    key: Callable[[BoundParams], tuple] = field(init=False, repr=False, compare=False)  # p's ``reads``

    def __post_init__(self) -> None:
        routes = tuple(
            (Q_SHAPES.get(s), shape_name(*s), _shape_value(E6, *s))
            for s in self.shapes
        )
        get = attrgetter(*self.reads)  # a tuple for two or more fields
        object.__setattr__(self, "routes", routes)
        object.__setattr__(self, "key", get if len(self.reads) > 1 else lambda p: (get(p),))

    def coefficients(self, *values: float) -> tuple[float, ...]:
        """``collect`` at these values of the fields in ``reads``: each
        term's weight times each piece of its block sum, added into its
        shape from +0.0, term by term and piece by piece."""
        sums = geom_sum_bounds(self.alpha3, self.upper3, values[0])
        index, out = self.shapes, [0.0] * len(self.shapes)
        for exp6, block_sum, weight in self.terms(*values):
            for piece_exp6, logpow, coef in sums[block_sum]:
                out[index[exp6 + piece_exp6, logpow]] += weight * coef
        return tuple(out)


def collect(table: BlockTable, p: BoundParams) -> tuple[float, ...]:
    """The range's closed-form bound collected into ``table.shapes``."""
    return table.coefficients(*table.key(p))


def crude_bound(table: BlockTable, cutoff: float) -> float:
    """Integral-comparison fallback for the range when t <= its cutoff T (the
    ``table.cutoff`` field): the integral of log u / sqrt(u) over [1, T^{upper}]."""
    return integral_bound(cutoff, table.upper3 / 3.0) + 4.0


def block_bound(table: BlockTable, t: float, p: BoundParams) -> float:
    """Bound for |sum over the range of log n * n^{-1/2-it}|: the crude
    bound up to the cutoff, above it the block decomposition collected into
    ``table.shapes`` (docs/block_assembly.md)."""
    _require_t(t, math.exp(6.0 / table.alpha3), f"block_bound({table.source})")
    if t <= (cutoff := getattr(p, table.cutoff)):
        return crude_bound(table, cutoff)
    return math.fsum(
        c * _shape_value(t, *s) for c, s in zip(collect(table, p), table.shapes)
    )


def _curvature_terms(k: float) -> tuple[tuple[int, str, float], ...]:
    """The upper range's terms: the curvature estimate
    (1/5)(L/V + 1)(8 sqrt(W) + 15) per block, L = (k-1)X + 1, V = 2 pi X^2/t,
    W = 2 pi k^2 X^2/t, times log X / sqrt(X).  The weights are u1..u6 of
    the derivation with the 1/5 folded in.  No term has the shape t^{-1/6}
    of C5, so C5 = 0."""
    return (
        (3, "M2(1)", 0.2 * (2.0**2.5 * k * (k - 1.0) / _SQRT_PI)),
        (3, "M2(3)", 0.2 * (2.0**2.5 * k / _SQRT_PI)),
        (-3, "M1", 0.2 * (2.0**3.5 * _SQRT_PI * k)),
        (6, "M2(3)", 0.2 * (15.0 * (k - 1.0) / (2.0 * math.pi))),
        (6, "M2(5)", 0.2 * (15.0 / (2.0 * math.pi))),
        (0, "M2(1)", 0.2 * 15.0),
    )


BLOCK_23 = BlockTable(
    source="curvature-block-sum", alpha3=2, upper3=3, reads=("k",), cutoff="t1",
    terms=_curvature_terms, shapes=C_SHAPES,
)


def _differencing_terms(tau: float, q: float, t2: float) -> tuple[tuple[int, str, float], ...]:
    """The lower range's terms: differencing, shifted-sum curvature bound
    and triangular weight sums per block.  The weights are w_ab, w_c, ..,
    w_g of the derivation."""
    t2_13 = t2 ** (-1.0 / 3.0)
    tp34 = (tau + 1.0) ** 0.75
    a1, a2 = tau - 1.0 + (q + 1.0) * t2_13, tau - 1.0 + t2_13
    lam = math.sqrt(2.0 * (tau + t2_13) / (5.0 * q))
    return (
        (1, "M0", math.sqrt(a1 * a2 / q) + lam * (
            math.sqrt(32.0 / (15.0 * _SQRT_PI) * (tau - 1.0)) * tp34 * q**0.75)),
        (1, "M2(1)", lam * (math.sqrt(32.0 / (15.0 * _SQRT_PI)) * tp34 * q**0.75)),
        (-1, "M1", lam * (math.sqrt(32.0 * _SQRT_PI / 3.0) * tp34 * q**0.25)),
        (2, "M2(1)", lam * (math.sqrt(5.0 / (2.0 * math.pi) * (tau - 1.0)) * q)),
        (2, "M2(2)", lam * (math.sqrt(5.0 / (2.0 * math.pi)) * q)),
        (0, "M0", lam * math.sqrt(15.0 * q / 2.0)),
    )


BLOCK_13 = BlockTable(
    source="weyl-block-sum", alpha3=1, upper3=2, reads=("tau", "q", "t2"), cutoff="t2",
    terms=_differencing_terms, shapes=Q_SHAPES,
)


# ---------------------------------------------------------------------------
# Six-shape assembly
# ---------------------------------------------------------------------------


def routed(table: BlockTable, coeffs: tuple[float, ...]) -> tuple[float, ...]:
    """The range's coefficients as they add into Q: that of a decaying shape
    (route None) at its maximum over [e^6, inf), its value at t = e^6."""
    return tuple(v if i is not None else v * at_e6 for (i, _, at_e6), v in zip(table.routes, coeffs))


# Each addition to Q1..Q6 in summation order: (Q index, source, trace shape
# ("" for the Q's own), note, whether the row stays in the trace when its
# value is zero).  ``_plan_values`` lists the values of a point alike.
ASSEMBLY_PLAN = (
    (1, "head-integral", "", "", True),  # integral_bound(t, 1/3) = 2 t^{1/6}((1/3) log t - 2)
    (2, "head-integral", "", "", True),
    # block ranges: a Q's shape adds to it, a decaying shape folds into Q6
    *((i, table.source, "", "", True) if i is not None else (5, table.source, name, "folded at t = e^6", False)
      for table in (BLOCK_13, BLOCK_23) for i, name, _ in table.routes),
    (4, "mid-tail-sum", "", "", True),  # the sum over (t, t^2]
    (5, "mid-tail-sum", "", "", True),
    (4, "tail-remainder", "", "", True),  # the constant-factored form for t >= e^6
    (5, "tail-remainder", "", "", True),
    # the polynomial must also dominate the flat crude bounds below t2 and t1
    (5, BLOCK_13.source, "", "crude-branch padding on [e^6, t2]", False),
    (5, BLOCK_23.source, "", "crude-branch padding on [e^6, t1]", False),
)
_PLAN_TARGETS = tuple(row[0] for row in ASSEMBLY_PLAN)


def _plan_values(routed13, routed23, absorb13: float, absorb23: float) -> tuple[float, ...]:
    return (2.0 / 3.0, -4.0, *routed13, *routed23, *MID_TAIL, *TAIL_REMAINDER[2], absorb13, absorb23)


def upper_pieces(k: float) -> tuple:
    """The upper range's share of the assembly, a function of k alone: C, its
    ``routed`` values, their folded sum and the terms of its polynomial at e^6."""
    C = BLOCK_23.coefficients(k)
    fold23, at_e6 = 0.0, []
    for (i, _, at), v in zip(BLOCK_23.routes, C):
        if i is None:
            fold23 += v * at
        else:
            at_e6.append(v * at)
    return C, routed(BLOCK_23, C), fold23, (*at_e6, fold23)


def lower_pieces(tau: float, q: float, t2: float) -> tuple:
    """The lower range's share of the assembly, a function of (tau, q, t2)
    alone: c, its ``routed`` values and the padding ``absorb13``."""
    c = BLOCK_13.coefficients(tau, q, t2)
    return c, routed(BLOCK_13, c), max(0.0, crude_bound(BLOCK_13, t2) - q_polynomial(E6, c))


def upper_padding(upper: tuple, t1: float) -> float:
    """The padding ``absorb23`` on [e^6, t1]; the fsum of the terms at e^6 is taken only for t1 > e^6."""
    return max(0.0, crude_bound(BLOCK_23, t1) - math.fsum(upper[3])) if t1 > E6 else 0.0


def plan_q(routed13, routed23, absorb13: float, absorb23: float) -> tuple[float, ...]:
    """Q1..Q6: each ASSEMBLY_PLAN value added into its Q from +0.0, in plan order."""
    Q = [0.0] * 6
    for i, value in zip(_PLAN_TARGETS, _plan_values(routed13, routed23, absorb13, absorb23)):
        Q[i] += value
    return tuple(Q)


def theorem2_coeffs(p: BoundParams) -> BoundCoefficients:
    """Assemble Q1..Q6 from the per-part bounds so that the six-shape
    polynomial dominates the exact five-part sum at every t >= e^6.

    Shape-for-shape sums are exact; the upper-range decaying shapes and
    the crude branches contribute through constant paddings (their maxima
    over [e^6, infinity)), each recorded in the derivation trace.
    """
    C, routed23, fold23, _ = upper = upper_pieces(*BLOCK_23.key(p))
    c, routed13, absorb13 = lower_pieces(*BLOCK_13.key(p))
    absorb23 = upper_padding(upper, p.t1)
    # Q4 has no k- or q-dependent part: only c4, a function of (tau, t2), feeds it.
    Q = plan_q(routed13, routed23, absorb13, absorb23)
    return BoundCoefficients(p, C, c, Q, fold23, absorb13, absorb23)


def theorem2_bound(
    t: float, p: BoundParams = DEFAULT_PARAMS,
    coeffs: BoundCoefficients | None = None,
) -> BoundCurve:
    """Parametric six-shape bound, valid for t >= e^6.

    The per-part breakdown reproduces the five pieces of the range
    decomposition exactly as they are represented inside the Q
    polynomial, and BoundCurve sums them into the total, while each part
    still dominates its own branchy bound.
    """
    _require_t(t, THRESHOLD[2], "theorem2_bound")
    if coeffs is None:
        coeffs = theorem2_coeffs(p)
    elif coeffs.params is not p and coeffs.params != p:
        raise ValueError("coeffs were assembled for different parameters")
    head, mid_tail, tail_error = theorem2_fixed_parts(t)
    return BoundCurve(t, {"head": head, "block_13": lower_part(t, coeffs.c, coeffs.absorb13),
                          "block_23": upper_part(t, coeffs.C, coeffs.fold23_const, coeffs.absorb23),
                          "mid_tail": mid_tail, "tail_error": tail_error})


def theorem2_fixed_parts(t: float) -> tuple[float, float, float]:
    """Theorem 2's head, mid-tail and tail-remainder parts at t, which no parameter moves."""
    return integral_bound(t, 1.0 / 3.0), MID_TAIL.at(t), TAIL_REMAINDER[2].at(t)


def lower_part(t: float, c: tuple[float, ...], absorb13: float) -> float:
    """Theorem 2's block_13 part at t: the c polynomial plus its padding."""
    return q_polynomial(t, c) + absorb13


def upper_part(t: float, C: tuple[float, ...], fold23: float, absorb23: float) -> float:
    """Theorem 2's block_23 part at t: C's growing shapes, the folded decaying ones, the padding."""
    logt = math.log(t)
    return (C[0] * logt + C[1]) * t ** (1.0 / 6.0) + C[2] * logt + C[3] + fold23 + absorb23


def theorem2_parts_exact(t: float, p: BoundParams = DEFAULT_PARAMS) -> dict[str, float]:
    """The exact five per-part bounds of the range decomposition (branchy
    versions); the Q polynomial must dominate their sum pointwise."""
    _require_t(t, THRESHOLD[2], "theorem2_parts_exact")
    return {
        "head": head_sum_bound(t, 1.0 / 3.0),
        "block_13": block_bound(BLOCK_13, t, p),
        "block_23": block_bound(BLOCK_23, t, p),
        "mid_tail": mid_tail_sum_bound(t),
        "tail_error": TAIL_REMAINDER[2].at(t),
    }
