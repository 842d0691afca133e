"""Deterministic floating-point building blocks.

Compensated summation, Bernoulli numbers, and an adaptive quadrature
oracle able to cope with rapidly oscillating integrands.  Everything in
here is pure: same inputs, same bits, on any platform with IEEE-754
doubles.  All higher-level bound checks in this package lean on these
primitives, so each one carries an explicit error contract:

* ``compensated_sum``  -- correctly rounded (``math.fsum``)
* ``compensated_complex_sum`` -- correctly rounded per part; the same bits
  as ``math.fsum`` (``docs/exact_summation.md``)
* ``bernoulli_number`` -- exact rational recurrence, rounded once to float
* ``integrate_adaptive`` -- |value - integral| <= error_estimate <= tol
  whenever the subdivision cap was not hit.  The integrand is an array
  function (1-D float64 nodes in, values of the same shape out), called
  once per batch of panels; each panel's Kronrod and Gauss sums are
  formed elementwise in a fixed order, never through BLAS, so a panel's
  value and error depend only on its node values, not on its batch.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

EPS = math.ulp(1.0)  # 2^-52
BERNOULLI_MAX_M = 120  # largest index bernoulli_number accepts


def compensated_sum(terms: Iterable[float]) -> float:
    """Correctly rounded sum of ``terms`` (``math.fsum``).

    Raises ValueError on non-finite input.  The empty sum is 0.0.
    """
    values = [float(x) for x in terms]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite term in compensated sum")
    return math.fsum(values)


# Exact summation of long arrays; docs/exact_summation.md proves each step.
# m * 2^53 (np.frexp's m) is an integer, split as hi * 2^27 + lo with
# |hi| < 2^26 and |lo| < 2^27; float64 bins per exponent sum the halves.
_EXACT_MIN_TERMS = 768  # below this, math.fsum is the faster of the two
_CHUNK = 4096  # complex terms per bincount pass; bounds the temporaries
_FLUSH_TERMS = 2**26  # 2^26 * (2^27 - 1) < 2^53: every bin sum stays exact
_EXP_MIN = -1073  # np.frexp(5e-324) = (0.5, -1073)
_EXP_BINS = 1024 - _EXP_MIN + 1
_SCALE = 1 << (53 - _EXP_MIN)  # every double is an integer multiple of 1/_SCALE
# bincount index of the interleaved (re, im) doubles: exponent bins of the
# real part, then those of the imaginary part
_BIN_INDEX = np.tile(np.array([-_EXP_MIN, _EXP_BINS - _EXP_MIN], dtype=np.intp), _CHUNK)
# the bit position (in units of 1/_SCALE) of each bin of one part: hi halves
# sit 27 bits above the lo halves of the same exponent
_BIN_SHIFT = np.concatenate([np.arange(_EXP_BINS) + 27, np.arange(_EXP_BINS)])


def _bin_sums(flat: np.ndarray) -> np.ndarray:
    """Exact per-exponent sums of the halves of at most _FLUSH_TERMS
    complex terms, given as their interleaved doubles; shape (part, half,
    exponent) with part 0 real, 1 imaginary and half 0 hi, 1 lo."""
    bins = np.zeros((2, 2, _EXP_BINS))
    for start in range(0, flat.size, 2 * _CHUNK):
        m, e = np.frexp(flat[start:start + 2 * _CHUNK])
        m *= 2.0**26
        hi = np.trunc(m)
        lo = np.subtract(m, hi, out=m)
        lo *= 2.0**27
        index = np.add(e, _BIN_INDEX[: e.size])
        for half, weights in enumerate((hi, lo)):
            counts = np.bincount(index, weights=weights, minlength=2 * _EXP_BINS)
            bins[:, half] += counts.reshape(2, _EXP_BINS)
    return bins


def _exact_complex_sum(arr: np.ndarray) -> complex:
    """Correctly rounded sum of each part of a finite 1-D complex array."""
    flat = arr.view(np.float64)
    totals = [0, 0]  # each part's exact sum times _SCALE
    for start in range(0, flat.size, 2 * _FLUSH_TERMS):
        for part, bins in enumerate(_bin_sums(flat[start:start + 2 * _FLUSH_TERMS])):
            used = np.flatnonzero(bins != 0)
            values = map(int, bins.ravel()[used].tolist())
            totals[part] += sum(map(operator.lshift, values, _BIN_SHIFT[used].tolist()))
    # int / int is correctly rounded, half to even; an exact zero gives +0.0
    return complex(totals[0] / _SCALE, totals[1] / _SCALE)


def compensated_complex_sum(values: np.ndarray) -> complex:
    """Correctly rounded sum of a complex array, each part on its own.

    The result has the same bits as ``math.fsum`` of the real parts and of
    the imaginary parts.  Below _EXACT_MIN_TERMS terms it is ``math.fsum``;
    longer arrays go through an exact binned accumulator that rounds once,
    with temporaries bounded by _CHUNK terms (``docs/exact_summation.md``).
    Raises ValueError on non-finite input.
    """
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if arr.size and not np.isfinite(arr).all():
        raise ValueError("non-finite term in compensated sum")
    if arr.size < _EXACT_MIN_TERMS:
        return complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))
    return _exact_complex_sum(arr)


@lru_cache(maxsize=None)
def _bernoulli_exact(m: int) -> Fraction:
    # B_m by the defining recurrence sum_{k<=m} C(m+1,k) B_k = 0, exact
    # rationals throughout.  The cache makes each B_k a single computation
    # however many orders are requested.
    if m == 0:
        return Fraction(1)
    s = Fraction(0)
    for k in range(m):
        if k < 2 or k % 2 == 0:  # B_k = 0 for odd k >= 3
            s += math.comb(m + 1, k) * _bernoulli_exact(k)
    return -s / (m + 1)


def bernoulli_number(m: int) -> float:
    """Bernoulli number B_m for even m with 2 <= m <= BERNOULLI_MAX_M (120),
    twice the largest Euler-Maclaurin order ``zeta.EMConfig`` accepts.

    Computed through the exact rational recurrence and rounded once, so
    the result is within 1 ulp of the true value.  Each B_m is computed
    on first use and cached, together with every B_k below it; a cold
    B_120 takes milliseconds, so callers ask only for the orders they use.
    """
    if not isinstance(m, int) or m % 2 != 0 or not (2 <= m <= BERNOULLI_MAX_M):
        raise ValueError(
            f"bernoulli_number requires even m in [2, {BERNOULLI_MAX_M}], got {m!r}"
        )
    return float(_bernoulli_exact(m))


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float  # absolute
    subdivisions: int
    converged: bool = True


# Gauss-Kronrod 7-15 nodes/weights on [-1, 1] (abscissae symmetric).
_GK_NODES = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_GK_WEIGHTS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_G_WEIGHTS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)


ArrayFunction = Callable[[np.ndarray], np.ndarray]

# Each panel's 15 nodes as offsets from its midpoint in half-widths: the
# pairs -x, +x of the scalar rule's order, then the centre.
_GK_OFFSETS = np.array([s * x for x in _GK_NODES[:-1] for s in (-1.0, 1.0)] + [0.0])[:, None]
# Weights of the rows (centre value, pair 0, ..., pair 6) in the order the
# scalar rule adds them: the Kronrod sum takes every row, the Gauss sum the
# centre and the odd pairs.
_KRONROD_ROWS = np.array(_GK_WEIGHTS[-1:] + _GK_WEIGHTS[:-1])[:, None]
_GAUSS_ROWS = np.array(_G_WEIGHTS[-1:] + _G_WEIGHTS[:-1])[:, None]


def _gk15(f: ArrayFunction, x0: np.ndarray, x1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Kronrod 7-15 on the panels [x0[j], x1[j]]: (kronrod values,
    error estimates), with ``f`` called once on all their nodes.  Each sum
    is a sequential ``np.add.accumulate`` over rows in the one-panel
    rule's order (no BLAS, no pairwise reduction)."""
    half = 0.5 * (x1 - x0)
    mid = 0.5 * (x0 + x1)
    nodes = mid + half * _GK_OFFSETS  # row k holds node k of every panel
    fx = np.asarray(f(nodes.ravel()), dtype=np.float64)
    if fx.shape != (nodes.size,):
        raise ValueError("integrand must map a 1-D node array to an array of its shape")
    fx = fx.reshape(nodes.shape)
    # a non-finite integrand may give inf - inf here; the caller reports it
    with np.errstate(invalid="ignore", over="ignore"):
        rows = np.empty((8, fx.shape[1]))
        rows[0] = fx[14]
        np.add(fx[0:14:2], fx[1:14:2], out=rows[1:])
        kron = np.add.accumulate(rows * _KRONROD_ROWS)[-1] * half
        gauss = np.add.accumulate(rows[::2] * _GAUSS_ROWS)[-1] * half
        # |kron - gauss|, floored at 50 EPS |kron|
        err = np.maximum(np.abs(kron - gauss), np.abs(kron) * 50.0 * EPS)
    return kron, err


def _require_finite(values: list[float], x0: list[float], x1: list[float]) -> None:
    """Raise for the leftmost panel whose value is not finite."""
    if not all(map(math.isfinite, values)):
        j = next(j for j, v in enumerate(values) if not math.isfinite(v))
        raise ValueError(f"integrand not finite on [{x0[j]}, {x1[j]}]")


def integrate_adaptive(
    f: ArrayFunction,
    a: float,
    b: float,
    tol: float,
    *,
    min_wavelength: float | None = None,
    max_subdivisions: int = 4000,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of ``f`` over [a, b].

    ``f`` maps a 1-D float64 array of nodes to an array of the same shape;
    it is called once for all the initial panels and once per bisection.
    ``min_wavelength`` caps the width of the *initial* panels (at most
    2000 of them); callers integrating sin/cos phases must pass the
    shortest oscillation period so that no starting panel straddles many
    cycles (blind bisection can otherwise accept a spuriously converged
    panel).  Panels are then bisected worst-first (ties to the older
    panel) until the summed error estimate falls below ``tol`` or the
    subdivision cap is hit, in which case the result is flagged
    ``converged=False`` and must not be used as an oracle.  Raises
    ValueError on a non-finite or empty [a, b], a non-positive ``tol``, or
    an integrand not finite on a panel (naming the leftmost of its batch).
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integrate_adaptive requires finite a and b, got [{a}, {b}]")
    if not (a < b):
        raise ValueError(f"integrate_adaptive requires a < b, got [{a}, {b}]")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    width = b - a
    if min_wavelength is not None and min_wavelength > 0:
        n_init = max(1, min(2000, math.ceil(width / min_wavelength)))
    else:
        n_init = 1

    # panel i is [a + width i / n_init, a + width (i + 1) / n_init], the last
    # one ending at b
    edges = a + width * np.arange(n_init + 1, dtype=np.float64) / n_init
    edges[-1] = b
    vals, errs = _gk15(f, edges[:-1], edges[1:])
    vals, errs, edges = vals.tolist(), errs.tolist(), edges.tolist()
    _require_finite(vals, edges[:-1], edges[1:])

    # heap entries: (-panel_error, seq, x0, x1, value, error)
    heap = list(zip([-e for e in errs], range(n_init), edges[:-1], edges[1:], vals, errs))
    heapq.heapify(heap)
    seq = n_init
    subdivisions = 0

    # The running total is tracked incrementally while refining; the
    # reported value and error are correctly rounded sums over the
    # surviving panels, which no order of the panels can change.
    total_err = math.fsum(errs)
    while total_err > tol and subdivisions < max_subdivisions:
        _, _, x0, x1, val, err = heapq.heappop(heap)
        xm = 0.5 * (x0 + x1)
        if xm <= x0 or xm >= x1:
            # Panel at float resolution: keep it but stop refining it.
            heapq.heappush(heap, (0.0, seq, x0, x1, val, err))
            break
        total_err -= err
        vals, errs = _gk15(f, np.array([x0, xm]), np.array([xm, x1]))
        vals = vals.tolist()
        _require_finite(vals, [x0, xm], [xm, x1])
        (v0, v1), (e0, e1) = vals, errs.tolist()
        heapq.heappush(heap, (-e0, seq, x0, xm, v0, e0))
        heapq.heappush(heap, (-e1, seq + 1, xm, x1, v1, e1))
        seq += 2
        total_err += e0
        total_err += e1
        subdivisions += 1

    total_val = compensated_sum(entry[4] for entry in heap)
    total_err = compensated_sum(entry[5] for entry in heap)
    return QuadratureResult(
        value=total_val,
        error_estimate=total_err,
        subdivisions=subdivisions,
        converged=total_err <= tol,
    )


def geometric_grid(lo: float, hi: float, n: int) -> list[float]:
    """n geometrically spaced points from lo to hi inclusive (n >= 1)."""
    if n < 1:
        raise ValueError("need at least one grid point")
    if n == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    pts = [lo * ratio**i for i in range(n)]
    pts[-1] = hi
    return pts
