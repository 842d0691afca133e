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
  whenever the subdivision cap was not hit.
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


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod 7-15 panel: (kronrod value, error estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fk = []
    for x in _GK_NODES[:-1]:
        fk.append(f(mid - half * x))
        fk.append(f(mid + half * x))
    fc = f(mid)
    kron = _GK_WEIGHTS[-1] * fc
    gauss = _G_WEIGHTS[-1] * fc
    for i, x in enumerate(_GK_NODES[:-1]):
        pair = fk[2 * i] + fk[2 * i + 1]
        kron += _GK_WEIGHTS[i] * pair
        if i % 2 == 1:
            gauss += _G_WEIGHTS[i // 2] * pair
    kron *= half
    gauss *= half
    # Standard QUADPACK-style rescaling of the raw difference.
    diff = abs(kron - gauss)
    err = diff if diff == 0.0 else min(diff, diff * math.sqrt(diff / max(abs(kron), 1e-300)) + diff)
    return kron, max(err, abs(kron) * 50.0 * EPS)


def integrate_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    *,
    min_wavelength: float | None = None,
    max_subdivisions: int = 4000,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of ``f`` over [a, b].

    ``min_wavelength`` caps the width of the *initial* panels; callers
    integrating sin/cos phases must pass the shortest oscillation period
    so that no starting panel straddles many cycles (blind bisection can
    otherwise accept a spuriously converged panel).  Panels are then
    bisected worst-first until the summed error estimate falls below
    ``tol`` or the subdivision cap is hit, in which case the result is
    flagged ``converged=False`` and must not be used as an oracle.
    """
    if not (a < b):
        raise ValueError(f"integrate_adaptive requires a < b, got [{a}, {b}]")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")

    width = b - a
    if min_wavelength is not None and min_wavelength > 0:
        n_init = max(1, min(2000, math.ceil(width / min_wavelength)))
    else:
        n_init = 1

    # heap entries: (-panel_error, seq, x0, x1, value, error)
    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    subdivisions = 0
    for i in range(n_init):
        x0 = a + width * i / n_init
        x1 = a + width * (i + 1) / n_init if i + 1 < n_init else b
        val, err = _gk15(f, x0, x1)
        if not math.isfinite(val):
            raise ValueError(f"integrand not finite on [{x0}, {x1}]")
        heapq.heappush(heap, (-err, seq, x0, x1, val, err))
        seq += 1

    # Running totals are tracked incrementally while refining; the final
    # reported value and error are recomputed with compensated summation
    # over the surviving panels in left-to-right order (deterministic).
    total_err = math.fsum(entry[5] for entry in heap)
    while total_err > tol and subdivisions < max_subdivisions:
        _, _, x0, x1, val, err = heapq.heappop(heap)
        xm = 0.5 * (x0 + x1)
        if xm <= x0 or xm >= x1:
            # Panel at float resolution: keep it but stop refining it.
            heapq.heappush(heap, (0.0, seq, x0, x1, val, err))
            seq += 1
            break
        total_err -= err
        for lo, hi in ((x0, xm), (xm, x1)):
            v, e = _gk15(f, lo, hi)
            if not math.isfinite(v):
                raise ValueError(f"integrand not finite on [{lo}, {hi}]")
            heapq.heappush(heap, (-e, seq, lo, hi, v, e))
            seq += 1
            total_err += e
        subdivisions += 1

    panels = sorted((entry[2], entry[4], entry[5]) for entry in heap)
    total_val = compensated_sum(v for _, v, _ in panels)
    total_err = compensated_sum(e for _, _, e in panels)
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
