"""Deterministic floating-point building blocks.

Compensated summation, Bernoulli numbers, and a certified Gauss-Legendre
rule for the analytic, rapidly oscillating integrands of the lemma
checks.  Each returns the same bits for the same inputs (the quadrature,
for the same integrand values) and carries an explicit error contract:

* ``compensated_sum``  -- correctly rounded (``math.fsum``)
* ``compensated_complex_sum`` -- correctly rounded per part; the same bits
  as ``math.fsum`` (``docs/exact_summation.md``)
* ``bernoulli_number`` -- exact rational recurrence, rounded once to float
* ``integrate_gauss_legendre`` -- |value - integral| <= radius, given a
  bound on |f| over each panel's Bernstein ellipse and one on the error of
  each integrand value (``docs/oscillatory_tails.md``, "Certified
  quadrature")
"""

from __future__ import annotations

import math
import operator
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


ArrayFunction = Callable[[np.ndarray], np.ndarray]
# (panel midpoints, real and imaginary semi-axes with a row per rho) -> M_rho
EllipseBound = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

RHO_GRID = (1.25, 1.5, 2.0, 3.0, 4.0, 6.0)  # Bernstein ellipse parameters tried
MAX_GL_NODES = 64  # nodes per panel; the node and weight errors are pinned up to here
GL_WEIGHT_ERR = 2e-13  # relative error of the computed weights (measured: 1.3e-13)
_ROUND_UP = 1.0 + 1e-12  # covers the rounding of the truncation bound's few operations


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, symmetric) and weights of the n-point
    Gauss-Legendre rule on [-1, 1] for even n, read-only and cached: the
    positive roots by Newton's method on the Legendre recurrence, each
    weight 2 / ((1 - x^2) P_n'(x)^2) at its final root."""
    if n < 2 or n % 2:
        raise ValueError(f"gauss_legendre needs an even n >= 2, got {n}")
    x = np.cos(math.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))  # descending
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= EPS:
            break
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x, w = np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def integrate_gauss_legendre(
    f: ArrayFunction,
    a: float,
    b: float,
    tol: float,
    ellipse_bound: EllipseBound,
    wavelength: float,
    node_err: float,
) -> tuple[float, float]:
    """Integral of ``f`` over [a, b] by a fixed Gauss-Legendre rule, with a
    certified radius: (value, radius).

    [a, b] is cut into ceil((b - a) / (8 wavelength)) equal panels,
    ``wavelength`` being the shortest period of f's oscillation on [a, b].
    Each panel gets the n-point rule, n the smallest multiple of 4 up to
    MAX_GL_NODES whose truncation bound, the sum over panels of (64/15) h
    M_rho rho^(2 - 2n) / (rho^2 - 1), meets ``tol`` for some rho in
    RHO_GRID; h is a panel's half-length and M_rho bounds |f| over its
    Bernstein ellipse.  ``ellipse_bound`` returns M_rho
    per panel from the midpoints and the ellipse's semi-axes h (rho +
    1/rho) / 2 and h (rho - 1/rho) / 2, rounded up; a non-finite M_rho
    means the ellipse leaves f's domain.  ``f`` maps a 1-D float64 node
    array to an array of its shape and is called once.  The radius adds
    the rounding of the weights, the products and the sum, and (b - a)
    ``node_err``, where ``node_err`` bounds the error of each computed f
    value (docs/oscillatory_tails.md, "Certified quadrature").

    Raises ValueError on a non-finite or empty [a, b], a non-positive
    ``tol``, or an f not finite at a node (naming the leftmost such
    panel), and ArithmeticError when no rho gives a finite bound or
    ``tol`` needs more than MAX_GL_NODES nodes.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"integrate_gauss_legendre requires finite a < b, got [{a}, {b}]")
    if not (tol > 0.0):
        raise ValueError("tol must be positive")
    panels = math.ceil((b - a) / (8.0 * wavelength))
    edges = a + (b - a) * np.arange(panels + 1, dtype=np.float64) / panels
    edges[-1] = b
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    rho = np.array(RHO_GRID)[:, None]  # one row per rho, one column per panel
    up = half * (1.0 + 4.0 * EPS)
    with np.errstate(all="ignore"):  # cosh overflows, logs of negatives
        m_rho = ellipse_bound(mid, up * (0.5 * (rho + 1.0 / rho)), up * (0.5 * (rho - 1.0 / rho)))
    sums = np.array([math.fsum(row) for row in (half * m_rho).tolist()])  # sum of h M_rho
    ok = np.isfinite(sums)
    if not ok.any():
        raise ArithmeticError(f"no Bernstein ellipse gives a finite bound on [{a}, {b}]")
    ns, rho = np.arange(4, MAX_GL_NODES + 1, 4), rho[ok]
    bounds = 64.0 / 15.0 * sums[ok, None] * rho ** (2 - 2 * ns) / (rho * rho - 1.0)
    bounds = _ROUND_UP * bounds.min(axis=0)  # for each n, over rho
    if not bounds[-1] <= tol:
        raise ArithmeticError(f"tol {tol:g} needs more than {MAX_GL_NODES} nodes on [{a}, {b}]")
    k = int(np.argmax(bounds <= tol))  # the fewest nodes that meet tol
    n, truncation = int(ns[k]), float(bounds[k])
    x, w = gauss_legendre(n)
    fx = np.asarray(f((mid[:, None] + half[:, None] * x).ravel()), dtype=np.float64)
    if fx.shape != (panels * n,):
        raise ValueError("integrand must map a 1-D node array to an array of its shape")
    if not np.isfinite(fx).all():
        j = int(np.argmin(np.isfinite(fx))) // n  # the first non-finite value's panel
        raise ValueError(f"integrand not finite on [{edges[j]}, {edges[j + 1]}]")
    terms = (half[:, None] * w).ravel() * fx
    # weights, two products and the sum: (2 eps + GL_WEIGHT_ERR) sum |w h f|,
    # that sum rounded up by its recursive-summation bound
    scale = float(np.abs(terms).sum()) * (1.0 + terms.size * EPS)
    rounding = (2.0 * EPS + GL_WEIGHT_ERR) * scale + (b - a) * node_err
    return math.fsum(terms.tolist()), truncation + rounding


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
