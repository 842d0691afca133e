"""Certified evaluation of zeta and its derivative on the critical line.

``zeta_em`` / ``zeta_prime_em`` use a boundary-corrected truncation whose
remainder is bounded in closed form (``docs/remainder_bounds.md``).  This
route is the value side of every envelope check (``verify --theorem`` and
``scan``) as well as of ``eval``; an alternating-series oracle kept with
the tests, and mpmath where installed, cross-check it.  Certified
evaluation is supported up to ``|t| <= 1e5`` so the full verification
suite stays desk-scale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import EPS, bernoulli_number, compensated_complex_sum

# Certified-evaluation ceiling; the truncation index never exceeds 8|t| <= 8e5
# terms, and at the default tol it is about 0.37|t|.
T_CEILING = 1.0e5
_MAX_V = 15  # largest correction order EMConfig accepts


@dataclass(frozen=True)
class EvalPoint:
    """A point s = sigma + it; sigma defaults to the critical line."""

    t: float
    sigma: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.sigma)):
            raise ValueError("EvalPoint requires finite coordinates")

    @property
    def s(self) -> complex:
        return complex(self.sigma, self.t)


@dataclass(frozen=True)
class EMConfig:
    """Truncation index N, correction order v, and target tolerance."""

    N: int
    v: int
    tol: float = 1e-9

    def validate(self, point: EvalPoint) -> None:
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not (0 <= self.v <= _MAX_V):
            raise ValueError(f"v must lie in [0, {_MAX_V}], got {self.v}")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        _check_domain(point, self.v, derivative=False)


@dataclass(frozen=True)
class CertifiedComplex:
    value: complex
    error_bound: float  # absolute
    converged: bool = True

    def __post_init__(self) -> None:
        if not (self.error_bound >= 0 and math.isfinite(self.error_bound)):
            raise ValueError("error_bound must be finite and non-negative")


def default_em_config(
    point: EvalPoint, tol: float = 1e-9, for_derivative: bool = False
) -> EMConfig:
    """The smallest truncation index N in [64, cap] whose remainder bound at
    correction order v = 15 meets ``tol``, with cap = max(ceil(8|t|), 64).

    The bound (the derivative's when the config will feed zeta_prime_em)
    decreases in N, and v = 15, the largest order ``EMConfig`` allows, gives
    the smallest such N.  If even the cap misses ``tol`` the config is
    (cap, 15) and the evaluation reports itself non-converged.
    """
    if abs(point.t) > T_CEILING:
        raise ValueError(f"|t| exceeds the certified ceiling {T_CEILING:g}")
    cap = max(math.ceil(8 * abs(point.t)), 64)
    bound = _remainder_bound_in_n(point, _MAX_V, for_derivative)
    lo, hi = 64, cap  # the smallest N meeting tol, if any, lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return EMConfig(N=lo, v=_MAX_V, tol=tol)


def _power_sums(s: complex, N: int, log_weighted: bool) -> tuple[complex, float]:
    """sum_{n<N} n^{-s} (or sum_{n<N} log n * n^{-s} when ``log_weighted``),
    each part correctly rounded by ``compensated_complex_sum``
    (docs/exact_summation.md), plus the root-sum-square of the term moduli
    that feeds the rounding budget."""
    if N <= 1:
        return 0.0 + 0.0j, 0.0
    n = np.arange(1, N, dtype=np.float64)
    logn = np.log(n)
    moduli = n ** (-s.real)
    terms = moduli * np.exp(-1j * s.imag * logn)
    if log_weighted:
        terms = logn * terms
        moduli = logn * moduli
    return compensated_complex_sum(terms), math.sqrt(float(np.sum(moduli**2)))


def _phase_rounding_budget(t: float, N: int, rss: float) -> float:
    """Rounding budget for sums of n^{-s}-type terms.

    Each term's phase t log n is computed in doubles, so it carries an
    absolute rounding error of order eps * |t| log n; the resulting term
    errors inherit quasi-uniform phases and accumulate like a root-sum-
    square.  The 8x safety factor is validated empirically by the
    cross-oracle agreement tests, which fail if this budget under-covers.
    """
    return 8.0 * EPS * (abs(t) * math.log(max(N, 2)) + 4.0) * rss


def _pochhammer_abs(s: complex, count: int) -> float:
    """prod_{i=0}^{count-1} |s + i| (count >= 1)."""
    prod = 1.0
    for i in range(count):
        prod *= abs(s + i)
    return prod


def _check_domain(point: EvalPoint, v: int, derivative: bool) -> None:
    """Where the closed-form remainder bounds hold (docs/remainder_bounds.md):
    sigma > 0 at v = 0, and p = sigma + 2v - 1 > 0 at v >= 1.  The
    derivative also divides by s + i for i < 2v, which vanishes only at
    t = 0 with sigma a non-positive integer."""
    if not (point.sigma > 0 if v == 0 else point.sigma + 2 * v - 1 > 0):
        raise ValueError(
            "the remainder bound needs sigma > 0 at v = 0 and sigma + 2v - 1 > 0 "
            f"at v >= 1 (sigma={point.sigma}, v={v})"
        )
    if derivative and point.t == 0 and point.sigma <= 0 and float(point.sigma).is_integer():
        raise ValueError(f"the derivative bound needs s + i != 0 for i < 2v (s={point.s})")


def _remainder_bound_in_n(
    point: EvalPoint, v: int, derivative: bool
) -> Callable[[int], float]:
    """The order-v truncation-remainder bound as a function of N.

    For v >= 1, with K = prod_{i<2v} |s+i| * |B_{2v}| / (2v)!,
    H = sum_{i<2v} 1/|s+i| and p = sigma + 2v - 1 (docs/remainder_bounds.md):

        remainder:   K * N^{-p} / p
        derivative:  K * N^{-p} / p * (H + log N + 1/p)

    For v = 0 the kernel is the fractional part, bounded by 1 (sigma > 0):

        remainder:   |s| * N^{-sigma} / sigma
        derivative:  N^{-sigma} / sigma + |s| * N^{-sigma} * (log N / sigma + 1/sigma^2)

    Everything that does not depend on N is computed once here, so a search
    over N costs one power (and one log) per probe.  The point must lie in
    the domain of ``_check_domain``.
    """
    _check_domain(point, v, derivative)
    s = point.s
    if v == 0:
        sigma = point.sigma
        if not derivative:
            return lambda N: abs(s) * N ** (-sigma) / sigma
        return lambda N: N ** (-sigma) / sigma + abs(s) * (
            N ** (-sigma) * (math.log(N) / sigma + 1.0 / sigma**2)
        )
    p = point.sigma + 2 * v - 1  # decay exponent of the integrated tail
    k = _pochhammer_abs(s, 2 * v) * abs(bernoulli_number(2 * v)) / math.factorial(2 * v)
    if not derivative:
        return lambda N: k * N ** (-p) / p
    shift = sum(1.0 / abs(s + i) for i in range(2 * v)) + 1.0 / p
    return lambda N: k * N ** (-p) / p * (shift + math.log(N))


def em_remainder_bound(
    point: EvalPoint, N: int, v: int, derivative: bool = False
) -> float:
    """Closed-form bound for the order-v truncation remainder of ``zeta_em``
    (or, with ``derivative``, of ``zeta_prime_em``).

    For v >= 1 it uses |periodized B_{2v}(x)| <= |B_{2v}|, giving

        (|s||s+1|...|s+2v-1| / (2v)!) * |B_{2v}| * N^{1-sigma-2v} / (sigma+2v-1);

    the derivative bound and the v = 0 bounds are derived in
    docs/remainder_bounds.md.
    """
    if v < 0:
        raise ValueError("em_remainder_bound requires v >= 0")
    if N < 1:
        raise ValueError("N must be positive")
    return _remainder_bound_in_n(point, v, derivative)(N)


def _truncated(point: EvalPoint, cfg: EMConfig, derivative: bool) -> CertifiedComplex:
    """The corrected truncation of zeta(s), or its term-wise s-derivative.

    The error bound is the truncation remainder plus the phase-rounding
    budget of the power sum (``_phase_rounding_budget``); the summation
    itself is correctly rounded, so its error (half an ulp per part) is
    left out.
    """
    cfg.validate(point)
    if abs(point.t) > T_CEILING:
        raise ValueError(f"|t| exceeds the certified ceiling {T_CEILING:g}")
    remainder_bound = _remainder_bound_in_n(point, cfg.v, derivative)
    s = point.s
    N = cfg.N
    logN = math.log(N)
    head, rss = _power_sums(s, N, log_weighted=derivative)
    n_pow = cmath.exp(-s * logN)  # N^{-s}
    if derivative:
        value = -head
        value += -logN * N * n_pow / (s - 1) - N * n_pow / (s - 1) ** 2
        value += -0.5 * logN * n_pow
    else:
        value = head + N * n_pow / (s - 1) + 0.5 * n_pow
    # Order j needs poch = s(s+1)...(s+2j-2) and, for the derivative,
    # harm = sum_{i<2j-1} 1/(s+i).  Both are carried from order j-1 and
    # extended by i = 2j-3, 2j-2 (by i = 0 for j = 1): O(v) work, not O(v^2).
    poch = 1.0 + 0.0j
    harm = 0.0
    for j in range(1, cfg.v + 1):
        for i in range(max(2 * j - 3, 0), 2 * j - 1):
            poch *= s + i
            if derivative:
                harm += 1.0 / (s + i)
        # d/ds (poch * N^{-s}) over N^{-s}
        coef = poch * harm - poch * logN if derivative else poch
        term = (
            bernoulli_number(2 * j)
            / math.factorial(2 * j)
            * coef
            * N ** (1 - 2 * j)
            * n_pow
        )
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise OverflowError("correction-term overflow; reduce v")
        value += term
    trunc = remainder_bound(N)
    err = trunc + _phase_rounding_budget(point.t, N, rss)
    return CertifiedComplex(value=value, error_bound=err, converged=trunc <= cfg.tol)


def zeta_em(point: EvalPoint, cfg: EMConfig) -> CertifiedComplex:
    """zeta(s) by truncated summation with boundary and curvature corrections.

    value = sum_{n<N} n^-s + N^{1-s}/(s-1) + N^-s/2
            + sum_{j<=v} (B_2j/(2j)!) s(s+1)...(s+2j-2) N^{-s-2j+1}
    """
    return _truncated(point, cfg, derivative=False)


def zeta_prime_em(point: EvalPoint, cfg: EMConfig) -> CertifiedComplex:
    """zeta'(s) by term-wise differentiation of the ``zeta_em`` truncation.

    The slowly convergent tail integrals never get evaluated numerically:
    they are differentiated under the integral sign and bounded in closed
    form (``docs/remainder_bounds.md``), which keeps the result certified.
    """
    return _truncated(point, cfg, derivative=True)
