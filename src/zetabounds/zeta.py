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
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice
from typing import Callable, Iterator

import numpy as np

from .numerics import BERNOULLI_MAX_M, EPS, bernoulli_number, compensated_complex_sum

# Certified-evaluation ceiling; the truncation index never exceeds 8|t| <= 8e5
# terms, and at the default tol it falls from about 0.34|t| at t = 1e3 to
# 0.19|t| at t = 1e5 (docs/remainder_bounds.md, "Choosing N and v").
T_CEILING = 1.0e5
_MAX_V = BERNOULLI_MAX_M // 2  # largest correction order EMConfig accepts (60)
_START_V = 15  # default_em_config's first order; see its docstring
# The time of one more correction order in power-sum terms (measured, see
# docs/remainder_bounds.md); default_em_config raises v while it saves more.
_COST_PER_ORDER = 32
_LOG_MAX = math.log(sys.float_info.max)


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

    def __post_init__(self) -> None:
        # a float N would end the power sum and start the tail apart
        object.__setattr__(self, "N", _integer("N", self.N))
        object.__setattr__(self, "v", _integer("v", self.v))
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N}")
        if not (1 <= self.v <= _MAX_V):
            raise ValueError(f"v must lie in [1, {_MAX_V}], got {self.v}")
        _check_tol(self.tol)


def _integer(name: str, value: int) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_tol(tol: float) -> None:
    if not (0 < tol < math.inf):
        raise ValueError("tol must be finite and positive")


@dataclass(frozen=True)
class CertifiedComplex:
    """A value and an absolute error radius.  ``converged`` says only that
    the truncation remainder met the config's ``tol``; ``error_bound`` also
    holds every rounding and may exceed ``tol`` (README, "Numerical policy")."""

    value: complex
    error_bound: float  # absolute
    converged: bool = True

    def __post_init__(self) -> None:
        if not (self.error_bound >= 0 and math.isfinite(self.error_bound)):
            raise ValueError("error_bound must be finite and non-negative")


def default_em_config(
    point: EvalPoint, tol: float = 1e-9, for_derivative: bool = False
) -> EMConfig:
    """The cheapest (N, v) whose remainder bound meets ``tol``, under the
    cost model N + _COST_PER_ORDER * v (docs/remainder_bounds.md).

    N is the smallest truncation index in [64, cap] meeting ``tol`` at
    order v, with cap = max(ceil(8|t|), 64).  The walk estimates that N
    from v = 15 up while the cost falls, so it never returns a config
    dearer than the v = 15 one, and settles the last N taken exactly.  The
    bound is the derivative's when the config will feed zeta_prime_em.  If
    no N up to the cap meets ``tol`` at v = 15 the config is (cap, 15) and
    the evaluation reports itself non-converged.  ``tol`` bounds the
    truncation remainder only: the evaluation's radius adds the rounding
    bound, which above t ~ 1.7e3 can exceed it.
    """
    if abs(point.t) > T_CEILING:
        raise ValueError(f"|t| exceeds the certified ceiling {T_CEILING:g}")
    _check_tol(tol)
    _check_domain(point, _START_V, for_derivative)
    cap = max(math.ceil(8 * abs(point.t)), 64)
    # The smallest N at order v solves log N = (log K - log(p tol) + log(H +
    # 1/p + log N)) / p, the value's without the last log.  Each fixed-point
    # step shrinks the error by 1 / (p (H + 1/p + log N)) < 1/30: four from
    # log(cap) at v = 15, then two from the last estimate.
    log_tol, log_cap = math.log(tol), math.log(cap)
    hi, y, steps = cap, log_cap, 4  # order v must need at most hi terms
    taken = None
    sums = islice(_pochhammer_sums(point.s), _START_V - 1, None)
    for v, (log_pi, habs) in enumerate(sums, start=_START_V):
        if v > _MAX_V or hi < 64:
            break
        log_k, p, shift = _bound_constants(point.sigma, v, log_pi, habs)
        a = log_k - math.log(p) - log_tol
        for _ in range(steps):
            y = (a + math.log(shift + y)) / p if for_derivative else a / p
            if y < 0.0:  # keeps log(shift + y) defined; the estimate is 64 either way
                y = 0.0
        if y > log_cap:  # hi <= cap; before exp, which overflows near sigma = -29
            break
        estimate = max(64, math.ceil(math.exp(y)))
        if estimate > hi:
            break
        N, taken = estimate, (v, log_k, p, shift)
        hi, steps = N - _COST_PER_ORDER - 1, 2
    if taken is None:  # even the cap misses tol at v = 15
        return EMConfig(N=cap, v=_START_V, tol=tol)
    v, *constants = taken
    bound = _bound_in_n(*constants, for_derivative)
    while N < cap and bound(N) > tol:  # settle with the bound _truncated uses
        N += 1
    while N > 64 and bound(N - 1) <= tol:
        N -= 1
    return EMConfig(N=N, v=v, tol=tol)


def _power_sums(s: complex, N: int, log_weighted: bool) -> tuple[complex, float]:
    """sum_{n<N} n^{-s} (or sum_{n<N} log n * n^{-s} when ``log_weighted``),
    each part correctly rounded by ``compensated_complex_sum``
    (docs/exact_summation.md), and the sum of the term moduli."""
    n = np.arange(1, N, dtype=np.float64)
    logn = np.log(n)
    moduli = n ** (-s.real)
    terms = moduli * np.exp(-1j * s.imag * logn)
    if log_weighted:
        terms = logn * terms
        moduli = logn * moduli
    return compensated_complex_sum(terms), float(np.sum(moduli))


def _pow_err(point: EvalPoint, log_n: float) -> float:
    """The relative rounding of N^{-s} in ``_em_tail`` and of n^{-s} in
    ``_power_sums`` when log n <= ``log_n`` (docs/remainder_bounds.md)."""
    return EPS * (2.0 * (abs(point.t) + abs(point.sigma)) * log_n + 4.0)


@lru_cache(maxsize=None)
def _correction_ratio(j: int) -> float:
    """B_{2j} / (B_{2j-2} (2j)(2j-1)) (B_0 = 1), the ratio of B_{2j}/(2j)!
    to B_{2j-2}/(2j-2)!; computed on first use, so only the orders a
    caller reaches cost a Bernoulli number."""
    prev = bernoulli_number(2 * j - 2) if j > 1 else 1.0
    return bernoulli_number(2 * j) / prev / (2 * j * (2 * j - 1))


@lru_cache(maxsize=None)
def _log_bernoulli_factor(v: int) -> float:
    """log(|B_{2v}| / (2v)!)."""
    return math.log(abs(bernoulli_number(2 * v))) - math.log(math.factorial(2 * v))


def _pochhammer_sums(s: complex) -> Iterator[tuple[float, float]]:
    """Yield sum_{i<2v} log|s+i| and sum_{i<2v} 1/|s+i| for v = 1, 2, ...
    Once some s + i = 0 they are -inf (the product is 0) and inf."""
    log_pi = habs = 0.0
    for i in count(0, 2):
        a, b = abs(s + i), abs(s + (i + 1))
        if a and b:
            log_pi += math.log(a * b)
            habs += 1.0 / a + 1.0 / b
        else:
            log_pi, habs = -math.inf, math.inf
        yield log_pi, habs


def _check_domain(point: EvalPoint, v: int, derivative: bool) -> None:
    """Where the closed-form remainder bounds hold (docs/remainder_bounds.md):
    p = sigma + 2v - 1 > 0.  The derivative also divides by s + i for
    i < 2v, which vanishes only at t = 0 with sigma a non-positive integer."""
    if not point.sigma + 2 * v - 1 > 0:
        raise ValueError(
            f"the remainder bound needs sigma + 2v - 1 > 0 (sigma={point.sigma}, v={v})"
        )
    if derivative and point.t == 0 and point.sigma <= 0 and float(point.sigma).is_integer():
        raise ValueError(f"the derivative bound needs s + i != 0 for i < 2v (s={point.s})")


def _bound_constants(sigma: float, v: int, log_pi: float, habs: float) -> tuple[float, ...]:
    """log K, p and H + 1/p of the order-v bound, from
    log_pi = sum_{i<2v} log|s+i| and habs = H."""
    p = sigma + 2 * v - 1
    return log_pi + _log_bernoulli_factor(v), p, habs + 1.0 / p


def em_remainder_bound(point: EvalPoint, N: int, v: int, derivative: bool = False) -> float:
    """Closed-form bound for the order-v truncation remainder of ``zeta_em``
    (or, with ``derivative``, of ``zeta_prime_em``).

    With K = prod_{i<2v} |s+i| * |B_{2v}| / (2v)!, H = sum_{i<2v} 1/|s+i|
    and p = sigma + 2v - 1 (docs/remainder_bounds.md):

        remainder:   K * N^{-p} / p
        derivative:  K * N^{-p} / p * (H + log N + 1/p)

    It raises ValueError outside the domain of ``_check_domain``.
    """
    if N < 1 or v < 1:
        raise ValueError(f"em_remainder_bound needs N, v >= 1, got N={N}, v={v}")
    return _remainder_in_n(point, v, derivative)(N)


def _remainder_in_n(point: EvalPoint, v: int, derivative: bool) -> Callable[[int], float]:
    """``em_remainder_bound`` at order v as a function of N, after ``_check_domain``."""
    _check_domain(point, v, derivative)
    sums = next(islice(_pochhammer_sums(point.s), v - 1, None))
    return _bound_in_n(*_bound_constants(point.sigma, v, *sums), derivative)


def _bound_in_n(log_k: float, p: float, shift: float, derivative: bool) -> Callable[[int], float]:
    """The bound of constants log K, p and H + 1/p as a function of N.  K N^{-p}
    is formed as exp(log K - p log N), since K alone overflows at high order
    (|s|^119 ~ 1e595 at t = 1e5, v = 60); inf where K N^{-p} does."""

    def bound(N: int) -> float:
        log_n = math.log(N)
        x = log_k - p * log_n
        if x >= _LOG_MAX:
            return math.inf
        return math.exp(x) / p * (shift + log_n) if derivative else math.exp(x) / p

    return bound


def _corrections(
    s: complex, N: int, n_pow: complex, v: int, derivative: bool, pow_err: float
) -> tuple[complex, float]:
    """The sum of the order-1..v corrections of ``zeta_em`` (of their
    s-derivatives, with ``derivative``) and a bound on its rounding error.

    The order-j value correction is
    base_j = B_2j/(2j)! s(s+1)...(s+2j-2) N^{1-2j} N^{-s}, the running
    product of base_0 = N N^{-s} and the ratios
    base_j / base_{j-1} = _correction_ratio(j) (s+2j-3)(s+2j-2) / N^2
    (s alone at j = 1), so no |s|^{2j} is ever formed.  The derivative
    correction is base_j (harm_j - log N), harm_j = sum_{i<2j-1} 1/(s+i).
    base_j is off by at most 7 j eps relative and the derivative term by
    16 j eps |base_j| (H_j + log N), H_j = sum_{i<2j-1} 1/|s+i|; summing
    v terms adds v eps times each modulus (docs/remainder_bounds.md).
    ``n_pow`` = N^{-s} is taken as off by at most ``pow_err`` relative,
    an error every term inherits.
    """
    logN = math.log(N)
    n2 = float(N * N)
    base = N * n_pow
    total = harm = 0j
    habs = rounding = moduli = 0.0
    for j in range(1, v + 1):
        a = s + (2 * j - 2)
        step = _correction_ratio(j) / n2
        if j == 1:
            base *= step * a
        else:
            b = a - 1
            base *= step * (b * a)
            if derivative:
                inv = 1.0 / b
                harm += inv
                habs += abs(inv)
        if derivative:
            inv = 1.0 / a
            harm += inv
            habs += abs(inv)
            term = base * (harm - logN)
            mag = abs(base) * (habs + logN)
        else:
            term = base
            mag = abs(base)
        if not (math.isfinite(term.real) and math.isfinite(term.imag)):
            raise OverflowError("correction-term overflow; reduce v")
        total += term
        rounding += (16 * j + v) * mag
        moduli += mag
    return total, EPS * rounding + pow_err * moduli


def _em_tail(
    point: EvalPoint, N: int, v: int, derivative: bool, start: complex = 0j
) -> tuple[complex, float]:
    """start + T(N) and a bound on its rounding, where T(N), the boundary
    terms plus the order-1..v corrections, is the Euler-Maclaurin tail of
    zeta (of zeta', with ``derivative``) at N: sum_{n>=N} n^{-s} (minus
    sum_{n>=N} log n n^{-s}) up to the remainder bound at N.

    The terms are added to ``start`` in the order ``_truncated`` always
    used.  The bound covers the rounding of N^{-s} = exp(-s log N),
    ``pow_err`` relative, which every term inherits; the boundary terms'
    operations; the corrections' rounding; and the three additions
    (docs/remainder_bounds.md, "Rounding").
    """
    s = point.s
    logN = math.log(N)
    n_pow = cmath.exp(-s * logN)  # N^{-s}
    pow_err = _pow_err(point, logN)
    m = N * abs(n_pow) / abs(s - 1)
    if derivative:
        first = -logN * N * n_pow / (s - 1) - N * n_pow / (s - 1) ** 2
        second = -0.5 * logN * n_pow
        moduli = m * logN + m / abs(s - 1) + 0.5 * logN * abs(n_pow)
    else:
        first = N * n_pow / (s - 1)
        second = 0.5 * n_pow
        moduli = m + 0.5 * abs(n_pow)
    value = start + first
    value += second
    corrections, rounding = _corrections(s, N, n_pow, v, derivative, pow_err)
    value += corrections
    rounding += (pow_err + 8.0 * EPS) * moduli
    rounding += 2.0 * EPS * (abs(start) + moduli + abs(corrections))
    return value, rounding


def _truncated(point: EvalPoint, cfg: EMConfig, derivative: bool) -> CertifiedComplex:
    """The corrected truncation of zeta(s), or its term-wise s-derivative:
    the power sum below N plus ``_em_tail`` at N.

    The error bound is the truncation remainder, plus the rounding of the
    power-sum terms, ``_pow_err`` at N (and 2 eps for the log weight of
    the derivative) times the sum of their moduli, plus the tail's
    rounding bound, which also covers the half ulp per part of the
    correctly rounded summation (docs/remainder_bounds.md, "Rounding").
    """
    if abs(point.t) > T_CEILING:
        raise ValueError(f"|t| exceeds the certified ceiling {T_CEILING:g}")
    trunc = em_remainder_bound(point, cfg.N, cfg.v, derivative)  # rejects s + i = 0
    head, moduli = _power_sums(point.s, cfg.N, log_weighted=derivative)
    value, rounding = _em_tail(point, cfg.N, cfg.v, derivative, -head if derivative else head)
    term_err = _pow_err(point, math.log(cfg.N)) + (2.0 * EPS if derivative else 0.0)
    err = trunc + term_err * moduli + rounding
    return CertifiedComplex(value=value, error_bound=err, converged=trunc <= cfg.tol)


def _double_end(N: int, sigma: float) -> tuple[int, float]:
    """The integer nearest N that is a double, and a bound on the sum of
    log n n^{-s} over the integers between the two."""
    near = int(float(N))
    lo, hi = min(N, near), max(N, near)
    return near, (hi - lo) * math.log(hi) * max(lo ** -sigma, hi ** -sigma)


def em_range_sum(point: EvalPoint, a: int, b: int) -> CertifiedComplex:
    """sum_{a<=n<b} log n n^{-s} for integers 1 <= a <= b as T(b) - T(a),
    T the ``_em_tail`` of zeta' at order _START_V, at a cost that does not
    grow with b - a.

    The radius is both remainder bounds, both tails' rounding, the terms
    between a or b and the double it rounds to, and the subtraction
    (docs/remainder_bounds.md, "Range sums").  Far below N = |t| / 2 pi it
    is huge but honest; where it is not finite, ValueError.
    """
    a, b = _integer("a", a), _integer("b", b)
    if not 1 <= a <= b:
        raise ValueError(f"em_range_sum needs integers 1 <= a <= b, got a={a}, b={b}")
    remainder = _remainder_in_n(point, _START_V, derivative=True)
    a, a_err = _double_end(a, point.sigma)
    b, b_err = _double_end(b, point.sigma)
    tail_a, round_a = _em_tail(point, a, _START_V, derivative=True)
    tail_b, round_b = _em_tail(point, b, _START_V, derivative=True)
    value = tail_b - tail_a
    err = remainder(a) + remainder(b) + round_a + round_b + a_err + b_err + EPS * abs(value)
    return CertifiedComplex(value=value, error_bound=err)


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
