"""The truncation route of ``zetabounds.zeta`` as a generator walk (test-only).

Before ``zeta`` read its Pochhammer sums from a list memo, its Bernoulli
factors from lists grown on demand, and ran one corrections loop per
``derivative``, it walked the sums with a generator, cached the factors
per order, and tested ``derivative`` at every order of one loop.  Those
three pieces are kept here, with the config loop, the remainder bound,
the tail and the range sum built on them, so the tests can compare the
rewritten route with this one by ``float.hex``.  The power sums go
through ``reference_sums.complex_power_sums`` on fresh arrays, whose bits
``tests/test_sum_parity.py`` pins to ``zeta._power_sums``.  Nothing in
``zetabounds`` calls this module.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import count, islice
from typing import Callable, Iterator

from zetabounds.numerics import EPS, _integer, bernoulli_number
from zetabounds.zeta import (
    _COST_PER_ORDER,
    _MAX_V,
    _START_V,
    T_CEILING,
    CertifiedComplex,
    EMConfig,
    EvalPoint,
    _bound_in_n,
    _check_domain,
    _check_tol,
    _double_end,
    _pow_err,
)

from reference_sums import complex_power_sums

__all__ = [
    "default_em_config", "em_range_sum", "em_remainder_bound", "zeta_em", "zeta_prime_em",
]


@lru_cache(maxsize=None)
def _correction_ratio(j: int) -> float:
    prev = bernoulli_number(2 * j - 2) if j > 1 else 1.0
    return bernoulli_number(2 * j) / prev / (2 * j * (2 * j - 1))


@lru_cache(maxsize=None)
def _log_bernoulli_factor(v: int) -> float:
    return math.log(abs(bernoulli_number(2 * v))) - math.log(math.factorial(2 * v))


def _pochhammer_sums(s: complex) -> Iterator[tuple[float, float]]:
    """Yield sum_{i<2v} log|s+i| and sum_{i<2v} 1/|s+i| for v = 1, 2, ..."""
    log_pi, habs = 0.0, 0.0
    for i in count(0, 2):
        a, b = abs(s + i), abs(s + (i + 1))
        if a and b:
            log_pi += math.log(a * b)
            habs += 1.0 / a + 1.0 / b
        else:
            log_pi, habs = -math.inf, math.inf
        yield log_pi, habs


def _bound_constants(sigma: float, v: int, log_pi: float, habs: float) -> tuple[float, ...]:
    p = sigma + 2 * v - 1
    return log_pi + _log_bernoulli_factor(v), p, habs + 1.0 / p


def default_em_config(point: EvalPoint, tol: float = 1e-9, for_derivative: bool = False) -> EMConfig:
    if abs(point.t) > T_CEILING:
        raise ValueError(f"|t| exceeds the certified ceiling {T_CEILING:g}")
    _check_tol(tol)
    _check_domain(point, _START_V, for_derivative)
    cap = max(math.ceil(8 * abs(point.t)), 64)
    log_tol, log_cap = math.log(tol), math.log(cap)
    hi, y, steps = cap, log_cap, 4
    taken = None
    sums = islice(_pochhammer_sums(point.s), _START_V - 1, None)
    for v, (log_pi, habs) in enumerate(sums, start=_START_V):
        if v > _MAX_V or hi < 64:
            break
        log_k, p, shift = _bound_constants(point.sigma, v, log_pi, habs)
        a = log_k - math.log(p) - log_tol
        for _ in range(steps):
            y = (a + math.log(shift + y)) / p if for_derivative else a / p
            if y < 0.0:
                y = 0.0
        if y > log_cap:
            break
        estimate = max(64, math.ceil(math.exp(y)))
        if estimate > hi:
            break
        N, taken = estimate, (v, log_k, p, shift)
        hi, steps = N - _COST_PER_ORDER - 1, 2
    if taken is None:
        return EMConfig(N=cap, v=_START_V, tol=tol)
    v, *constants = taken
    bound = _bound_in_n(*constants, for_derivative)
    while N < cap and bound(N) > tol:
        N += 1
    while N > 64 and bound(N - 1) <= tol:
        N -= 1
    return EMConfig(N=N, v=v, tol=tol)


def _remainder_in_n(point: EvalPoint, v: int, derivative: bool) -> Callable[[int], float]:
    _check_domain(point, v, derivative)
    sums = next(islice(_pochhammer_sums(point.s), v - 1, None))
    return _bound_in_n(*_bound_constants(point.sigma, v, *sums), derivative)


def em_remainder_bound(point: EvalPoint, N: int, v: int, derivative: bool = False) -> float:
    N, v = _integer("N", N), _integer("v", v)
    if N < 1 or v < 1:
        raise ValueError(f"em_remainder_bound needs N, v >= 1, got N={N}, v={v}")
    return _remainder_in_n(point, v, derivative)(N)


def _corrections(
    s: complex, N: int, n_pow: complex, v: int, derivative: bool, pow_err: float
) -> tuple[complex, float]:
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
        total += term
        rounding += (16 * j + v) * mag
        moduli += mag
    if not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise OverflowError("correction-term overflow; reduce v")
    return total, EPS * rounding + pow_err * moduli


def _em_tail(
    point: EvalPoint, N: int, v: int, derivative: bool, start: complex = 0j
) -> tuple[complex, float]:
    s = point.s
    logN = math.log(N)
    n_pow = cmath.exp(-s * logN)
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
    if abs(point.t) > T_CEILING:
        raise ValueError(f"|t| exceeds the certified ceiling {T_CEILING:g}")
    trunc = em_remainder_bound(point, cfg.N, cfg.v, derivative)
    head, moduli = complex_power_sums(point.s, cfg.N, log_weighted=derivative)
    value, rounding = _em_tail(point, cfg.N, cfg.v, derivative, -head if derivative else head)
    term_err = _pow_err(point, math.log(cfg.N)) + (2.0 * EPS if derivative else 0.0)
    err = trunc + term_err * moduli + rounding
    return CertifiedComplex(value=value, error_bound=err, converged=trunc <= cfg.tol)


def em_range_sum(point: EvalPoint, a: int, b: int) -> CertifiedComplex:
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
    return _truncated(point, cfg, derivative=False)


def zeta_prime_em(point: EvalPoint, cfg: EMConfig) -> CertifiedComplex:
    return _truncated(point, cfg, derivative=True)
