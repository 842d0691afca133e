"""Alternating-series reference for zeta and zeta' (test-only).

An evaluator independent of the boundary-corrected truncation route in
``zetabounds.zeta``: zeta(s) = eta(s) / (1 - 2^{1-s}) with eta the
alternating sum, its tail accelerated by iterated averaging of partial
sums, and zeta'(s) by Richardson-extrapolated central differences of it.
The error bounds are heuristic (acceleration-tail spread plus rounding),
so this is reference code for cross-checks: it never feeds a bound proof
or a verification budget.  It needs numpy only.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from zetabounds.numerics import EPS
from zetabounds.zeta import T_CEILING, CertifiedComplex, EvalPoint

__all__ = ["default_eta_terms", "eta_oracle", "zeta_prime_oracle"]

_ETA_ACCEL_LEVELS = 40


def _phase_rounding_budget(t: float, N: int, rss: float) -> float:
    """Heuristic rounding budget for sums of n^{-s}-type terms.

    Each term's phase t log n is computed in doubles, so it carries an
    absolute rounding error of order eps * |t| log n; the resulting term
    errors inherit quasi-uniform phases and accumulate like a root-sum-
    square.  The 8x safety factor is validated empirically by the
    cross-oracle agreement tests, which fail if this budget under-covers.
    """
    return 8.0 * EPS * (abs(t) * math.log(max(N, 2)) + 4.0) * rss


def default_eta_terms(t: float) -> int:
    """Enough direct terms that the averaging contracts geometrically:
    the per-level reduction factor is roughly |s|/(2 n0), so n0 ~ 4|t|."""
    return max(64, math.ceil(4 * abs(t)) + 48)


def eta_oracle(point: EvalPoint, terms: int) -> CertifiedComplex:
    """zeta(s) through the alternating series, Euler-accelerated.

    zeta(s) = eta(s) / (1 - 2^{1-s}) with eta the alternating sum; the
    tail is accelerated by iterated averaging of partial sums.  The error
    bound is a heuristic (acceleration-tail spread plus rounding); this
    route is a cross-check only and never feeds a bound proof.
    """
    if terms < 10:
        raise ValueError("eta_oracle needs at least 10 terms")
    s = point.s
    denom = 1.0 - cmath.exp((1.0 - s) * math.log(2.0))
    if abs(denom) < 1e-9:
        raise ZeroDivisionError(f"s={s} is a zero of 1 - 2^(1-s)")

    m = min(_ETA_ACCEL_LEVELS, terms // 3)
    n = np.arange(1, terms + 1, dtype=np.float64)
    logn = np.log(n)
    moduli = n ** (-s.real)
    a = moduli * np.exp(-1j * s.imag * logn)
    a[1::2] *= -1.0
    partial = np.cumsum(a)
    stage = partial[terms - m - 1 :].copy()  # m+1 trailing partial sums
    prev_scalar = stage[-1]
    while stage.size > 2:
        stage = 0.5 * (stage[:-1] + stage[1:])
    if stage.size == 2:
        prev_scalar = complex(stage[0])
        stage = 0.5 * (stage[:-1] + stage[1:])
    eta = complex(stage[0])
    spread = abs(eta - prev_scalar)

    rss = math.sqrt(float(np.sum(moduli**2)))
    float_noise = _phase_rounding_budget(s.imag, terms, rss) + 4.0 * EPS * float(
        np.sum(moduli)
    )
    eta_err = 4.0 * spread + float_noise
    value = eta / denom
    err = (eta_err + abs(eta) * 4.0 * EPS) / abs(denom)
    converged = eta_err <= max(1e-6, 0.05 * abs(eta) + 1e-9)
    return CertifiedComplex(value=value, error_bound=err, converged=converged)


def zeta_prime_oracle(
    point: EvalPoint,
    terms: int | None = None,
    h0: float = 0.02,
    levels: int = 4,
) -> CertifiedComplex:
    """zeta'(s) by Richardson-extrapolated central differences of the
    alternating-series oracle, stepping along the real axis.

    The stencil stays clear of the pole at s=1 (requires |s-1| > 0.5).
    The error bound stacks the difference-stencil truncation estimate and
    the propagated oracle error; a stencil whose last two extrapolants
    disagree beyond that budget is flagged non-converged.  The default
    term count grows like 4|t|, so |t| is held to the certified ceiling.
    """
    s = point.s
    if abs(point.t) > T_CEILING:
        raise ValueError(f"|t| exceeds the certified ceiling {T_CEILING:g}")
    if abs(s - 1.0) <= 0.5:
        raise ValueError("stencil too close to s = 1; need |s - 1| > 0.5")
    if terms is None:
        terms = default_eta_terms(point.t)

    diffs: list[complex] = []
    prop = 0.0
    worst_converged = True
    for k in range(levels):
        h = h0 / 2.0**k
        plus = eta_oracle(EvalPoint(point.t, point.sigma + h), terms)
        minus = eta_oracle(EvalPoint(point.t, point.sigma - h), terms)
        diffs.append((plus.value - minus.value) / (2.0 * h))
        prop = max(prop, (plus.error_bound + minus.error_bound) / (2.0 * h))
        worst_converged = worst_converged and plus.converged and minus.converged

    # Neville table in powers of h^2.
    table = [diffs[0]]
    for k in range(1, levels):
        row = [diffs[k]]
        for j in range(1, k + 1):
            factor = 4.0**j
            row.append((factor * row[j - 1] - table[j - 1]) / (factor - 1.0))
        table = row
    value = table[-1]
    trunc = abs(table[-1] - table[-2]) if levels >= 2 else abs(value)
    err = 4.0 * trunc + 3.0 * prop
    converged = worst_converged and trunc <= max(4.0 * prop, 1e-7 + 1e-3 * abs(value))
    return CertifiedComplex(value=value, error_bound=err, converged=converged)
