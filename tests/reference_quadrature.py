"""Scalar Gauss-Kronrod driver and scalar lemma integrands (test-only).

``integrate_adaptive_scalar`` is the one-panel-at-a-time driver that
``zetabounds.numerics.integrate_adaptive`` batches: it calls a scalar
integrand 15 times per panel and forms each panel's sums in the same
order.  The draws below replay the samples of checks 2.1 and 2.2 in the
order ``zetabounds.verify`` takes them, with integrands written with
``math``, so the tests can compare the batched route with the scalar one
sample by sample.  Nothing in ``zetabounds`` calls this module.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterator

import numpy as np

from zetabounds.expsums import TWO_PI
from zetabounds.numerics import (
    _G_WEIGHTS,
    _GK_NODES,
    _GK_WEIGHTS,
    EPS,
    QuadratureResult,
    compensated_sum,
)
from zetabounds.verify import _decreasing_from

__all__ = [
    "SCALAR_OSC_KERNELS",
    "integrate_adaptive_scalar",
    "oscillatory_tail_draws",
    "partial_integration_draws",
]


def _gk15_scalar(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
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


def integrate_adaptive_scalar(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    *,
    min_wavelength: float | None = None,
    max_subdivisions: int = 4000,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of a scalar ``f`` over [a, b],
    one panel per call of ``_gk15_scalar``; the refinement rule is that of
    ``zetabounds.numerics.integrate_adaptive``."""
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
        val, err = _gk15_scalar(f, x0, x1)
        if not math.isfinite(val):
            raise ValueError(f"integrand not finite on [{x0}, {x1}]")
        heapq.heappush(heap, (-err, seq, x0, x1, val, err))
        seq += 1

    def above_floor(val: float, err: float) -> bool:
        return err > abs(val) * 50.0 * EPS

    total_err = math.fsum(entry[5] for entry in heap)
    above = sum(above_floor(entry[4], entry[5]) for entry in heap)
    while total_err > tol and above and subdivisions < max_subdivisions:
        _, _, x0, x1, val, err = heapq.heappop(heap)
        xm = 0.5 * (x0 + x1)
        if xm <= x0 or xm >= x1:
            # Panel at float resolution: keep it but stop refining it.
            heapq.heappush(heap, (0.0, seq, x0, x1, val, err))
            seq += 1
            break
        total_err -= err
        above -= above_floor(val, err)
        for lo, hi in ((x0, xm), (xm, x1)):
            v, e = _gk15_scalar(f, lo, hi)
            if not math.isfinite(v):
                raise ValueError(f"integrand not finite on [{lo}, {hi}]")
            heapq.heappush(heap, (-e, seq, lo, hi, v, e))
            seq += 1
            total_err += e
            above += above_floor(v, e)
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


# One quadrature call of a check: (scalar integrand, a, b, tol,
# min_wavelength, the sample's parameters).
Draw = tuple[Callable[[float], float], float, float, float, float, dict]


def partial_integration_draws(seed: int, samples: int) -> Iterator[Draw]:
    """Check 2.1's quadrature calls: c (x+d)^{-p} A w cos(w x + phi)."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        a = float(rng.uniform(0.5, 5.0))
        b = a + float(rng.uniform(0.5, 8.0))
        c = float(rng.uniform(0.1, 3.0))
        d = float(rng.uniform(0.0, 2.0))
        pw = float(rng.uniform(0.2, 3.0))
        amp = float(rng.uniform(0.1, 2.0))
        w = float(rng.uniform(0.5, 20.0))
        phi = float(rng.uniform(0.0, TWO_PI))

        def integrand(x: float, c=c, d=d, pw=pw, amp=amp, w=w, phi=phi) -> float:
            return c * (x + d) ** (-pw) * (amp * w * math.cos(w * x + phi))

        params = {"c": c, "d": d, "p": pw, "amp": amp, "w": w, "phi": phi}
        yield integrand, a, b, 1e-10, TWO_PI / w, params


SCALAR_OSC_KERNELS: dict[str, Callable[[float, float, float], float]] = {
    "2.2a": lambda tl, w, sign: math.sin(tl + sign * w),
    "2.2b": lambda tl, w, sign: math.sin(tl + w) + sign * math.sin(tl - w),
    "2.2c": lambda tl, w, sign: math.sin(tl) * math.sin(w),
    "2.2d": lambda tl, w, sign: math.cos(tl) * math.sin(w),
}


def oscillatory_tail_draws(seed: int, samples: int, variants: tuple[str, ...]) -> Iterator[Draw]:
    """Check 2.2's quadrature calls, variant by variant:
    kernel(t log x, 2 pi v x, sign) log x / x^{1+sigma}."""
    for i, variant in enumerate(variants):
        rng = np.random.default_rng(seed + i)
        for _ in range(samples // len(variants)):
            t = float(rng.uniform(5.0, 60.0))
            margin = float(rng.uniform(0.1, 2.0))
            a = t / TWO_PI * (1.0 + margin)
            if a <= math.e:
                a = math.e * 1.05
            b = a * float(rng.uniform(1.5, 4.0))
            v = int(rng.integers(1, 5))
            sigma = float(rng.uniform(0.0, 1.5))
            sign = 1.0 if rng.integers(0, 2) else -1.0
            while variant == "2.2a" and not _decreasing_from(a, t, v, sigma, sign):
                a, b = 1.05 * a, 1.05 * b

            def integrand(x: float, kernel=SCALAR_OSC_KERNELS[variant],
                          t=t, v=v, sigma=sigma, sign=sign) -> float:
                log_x = math.log(x)
                return kernel(t * log_x, TWO_PI * v * x, sign) * log_x / x ** (1.0 + sigma)

            params = {"variant": variant, "t": t, "v": v, "sigma": sigma, "sign": sign}
            yield integrand, a, b, 1e-9, TWO_PI / (t / a + TWO_PI * v), params
