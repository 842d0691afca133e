"""Scalar Gauss-Legendre rule and scalar lemma integrands (test-only).

``integrate_gauss_legendre_scalar`` is the one-node-at-a-time rule that
``zetabounds.numerics.integrate_gauss_legendre`` batches: it calls a
scalar integrand once per node and forms the panels, nodes, products and
correctly rounded sum in the same order.  The draws below replay the
samples of checks 2.1 and 2.2 in the order ``zetabounds.verify`` takes
them, with integrands written with ``math``, so the tests can compare the
batched route with the scalar one sample by sample.  Nothing in
``zetabounds`` calls this module.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from zetabounds.expsums import TWO_PI
from zetabounds.numerics import gauss_legendre
from zetabounds.verify import _decreasing_from

__all__ = [
    "SCALAR_OSC_KERNELS",
    "integrate_gauss_legendre_scalar",
    "oscillatory_tail_draws",
    "partial_integration_draws",
]


def integrate_gauss_legendre_scalar(
    f: Callable[[float], float], a: float, b: float, n: int, wavelength: float
) -> float:
    """The n-point Gauss-Legendre value of ``integrate_gauss_legendre`` on
    its panels, one scalar call of ``f`` per node."""
    panels = math.ceil((b - a) / (8.0 * wavelength))
    edges = [a + (b - a) * float(j) / panels for j in range(panels)] + [b]
    x, w = gauss_legendre(n)
    terms = []
    for x0, x1 in zip(edges, edges[1:]):
        mid, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
        terms.extend(half * float(wi) * f(mid + half * float(xi)) for xi, wi in zip(x, w))
    return math.fsum(terms)


# One quadrature call of a check: (scalar integrand, a, b, tol,
# wavelength, the sample's parameters).
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
