"""Direct summation of log-weighted Dirichlet sums (test-only).

``log_dirichlet_sum`` adds log n * n^{-1/2-it} term by term.  It is the
reference for ``zetabounds.zeta.em_range_sum``, which gives the same sums
from two Euler-Maclaurin tails, and for the block and mid-tail bounds of
``zetabounds.bounds``.  Nothing in ``zetabounds`` calls this module.
"""

from __future__ import annotations

import math

import numpy as np

from zetabounds.expsums import RANGE_GUARD
from zetabounds.numerics import EPS, compensated_complex_sum

__all__ = ["direct_sum_budget", "log_dirichlet_sum"]


def log_dirichlet_sum(t: float, a: float, b: float) -> complex:
    """Exact sum of log(n) * n^{-1/2 - it} over integers a < n <= b."""
    if not (0 < a < b or (0 < a and a == b)):
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    if b - a > RANGE_GUARD:
        raise ValueError(
            "range too long for direct summation; use sampled verification"
        )
    lo = math.floor(a) + 1
    hi = math.floor(b)
    if hi < lo:
        return 0.0 + 0.0j
    n = np.arange(lo, hi + 1, dtype=np.float64)
    logn = np.log(n)
    # log n * n^{-1/2} * e^{-i t log n}
    amp = logn / np.sqrt(n)
    return compensated_complex_sum(amp * np.exp(-1j * t * logn))


def direct_sum_budget(t: float, a: float, b: float) -> float:
    """Worst-case rounding of ``log_dirichlet_sum(t, a, b)``: each term is
    off by at most (2 |t| log n + 4) eps of its modulus log n / sqrt(n),
    the phase t log n carrying the bulk, and the sum is correctly rounded
    per part (half an ulp each, 2 eps |sum| here)."""
    n = np.arange(math.floor(a) + 1, math.floor(b) + 1, dtype=np.float64)
    logn = np.log(n)
    moduli = logn / np.sqrt(n)
    worst = math.fsum((moduli * (2.0 * abs(t) * logn + 4.0)).tolist())
    return EPS * (worst + 2.0 * math.fsum(moduli.tolist()))
