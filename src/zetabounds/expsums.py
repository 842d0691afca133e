"""Exact exponential / Dirichlet-type sums and the explicit estimate
machinery they are checked against.

Everything here comes in pairs: an exact, brute-force evaluator (the
oracle) and the closed-form estimate that is supposed to dominate it.
The verification harness sweeps the pairs; nothing in this module ever
assumes the estimates hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .numerics import compensated_complex_sum, compensated_sum

TWO_PI = 2.0 * math.pi

RANGE_GUARD = 10**8  # direct summation refuses longer ranges


Phase = Callable[[np.ndarray], np.ndarray]  # f for sums of e^{2 pi i f(n)}


def log_phase(t: float) -> Phase:
    """f(x) = -t log(x) / (2 pi), t > 0: the phase of n^{-it}."""
    if not t > 0:
        raise ValueError("log phase needs t > 0")
    return lambda x: -t * np.log(x) / TWO_PI


def quadratic_phase(a: float, b: float, c: float = 0.0) -> Phase:
    """f(x) = a x^2 + b x + c."""
    return lambda x: (a * x + b) * x + c


@dataclass(frozen=True)
class VdCParams:
    """Inputs of the curvature (second-derivative) sum estimate.

    Requires 1/W <= |f''| <= 1/V on the block, V < W, W > 1, L >= 0.
    """

    L: int
    V: float
    W: float

    def __post_init__(self) -> None:
        if self.L < 0:
            raise ValueError("block length must be >= 0")
        if not (self.V > 0):
            raise ValueError("V must be positive")
        if not (self.W > 1):
            raise ValueError("the estimate requires W > 1")
        if not (self.V < self.W):
            raise ValueError("need V < W")


def vdc_second_derivative_bound(p: VdCParams) -> float:
    """(1/5)(L/V + 1)(8 sqrt(W) + 15)."""
    return 0.2 * (p.L / p.V + 1.0) * (8.0 * math.sqrt(p.W) + 15.0)


def vdc_params_for_log_block(t: float, N: int, L: int) -> VdCParams:
    """Curvature window of the log phase on [N+1, N+L]:
    |f''(x)| = t/(2 pi x^2) is trapped between the endpoint values.
    L >= 2 is required, otherwise the window collapses (V = W)."""
    if L < 2 or N < 1 or not t > 0:
        raise ValueError("need t > 0, N >= 1, L >= 2")
    return VdCParams(L=L, V=TWO_PI * (N + 1) ** 2 / t, W=TWO_PI * (N + L) ** 2 / t)


def exp_sum_exact(f: Phase, N: int, L: int) -> complex:
    """Direct sum of e^{2 pi i f(n)} over n = N+1 .. N+L."""
    if L < 0:
        raise ValueError("L must be >= 0")
    if L == 0:
        return 0.0 + 0.0j
    if L > RANGE_GUARD:
        raise ValueError("range too long for direct summation")
    n = np.arange(N + 1, N + L + 1, dtype=np.float64)
    phase = TWO_PI * f(n)
    return compensated_complex_sum(np.cos(phase) + 1j * np.sin(phase))


def shifted_diff_maxima(f: Phase, N: int, L: int, M: int) -> list[float]:
    """Exact max_{K <= L} |sum_{n=N+1}^{N+K} e^{2 pi i (f(n+m) - f(n))}|
    for m = 1 .. M-1, scanning every prefix K."""
    if M < 1:
        raise ValueError("M must be >= 1")
    if L < 1:
        raise ValueError("L must be >= 1")
    n = np.arange(N + 1, N + L + 1, dtype=np.float64)
    fn = f(n)
    out: list[float] = []
    for m in range(1, M):
        fm = f(n + m)
        terms = np.exp(TWO_PI * 1j * (fm - fn))
        out.append(float(np.max(np.abs(np.cumsum(terms)))))
    return out


def weyl_differencing_rhs(L: int, M: int, diffmax: Sequence[float]) -> float:
    """Right-hand side of the squared-sum differencing inequality:

        (L+M)L/M + (2(L+M)/M) sum_{m<M} (1 - m/M) diffmax[m-1]

    ``diffmax[m-1]`` must hold max_{K<=L} |S'_m(K)| (exact prefix maxima).
    """
    if M < 1:
        raise ValueError("M must be a positive integer")
    if L < 0:
        raise ValueError("L must be >= 0")
    if len(diffmax) != M - 1:
        raise ValueError(f"diffmax must have M-1 = {M - 1} entries")
    if any(d < 0 for d in diffmax):
        raise ValueError("diffmax entries must be >= 0")
    base = (L + M) * L / M
    weighted = compensated_sum(
        (1.0 - m / M) * diffmax[m - 1] for m in range(1, M)
    )
    return base + 2.0 * (L + M) / M * weighted


def vertex_max_bound(amps: Sequence[float], phases: Sequence[float]) -> float:
    """a_n * max{1, b_2, ..., b_n} with the b_r taken over ALL r-subsets
    of the unit phasors, enumerated exhaustively (n <= 20).

    The quadratic form |sum a_i e^{i x_i}|^2 is affine in each amplitude,
    so its maximum over the amplitude box sits at a vertex; scaling by the
    largest amplitude gives the bound.
    """
    n = len(amps)
    if n == 0:
        raise ValueError("need at least one term")
    if len(phases) != n:
        raise ValueError("amps and phases must have equal length")
    if any(a <= 0 for a in amps):
        raise ValueError("amplitudes must be positive")
    if any(amps[i] > amps[i + 1] for i in range(n - 1)):
        raise ValueError("amplitudes must be sorted ascending")
    if n > 20:
        raise ValueError("exact subset enumeration capped at n = 20")
    phasors = np.exp(1j * np.asarray(phases, dtype=np.float64))
    # Subset sums by doubling: sums[mask] indexed by bitmask.
    sums = np.zeros(1, dtype=np.complex128)
    for k in range(n):
        sums = np.concatenate([sums, sums + phasors[k]])
    masks = np.arange(sums.size)
    multi = (masks & (masks - 1)) != 0  # popcount >= 2
    best = float(np.max(np.abs(sums[multi]))) if multi.any() else 0.0
    return float(amps[-1]) * max(1.0, best)


@dataclass(frozen=True)
class WeightSums:
    """Triangular weight sums over m = 1..M-1 next to their bounds.

    Order: sum (1-m/M) m^{1/2}, m^{-1/2}, m, 1 with bounds
    (4/15) M^{3/2}, (4/3) M^{1/2}, M^2/6, M/2.  ``exact`` means within the
    rounding bound of docs/weight_sums.md: its first two values carry at
    most 2.7e-15 of their bound; the third and fourth are (M^2-1)/6 and
    (M-1)/2 correctly rounded, strictly below their quoted bounds for
    M >= 2.
    """

    M: int
    exact: tuple[float, float, float, float]
    bound: tuple[float, float, float, float]


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """fl(a + b) and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def weight_sum_rows(max_m: int) -> Iterator[WeightSums]:
    """``WeightSums`` for M = 1, 2, ..., max_m in one pass with O(1) state.

    sum_{m<M} (1 - m/M) f(m) = S0 - S1/M with S0 = sum_{m<M} f(m) and
    S1 = sum_{m<M} m f(m).  Relations 1 and 2 need running sums of
    m^{-1/2}, m^{1/2} and m^{3/2}, carried compensated (TwoSum with the
    errors summed apart); relations 3 and 4 need sums of m and m^2,
    carried as integers and divided once.  docs/weight_sums.md bounds
    the rounding error.
    """
    if max_m < 1:
        raise ValueError("M must be >= 1")
    # sums of m^{-1/2}, m^{1/2}, m^{3/2} over m < M and their rounding errors
    s_inv = s_root = s_root3 = 0.0
    e_inv = e_root = e_root3 = 0.0
    n_lin = n_sq = 0  # sums of m and m^2 over m < M
    for M in range(1, max_m + 1):
        root = s_root + e_root
        exact = (
            root - (s_root3 + e_root3) / M,
            (s_inv + e_inv) - root / M,
            (M * n_lin - n_sq) / M,
            (M * (M - 1) - n_lin) / M,
        )
        bound = (
            4.0 / 15.0 * M**1.5,
            4.0 / 3.0 * math.sqrt(M),
            M**2 / 6.0,
            M / 2.0,
        )
        yield WeightSums(M=M, exact=exact, bound=bound)
        # the m = M terms enter the rows of every larger M
        r = math.sqrt(M)
        s_inv, e = _two_sum(s_inv, 1.0 / r)
        e_inv += e
        s_root, e = _two_sum(s_root, r)
        e_root += e
        s_root3, e = _two_sum(s_root3, M * r)
        e_root3 += e
        n_lin += M
        n_sq += M * M

