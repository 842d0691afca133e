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

from .numerics import _exact_sums, _integer, compensated_sum

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
    N, L = _integer("N", N), _integer("L", L)
    if L < 2 or N < 1 or not t > 0:
        raise ValueError("need t > 0, N >= 1, L >= 2")
    return VdCParams(L=L, V=TWO_PI * (N + 1) ** 2 / t, W=TWO_PI * (N + L) ** 2 / t)


def exp_sum_exact(f: Phase, N: int, L: int) -> complex:
    """Direct sum of e^{2 pi i f(n)} over n = N+1 .. N+L."""
    N, L = _integer("N", N), _integer("L", L)
    if L < 0:
        raise ValueError("L must be >= 0")
    if L == 0:
        return 0.0 + 0.0j
    if L > RANGE_GUARD:
        raise ValueError("range too long for direct summation")
    n = np.arange(N + 1, N + L + 1, dtype=np.float64)
    return _unit_sum(TWO_PI * f(n))


def _unit_sum(phase: np.ndarray) -> complex:
    """The sum of e^{i phase} over a 1-D array: its cos and sin rows,
    correctly rounded by one ``_exact_sums`` call."""
    parts = np.empty((2, phase.size))
    np.cos(phase, out=parts[0])
    np.sin(phase, out=parts[1])
    return complex(*_exact_sums(parts))


SHIFT_BLOCK = 2**15  # terms per array pass of shifted_diff_maxima; bounds its arrays


def shifted_diff_maxima(f: Phase, N: int, L: int, M: int) -> list[float]:
    """Exact max_{K <= L} |sum_{n=N+1}^{N+K} e^{2 pi i (f(n+m) - f(n))}|
    for m = 1 .. M-1, scanning every prefix K.

    ``f`` must be elementwise: each output double depends only on the
    input double at its place, as for ``log_phase`` and
    ``quadratic_phase``.  Then one evaluation on N+1 .. N+L+M-1 gives
    every f(n+m), and the shifts run in array passes of at most
    ``SHIFT_BLOCK`` terms (one row of L terms if L is longer) with the
    bits of one cumulative sum per m.  More than ``RANGE_GUARD`` terms
    in all, (M-1) L, are refused before ``f`` is evaluated.
    """
    N, L, M = _integer("N", N), _integer("L", L), _integer("M", M)
    if M < 1:
        raise ValueError("M must be >= 1")
    if L < 1:
        raise ValueError("L must be >= 1")
    if (M - 1) * L > RANGE_GUARD:
        raise ValueError("range too long for direct summation")
    values = f(np.arange(N + 1, N + L + M, dtype=np.float64))
    fn = values[:L]
    # row m-1 is the view values[m : m+L], f(n+m)
    shifted = np.lib.stride_tricks.as_strided(
        values[1:], (M - 1, L), values.strides * 2, writeable=False
    )
    rows = max(1, SHIFT_BLOCK // L)
    out: list[float] = []
    for first in range(0, M - 1, rows):
        terms = np.exp(TWO_PI * 1j * (shifted[first:first + rows] - fn))
        out += np.abs(np.cumsum(terms, axis=1)).max(axis=1).tolist()
    return out


def weyl_differencing_rhs(L: int, M: int, diffmax: Sequence[float]) -> float:
    """Right-hand side of the squared-sum differencing inequality:

        (L+M)L/M + (2(L+M)/M) sum_{m<M} (1 - m/M) diffmax[m-1]

    ``diffmax[m-1]`` must hold max_{K<=L} |S'_m(K)| (exact prefix maxima).
    """
    L, M = _integer("L", L), _integer("M", M)
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
    if not all(map(math.isfinite, [*amps, *phases])):
        raise ValueError("amplitudes and phases must be finite")
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


WEIGHT_BLOCK = 2**14  # rows per block of weight_sum_blocks


def _sum2_prefix(s: float, e: float, terms: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Sum2's running value fl(s + e) before each term, from the pair
    (s, e), and the pair after the last term.  Each term goes through
    TwoSum into s, its error into e; np.cumsum (np.add.accumulate) adds
    in order, so every value has the bits of a scalar loop."""
    s_run = np.cumsum(np.concatenate(([s], terms)))
    before, after = s_run[:-1], s_run[1:]
    bb = after - before
    e_run = np.cumsum(np.concatenate(([e], (before - (after - bb)) + (terms - bb))))
    return before + e_run[:-1], float(s_run[-1]), float(e_run[-1])


def _int_prefix(n: int, terms: np.ndarray) -> np.ndarray:
    """Exact running sums of the Python ints ``terms`` from n, before each
    term and after the last (object dtype: int64 would overflow)."""
    run = np.empty(terms.size + 1, dtype=object)
    run[0] = n
    run[1:] = terms
    return np.cumsum(run)


def weight_sum_blocks(max_m: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triangular weight sums of M = 1, 2, ..., max_m next to their
    bounds, in blocks of at most ``WEIGHT_BLOCK`` rows: (M, exact, bound)
    with M an int array and exact, bound of shape (rows, 4).

    Column order: sum_{m<M} (1 - m/M) f(m) for f = m^{1/2}, m^{-1/2}, m, 1,
    with bounds (4/15) M^{3/2}, (4/3) M^{1/2}, M^2/6, M/2.  The sum is
    S0 - S1/M with S0 = sum_{m<M} f(m) and S1 = sum_{m<M} m f(m).
    Relations 1 and 2 need running sums of m^{-1/2}, m^{1/2} and m^{3/2},
    carried compensated (Sum2) from block to block; relations 3 and 4
    need sums of m and m^2, carried as Python ints and divided once, so
    they are (M^2-1)/6 and (M-1)/2 correctly rounded.
    docs/weight_sums.md bounds the rounding error.
    """
    if max_m < 1:
        raise ValueError("M must be >= 1")
    # Sum2 pairs of m^{-1/2}, m^{1/2}, m^{3/2} over m < M
    pairs = [(0.0, 0.0)] * 3
    n_lin = n_sq = 0  # sums of m and m^2 over m < M
    for first in range(1, max_m + 1, WEIGHT_BLOCK):
        ms = np.arange(first, min(first + WEIGHT_BLOCK, max_m + 1))
        m = ms.astype(np.float64)
        r = np.sqrt(m)
        runs = []
        for i, terms in enumerate((1.0 / r, r, m * r)):
            run, s, e = _sum2_prefix(*pairs[i], terms)
            pairs[i] = (s, e)
            runs.append(run)
        inv, root, root3 = runs
        mo = ms.astype(object)
        lin = _int_prefix(n_lin, mo)
        sq = _int_prefix(n_sq, mo * mo)
        n_lin, n_sq = lin[-1], sq[-1]
        lin, sq = lin[:-1], sq[:-1]
        exact = np.column_stack((
            root - root3 / m,
            inv - root / m,
            ((mo * lin - sq) / mo).astype(np.float64),
            ((mo * (mo - 1) - lin) / mo).astype(np.float64),
        ))
        # Python's ** on each M: numpy's power can differ from libm's pow
        # in the last bit
        bound = np.column_stack((
            4.0 / 15.0 * np.array([k**1.5 for k in range(first, first + ms.size)]),
            4.0 / 3.0 * r,
            m * m / 6.0,
            m / 2.0,
        ))
        yield ms, exact, bound
