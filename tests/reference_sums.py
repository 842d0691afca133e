"""Test-only reference sums.

``log_dirichlet_sum`` adds log n * n^{-1/2-it} term by term.  It is the
reference for ``zetabounds.zeta.em_range_sum``, which gives the same sums
from two Euler-Maclaurin tails, and for the block and mid-tail bounds of
``zetabounds.bounds``.  ``weight_sum_rows`` is the scalar one-pass loop
that ``zetabounds.expsums.weight_sum_blocks`` runs in numpy blocks, and
``shifted_diff_rows`` the one-shift-at-a-time loop that
``zetabounds.expsums.shifted_diff_maxima`` runs in array passes; both
must be reproduced to the bit.  ``binned_complex_sum`` is the exact
per-exponent binned accumulator that ``zetabounds.numerics.exact_sum``
replaced, and ``complex_power_sums`` the complex-exponential power sums
that ``zetabounds.zeta._power_sums`` now forms in real parts; both are
parity references.  ``compensated_complex_sum`` is ``exact_sum`` of each
part of a complex array, which the references above sum through.
Nothing in ``zetabounds`` calls this module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from zetabounds.expsums import RANGE_GUARD, TWO_PI, Phase
from zetabounds.numerics import EPS, exact_sum

__all__ = [
    "WeightSums", "binned_complex_sum", "compensated_complex_sum", "complex_power_sums",
    "direct_sum_budget", "log_dirichlet_sum", "shifted_diff_rows", "weight_sum_rows",
]


# Exact binned summation.  m * 2^53 (np.frexp's m) is an integer, split as
# hi * 2^27 + lo with |hi| < 2^26 and |lo| < 2^27; float64 bins per
# exponent sum the halves, exactly for up to _FLUSH_TERMS terms, and are
# then flushed into one Python int per part.
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


def binned_complex_sum(values: np.ndarray) -> complex:
    """Correctly rounded sum of each part of a finite 1-D complex array,
    by exponent bins and one int / int division per part."""
    flat = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    totals = [0, 0]  # each part's exact sum times _SCALE
    for start in range(0, flat.size, 2 * _FLUSH_TERMS):
        for part, bins in enumerate(_bin_sums(flat[start:start + 2 * _FLUSH_TERMS])):
            used = np.flatnonzero(bins != 0)
            ints = map(int, bins.ravel()[used].tolist())
            totals[part] += sum(map(operator.lshift, ints, _BIN_SHIFT[used].tolist()))
    # int / int is correctly rounded, half to even; an exact zero gives +0.0
    return complex(totals[0] / _SCALE, totals[1] / _SCALE)


def compensated_complex_sum(values: np.ndarray) -> complex:
    """Correctly rounded sum of a 1-D complex array: ``exact_sum`` of the
    real parts and of the imaginary parts."""
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    return complex(exact_sum(arr.real), exact_sum(arr.imag))


def complex_power_sums(s: complex, N: int, log_weighted: bool) -> tuple[complex, float]:
    """``zeta._power_sums`` through complex arrays: the terms n^{-sigma}
    e^{-i t log n} (times log n), summed part by part with ``math.fsum``,
    and the sum of the term moduli."""
    n = np.arange(1, N, dtype=np.float64)
    logn = np.log(n)
    moduli = n ** (-s.real)
    terms = moduli * np.exp(-1j * s.imag * logn)
    if log_weighted:
        terms = logn * terms
        moduli = logn * moduli
    parts = (math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    return complex(*parts), float(np.sum(moduli))


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


def shifted_diff_rows(f: Phase, N: int, L: int, M: int) -> list[float]:
    """max_{K <= L} |sum_{n=N+1}^{N+K} e^{2 pi i (f(n+m) - f(n))}| for
    m = 1 .. M-1, one shift at a time: f evaluated afresh on n + m, and
    one cumulative sum per m."""
    n = np.arange(N + 1, N + L + 1, dtype=np.float64)
    fn = f(n)
    out: list[float] = []
    for m in range(1, M):
        terms = np.exp(TWO_PI * 1j * (f(n + m) - fn))
        out.append(float(np.max(np.abs(np.cumsum(terms)))))
    return out


@dataclass(frozen=True)
class WeightSums:
    """Triangular weight sums over m = 1..M-1 next to their bounds, in the
    column order of ``weight_sum_blocks``."""

    M: int
    exact: tuple[float, float, float, float]
    bound: tuple[float, float, float, float]


def _two_sum(a: float, b: float) -> tuple[float, float]:
    """fl(a + b) and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def weight_sum_rows(max_m: int) -> Iterator[WeightSums]:
    """``WeightSums`` for M = 1, 2, ..., max_m in one pass with O(1) state:
    the running sums of docs/weight_sums.md, one M at a time."""
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
