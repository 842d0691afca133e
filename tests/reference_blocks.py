"""Exact block grids and per-block chains for the block ranges (test-only).

The closed forms of ``zetabounds.bounds`` (``geom_sum_bounds``, the terms
of the ranges ``BLOCK_13`` and ``BLOCK_23``) are upper bounds for sums over a
geometric block cover.  This module builds that cover exactly and
evaluates the sums and the per-block estimate chains on it, so the tests
can check that each closed form dominates what it replaces.  Nothing in
``zetabounds`` calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from zetabounds.bounds import (
    _SQRT_PI,
    E3,
    M2_DELTAS,
    BlockTable,
    BoundParams,
    _require_t,
    geom_sum_bounds,
)

__all__ = [
    "BlockScheme",
    "block13_per_block_bound",
    "block23_per_block_bound",
    "block_scheme",
    "closed_form_at",
    "geom_sums_exact",
    "resummed",
]


@dataclass(frozen=True)
class BlockScheme:
    """Geometric cover of (t^alpha, t^upper] by blocks X_j = ratio^j t^alpha.

    blocks[j-1] = (X_{j-1}, X_j, N_{j-1}, N_j) with N = floor(X); the last
    grid point is clamped to t^upper so the integer cover is exact.
    """

    t: float
    base_exponent: float
    ratio: float
    upper_exponent: float
    blocks: tuple[tuple[float, float, int, int], ...] = field(repr=False)

    @property
    def J(self) -> int:
        return len(self.blocks)


_ALLOWED_EXPONENTS = (1.0 / 3.0, 2.0 / 3.0, 1.0)


def block_scheme(
    t: float, alpha: float, ratio: float, upper_exponent: float
) -> BlockScheme:
    """Build the geometric block cover of (t^alpha, t^upper_exponent]."""
    if not t > 1:
        raise ValueError("t must exceed 1")
    if not ratio > 1:
        raise ValueError("ratio must exceed 1")
    if not any(math.isclose(alpha, e) for e in _ALLOWED_EXPONENTS):
        raise ValueError("alpha must be one of 1/3, 2/3, 1")
    if not any(math.isclose(upper_exponent, e) for e in _ALLOWED_EXPONENTS):
        raise ValueError("upper_exponent must be one of 1/3, 2/3, 1")
    if not alpha < upper_exponent:
        raise ValueError("alpha must be smaller than upper_exponent")
    x0 = t**alpha
    if x0 < 2:
        raise ValueError("t^alpha < 2: blocks degenerate")
    x_top = t**upper_exponent
    blocks: list[tuple[float, float, int, int]] = []
    x_prev = x0
    n_prev = math.floor(x0)
    n_top = math.floor(x_top)
    while n_prev < n_top:
        x_next = x_prev * ratio
        if x_next >= x_top:
            x_next = x_top
            n_next = n_top
        else:
            n_next = math.floor(x_next)
        blocks.append((x_prev, x_next, n_prev, n_next))
        x_prev, n_prev = x_next, n_next
    return BlockScheme(
        t=t,
        base_exponent=alpha,
        ratio=ratio,
        upper_exponent=upper_exponent,
        blocks=tuple(blocks),
    )


# ---------------------------------------------------------------------------
# Block sums: exact on the grid, and the closed-form dominants at one t
# ---------------------------------------------------------------------------


def geom_sums_exact(scheme: BlockScheme) -> dict[str, float]:
    """Exact M0, M1, M2(delta) over the constructed blocks (the oracle the
    closed forms are checked against)."""
    xs = [blk[0] for blk in scheme.blocks]
    logs = [math.log(x) for x in xs]
    out: dict[str, float] = {
        "M0": math.fsum(logs),
        "M1": math.fsum(math.sqrt(x) * lx for x, lx in zip(xs, logs)),
    }
    for delta in M2_DELTAS:
        out[f"M2({delta})"] = math.fsum(
            lx / x ** (delta / 2.0) for x, lx in zip(xs, logs)
        )
    return out


def closed_form_at(rows: tuple[tuple[int, int, float], ...], t: float) -> float:
    """A block-sum family's closed-form dominant at t, from its rows of
    ``geom_sum_bounds``: the sum of coef * t^{exp6/6} (log t)^logpow."""
    logt = math.log(t)
    return math.fsum(coef * t ** (exp6 / 6.0) * logt**logpow for exp6, logpow, coef in rows)


def resummed(table: BlockTable, t: float, p: BoundParams) -> float:
    """The same bound summed term by term at t, without collecting shapes;
    must agree with the collected polynomial to floating precision."""
    values = tuple(getattr(p, name) for name in table.reads)
    g = geom_sum_bounds(table.alpha3, table.upper3, values[0])
    return math.fsum(
        weight * t ** (exp6 / 6.0) * closed_form_at(g[block_sum], t)
        for exp6, block_sum, weight in table.terms(*values)
    )


# ---------------------------------------------------------------------------
# Per-block chains on the exact block grid
# ---------------------------------------------------------------------------


def block23_per_block_bound(t: float, k: float) -> float:
    """Per-block curvature-estimate chain evaluated with the exact block
    grid (the sharper sum the closed-form coefficients must dominate)."""
    _require_t(t, E3, "block23_per_block_bound")
    scheme = block_scheme(t, 2.0 / 3.0, k, 1.0)
    total = 0.0
    for idx, (x0, _, n0, n1) in enumerate(scheme.blocks):
        last = idx == len(scheme.blocks) - 1
        L = (n1 - n0) if last else (k - 1.0) * x0 + 1.0
        V = 2.0 * math.pi * x0 * x0 / t
        W = 2.0 * math.pi * k * k * x0 * x0 / t
        est = 0.2 * (L / V + 1.0) * (8.0 * math.sqrt(W) + 15.0)
        total += math.log(x0) / math.sqrt(x0) * est
    return total


def block13_per_block_bound(t: float, p: BoundParams) -> float:
    """Exact-grid differencing chain with integer M = max(1, floor(q X / t^{1/3}))
    per block: the rigorous per-block route used by verification tests."""
    if not (t > p.t2):
        raise ValueError("per-block route applies for t > t2")
    scheme = block_scheme(t, 1.0 / 3.0, p.tau, 2.0 / 3.0)
    tau, q, t2 = p.tau, p.q, p.t2
    t13 = t ** (1.0 / 3.0)
    total = 0.0
    for idx, (x0, _, n0, n1) in enumerate(scheme.blocks):
        last = idx == len(scheme.blocks) - 1
        L = (n1 - n0) if last else (tau - 1.0) * x0 + 1.0
        M = max(1, math.floor(q * x0 / t13))
        # first radical: ((L + M-cover) L / M)^{1/2} with M <= q t2^{-1/3} X
        p1 = L + q * t2 ** (-1.0 / 3.0) * x0
        first = math.sqrt(p1 * L / M)
        # weighted shifted-sum bound, through the triangular weight sums
        s1 = 8.0 * (tau - 1.0) * (tau + 1.0) ** 1.5 / _SQRT_PI * math.sqrt(t) / math.sqrt(x0) * (4.0 / 15.0) * M**1.5
        s2 = 8.0 * (tau + 1.0) ** 1.5 / _SQRT_PI * math.sqrt(t) / x0**1.5 * (4.0 / 15.0) * M**1.5
        s3 = 8.0 * _SQRT_PI * (tau + 1.0) ** 1.5 * x0**1.5 / math.sqrt(t) * (4.0 / 3.0) * math.sqrt(M)
        s4 = 15.0 * (tau - 1.0) / math.pi * t / x0**2 * M**2 / 6.0
        s5 = 15.0 / math.pi * t / x0**3 * M**2 / 6.0
        s6 = 15.0 * M / 2.0
        inner = 0.2 * (s1 + s2 + s3 + s4 + s5 + s6)
        second = math.sqrt(2.0 * (tau * x0 + 1.0) / M) * math.sqrt(inner)
        total += math.log(x0) / math.sqrt(x0) * (first + second)
    return total
