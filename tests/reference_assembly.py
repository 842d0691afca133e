"""The six-shape assembly as a walk of ``put`` calls, one per addition to
Q1..Q6 in order: the reference that ``bounds.ASSEMBLY_PLAN``, and the
assembly and trace built from it, are checked against.  Also the
crossover scan that compares ``BoundCurve`` totals, the reference for
``optimize.crossover_scan``."""

from __future__ import annotations

import math

from zetabounds.bounds import (
    BLOCK_13,
    BLOCK_23,
    E6,
    MID_TAIL,
    Q_NAMES,
    Q_TARGETS,
    TAIL_REMAINDER,
    BoundCoefficients,
    BoundParams,
    TraceEntry,
    collect,
    crude_bound,
    q_polynomial,
    theorem1_bound,
    theorem2_bound,
    theorem2_coeffs,
)


def assemble_by_puts(p: BoundParams, C: tuple[float, ...], c: tuple[float, ...]) -> BoundCoefficients:
    """``theorem2_coeffs(p)`` from C = collect(BLOCK_23, p), c = collect(BLOCK_13, p),
    with ``derivation_trace`` set to the walk's own record of its additions."""
    trace: list[TraceEntry] = []
    Q = [0.0] * 6

    def put(i: int, source: str, value: float, shape: str = "", note: str = "") -> None:
        trace.append(TraceEntry(Q_TARGETS[i], source, shape or Q_NAMES[i], value, note))
        Q[i] += value

    # head sum over n <= t^{1/3}: integral_bound(t, 1/3) = 2 t^{1/6}((1/3) log t - 2)
    put(1, "head-integral", 2.0 / 3.0)
    put(2, "head-integral", -4.0)

    # block ranges: a shape that matches a Q adds to it; the decaying
    # (upper-range) shapes fold into Q6 at their maximum over [e^6, inf).
    fold23 = 0.0
    for table, coeffs in ((BLOCK_13, c), (BLOCK_23, C)):
        for (i, name, at_e6), value in zip(table.routes, coeffs):
            if i is not None:
                put(i, table.source, value)
                continue
            contrib = value * at_e6
            fold23 += contrib
            if value:
                put(5, table.source, contrib, name, "folded at t = e^6")

    # mid-tail sum over (t, t^2]
    put(4, "mid-tail-sum", MID_TAIL.log_coef)
    put(5, "mid-tail-sum", MID_TAIL.const)

    # tail remainder, constant-factored form for t >= e^6
    put(4, "tail-remainder", TAIL_REMAINDER[2].log_coef)
    put(5, "tail-remainder", TAIL_REMAINDER[2].const)

    # crude-branch paddings: the six-shape polynomial must also dominate
    # the flat crude bounds on [e^6, t2] and (when t1 > e^6) on [e^6, t1].
    absorb13 = max(0.0, crude_bound(BLOCK_13, p.t2) - q_polynomial(E6, c))
    if absorb13:
        put(5, BLOCK_13.source, absorb13, note="crude-branch padding on [e^6, t2]")
    absorb23 = 0.0
    if p.t1 > E6:
        poly23_at_e6 = math.fsum(
            [v * at_e6 for (i, _, at_e6), v in zip(BLOCK_23.routes, C) if i is not None]
            + [fold23]
        )
        absorb23 = max(0.0, crude_bound(BLOCK_23, p.t1) - poly23_at_e6)
        if absorb23:
            put(5, BLOCK_23.source, absorb23, note="crude-branch padding on [e^6, t1]")

    coeffs = BoundCoefficients(
        params=p, C=C, c=c, Q=tuple(Q),
        fold23_const=fold23, absorb13=absorb13, absorb23=absorb23,
    )
    coeffs.__dict__["derivation_trace"] = tuple(trace)  # read by trace_report
    return coeffs


def theorem2_coeffs_by_puts(p: BoundParams) -> BoundCoefficients:
    return assemble_by_puts(p, collect(BLOCK_23, p), collect(BLOCK_13, p))


def crossover_scan_by_curves(p: BoundParams, t_max: float) -> float | None:
    """``optimize.crossover_scan(p, t_max)`` for a t_max it accepts, with
    each probe comparing the totals of a ``theorem2_bound`` and a
    ``theorem1_bound`` curve."""
    log_t_max = math.log(t_max)
    coeffs = theorem2_coeffs(p)
    step = math.log(1.1)

    def beats(logt: float) -> bool:
        t = math.exp(logt)
        return theorem2_bound(t, p, coeffs).total < theorem1_bound(t).total

    logt = left = 6.0
    while not beats(logt):
        if logt >= log_t_max:
            return None
        left, logt = logt, min(logt + step, log_t_max)
    if logt == 6.0:
        return math.exp(logt)
    left, right = (logt - step if left + step <= log_t_max else left), logt
    while right - left > 1e-6:
        mid = 0.5 * (left + right)
        if beats(mid):
            right = mid
        else:
            left = mid
    return math.exp(right)
