"""Machine-checkable sweeps: every supported inequality gets an oracle,
a sample stream, and a structured report.

A report counts a violation when the oracle exceeds the bound by more
than the sample's explicit numerical error budget, or when any of the
three is NaN; raw slack (bound - oracle) and the worst budget used are
reported separately so downstream gates can require slack > budget.
Samples are folded in blocks of up to QUAD_BLOCK, by array reductions
that give the bits of an in-order fold.  Identical (check id, sample
spec) pairs reproduce identical reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .bounds import (
    DEFAULT_PARAMS,
    E2,
    THRESHOLD,
    BoundParams,
    in_theorem_domain,
    mid_tail_sum_bound,
    theorem1_bound,
    theorem2_bound,
    theorem2_coeffs,
)
from .expsums import (
    RANGE_GUARD,
    TWO_PI,
    _exact_ints,
    _unit_sum,
    exp_sum_exact,
    log_phase,
    quadratic_phase,
    shifted_diff_maxima,
    vdc_params_for_log_block,
    vdc_second_derivative_bound,
    vertex_max_bound,
    weight_sum_blocks,
    weyl_differencing_rhs,
)
from .numerics import EPS, _integer, geometric_grid, integrate_gauss_legendre
from .zeta import (
    T_CEILING,
    CertifiedComplex,
    EvalPoint,
    default_em_config,
    em_range_sum,
    zeta_prime_em,
)


@dataclass(frozen=True)
class SampleSpec:
    """Sample count, seed, and the optional integer "M" range (min M, max
    M) of checks 4.3 and 4.6, the only range a sweep takes."""

    samples: int = 100
    seed: int = 0
    ranges: dict[str, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _integer("samples", self.samples))
        object.__setattr__(self, "seed", _integer("seed", self.seed))


@dataclass(frozen=True)
class VerificationReport:
    check_id: str
    samples: int
    violations: int
    min_slack: float  # bound - oracle, minimized over samples
    max_oracle: float
    error_budget_used: float  # worst per-sample budget
    notes: str = ""
    min_slack_inputs: dict | None = None

    def to_record(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


def _stream_max(current: float, values: np.ndarray) -> float:
    """``max(current, v)`` folded over ``values`` in order: NaNs are passed
    over, and of equal maxima (0.0 and -0.0) the first is kept."""
    top = np.fmax.reduce(values)
    return float(values[(values == top).argmax()]) if top > current else current


@dataclass
class _Sweep:
    """Folds (oracle, bound, budget, inputs) samples into the report's fields
    in one place, ``add_many``: ``add`` queues samples for it, QUAD_BLOCK at
    a time, and ``add_many`` and ``report`` fold the queue first, in order."""

    check_id: str
    samples: int = 0
    violations: int = 0
    min_slack: float = math.inf
    max_oracle: float = -math.inf
    error_budget_used: float = 0.0
    min_slack_inputs: dict | None = None
    skipped: int = 0
    pending: list[tuple[float, float, float, dict]] = field(default_factory=list)

    def add(self, oracle: float, bound: float, budget: float, inputs: dict) -> None:
        self.pending.append((oracle, bound, budget, inputs))
        if len(self.pending) >= QUAD_BLOCK:
            self._fold_pending()

    def _fold_pending(self) -> None:
        if self.pending:
            *sides, inputs = zip(*self.pending)
            self.pending = []
            self.add_many(*(np.array(side, dtype=np.float64) for side in sides), inputs.__getitem__)

    def add_many(
        self, oracle: np.ndarray, bound: np.ndarray, budget: np.ndarray,
        inputs_at: Callable[[int], dict],
    ) -> np.ndarray:
        """Fold each entry in order, by array reductions: the first minimum
        slack wins, NaNs pass the maxima and the slack over and count as
        violations.  ``inputs_at(i)`` gives entry i's inputs and runs only
        for a new minimum.  Returns which entries are violations."""
        self._fold_pending()
        violated = ~(oracle <= bound + budget)
        if not oracle.size:
            return violated
        self.samples += oracle.size
        self.max_oracle = _stream_max(self.max_oracle, oracle)
        self.error_budget_used = _stream_max(self.error_budget_used, budget)
        slack = bound - oracle
        least = np.fmin.reduce(slack)
        if least < self.min_slack:
            i = int((slack == least).argmax())
            self.min_slack = float(slack[i])
            self.min_slack_inputs = inputs_at(i)
        self.violations += int(np.count_nonzero(violated))
        return violated

    def report(self, notes: str = "") -> VerificationReport:
        self._fold_pending()
        if self.skipped:
            skip_note = f"{self.skipped} samples excluded (oracle did not converge)"
            notes = f"{notes}; {skip_note}" if notes else skip_note
        return VerificationReport(notes=notes, **{
            f.name: getattr(self, f.name) for f in fields(VerificationReport) if f.name != "notes"
        })


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


QUAD_BLOCK = 32  # samples per quadrature call of 2.1 and 2.2 and per fold of _Sweep.add


def _blocks(draws: Iterator[tuple]) -> Iterator[np.ndarray]:
    """``draws`` QUAD_BLOCK at a time, as one contiguous float row per field."""
    while block := list(itertools.islice(draws, QUAD_BLOCK)):
        yield np.ascontiguousarray(np.array(block, dtype=np.float64).T)


# check 2.1's uniform draws, in stream order: a, b - a, c, d, p, A, w, phi
_PARTIAL_INTEGRATION_LOW = np.array([0.5, 0.5, 0.1, 0.0, 0.2, 0.1, 0.5, 0.0])
_PARTIAL_INTEGRATION_HIGH = np.array([5.0, 8.0, 3.0, 2.0, 3.0, 2.0, 20.0, TWO_PI])


def _partial_integration_draws(spec: SampleSpec) -> Iterator[tuple[float, ...]]:
    """Check 2.1's samples in stream order: (a, b, c, d, p, A, w, phi,
    bound, node error), the bound side in Python floats.  The uniforms
    come QUAD_BLOCK samples per call, each formed low + (high - low) u as
    ``rng.uniform`` forms it, so they have its bits."""
    rng = np.random.default_rng(spec.seed)
    low, width = _PARTIAL_INTEGRATION_LOW, _PARTIAL_INTEGRATION_HIGH - _PARTIAL_INTEGRATION_LOW
    for first in range(0, spec.samples, QUAD_BLOCK):
        draws = low + width * rng.random((min(QUAD_BLOCK, spec.samples - first), low.size))
        for a, b, c, d, pw, amp, w, phi in draws.tolist():
            b += a
            f_a = c * (a + d) ** (-pw)

            # exact max of |A sin(w x + phi)| on [a, b]
            if w * (b - a) >= TWO_PI:
                gmax = amp
            else:
                gmax = max(abs(amp * math.sin(w * a + phi)), abs(amp * math.sin(w * b + phi)))
                k_lo = math.ceil((w * a + phi) / math.pi - 0.5)
                k_hi = math.floor((w * b + phi) / math.pi - 0.5)
                if k_hi >= k_lo:
                    gmax = amp

            # a node value's error (docs/oscillatory_tails.md, "Certified quadrature")
            node_err = EPS * f_a * amp * w * (4.0 * (w * b + phi) + 3.0 * pw * b / (a + d) + 8.0)
            yield a, b, c, d, pw, amp, w, phi, 2.0 * f_a * gmax, node_err


def _partial_integration_quadrature(a, b, c, d, pw, amp, w, phi, node_err):
    """The integrals of f g' over a block of check 2.1's samples."""

    def integrand(x, i):
        return c[i] * (x + d[i]) ** -pw[i] * ((amp * w)[i] * np.cos(w[i] * x + phi[i]))

    def ellipse_bound(mid, re_axis, im_axis, i):
        # |(z + d)^-p| <= (Re z + d)^-p and |cos(w z + phi)| <= cosh(w Im z)
        low = mid - re_axis + d[i] - 4.0 * EPS * (mid + re_axis + d[i])  # rounded down
        bound = (c * amp * w)[i] * low ** -pw[i] * np.cosh(w[i] * im_axis)
        return np.where(low > 0.0, bound, np.inf)

    return integrate_gauss_legendre(integrand, a, b, 1e-10, ellipse_bound, TWO_PI / w, node_err)


def _check_partial_integration(spec: SampleSpec) -> VerificationReport:
    """|integral f g'| <= 2 |f(a)| max|g| for positive decreasing f.

    f(x) = c (x+d)^{-p} and g(x) = A sin(w x + phi), whose maximum modulus
    on [a, b] is known exactly, keep both sides computable to quadrature
    accuracy.  The source statement is read as an upper bound.  The
    integrals run QUAD_BLOCK samples per quadrature call.
    """
    sweep = _Sweep("2.1")
    for a, b, c, d, pw, amp, w, phi, bound, node_err in _blocks(_partial_integration_draws(spec)):
        values, radii = _partial_integration_quadrature(a, b, c, d, pw, amp, w, phi, node_err)
        sweep.add_many(
            np.abs(values), bound, radii + 1e-12 * (1.0 + bound),
            lambda i: {"a": float(a[i]), "b": float(b[i]), "w": float(w[i]), "p": float(pw[i])},
        )
    return sweep.report()


# Check 2.2's integrands: kernel(t log x, 2 pi v x, sign) log x / x^{1+sigma},
# on arrays of quadrature nodes.
_OSC_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = {
    "2.2a": lambda tl, w, sign: np.sin(tl + sign * w),
    "2.2b": lambda tl, w, sign: np.sin(tl + w) + sign * np.sin(tl - w),
    "2.2c": lambda tl, w, sign: np.sin(tl) * np.sin(w),
    "2.2d": lambda tl, w, sign: np.cos(tl) * np.sin(w),
}
# A bound on |kernel| over a Bernstein ellipse in the right half-plane,
# given t |arg z| and 2 pi v |Im z| at most tt and vv.
_OSC_KERNEL_BOUNDS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "2.2a": lambda tt, vv: np.cosh(tt + vv),
    "2.2b": lambda tt, vv: 2.0 * np.cosh(tt + vv),
    "2.2c": lambda tt, vv: np.cosh(tt) * np.cosh(vv),
    "2.2d": lambda tt, vv: np.cosh(tt) * np.cosh(vv),
}
_OSC_VARIANTS = tuple(_OSC_KERNELS)


def _decreasing_from(a: float, t: float, v: int, sigma: float, sign: float) -> bool:
    """Whether g/phi' = log x / (x^sigma (2 pi v x + sign t)), half check
    2.2a's bound at x = a, decreases on [a, inf): its log-derivative is
    (1/log x - sigma - 2 pi v x / (2 pi v x + sign t)) / x.  For sign = -1
    and x > e the fraction exceeds 1 > 1/log x; for sign = +1, 1/log x
    falls and the fraction rises in x, so x = a decides."""
    w = TWO_PI * v * a
    return sign < 0 or t <= w * (math.log(a) - 1.0) + sigma * math.log(a) * (w + t)


# check 2.2's uniform draws, by column of its block draws: t, margin, b / a, sigma
_OSC_LOW = np.array([5.0, 0.1, 1.5, 0.0])
_OSC_HIGH = np.array([60.0, 2.0, 4.0, 1.5])


def _oscillatory_tail_draws(
    spec: SampleSpec, variants: tuple[str, ...],
) -> Iterator[tuple[float, ...]]:
    """Check 2.2's samples in stream order, variant by variant: (index into
    ``variants``, t, a, b, v, sigma, sign, bound, node error), the bound
    side in Python floats.  A sample draws, in stream order, rng.uniform
    for t, margin and b / a, rng.integers(1, 5) for v, rng.uniform for
    sigma and rng.integers(0, 2) for the sign; they come QUAD_BLOCK
    samples per rng.random((n, 5)) call with the bits of those calls.
    Columns 0, 1, 2 and 4 are the uniforms, low + (high - low) u as
    rng.uniform forms them.  The two integer draws keep the top bits of
    the low and then the high half of one 64-bit output, whose top 53
    bits are column 3's w = u 2^53: v = 1 + bits 19-20 of w, and the
    sign is +1 when bit 52 is set."""
    low, width = _OSC_LOW, _OSC_HIGH - _OSC_LOW
    per = spec.samples // len(variants)
    for k, variant in enumerate(variants):
        rng = np.random.default_rng(spec.seed + k)
        for first in range(0, per, QUAD_BLOCK):
            u = rng.random((min(QUAD_BLOCK, per - first), 5))
            w = (u[:, 3] * 2.0**53).astype(np.uint64)
            vs = (1 + ((w >> np.uint64(19)) & np.uint64(3))).tolist()
            signs = np.where(w >> np.uint64(52), 1.0, -1.0).tolist()
            uniforms = (low + width * u[:, [0, 1, 2, 4]]).tolist()
            for (t, margin, stretch, sigma), v, sign in zip(uniforms, vs, signs):
                a = t / TWO_PI * (1.0 + margin)
                if a <= math.e:
                    a = math.e * 1.05  # keep log a positive so the bound is meaningful
                b = a * stretch
                while variant == "2.2a" and not _decreasing_from(a, t, v, sigma, sign):
                    a, b = 1.05 * a, 1.05 * b

                if variant == "2.2a":
                    denom = TWO_PI * v * a + sign * t
                    bound = 2.0 * math.log(a) / (a**sigma * denom)
                else:
                    bound = (
                        8.0 * math.pi * v * a * math.log(a)
                        / (a**sigma * (4.0 * math.pi**2 * v**2 * a**2 - t * t))
                    )

                # a node value's error (docs/oscillatory_tails.md, "Certified quadrature")
                log_a, log_b = math.log(a), math.log(b)
                envelope = (2.0 if variant == "2.2b" else 1.0) * log_a / a ** (1.0 + sigma)
                phase = t * log_b + TWO_PI * v * b
                drift = t / a + TWO_PI * v + (1.0 + 2.5 * log_b) / (a * log_a)
                node_err = EPS * envelope * (3.0 * phase + 3.0 * b * drift + 2.0 * log_b + 8.0)
                yield k, t, a, b, v, sigma, sign, bound, node_err


def _runs(kinds: np.ndarray) -> list[tuple[int, int, int]]:
    """(kind, start, stop) of each run of equal entries of ``kinds``."""
    cuts = (np.flatnonzero(np.diff(kinds)) + 1).tolist()
    starts, stops = [0, *cuts], [*cuts, kinds.size]
    return [(int(kinds[lo]), lo, hi) for lo, hi in zip(starts, stops)]


def _oscillatory_tail_quadrature(variants, kinds, t, a, b, v, sigma, sign, node_err):
    """The integrals over a block of check 2.2's samples, sample i of
    variant ``variants[kinds[i]]``; each variant's kernel and kernel bound
    run on its own contiguous slice of the nodes and panels."""
    runs = _runs(kinds)
    two_pi_v = TWO_PI * v

    def by_variant(table, owner, *args):
        out = np.empty_like(args[0])
        for kind, lo, hi in runs:
            s, e = np.searchsorted(owner, (lo, hi))
            out[..., s:e] = table[variants[kind]](*(arg[..., s:e] for arg in args))
        return out

    def integrand(x, i):
        log_x = np.log(x)
        kernel = by_variant(_OSC_KERNELS, i, t[i] * log_x, two_pi_v[i] * x, sign[i])
        return kernel * log_x / x ** (1.0 + sigma)[i]

    def ellipse_bound(mid, re_axis, im_axis, i):
        # r <= Re z, |z| <= r_max and |arg z| <= theta on the ellipse
        r = mid - re_axis - 4.0 * EPS * (mid + re_axis)  # rounded down
        r_max = np.hypot(mid + re_axis, im_axis) * (1.0 + 4.0 * EPS)
        theta = np.arctan(im_axis / r)
        log_max = np.maximum(np.abs(np.log(r)), np.abs(np.log(r_max))) + theta
        kernel = by_variant(_OSC_KERNEL_BOUNDS, i, t[i] * theta, two_pi_v[i] * im_axis)
        return np.where(r > 0.0, log_max * r ** (-1.0 - sigma)[i] * kernel, np.inf)

    wavelength = TWO_PI / (t / a + two_pi_v)
    return integrate_gauss_legendre(integrand, a, b, 1e-9, ellipse_bound, wavelength, node_err)


def _check_oscillatory_tail(spec: SampleSpec, variants: tuple[str, ...]) -> VerificationReport:
    """Oscillatory log-weighted integral envelopes.

    variant a: integrand sin(t log x +/- 2 pi v x) log x / x^{1+sigma},
               bound 2 log a / (a^sigma (2 pi v a +/- t));
    variants b, c, d: the sine-combination / product kernels of
               _OSC_KERNELS in place of the sine, bound
               8 pi v a log a / (a^sigma (4 pi^2 v^2 a^2 - t^2)).

    Samples respect a >= (t / 2 pi)(1 + margin) with margin >= 0.1, away
    from the singular denominator; variant a scales a and b by 1.05 until
    ``_decreasing_from`` holds.  The i-th of several variants draws
    samples // len(variants) samples from seed + i into the one "2.2"
    report, whose notes give each variant's violations and the samples
    left undrawn.  The integrals run QUAD_BLOCK samples per quadrature
    call, across variants.
    """
    sweep = _Sweep(variants[0] if len(variants) == 1 else "2.2")
    violations = np.zeros(len(variants), dtype=np.intp)
    for block in _blocks(_oscillatory_tail_draws(spec, variants)):
        kinds, t, a, b, v, sigma, sign, bound, node_err = block
        values, radii = _oscillatory_tail_quadrature(
            variants, kinds, t, a, b, v, sigma, sign, node_err
        )
        violated = sweep.add_many(
            np.abs(values), bound, radii + 1e-12 * (1.0 + bound),
            lambda i: {
                "t": float(t[i]), "a": float(a[i]), "b": float(b[i]), "v": int(v[i]),
                "sigma": float(sigma[i]), "sign": float(sign[i]),
            },
        )
        violations += np.bincount(kinds[violated].astype(np.intp), minlength=len(variants))
    notes = [f"{variant}: {count} violations" for variant, count in zip(variants, violations.tolist())]
    per, rest = divmod(spec.samples, len(variants))
    if rest:
        notes.append(f"{rest} of {spec.samples} samples not drawn ({per} per variant)")
    return sweep.report("; ".join(notes) if len(variants) > 1 else "")


def _floor_square(t: float) -> int:
    """floor(t^2) of the double t > 0, exactly: t = p/q, so t^2 = p^2/q^2."""
    p, q = t.as_integer_ratio()
    return p * p // (q * q)


def _check_mid_tail(spec: SampleSpec) -> VerificationReport:
    """|sum over (t, t^2]| against 2 log t + 1.944, t log-uniform in
    [e^2, 1e8].

    The sum runs over a <= n < b with a = floor(t) + 1 and b = floor(t^2)
    + 1, from exact arithmetic on the double t, and comes from
    ``em_range_sum`` at a cost that does not grow with t; its radius is
    the sample's budget.
    """
    rng = np.random.default_rng(spec.seed)
    sweep = _Sweep("2.4")
    for _ in range(spec.samples):
        t = math.exp(float(rng.uniform(math.log(E2), math.log(1e8))))
        a = math.floor(t) + 1
        b = _floor_square(t) + 1
        mid_tail = em_range_sum(EvalPoint(t), a, b)
        sweep.add(abs(mid_tail.value), mid_tail_sum_bound(t), mid_tail.error_bound, {"t": t})
    return sweep.report()


def _check_vertex_bound(spec: SampleSpec) -> VerificationReport:
    """Amplitude-ordered phasor sums against the vertex enumeration bound."""
    rng = np.random.default_rng(spec.seed)
    sweep = _Sweep("2.5")
    for _ in range(spec.samples):
        n = int(rng.integers(1, 9))  # 1 to 8 terms
        amps = np.sort(rng.uniform(0.05, 3.0, size=n))
        phases = rng.uniform(0.0, TWO_PI, size=n)
        direct = abs(complex(np.sum(amps * np.exp(1j * phases))))
        bound = vertex_max_bound(list(amps), list(phases))
        budget = 16.0 * EPS * n * float(amps[-1]) + 1e-13
        sweep.add(direct, bound, budget, {"n": n, "amps": amps.tolist()})
    return sweep.report()


def _check_curvature_estimate(spec: SampleSpec) -> VerificationReport:
    """Exact log-phase block sums against (1/5)(L/V+1)(8 sqrt(W)+15)."""
    rng = np.random.default_rng(spec.seed)
    sweep = _Sweep("4.1")
    for _ in range(spec.samples):
        t = math.exp(float(rng.uniform(math.log(1e3), math.log(1e5))))
        x0 = t ** (2.0 / 3.0)
        n_start = int(x0 * float(rng.uniform(1.0, 3.0)))
        max_len = max(3, min(int((rng.uniform(0.1, 1.5)) * n_start), 10**4))
        length = int(rng.integers(2, max_len + 1))
        f = log_phase(t)
        value = abs(exp_sum_exact(f, n_start, length))
        params = vdc_params_for_log_block(t, n_start, length)
        bound = vdc_second_derivative_bound(params)
        budget = 8.0 * EPS * length + 1e-12
        sweep.add(
            value, bound, budget,
            {"t": t, "N": n_start, "L": length, "V": params.V, "W": params.W},
        )
    return sweep.report()


def _m_range(spec: SampleSpec, check_id: str, hi: int) -> tuple[int, int]:
    """The integer "M" range of a check, (1, hi) unless the spec sets one."""
    m_range = spec.ranges.get("M", (1, hi))
    if len(m_range) != 2:
        raise ValueError(f"check {check_id} needs an \"M\" range (min M, max M), got {m_range}")
    try:
        m_lo, m_hi = (_integer("M", m) for m in m_range)  # no bool, numpy integers pass
    except ValueError:
        raise ValueError(f"check {check_id} needs integer M bounds, got {m_range}") from None
    if not 1 <= m_lo <= m_hi <= RANGE_GUARD:
        raise ValueError(
            f"check {check_id} needs 1 <= max M <= {RANGE_GUARD} and 1 <= min M <= max M, "
            f"got ({m_lo}, {m_hi})"
        )
    return m_lo, m_hi


def _check_differencing(spec: SampleSpec) -> VerificationReport:
    """|S|^2 against the differencing inequality with exact prefix maxima."""
    m_lo, m_hi = _m_range(spec, "4.3", 20)
    rng = np.random.default_rng(spec.seed)
    sweep = _Sweep("4.3")
    for i in range(spec.samples):
        kind = i % 3
        if kind == 0:
            f = quadratic_phase(0.0, 0.0)
        elif kind == 1:
            f = quadratic_phase(
                float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-1.0, 1.0))
            )
        else:
            f = log_phase(float(rng.uniform(10.0, 1e4)))
        n_start = int(rng.integers(1, 500))
        length = int(rng.integers(1, 200))
        m_val = int(rng.integers(m_lo, m_hi + 1))
        phases = []  # shifted_diff_maxima's one evaluation of f, on N+1 .. N+L+M-1
        # refuses too many terms before f runs
        diffmax = shifted_diff_maxima(lambda x: phases.append(f(x)) or phases[0], n_start, length, m_val)
        # f is elementwise, so its first L values are those exp_sum_exact(f, N, L) takes
        s_val = abs(_unit_sum(TWO_PI * phases[0][:length])) ** 2
        rhs = weyl_differencing_rhs(length, m_val, diffmax)
        budget = 2.0 * math.sqrt(s_val) * 8.0 * EPS * length + 1e-10 * (1.0 + rhs)
        sweep.add(
            s_val, rhs, budget,
            {"kind": ("zero", "quadratic", "log")[kind], "N": n_start,
             "L": length, "M": m_val},
        )
    return sweep.report()


def _check_weight_sums(spec: SampleSpec) -> VerificationReport:
    """Exhaustive exact-vs-bound comparison of the triangular weight sums
    at every M of the "M" range; the running sums start at M = 1.
    Relations 3 and 4 must equal (M^2-1)/6 and (M-1)/2 correctly rounded,
    and lie strictly below their bounds for M >= 2."""
    m_lo, max_m = _m_range(spec, "4.6", 10**4)
    sweep = _Sweep("4.6")
    strict_34 = True
    for ms, exact, bound in weight_sum_blocks(max_m):
        below = m_lo - int(ms[0])
        if below >= ms.size:
            continue
        if below > 0:
            ms, exact, bound = ms[below:], exact[below:], bound[below:]
        mi = _exact_ints(ms)  # M^2 - 1 is exact in int64 and as a double there
        past_1 = int(ms[0] == 1)  # strict from M = 2 on
        if not (
            np.array_equal(exact[:, 2], ((mi * mi - 1) / 6).astype(np.float64, copy=False))
            and np.array_equal(exact[:, 3], (ms - 1) / 2)  # exact below 2^53
            and (exact[past_1:, 2:] < bound[past_1:, 2:]).all()
        ):
            strict_34 = False
        sweep.add_many(
            exact.ravel(), bound.ravel(), 1e-12 * (1.0 + bound.ravel()),
            lambda i, ms=ms: {"M": int(ms[i // 4])},
        )
    notes = (
        "relations 3 and 4 hold with strict inequality for M >= 2; "
        "exact values are (M^2-1)/6 and (M-1)/2"
        if strict_34
        else "closed-form check for relations 3 and 4 FAILED"
    )
    return sweep.report(notes)


_CHECKS: dict[str, Callable[[SampleSpec], VerificationReport]] = {
    "2.1": _check_partial_integration,
    **{variant: partial(_check_oscillatory_tail, variants=(variant,)) for variant in _OSC_VARIANTS},
    "2.4": _check_mid_tail,
    "2.5": _check_vertex_bound,
    "4.1": _check_curvature_estimate,
    "4.3": _check_differencing,
    "4.6": _check_weight_sums,
    "2.2": partial(_check_oscillatory_tail, variants=_OSC_VARIANTS),
}

SUPPORTED_CHECKS = tuple(_CHECKS)


def verify_lemma(check_id: str, spec: SampleSpec | None = None) -> VerificationReport:
    """Run one inequality sweep and return its report.

    "2.2" sweeps the four oscillatory-tail variants into one report,
    splitting the sample budget evenly; its notes give each variant's
    violations and any samples left undrawn.  A sweep that would check
    nothing raises ValueError: fewer than one sample (four for "2.2"), or
    for "4.3" and "4.6" an "M" range outside 1 <= min <= max <= 1e8.
    So does a negative seed, and any range but the "M" of 4.3 and 4.6.
    """
    spec = spec or SampleSpec()
    if check_id not in SUPPORTED_CHECKS:
        raise ValueError(
            f"unknown check id {check_id!r}; supported: {', '.join(SUPPORTED_CHECKS)}"
        )
    if spec.seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {spec.seed}")
    for name in spec.ranges:
        if not (name == "M" and check_id in ("4.3", "4.6")):
            raise ValueError(
                f"check {check_id} takes no {name!r} range; only 4.3 and 4.6 take one, 'M'"
            )
    if check_id == "2.2" and spec.samples < 4:
        raise ValueError("check 2.2 splits its samples over 4 variants; need at least 4")
    if check_id != "4.6" and spec.samples < 1:
        raise ValueError(f"check {check_id} needs at least one sample")
    return _CHECKS[check_id](spec)


def envelope_points(
    which: int, ts: Iterable[float], p: BoundParams,
) -> Iterator[tuple[float, float, CertifiedComplex]]:
    """(t, theorem ``which``'s bound at t, certified zeta'(1/2+it)) along
    ts; zeta' comes from ``zeta_prime_em`` at its default derivative
    config.  Each t must lie in the theorem's domain and below T_CEILING;
    a ``which`` other than the integers 1 and 2 raises ValueError."""
    if _integer("which", which) not in (1, 2):
        raise ValueError("which must be 1 or 2")
    coeffs = theorem2_coeffs(p) if which == 2 else None
    for t in ts:
        bound = theorem1_bound(t) if which == 1 else theorem2_bound(t, p, coeffs)
        point = EvalPoint(t)
        yield t, bound.total, zeta_prime_em(point, default_em_config(point, for_derivative=True))


def verify_theorem_envelope(
    which: int,
    t_range: tuple[float, float],
    n_samples: int,
    p: BoundParams | None = None,
) -> VerificationReport:
    """|zeta'(1/2+it)| against a bound family on a geometric t-grid.

    zeta' and the bound come from ``envelope_points``; each sample's budget
    is the error radius plus 1e-9 of the bound.  Non-converged points are
    excluded and counted in the notes.  The range, checked before any evaluation,
    must be finite and in the theorem's domain, with t_min <= t_max <= T_CEILING.
    """
    which, n_samples = _integer("which", which), _integer("n_samples", n_samples)
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    lo, hi = t_range
    for end in (lo, hi):
        if not math.isfinite(end):
            raise ValueError(f"t range must be finite, got {end}")
    if not in_theorem_domain(lo, which):
        raise ValueError(f"t range must start at or above {THRESHOLD[which]:.6g}")
    if not lo <= hi:
        raise ValueError("need 0 < t_min <= t_max")
    if hi > T_CEILING:
        raise ValueError(f"t_max={hi:g} exceeds the certified ceiling {T_CEILING:g}")
    sweep = _Sweep(f"theorem-{which}")
    grid = geometric_grid(lo, hi, n_samples)
    for t, bound, zp in envelope_points(which, grid, p or DEFAULT_PARAMS):
        if zp.converged:
            sweep.add(abs(zp.value), bound, zp.error_bound + 1e-9 * bound, {"t": t})
        else:
            sweep.skipped += 1
    return sweep.report()
