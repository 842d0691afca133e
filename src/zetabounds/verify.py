"""Machine-checkable sweeps: every supported inequality gets an oracle,
a sample stream, and a structured report.

A report counts a violation only when the oracle exceeds the bound by
more than the explicit numerical error budget of that sample; raw slack
(bound - oracle) and the worst budget used are reported separately so
downstream gates can require slack > budget.  Identical
(check id, sample spec) pairs reproduce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    exp_sum_exact,
    log_dirichlet_sum,
    log_phase,
    quadratic_phase,
    shifted_diff_maxima,
    vdc_params_for_log_block,
    vdc_second_derivative_bound,
    vertex_max_bound,
    weight_sum_rows,
    weyl_differencing_rhs,
)
from .numerics import EPS, geometric_grid, integrate_adaptive
from .zeta import T_CEILING, CertifiedComplex, EvalPoint, default_em_config, zeta_prime_em


@dataclass(frozen=True)
class SampleSpec:
    """Sample count, seed, and the optional "M" range (min M, max M) of
    checks 4.3 and 4.6, the only range a sweep takes."""

    samples: int = 100
    seed: int = 0
    ranges: dict[str, tuple[float, float]] = field(default_factory=dict)


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
        rec = {
            "check_id": self.check_id,
            "samples": self.samples,
            "violations": self.violations,
            "min_slack": self.min_slack,
            "max_oracle": self.max_oracle,
            "error_budget_used": self.error_budget_used,
            "notes": self.notes,
        }
        if self.min_slack_inputs is not None:
            rec["min_slack_inputs"] = dict(self.min_slack_inputs)
        return rec


class _Sweep:
    """Accumulates (oracle, bound, budget, inputs) triples into a report."""

    def __init__(self, check_id: str) -> None:
        self.check_id = check_id
        self.samples = 0
        self.violations = 0
        self.min_slack = math.inf
        self.max_oracle = -math.inf
        self.budget_used = 0.0
        self.min_slack_inputs: dict | None = None
        self.skipped = 0

    def add(self, oracle: float, bound: float, budget: float, inputs: dict) -> None:
        self.samples += 1
        self.max_oracle = max(self.max_oracle, oracle)
        self.budget_used = max(self.budget_used, budget)
        slack = bound - oracle
        if slack < self.min_slack:
            self.min_slack = slack
            self.min_slack_inputs = inputs
        if oracle > bound + budget:
            self.violations += 1

    def skip(self) -> None:
        self.skipped += 1

    def report(self, notes: str = "") -> VerificationReport:
        if self.skipped:
            skip_note = f"{self.skipped} samples excluded (oracle did not converge)"
            notes = f"{notes}; {skip_note}" if notes else skip_note
        return VerificationReport(
            check_id=self.check_id,
            samples=self.samples,
            violations=self.violations,
            min_slack=self.min_slack if self.samples else math.inf,
            max_oracle=self.max_oracle if self.samples else -math.inf,
            error_budget_used=self.budget_used,
            notes=notes,
            min_slack_inputs=self.min_slack_inputs,
        )


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------


def _check_partial_integration(spec: SampleSpec) -> VerificationReport:
    """|integral f g'| <= 2 |f(a)| max|g| for positive decreasing f.

    f(x) = c (x+d)^{-p} and g(x) = A sin(w x + phi), whose maximum modulus
    on [a, b] is known exactly, keep both sides computable to quadrature
    accuracy.  The source statement is read as an upper bound.
    """
    rng = np.random.default_rng(spec.seed)
    sweep = _Sweep("2.1")
    for _ in range(spec.samples):
        a = float(rng.uniform(0.5, 5.0))
        b = a + float(rng.uniform(0.5, 8.0))
        c = float(rng.uniform(0.1, 3.0))
        d = float(rng.uniform(0.0, 2.0))
        pw = float(rng.uniform(0.2, 3.0))
        amp = float(rng.uniform(0.1, 2.0))
        w = float(rng.uniform(0.5, 20.0))
        phi = float(rng.uniform(0.0, TWO_PI))

        def f(x):  # a float at the bound's a, an array at the quadrature nodes
            return c * (x + d) ** (-pw)

        def g_prime(x: np.ndarray) -> np.ndarray:
            return amp * w * np.cos(w * x + phi)

        # exact max of |A sin(w x + phi)| on [a, b]
        if w * (b - a) >= TWO_PI:
            gmax = amp
        else:
            gmax = max(abs(amp * math.sin(w * a + phi)), abs(amp * math.sin(w * b + phi)))
            k_lo = math.ceil((w * a + phi) / math.pi - 0.5)
            k_hi = math.floor((w * b + phi) / math.pi - 0.5)
            if k_hi >= k_lo:
                gmax = amp
        quad = integrate_adaptive(
            lambda x: f(x) * g_prime(x), a, b, tol=1e-10,
            min_wavelength=TWO_PI / w,
        )
        if not quad.converged:
            sweep.skip()
            continue
        oracle = abs(quad.value)
        bound = 2.0 * f(a) * gmax
        budget = quad.error_estimate + 1e-12 * (1.0 + bound)
        sweep.add(oracle, bound, budget, {"a": a, "b": b, "w": w, "p": pw})
    return sweep.report()


# Check 2.2's integrands: kernel(t log x, 2 pi v x, sign) log x / x^{1+sigma},
# on arrays of quadrature nodes.
_OSC_KERNELS: dict[str, Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = {
    "2.2a": lambda tl, w, sign: np.sin(tl + sign * w),
    "2.2b": lambda tl, w, sign: np.sin(tl + w) + sign * np.sin(tl - w),
    "2.2c": lambda tl, w, sign: np.sin(tl) * np.sin(w),
    "2.2d": lambda tl, w, sign: np.cos(tl) * np.sin(w),
}
_OSC_VARIANTS = tuple(_OSC_KERNELS)


def _check_oscillatory_tail(spec: SampleSpec, variants: tuple[str, ...]) -> VerificationReport:
    """Oscillatory log-weighted integral envelopes.

    variant a: integrand sin(t log x +/- 2 pi v x) log x / x^{1+sigma},
               bound 2 log a / (a^sigma (2 pi v a +/- t));
    variants b, c, d: the sine-combination / product kernels of
               _OSC_KERNELS in place of the sine, bound
               8 pi v a log a / (a^sigma (4 pi^2 v^2 a^2 - t^2)).

    Samples respect a >= (t / 2 pi)(1 + margin) with margin >= 0.1, away
    from the singular denominator.  The i-th of several variants draws
    samples // len(variants) samples from seed + i into the one "2.2"
    report, whose notes give each variant's violation count.
    """
    sweep = _Sweep(variants[0] if len(variants) == 1 else "2.2")
    per_variant = []
    for i, variant in enumerate(variants):
        rng = np.random.default_rng(spec.seed + i)
        violations_before = sweep.violations
        for _ in range(spec.samples // len(variants)):
            t = float(rng.uniform(5.0, 60.0))
            margin = float(rng.uniform(0.1, 2.0))
            a = t / TWO_PI * (1.0 + margin)
            if a <= math.e:
                a = math.e * 1.05  # keep log a positive so the bound is meaningful
            b = a * float(rng.uniform(1.5, 4.0))
            v = int(rng.integers(1, 5))
            sigma = float(rng.uniform(0.0, 1.5))
            sign = 1.0 if rng.integers(0, 2) else -1.0

            def integrand(x: np.ndarray, kernel=_OSC_KERNELS[variant]) -> np.ndarray:
                log_x = np.log(x)
                return kernel(t * log_x, TWO_PI * v * x, sign) * log_x / x ** (1.0 + sigma)

            if variant == "2.2a":
                denom = TWO_PI * v * a + sign * t
                bound = 2.0 * math.log(a) / (a**sigma * denom)
            else:
                bound = (
                    8.0 * math.pi * v * a * math.log(a)
                    / (a**sigma * (4.0 * math.pi**2 * v**2 * a**2 - t * t))
                )
            wavelength = TWO_PI / (t / a + TWO_PI * v)
            quad = integrate_adaptive(
                integrand, a, b, tol=1e-9, min_wavelength=wavelength
            )
            if not quad.converged:
                sweep.skip()
                continue
            oracle = abs(quad.value)
            budget = quad.error_estimate + 1e-12 * (1.0 + bound)
            sweep.add(
                oracle, bound, budget,
                {"t": t, "a": a, "b": b, "v": v, "sigma": sigma, "sign": sign},
            )
        per_variant.append(f"{variant}: {sweep.violations - violations_before} violations")
    return sweep.report("; ".join(per_variant) if len(variants) > 1 else "")


def _check_mid_tail(spec: SampleSpec) -> VerificationReport:
    """Direct |sum over (t, t^2]| against 2 log t + 1.944.

    t is capped at 300 so the direct sum stays below ~9e4 terms while the
    t-dependence of the bound is fully exercised.
    """
    rng = np.random.default_rng(spec.seed)
    sweep = _Sweep("2.4")
    for _ in range(spec.samples):
        t = math.exp(float(rng.uniform(math.log(E2), math.log(300.0))))
        value = abs(log_dirichlet_sum(t, t, t * t))
        bound = mid_tail_sum_bound(t)
        n_terms = t * t - t
        budget = 8.0 * EPS * 2.0 * math.sqrt(t) * math.log(t) * math.sqrt(n_terms) + 1e-12
        sweep.add(value, bound, budget, {"t": t})
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
    m_lo, m_hi = (int(m) for m in spec.ranges.get("M", (1, hi)))
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
        s_val = abs(exp_sum_exact(f, n_start, length)) ** 2
        diffmax = shifted_diff_maxima(f, n_start, length, m_val)
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
    at every M of the "M" range; the running sums start at M = 1."""
    m_lo, max_m = _m_range(spec, "4.6", 10**4)
    sweep = _Sweep("4.6")
    strict_34 = True
    for ws in weight_sum_rows(max_m):
        m_val = ws.M
        if m_val < m_lo:
            continue
        closed3 = (m_val**2 - 1) / 6.0
        closed4 = (m_val - 1) / 2.0
        if abs(ws.exact[2] - closed3) > 1e-9 * (1.0 + closed3):
            strict_34 = False
        if abs(ws.exact[3] - closed4) > 1e-9 * (1.0 + closed4):
            strict_34 = False
        if m_val >= 2 and not (ws.exact[2] < ws.bound[2] and ws.exact[3] < ws.bound[3]):
            strict_34 = False
        for exact, bound in zip(ws.exact, ws.bound):
            budget = 1e-12 * (1.0 + bound)
            sweep.add(exact, bound, budget, {"M": m_val})
    notes = (
        "relations 3 and 4 hold with strict inequality for M >= 2; "
        "exact values are (M^2-1)/6 and (M-1)/2"
        if strict_34
        else "closed-form check for relations 3 and 4 FAILED"
    )
    return sweep.report(notes)


_CHECKS: dict[str, Callable[[SampleSpec], VerificationReport]] = {
    "2.1": _check_partial_integration,
    "2.4": _check_mid_tail,
    "2.5": _check_vertex_bound,
    "4.1": _check_curvature_estimate,
    "4.3": _check_differencing,
    "4.6": _check_weight_sums,
}

SUPPORTED_CHECKS = tuple(sorted([*_CHECKS, *_OSC_VARIANTS]) + ["2.2"])


def verify_lemma(check_id: str, spec: SampleSpec | None = None) -> VerificationReport:
    """Run one inequality sweep and return its report.

    "2.2" sweeps the four oscillatory-tail variants into one report,
    splitting the sample budget evenly; its notes give each variant's
    violations and any excluded samples.  A sweep that would
    check nothing raises ValueError: fewer than one sample (four for
    "2.2"), or for "4.3" and "4.6" an "M" range outside 1 <= min <= max <= 1e8.
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
    if check_id.startswith("2.2"):
        return _check_oscillatory_tail(
            spec, _OSC_VARIANTS if check_id == "2.2" else (check_id,)
        )
    return _CHECKS[check_id](spec)


def envelope_points(
    which: int, ts: Iterable[float], p: BoundParams,
) -> Iterator[tuple[float, float, CertifiedComplex]]:
    """(t, theorem ``which``'s bound at t, certified zeta'(1/2+it)) along
    ts; zeta' comes from ``zeta_prime_em`` at its default derivative
    config.  Each t must lie in the theorem's domain and below T_CEILING."""
    coeffs = theorem2_coeffs(p) if which == 2 else None
    for t in ts:
        if which == 1:
            bound = theorem1_bound(t).total
        else:
            bound = theorem2_bound(t, p, coeffs).total
        point = EvalPoint(t)
        yield t, bound, zeta_prime_em(point, default_em_config(point, for_derivative=True))


def verify_theorem_envelope(
    which: int,
    t_range: tuple[float, float],
    n_samples: int,
    p: BoundParams | None = None,
) -> VerificationReport:
    """|zeta'(1/2+it)| against a bound family on a geometric t-grid.

    zeta' and the bound come from ``envelope_points``; each sample's budget
    is the error radius plus 1e-9 of the bound.  Non-converged points are
    excluded and counted in the notes.  The range must start inside the
    theorem's domain and satisfy t_min <= t_max <= T_CEILING; it is checked
    before anything is evaluated.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    lo, hi = t_range
    if not in_theorem_domain(lo, which):
        raise ValueError(f"t range must start at or above {THRESHOLD[which]:.6g}")
    if not lo <= hi:
        raise ValueError("need 0 < t_min <= t_max")
    if hi > T_CEILING:
        raise ValueError(f"t_max={hi:g} exceeds the certified ceiling {T_CEILING:g}")
    sweep = _Sweep(f"theorem-{which}")
    grid = geometric_grid(lo, hi, n_samples)
    for t, bound, zp in envelope_points(which, grid, p or DEFAULT_PARAMS):
        if not zp.converged:
            sweep.skip()
            continue
        budget = zp.error_bound + 1e-9 * bound
        sweep.add(abs(zp.value), bound, budget, {"t": t})
    return sweep.report()
