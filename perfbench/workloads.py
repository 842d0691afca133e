"""The four seeded workloads: inputs, the op each input drives, the
output record each op is fingerprinted by, and its correctness checks.

Stdlib only, and no import of ``zetabounds`` here: the worker times the
package import as part of set-up, so the package module ``Z`` is passed
in.  Every op calls the package's public functions through their module
attribute (``Z.zeta.zeta_prime_em``), which is the name the traced run
wraps.

An op is one public call with one user-visible result.  Each workload is
a closed loop with one caller.  Its inputs come in *passes*: pass ``p``
of seed ``s`` is a fixed list of ops drawn from ``random.Random`` seeded
with ``(workload, s, p)``.  Inputs whose cost grows with a parameter
(t, sample counts, M) are drawn stratified, one draw per equal-width
stratum of the (log-)range, so every pass carries nearly the same work
and the figures do not depend on which seed a run is given.
"""

from __future__ import annotations

import math
import random

# Theorem 1 needs t >= e^2, theorem 2 t >= e^6; certified evaluation
# stops at t = 1e5.
LOG_E6 = 6.0
T_CEILING = 1.0e5
# The documented crossover of the two bound families at DEFAULT_PARAMS.
DOCUMENTED_T_STAR = 19291.48
CROSSOVER_T_MAX = 1e30  # the CLI's --crossover-t-max default
OPT_BUDGET = 600  # the CLI's --budget default
MPMATH_DIGITS = 30

CHECK_IDS = (
    "2.1", "2.2", "2.2a", "2.2b", "2.2c", "2.2d",
    "2.4", "2.5", "4.1", "4.3", "4.6",
)


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _strata(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), one uniform draw per stratum, in seeded order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _fmt(x) -> str:
    """Number formatting of the CLI: floats with 17 significant digits."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _line(*fields) -> str:
    return ",".join(_fmt(f) for f in fields)


def _report_fields(report) -> tuple:
    """The CLI's verify columns."""
    return (
        report.check_id, report.samples, report.violations, report.min_slack,
        report.max_oracle, report.error_budget_used, report.notes,
    )


class EvalSweep:
    """`zetabounds eval`: certified zeta'(1/2+it), t log-uniform in [10, 1e5]."""

    name = "eval_sweep"
    # Ops on the mpmath reference, spread over the t range of pass 0.
    reference_ops = 6

    def ops(self, seed: int, pass_index: int, tiny: bool) -> list:
        rng = _rng(self.name, seed, pass_index)
        decades = 2.0 if tiny else 4.0
        return [10.0 ** (1.0 + decades * u) for u in _strata(rng, 6 if tiny else 48)]

    def warmup(self, Z) -> None:
        self.run(Z, 100.0)

    def run(self, Z, t):
        point = Z.zeta.EvalPoint(t)
        cfg = Z.zeta.default_em_config(point, for_derivative=True)
        return Z.zeta.zeta_prime_em(point, cfg)

    def record(self, t, r) -> str:
        v = r.value
        return _line(t, v.real, v.imag, abs(v), r.error_bound)

    def check(self, Z, t, r) -> str | None:
        return None if r.converged else "not converged"

    def final_checks(self, Z, ops, results, tiny) -> list[tuple[str, int, str | None]]:
        """|value - mpmath zeta'(s)| <= error_bound on a fixed-size subsample."""
        import mpmath

        mpmath.mp.dps = MPMATH_DIGITS
        order = sorted(range(len(ops)), key=lambda i: ops[i])
        k = min(2 if tiny else self.reference_ops, len(order))
        picks = sorted({order[round(j * (len(order) - 1) / max(k - 1, 1))] for j in range(k)})
        out = []
        for i in picks:
            r = results[i]
            if isinstance(r, Exception):
                continue
            ref = mpmath.zeta(mpmath.mpc(0.5, ops[i]), derivative=1)
            err = abs(mpmath.mpc(r.value) - ref)
            bad = None if err <= r.error_bound else f"|error| {float(err):.3e} > bound {r.error_bound:.3e}"
            out.append(("mpmath_reference", i, bad))
        return out


class EnvelopeSweep:
    """`zetabounds verify --theorem`: one-point envelope checks, alternating
    theorem 1 and theorem 2, t log-uniform in [e^6, 1e5]."""

    name = "envelope_sweep"

    def ops(self, seed: int, pass_index: int, tiny: bool) -> list:
        rng = _rng(self.name, seed, pass_index)
        hi = math.log(2000.0 if tiny else T_CEILING)
        ts = [math.exp(LOG_E6 + (hi - LOG_E6) * u) for u in _strata(rng, 4 if tiny else 32)]
        return [(1 + i % 2, t) for i, t in enumerate(ts)]

    def warmup(self, Z) -> None:
        self.run(Z, (2, math.exp(LOG_E6)))

    def run(self, Z, op):
        which, t = op
        return Z.verify.verify_theorem_envelope(which, (t, t), 1)

    def record(self, op, r) -> str:
        return _line(*op, *_report_fields(r))

    def check(self, Z, op, r) -> str | None:
        return _verdict_failure(r, expected=1)

    def final_checks(self, Z, ops, results, tiny):
        return []


def _verdict_failure(report, expected: int) -> str | None:
    if report.violations:
        return f"{report.violations} violations"
    if report.samples != expected:
        return f"{expected - report.samples} samples skipped"
    if "FAILED" in report.notes:
        return report.notes
    return None


class LemmaSweep:
    """`zetabounds verify --lemma`: every check id, seeded small sample
    counts, check 4.6 with a seeded M range.

    One pass is ``cycles`` rounds over all check ids, with 4.6 twice per
    round.  The sample ranges are sized so that the quadrature checks
    (2.1, 2.2*) and the weight-sum check 4.6 each take over a quarter of
    the wall time; at the README's --max-m 10000, 4.6 alone would take
    97% and hide the quadrature.  4.6 makes up 2 of every 12 ops so that
    the 90th-percentile latency falls inside the 4.6 ops, not in the gap
    between them and the next-slowest check.
    """

    name = "lemma_sweep"
    cycle = CHECK_IDS + ("4.6",)
    samples = (8, 16)
    max_m = (500, 700)

    def ops(self, seed: int, pass_index: int, tiny: bool) -> list:
        rng = _rng(self.name, seed, pass_index)
        cycles = 1 if tiny else 4
        draws = {cid: _strata(rng, cycles * self.cycle.count(cid)) for cid in CHECK_IDS}
        ops = []
        for c in range(cycles):
            for cid in self.cycle:
                u = draws[cid].pop()
                if cid == "4.6":
                    lo, hi = (10, 20) if tiny else self.max_m
                    ranges = {"M": (1, lo + int(u * (hi - lo + 1)))}
                    samples = 1
                else:
                    lo, hi = (2, 2) if tiny else self.samples
                    samples = lo + int(u * (hi - lo + 1))
                    if cid == "2.2":  # split evenly over the four variants
                        samples = 4 * math.ceil(samples / 4)
                    ranges = {}
                ops.append((cid, samples, rng.randrange(2**31), ranges))
        return ops

    def warmup(self, Z) -> None:
        self.run(Z, ("2.5", 4, 0, {}))

    def run(self, Z, op):
        cid, samples, seed, ranges = op
        spec = Z.verify.SampleSpec(samples=samples, seed=seed, ranges=ranges)
        return Z.verify.verify_lemma(cid, spec)

    def record(self, op, r) -> str:
        return _line(*_report_fields(r))

    def check(self, Z, op, r) -> str | None:
        return _verdict_failure(r, expected=expected_samples(op))

    def final_checks(self, Z, ops, results, tiny):
        return []


def expected_samples(op) -> int:
    """Samples a lemma op asks for: check 4.6 compares four relations at
    every M in its range, check 2.2 splits its count over four variants."""
    cid, samples, _, ranges = op
    if cid == "4.6":
        return 4 * int(ranges["M"][1])
    if cid == "2.2":
        return 4 * (samples // 4)
    return samples


class Tune:
    """`zetabounds optimize --crossover`: parameter search then crossover
    scan.  Mostly the bound at a seeded t in [e^6, e^20], plus one Q1 and
    one seeded weighted-Q objective per pass."""

    name = "tune"

    def ops(self, seed: int, pass_index: int, tiny: bool) -> list:
        rng = _rng(self.name, seed, pass_index)
        n_at_t = 1 if tiny else 6
        ops = [("bound-at-t", math.exp(6.0 + 14.0 * u)) for u in _strata(rng, n_at_t)]
        ops.append(("q1", None))
        ops.append(("weighted", tuple(rng.uniform(0.1, 1.0) for _ in range(6))))
        return ops

    def _objective(self, Z, op):
        kind, arg = op
        Objective = Z.optimize.Objective
        if kind == "bound-at-t":
            return Objective.minimize_bound_at_t(arg)
        if kind == "q1":
            return Objective.minimize_q1()
        return Objective.minimize_weighted_q(arg)

    def warmup(self, Z) -> None:
        self.run(Z, ("bound-at-t", 1e4))

    def run(self, Z, op):
        result = Z.optimize.optimize_params(self._objective(Z, op), budget=OPT_BUDGET)
        t_star = Z.optimize.crossover_scan(result.best, t_max=CROSSOVER_T_MAX)
        return result, t_star

    def record(self, op, r) -> str:
        result, t_star = r
        b = result.best
        target = op[1] if op[0] == "bound-at-t" else ""
        return _line(
            op[0], target, b.k, b.tau, b.q, b.t1, b.t2,
            result.objective_value, result.evaluations,
            "" if t_star is None else t_star,
        )

    def check(self, Z, op, r) -> str | None:
        result, _ = r
        default = self._objective(Z, op).evaluate(Z.bounds.DEFAULT_PARAMS)
        if not result.objective_value <= default:
            return f"best {result.objective_value!r} worse than default {default!r}"
        return None

    def final_checks(self, Z, ops, results, tiny):
        t_star = Z.optimize.crossover_scan(Z.bounds.DEFAULT_PARAMS, t_max=CROSSOVER_T_MAX)
        ok = t_star is not None and abs(t_star - DOCUMENTED_T_STAR) <= 0.05
        return [("default_crossover", -1, None if ok else f"t* = {t_star!r}")]


WORKLOADS = {w.name: w for w in (EvalSweep(), EnvelopeSweep(), LemmaSweep(), Tune())}
