"""Runs one workload in this process and prints its measurements as one
JSON line.  ``run.py`` starts it with numpy's thread pools pinned to one
thread; see README.md in this directory.

Set-up is timed from just before ``import zetabounds`` to the end of one
warm-up op.  The timed phase then runs whole passes of the workload
until their op latencies add up to ``--seconds`` (and, outside the smoke
size, at least ``MIN_OPS`` ops, so that ten or more op latencies lie
beyond the 90th percentile).  Correctness checks run after each pass, outside the timers.

The host's CPU speed changes by up to 1.8x from one second to the next,
so between ops the worker times a fixed probe that does not touch the
package.  Every time it reports is given at the reference host speed
(see ``HostSpeed``), and also as measured.

With ``--trace 1`` the run alternates an untraced and a traced pass over
the same inputs (pass 0), so the per-layer counts repeat exactly and the
ratio of the two pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

from tracing import Tracer
from workloads import WORKLOADS, expected_samples

MIN_OPS = 100
SETUP_PROBES = 10  # probes right after set-up, which scale its time
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def run_pass(Z, workload, ops, tracer: Tracer | None = None, host: HostSpeed | None = None):
    """One closed-loop pass; returns (results, op (start, latency) pairs,
    pass wall).  With ``host``, probes run between ops, outside the op timers."""
    results, timings = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        try:
            result = workload.run(Z, op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = exc
        timings.append((t0, time.perf_counter() - t0))
        results.append(result)
        if host is not None:
            host.maybe_probe()
    return results, timings, time.perf_counter() - start


class Ledger:
    """Ops attempted, the first failure of each failed op, and digests."""

    def __init__(self, Z, workload) -> None:
        self.Z, self.workload = Z, workload
        self.attempted = 0
        self.failures: dict[str, str] = {}  # "pass p op i" -> reason

    def account(self, ops, results, label: int) -> str:
        """Check one pass's results; return the sha256 of its op records,
        formatted as the CLI formats them."""
        lines = []
        for i, (op, result) in enumerate(zip(ops, results)):
            if isinstance(result, Exception):
                why = f"raised {type(result).__name__}: {result}"
                lines.append(f"error,{type(result).__name__}")
            else:
                why = self.workload.check(self.Z, op, result)
                lines.append(self.workload.record(op, result))
            if why is not None:
                self.failures.setdefault(f"pass {label} op {i}", why)
        self.attempted += len(ops)
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class HostSpeed:
    """Host CPU speed, from a fixed probe timed between ops.

    The host switches between a fast and a slow state within seconds,
    and the slow state is 1.4 to 1.8 times slower for every process on
    it.  The probe (a pure-Python float loop plus numpy ``exp`` on a
    small complex array, so both kinds of work the package does) does not
    touch the package, and its working set stays in the L2 cache.  An op
    that took ``d`` seconds is reported as ``d * factor``, where the factor
    is ``REFERENCE_PROBE_S`` over the median probe time within
    ``PROBE_WINDOW_S`` of the op: its time at the reference host speed.
    A change to the package moves the op times and not the probe.
    """

    # Median probe time on a 2-vCPU Intel Xeon VM (2.0 GHz, Python 3.11.7,
    # numpy 2.4.6), so figures at the reference speed read as milliseconds
    # and seconds of that host.
    REFERENCE_PROBE_S = 2.8e-3
    PROBE_EVERY_S = 0.1  # probe after an op that ends this long after the last probe
    PROBE_WINDOW_S = 1.0

    def __init__(self, numpy) -> None:
        self._exp = numpy.exp
        self._z = numpy.exp(1j * numpy.linspace(0.0, 10.0, 4096))
        self.at: list[float] = []  # probe mid-times, ascending
        self.took: list[float] = []
        self._last = -math.inf

    def probe(self) -> None:
        start = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += i * 0.5
        for _ in range(5):
            self._exp(self._z * 0.37).sum()
        end = time.perf_counter()
        self.at.append(0.5 * (start + end))
        self.took.append(end - start)
        self._last = end

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._last >= self.PROBE_EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed around [start, end]; needs a probe
        within PROBE_WINDOW_S of it."""
        lo = bisect.bisect_left(self.at, start - self.PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.PROBE_WINDOW_S)
        return self.REFERENCE_PROBE_S / statistics.median(self.took[lo:hi])


def latency_metrics(latencies: list[float], pass_sizes: list[int]) -> dict:
    """Wall, throughput and latency figures from op latencies grouped into
    passes of the given sizes."""
    pass_walls, k = [], 0
    for n in pass_sizes:
        pass_walls.append(sum(latencies[k:k + n]))
        k += n
    return {
        "wall_s": statistics.median(pass_walls),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[-1],
    }


def timed_run(Z, workload, args, ledger: Ledger, host: HostSpeed) -> tuple[dict, list, list]:
    """Whole passes with fresh inputs until the time (and op count) is reached.

    A pass's wall time is the sum of its op latencies, which leaves out
    the probes between ops.
    """
    timings: list[tuple[float, float]] = []
    pass_sizes: list[int] = []
    busy = 0.0
    out: dict = {}
    host.probe()
    while not pass_sizes or busy < args.seconds or (not args.tiny and len(timings) < MIN_OPS):
        ops = workload.ops(args.seed, len(pass_sizes), args.tiny)
        results, pass_timings, _ = run_pass(Z, workload, ops, host=host)
        digest = ledger.account(ops, results, len(pass_sizes))
        if not pass_sizes:
            out["digest"] = digest
            first = ops, results
        timings.extend(pass_timings)
        pass_sizes.append(len(ops))
        busy += sum(lat for _, lat in pass_timings)
    host.probe()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = [lat * host.factor(t0, t0 + lat) for t0, lat in timings]
    out.update(latency_metrics(scaled, pass_sizes))
    p90 = out["op_p90_ms"] / 1e3
    out.update(
        peak_rss_mb=peak_rss_mb,
        measured=latency_metrics([lat for _, lat in timings], pass_sizes),
        ops_per_pass=len(timings) // len(pass_sizes),
        passes=len(pass_sizes),
        latency_samples=len(timings),
        beyond_p90=sum(1 for lat in scaled if lat > p90),
        host_probe_ms=[1e3 * p for p in host.took],
    )
    return out, *first


def traced_run(Z, workload, args, ledger: Ledger) -> tuple[dict, list, list]:
    """Untraced and traced passes over pass 0's inputs, alternating."""
    ops = workload.ops(args.seed, 0, args.tiny)
    tracer = Tracer()
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    digests = set()
    while not walls["traced"] or sum(walls["untraced"]) + sum(walls["traced"]) < args.seconds:
        results, _, wall = run_pass(Z, workload, ops)
        walls["untraced"].append(wall)
        digests.add(ledger.account(ops, results, 2 * tracer.pass_index + 2))
        tracer.start_pass()
        tracer.install(Z, expected_samples)
        try:
            results, _, wall = run_pass(Z, workload, ops, tracer)
        finally:
            tracer.uninstall()
        walls["traced"].append(wall)
        digests.add(ledger.account(ops, results, 2 * tracer.pass_index + 1))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    spans_path = os.path.join(RESULTS_DIR, f"{args.workload}-spans{'-tiny' if args.tiny else ''}.jsonl")
    tracer.write_spans(spans_path)
    passes = [tracer.pass_layers(p) for p in range(tracer.pass_index + 1)]
    out = {
        "layers": {n: statistics.median(p.get(n, 0.0) for p in passes)
                   for n in sorted(set().union(*passes))},
        "em_by_decade": em_by_decade(tracer),
        "walls": walls,
        "tracing_overhead": statistics.median(walls["traced"]) / statistics.median(walls["untraced"]),
        "digest": min(digests),
        "digests_match": len(digests) == 1,
        "spans_file": os.path.relpath(spans_path),
        "untraced_sites": sorted(tracer.missing),
    }
    return out, ops, results


def em_by_decade(tracer: Tracer) -> dict[str, dict]:
    """Per-call mean of zeta_prime_em by decade of t, from the spans."""
    by: dict[str, list[float]] = {}
    for name, start, end, _, _, _, counts in tracer.spans:
        if name == "zeta.zeta_prime_em" and counts and "t" in counts:
            by.setdefault(f"1e{math.floor(math.log10(counts['t']))}", []).append(end - start)
    return {d: {"calls": len(v), "mean_ms": 1e3 * statistics.fmean(v)} for d, v in sorted(by.items())}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import zetabounds as Z

    workload.warmup(Z)
    measured_setup_s = time.perf_counter() - t0
    import numpy  # loaded by the package already

    host = HostSpeed(numpy)
    for _ in range(SETUP_PROBES):
        host.probe()
    setup = {"setup_s": measured_setup_s * host.factor(t0, t0 + measured_setup_s),
             "measured_setup_s": measured_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    ledger = Ledger(Z, workload)
    if args.trace:
        out, ops, results = traced_run(Z, workload, args, ledger)
    else:
        out, ops, results = timed_run(Z, workload, args, ledger, host)
    # Checks too slow to run on every op run on one pass; index -1 marks
    # a check on the run as a whole.
    checks = workload.final_checks(Z, ops, results, args.tiny)
    run_failures = []
    for name, index, why in checks:
        if why is not None and index >= 0:
            ledger.failures.setdefault(f"pass 0 op {index}", f"{name}: {why}")
        elif why is not None:
            run_failures.append(f"{name}: {why}")
    checks_run: dict[str, int] = {"per_op": ledger.attempted}
    for name, _, _ in checks:
        checks_run[name] = checks_run.get(name, 0) + 1
    out.update(
        **setup,
        numpy=numpy.__version__,
        attempted=ledger.attempted,
        failed=len(ledger.failures),
        failures=[f"{k}: {v}" for k, v in list(ledger.failures.items())[:20]],
        run_failures=run_failures,
        checks_run=checks_run,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
