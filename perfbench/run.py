"""zetabounds benchmark: one seeded workload per run, metrics as JSON.

    python3 perfbench/run.py --workload eval_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root.  The workload runs in a child process
(``worker.py``) with numpy's thread pools pinned to one thread, so its
peak memory is its own.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Full records (environment, digests, per-call means) go to
``perfbench/results/``.  ``--smoke`` runs every workload at a tiny size
and checks that every named metric comes out finite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
SETUP_RUNS = 7  # set-up is timed in this many fresh processes; median reported
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
RUN_LIMIT_S = 170  # a run must end within 180 s; its children share this


class BenchError(Exception):
    pass


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(root: str, argv: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            text=True, timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out after {timeout:.0f} s: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(argv)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {' '.join(argv)}")
    return json.loads(lines[-1])


def environment(root: str, args, seconds: float) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_pools": {var: "1" for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
    }


def git_commit(root: str) -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec(root: str) -> dict:
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def require_package(root: str) -> None:
    if not os.path.isfile(os.path.join(root, "src", "zetabounds", "__init__.py")):
        raise BenchError("src/zetabounds not found; run from the repository root")


def end_to_end(root: str, args, seconds: float, tiny: bool, deadline: float) -> tuple[dict, dict]:
    """Set-up runs around one timed run; returns (metrics, full record).

    The host's speed drifts over tens of seconds, so half the set-up runs
    come before the timed run and half after it.
    """
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    extra = ["--tiny"] if tiny else []

    def setup_runs(n: int) -> list[dict]:
        argv = [*base, "--setup-only", *extra]
        return [run_worker(root, argv, deadline) for _ in range(n)]

    before = setup_runs(0 if tiny else SETUP_RUNS // 2)
    rec = run_worker(root, [*base, "--seconds", str(seconds), "--trace", "0", *extra], deadline)
    runs = before + [rec] + setup_runs(0 if tiny else SETUP_RUNS // 2)
    setups = [r["setup_s"] for r in runs]
    rec["setup_runs_s"] = setups
    rec["measured"]["setup_s"] = statistics.median(r["measured_setup_s"] for r in runs)
    metrics = {
        "setup_s": statistics.median(setups),
        **{k: rec[k] for k in ("wall_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")},
    }
    return metrics, rec


def per_layer(root: str, args, seconds: float, tiny: bool, deadline: float) -> tuple[dict, dict]:
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", "1"] + (["--tiny"] if tiny else [])
    rec = run_worker(root, argv, deadline)
    layers = rec["layers"]
    rec["per_call_ms"] = {
        name[: -len(".calls")]: 1e3 * layers[name[: -len(".calls")] + ".busy_s"] / calls
        for name, calls in layers.items()
        if name.endswith(".calls") and calls
    }
    return layers, rec


def measure(root: str, spec: dict, args, seconds: float, tiny: bool = False) -> dict:
    """Run one workload; returns the result object of the last output line."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        measured, rec = per_layer(root, args, seconds, tiny, deadline)
        wanted = spec["per_layer"]
    else:
        measured, rec = end_to_end(root, args, seconds, tiny, deadline)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        # A layer that never ran in this workload has zero calls, time and work.
        value = measured.get(m["name"], 0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} missing or not finite")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = (
        rec["failed"] == 0
        and not rec["run_failures"]
        and rec.get("digests_match", True)
    )
    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": metrics,
    }
    rec["environment"] = environment(root, args, seconds)
    rec["result"] = result
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}{'-tiny' if tiny else ''}.json"
    with open(os.path.join(RESULTS_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
    report(rec, result)
    return result


def report(rec: dict, result: dict) -> None:
    """Human-readable lines; every metric by name with its unit."""
    env = rec["environment"]
    print(f"# workload {env['workload']} seed {env['seed']} seconds {env['seconds']} "
          f"trace {env['trace']} commit {env['commit'][:12]} python {env['python']} "
          f"numpy {rec['numpy']} cpu '{env['cpu_model']}' nproc {env['nproc']} "
          f"threads 1")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    frac = rec["failed"] / rec["attempted"]
    print(f"ops_failed_frac {frac:.6g} fraction ({rec['failed']} of {rec['attempted']} ops)")
    if "latency_samples" in rec:
        print(f"# latency samples {rec['latency_samples']}, {rec['beyond_p90']} beyond p90; "
              f"{rec['passes']} passes of {rec['ops_per_pass']} ops; "
              f"setup runs {', '.join(f'{s:.4f}' for s in rec['setup_runs_s'])} s")
        probe = rec["host_probe_ms"]
        print(f"# host probe {statistics.median(probe):.3f} ms median, "
              f"{min(probe):.3f} to {max(probe):.3f} ms over {len(probe)} probes; "
              f"times above are at the reference host speed, as measured they were:")
        for name, value in rec["measured"].items():
            print(f"# measured {name} {value:.6g}")
    if "tracing_overhead" in rec:
        print(f"# tracing overhead {rec['tracing_overhead']:.4f} (traced/untraced pass wall)")
        for name, ms in sorted(rec["per_call_ms"].items()):
            print(f"# per call {name} {ms:.6g} ms")
        for decade, v in rec["em_by_decade"].items():
            print(f"# zeta_prime_em at t~{decade}: {v['mean_ms']:.4g} ms over {v['calls']} calls")
    if rec.get("untraced_sites"):
        print(f"# untraced sites (not found): {', '.join(rec['untraced_sites'])}")
    print(f"# digest {rec['digest']} checks {json.dumps(rec['checks_run'])}")
    for why in rec["failures"] + rec["run_failures"]:
        print(f"# FAILED {why}")


def smoke(root: str, spec: dict) -> int:
    """Every workload at tiny size, traced and untraced: every named metric
    is present and finite, and the correctness checks ran and passed."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0, trace=trace)
            result = measure(root, spec, args, 0.2, tiny=True)
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: incorrect")

    def record(workload: str, trace: int) -> dict:
        path = os.path.join(RESULTS_DIR, f"{workload}-trace{trace}-tiny.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    for workload, check in {"eval_sweep": "mpmath_reference", "tune": "default_crossover"}.items():
        if not record(workload, 0)["checks_run"].get(check):
            problems.append(f"{workload}: check {check} did not run")
    # A per-layer metric reads 0 on a workload that never enters its
    # layer, so each name must be measured by at least one workload.
    measured = set().union(*(record(w, 1)["layers"] for w in WORKLOADS))
    for m in spec["per_layer"]:
        if m["name"] not in measured:
            problems.append(f"per-layer metric {m['name']} is measured on no workload")
    for why in problems:
        print(f"smoke FAILED: {why}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        spec = load_spec(root)
        require_package(root)
        if args.smoke:
            return smoke(root, spec)
        if args.workload is None:
            parser.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if not 1 <= seconds <= 60:
            parser.error("--seconds must lie in [1, 60]")
        result = measure(root, spec, args, seconds)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
