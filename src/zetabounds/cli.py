"""Command-line front end: evaluate, bound, verify, optimize, scan.

Machine-readable output only: CSV (with a '#'-prefixed column-header
comment) or JSON lines (each record carries a schema_version field).
Numeric columns are emitted with 17 significant digits so files
round-trip bit-exactly; re-running a command with the same inputs and
seed produces byte-identical output.

Exit codes: 0 success, 1 usage error, 2 verification violation,
3 numerical non-convergence, 141 (128 + SIGPIPE) when the reader of
stdout closes it early, as `| head` does; that ends quietly, with
nothing on stderr.  Any ValueError raised while handling an input, by
the library or by this module's own rules, is a usage error: `main`
alone prints its message on one `error:` line and returns 1, so no
command wraps the calls it makes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Sequence

from .bounds import (
    DEFAULT_PARAMS,
    THRESHOLD,
    BoundParams,
    in_theorem_domain,
    theorem1_bound,
    theorem2_bound,
    theorem2_coeffs,
)
from .numerics import geometric_grid
from .optimize import PARAM_ORDER, Objective, crossover_scan, optimize_params
from .verify import (
    SUPPORTED_CHECKS,
    SampleSpec,
    envelope_points,
    verify_lemma,
    verify_theorem_envelope,
)
from .zeta import EvalPoint, default_em_config, zeta_prime_em

SCHEMA_VERSION = 1
OUT_DIR_ENV = "ZETABOUNDS_OUT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NONCONVERGED = 3
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    # argparse would print the usage block and exit 2; report argument
    # errors like every other usage error instead (one line, exit 1).
    def error(self, message):
        raise ValueError(message)


# Argument types; argparse names them in its message: "invalid finite value".
def finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def weights(text: str) -> tuple[float, ...]:
    return tuple(finite(w) for w in text.split(","))


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def _resolve_out(path: str | None):
    if path is None:
        return sys.stdout, False
    if not os.path.isabs(path):
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            path = os.path.join(base, path)
    try:
        return open(path, "w", encoding="utf-8", newline="\n"), True
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _write_rows(rows, columns, kind, fmt, out_path) -> None:
    handle, owned = _resolve_out(out_path)
    try:
        if fmt == "csv":
            handle.write("# " + ",".join(columns) + "\n")
            for row in rows:
                handle.write(",".join(_fmt(row.get(col)) for col in columns) + "\n")
        else:  # json-lines
            for row in rows:
                rec = {"schema_version": SCHEMA_VERSION, "kind": kind}
                rec.update({col: row.get(col) for col in columns})
                handle.write(json.dumps(rec, sort_keys=True, allow_nan=True) + "\n")
    finally:
        if owned:
            handle.close()


def _t_values(args) -> list[float]:
    if args.t is not None:
        if args.t_min is not None or args.t_max is not None:
            raise ValueError("pass either --t or a --t-min/--t-max range, not both")
        return [args.t]
    if args.t_min is None or args.t_max is None:
        raise ValueError("need --t or both --t-min and --t-max")
    if not (0 < args.t_min <= args.t_max):
        raise ValueError("need 0 < t_min <= t_max")
    return geometric_grid(args.t_min, args.t_max, args.samples)


def _bound_params(args) -> BoundParams:
    """The default theorem-2 parameters, overridden by the flags given; a flag
    is an error where the run prints no theorem-2 figure (`verify` or `scan`
    without --theorem 2, `bound` without --trace and with no theorem-2 row)."""
    given = {name: getattr(args, name) for name in PARAM_ORDER}
    given = {name: value for name, value in given.items() if value is not None}
    used = args.theorem == 2 or (
        args.command == "bound" and (
            args.trace
            or (args.theorem is None and any(in_theorem_domain(t, 2) for t in _t_values(args)))
        )
    )
    if given and not used:
        raise ValueError(f"--{next(iter(given))} applies only to theorem 2")
    return replace(DEFAULT_PARAMS, **given)


def _check_theorem_domain(ts: Sequence[float], theorem: int) -> None:
    for t in ts:
        if not in_theorem_domain(t, theorem):
            raise ValueError(
                f"t={t:g} below theorem-{theorem} threshold {THRESHOLD[theorem]:.6f}"
            )


def _cmd_eval(args) -> int:
    ts = _t_values(args)
    if args.theorem is not None:
        _check_theorem_domain(ts, args.theorem)
    rows = []
    nonconverged = 0
    for t in sorted(ts):
        point = EvalPoint(t)
        cfg = default_em_config(point, tol=args.tol, for_derivative=True)
        result = zeta_prime_em(point, cfg)
        if not result.converged:
            nonconverged += 1
        rows.append(
            {
                "t": t,
                "re_zeta_prime": result.value.real,
                "im_zeta_prime": result.value.imag,
                "abs_zeta_prime": abs(result.value),
                "error_bound": result.error_bound,
            }
        )
    columns = ["t", "re_zeta_prime", "im_zeta_prime", "abs_zeta_prime", "error_bound"]
    _write_rows(rows, columns, "eval", args.format, args.out)
    return EXIT_NONCONVERGED if nonconverged else EXIT_OK


_BOUND_COLUMNS = [
    "t", "thm1_total", "thm2_total",
    "thm1_head", "thm1_mid_tail", "thm1_tail_error",
    "thm2_head", "thm2_block_13", "thm2_block_23", "thm2_mid_tail",
    "thm2_tail_error",
    "Q1", "Q2", "Q3", "Q4", "Q5", "Q6",
]


def _cmd_bound(args) -> int:
    ts = _t_values(args)
    params = _bound_params(args)
    # without --theorem, a t that theorem 1 does not reach would be an empty row
    _check_theorem_domain(ts, args.theorem if args.theorem is not None else 1)
    coeffs = theorem2_coeffs(params)
    bound_of = {1: theorem1_bound, 2: lambda t: theorem2_bound(t, params, coeffs)}
    extra = {1: {}, 2: {f"Q{i + 1}": q for i, q in enumerate(coeffs.Q)}}  # columns beside the bound's
    rows = []
    for t in sorted(ts):
        row: dict = {"t": t}
        for which in (1, 2) if args.theorem is None else (args.theorem,):
            if in_theorem_domain(t, which):
                curve = bound_of[which](t)
                row[f"thm{which}_total"] = curve.total
                row.update({f"thm{which}_{name}": v for name, v in curve.per_term.items()}, **extra[which])
        rows.append(row)
    _write_rows(rows, _BOUND_COLUMNS, "bound", args.format, args.out)
    if args.trace:
        sys.stderr.write(coeffs.trace_report() + "\n")
    return EXIT_OK


_VERIFY_COLUMNS = [
    "check_id", "samples", "violations", "min_slack", "max_oracle",
    "error_budget_used", "notes",
]


def _cmd_verify(args) -> int:
    # Everything that can reject an input runs before any check, including
    # an option that the chosen checks would ignore.
    if args.lemma is None and args.theorem is None:
        raise ValueError("verify needs --lemma and/or --theorem")
    targets = [] if args.lemma is None else [args.lemma]
    if args.lemma == "all":  # the 2.2 variants are already in the list
        targets = [check_id for check_id in SUPPORTED_CHECKS if check_id != "2.2"]
    if args.max_m is not None and "4.6" not in targets:
        raise ValueError("--max-m applies only to check 4.6")
    if args.seed is not None and args.lemma is None:
        raise ValueError("--seed applies only with --lemma")
    # check 4.6 is exhaustive and deterministic: it takes no sample count or seed
    if args.samples is not None and targets == ["4.6"] and args.theorem is None:
        raise ValueError("--samples does not apply to check 4.6, which checks every M")
    if args.seed is not None and targets == ["4.6"]:
        raise ValueError("--seed does not apply to check 4.6, which checks every M")
    if (args.t_min is not None or args.t_max is not None) and args.theorem is None:
        raise ValueError("--t-min and --t-max apply only with --theorem")
    params = _bound_params(args)
    seed = args.seed if args.seed is not None else 0
    samples = args.samples if args.samples is not None else 50
    reports = []
    for check_id in targets:
        ranges = {"M": (1, args.max_m)} if check_id == "4.6" and args.max_m is not None else {}
        spec = SampleSpec(samples=samples, seed=seed, ranges=ranges)
        reports.append(verify_lemma(check_id, spec))
    if args.theorem is not None:
        lo = args.t_min if args.t_min is not None else THRESHOLD[args.theorem]
        hi = args.t_max if args.t_max is not None else 1e4
        reports.append(
            verify_theorem_envelope(args.theorem, (lo, hi), samples, params)
        )
    rows = [r.to_record() for r in reports]
    _write_rows(rows, _VERIFY_COLUMNS, "verify", args.format, args.out)
    return EXIT_VIOLATION if any(r.violations for r in reports) else EXIT_OK


def _cmd_optimize(args) -> int:
    # Everything that can reject an input runs before any row is written,
    # including an option that the chosen objective would ignore.
    if args.t is not None and args.objective != "bound-at-t":
        raise ValueError("--t applies only to --objective bound-at-t")
    if args.weights is not None and args.objective != "weighted":
        raise ValueError("--weights applies only to --objective weighted")
    if args.crossover_t_max is not None and not args.crossover:
        raise ValueError("--crossover-t-max applies only with --crossover")
    if args.objective == "bound-at-t":
        obj = Objective.minimize_bound_at_t(args.t if args.t is not None else 1e4)
    elif args.objective == "q1":
        obj = Objective.minimize_q1()
    else:
        obj = Objective.minimize_weighted_q(
            args.weights if args.weights is not None else (1.0,) * 6
        )
    result = optimize_params(obj, budget=args.budget)
    if args.crossover:
        t_max = args.crossover_t_max if args.crossover_t_max is not None else 1e30
        t_star = crossover_scan(result.best, t_max=t_max)
    rows = [
        {"step": step, **{name: getattr(p, name) for name in PARAM_ORDER}, "objective": value}
        for step, (p, value) in enumerate(result.trace)
    ]
    columns = ["step", *PARAM_ORDER, "objective"]
    _write_rows(rows, columns, "optimize", args.format, args.out)
    best = " ".join(f"{name}={_fmt(getattr(result.best, name))}" for name in PARAM_ORDER)
    sys.stderr.write(
        f"best: {best} objective={_fmt(result.objective_value)} "
        f"evaluations={result.evaluations}\n"
    )
    if args.crossover:
        sys.stderr.write(f"crossover: {_fmt(t_star)}\n")
    return EXIT_OK


def _cmd_scan(args) -> int:
    ts = _t_values(args)
    _check_theorem_domain(ts, args.theorem)
    params = _bound_params(args)
    rows = []
    nonconverged = 0
    for t, bound, zp in envelope_points(args.theorem, sorted(ts), params):
        if not zp.converged:
            nonconverged += 1
        value = abs(zp.value)
        rows.append(
            {
                "t": t,
                "bound": bound,
                "oracle": value,
                "slack": bound - value - zp.error_bound,
                "oracle_error": zp.error_bound,
            }
        )
    columns = ["t", "bound", "oracle", "slack", "oracle_error"]
    _write_rows(rows, columns, "scan", args.format, args.out)
    return EXIT_NONCONVERGED if nonconverged else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zetabounds",
        description=(
            "Evaluate the zeta derivative on the critical line, compute its "
            "explicit upper bounds, verify every supporting inequality, and "
            "tune the bound parameters."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, t_help: str | None = "single t value",
        with_range: bool = True,
    ) -> None:
        if t_help is not None:
            p.add_argument("--t", type=finite, default=None, help=t_help)
        if with_range:
            p.add_argument("--t-min", type=finite, default=None)
            p.add_argument("--t-max", type=finite, default=None)
            p.add_argument(
                "--samples", type=positive, default=50,
                help="grid size for --t-min/--t-max (geometric spacing)",
            )
        p.add_argument("--out", default=None, help="output path (default stdout); "
                       f"relative paths resolve under ${OUT_DIR_ENV} when set")
        p.add_argument("--format", choices=("csv", "json-lines"), default="csv")

    def add_params(p: argparse.ArgumentParser) -> None:
        for name in PARAM_ORDER:
            p.add_argument(f"--{name}", type=float, default=None,
                           help=f"theorem 2 only (default {getattr(DEFAULT_PARAMS, name):g})")

    p_eval = sub.add_parser("eval", help="certified zeta' values")
    add_common(p_eval)
    p_eval.add_argument("--tol", type=float, default=1e-9,
                        help="target for the truncation remainder only; the printed "
                        "error_bound also holds the rounding bound, which can exceed it")
    p_eval.add_argument("--theorem", type=int, choices=(1, 2), default=None,
                        help="additionally require t inside this theorem's range")
    p_eval.set_defaults(func=_cmd_eval)

    p_bound = sub.add_parser("bound", help="bound totals and breakdowns")
    add_common(p_bound)
    add_params(p_bound)
    p_bound.add_argument("--theorem", type=int, choices=(1, 2), default=None)
    p_bound.add_argument("--trace", action="store_true",
                         help="print the coefficient derivation trace to stderr")
    p_bound.set_defaults(func=_cmd_bound)

    p_verify = sub.add_parser("verify", help="inequality sweeps")
    add_common(p_verify, t_help=None)
    add_params(p_verify)
    p_verify.add_argument("--lemma", default=None,
                          help=f"check id ({', '.join(SUPPORTED_CHECKS)}) or 'all'")
    p_verify.add_argument("--theorem", type=int, choices=(1, 2), default=None)
    p_verify.add_argument("--seed", type=int, default=None,
                          help="seed of the --lemma samples (default 0)")
    p_verify.add_argument("--max-m", type=positive, default=None,
                          help="top of the exhaustive M range for check 4.6 "
                          "(default 10000, at most 1e8)")
    p_verify.set_defaults(func=_cmd_verify, samples=None)  # 50 where a check uses it

    p_opt = sub.add_parser("optimize", help="tune the free parameters")
    add_common(p_opt, t_help="target t for --objective bound-at-t", with_range=False)
    p_opt.add_argument("--objective", choices=("q1", "bound-at-t", "weighted"),
                       default="bound-at-t")
    p_opt.add_argument("--weights", type=weights, default=None,
                       help="comma-separated Q weights for --objective weighted "
                       "(default 1,1,1,1,1,1)")
    p_opt.add_argument("--budget", type=int, default=600)
    p_opt.add_argument("--crossover", action="store_true",
                       help="also report the crossover t* for the tuned parameters")
    p_opt.add_argument("--crossover-t-max", type=finite, default=None,
                       help="top of the --crossover scan (default 1e30)")
    p_opt.set_defaults(func=_cmd_optimize)

    p_scan = sub.add_parser(
        "scan",
        help="(t, bound, oracle, slack) sweep rows; the oracle column is the "
        "certified |zeta'| of eval and oracle_error its radius",
    )
    add_common(p_scan)
    add_params(p_scan)
    p_scan.add_argument("--theorem", type=int, choices=(1, 2), default=1)
    p_scan.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; stdout at devnull keeps the flush at exit quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    except ValueError as exc:  # a rejected input, wherever the rule lives
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except ArithmeticError as exc:
        sys.stderr.write(f"error: non-convergence: {exc}\n")
        return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
