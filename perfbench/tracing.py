"""Span-and-counter tracing of the package's layers, from outside the package.

Modules import each other's functions by name (``from .expsums import
weight_sums``), so a function is wrapped at every module attribute its
callers look it up through, and the originals are put back afterwards.
A site that no longer exists is skipped, so a change that moves a
function shows as a zero reading rather than a failed run.  Spans (name,
start, end, parent span, pass, op) and counters stay in memory;
``write_spans`` saves them when the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
from collections import defaultdict
from time import perf_counter


def _nonconverged(result) -> dict:
    return {"nonconverged": 0 if result.converged else 1}


def _targets(Z, expected_samples):
    """(span name, [(module, attribute), ...], counter) for every traced
    function: its defining module first, then each module that imports
    it by name.  A counter maps (bound arguments, result) to counts; a
    callable name maps the bound arguments to the span name."""

    def lemma_counts(a, r):
        spec = a["spec"]
        attempted = expected_samples((a["check_id"], spec.samples, spec.seed, spec.ranges))
        return {"attempted": attempted, "samples": r.samples,
                "skipped": attempted - r.samples}

    return [
        ("numerics.compensated_complex_sum",
         [(Z.numerics, "compensated_complex_sum"), (Z.zeta, "compensated_complex_sum"),
          (Z.expsums, "compensated_complex_sum")],
         lambda a, r: {"terms": len(a["values"])}),
        ("numerics.integrate_adaptive",
         [(Z.numerics, "integrate_adaptive"), (Z.verify, "integrate_adaptive")],
         lambda a, r: {"subdivisions": r.subdivisions, **_nonconverged(r)}),
        ("zeta.default_em_config", [(Z.zeta, "default_em_config")], None),
        ("zeta.zeta_prime_em", [(Z.zeta, "zeta_prime_em")],
         lambda a, r: {"em_terms": a["cfg"].N - 1, "t": abs(a["point"].t), **_nonconverged(r)}),
        ("zeta.eta_oracle", [(Z.zeta, "eta_oracle")], lambda a, r: {"terms": a["terms"]}),
        ("zeta.zeta_prime_oracle", [(Z.zeta, "zeta_prime_oracle"), (Z.verify, "zeta_prime_oracle")],
         lambda a, r: _nonconverged(r)),
        ("expsums.weight_sums", [(Z.expsums, "weight_sums"), (Z.verify, "weight_sums")],
         lambda a, r: {"terms": a["M"]}),
        ("expsums.exp_sum_exact", [(Z.expsums, "exp_sum_exact"), (Z.verify, "exp_sum_exact")],
         lambda a, r: {"terms": a["L"]}),
        ("expsums.log_dirichlet_sum",
         [(Z.expsums, "log_dirichlet_sum"), (Z.verify, "log_dirichlet_sum")],
         lambda a, r: {"terms": max(0, math.floor(a["b"]) - math.floor(a["a"]))}),
        ("expsums.shifted_diff_maxima",
         [(Z.expsums, "shifted_diff_maxima"), (Z.verify, "shifted_diff_maxima")],
         lambda a, r: {"terms": a["L"] * (a["M"] - 1)}),
        # every subset sum of the unit phasors is formed: 2^n terms
        ("expsums.vertex_max_bound",
         [(Z.expsums, "vertex_max_bound"), (Z.verify, "vertex_max_bound")],
         lambda a, r: {"terms": 2 ** len(a["amps"])}),
        ("bounds.theorem1_bound", [(Z.bounds, "theorem1_bound"), (Z.verify, "theorem1_bound")], None),
        ("bounds.theorem2_bound",
         [(Z.bounds, "theorem2_bound"), (Z.verify, "theorem2_bound"),
          (Z.optimize, "theorem2_bound")], None),
        ("bounds.theorem2_coeffs",
         [(Z.verify, "theorem2_coeffs"), (Z.optimize, "theorem2_coeffs"),
          (Z.bounds, "theorem2_coeffs")], None),
        ("optimize.optimize_params", [(Z.optimize, "optimize_params")],
         lambda a, r: {"evaluations": r.evaluations}),
        ("optimize.crossover_scan", [(Z.optimize, "crossover_scan")], None),
        ("verify.verify_theorem_envelope", [(Z.verify, "verify_theorem_envelope")], None),
        (lambda a: f"verify.{a['check_id']}", [(Z.verify, "verify_lemma")], lemma_counts),
    ]


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index, pass, op, counts or None]
        self.spans: list = []
        self.counts: list[dict] = []  # per pass: counters kept outside spans
        self.stack: list[int] = []
        self.pass_index = -1
        self.op_id = -1
        self.missing: set[str] = set()  # lookup sites that no longer exist
        self._saved: list = []

    def start_pass(self) -> None:
        self.pass_index += 1
        self.counts.append(defaultdict(float))

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack
        sig = inspect.signature(fn) if counter or callable(name) else None

        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if sig else None
            label = name(bound) if callable(name) else name
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1,
                    self.pass_index, self.op_id, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[6] = counter(bound, result)
                except (AttributeError, KeyError, TypeError):
                    # The function's signature or result changed; the
                    # span still counts, its work counters do not.
                    span[6] = {"counter_errors": 1}
            return result

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, Z, expected_samples) -> None:
        """Wrap every traced function that still exists at its lookup site.

        A site that a code change removed is skipped and listed in
        ``missing``; its figures then read 0.  ``expected_samples`` gives
        the samples a lemma op (check id, samples, seed, ranges) asked for.
        """
        for name, sites, counter in _targets(Z, expected_samples):
            for owner, attr in sites:
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                self._patch(owner, attr, self._wrap(name, fn, counter))

        # Objective evaluations are counted, not spanned: there are hundreds
        # per op and each already shows as a theorem2_coeffs span.
        evaluate = getattr(getattr(Z.optimize, "Objective", None), "evaluate", None)
        if evaluate is None:
            self.missing.add("zetabounds.optimize.Objective.evaluate")
            return

        def counted_evaluate(obj, *args, **kwargs):
            value = evaluate(obj, *args, **kwargs)
            totals = self.counts[-1]
            totals["evaluations"] += 1
            totals["infeasible"] += 0 if math.isfinite(value) else 1
            return value

        self._patch(Z.optimize.Objective, "evaluate", counted_evaluate)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def pass_layers(self, pass_index: int) -> dict[str, float]:
        """Every per-layer figure of one traced pass."""
        spans = self.spans
        mine = [i for i, s in enumerate(spans) if s[4] == pass_index]
        child: dict[int, float] = defaultdict(float)
        for i in mine:
            _, start, end, parent, *_ = spans[i]
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        summed_in_em = 0  # terms added up by compensated sums inside zeta_prime_em
        for i in mine:
            name, start, end, parent, _, _, counts = spans[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += (end - start) - child[i]
            for key, value in (counts or {}).items():
                out[f"{name}.{key}"] += value
            if name == "numerics.compensated_complex_sum" and parent >= 0 \
                    and spans[parent][0] == "zeta.zeta_prime_em":
                summed_in_em += counts["terms"]
        g = out.get
        extra = self.counts[pass_index]
        used_in_em = g("zeta.zeta_prime_em.em_terms", 0)  # N - 1 per call
        out.update({
            "zeta.em_terms_per_t": _ratio(used_in_em, g("zeta.zeta_prime_em.t", 0)),
            "zeta.useful_terms_frac": _ratio(used_in_em, summed_in_em),
            "zeta.eta_calls_per_derivative": _ratio(g("zeta.eta_oracle.calls", 0),
                                                    g("zeta.zeta_prime_oracle.calls", 0)),
            "optimize.infeasible_frac": _ratio(extra["infeasible"], extra["evaluations"]),
        })
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_index, op, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_index,
                                     "op": op}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

