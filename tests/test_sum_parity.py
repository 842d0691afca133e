"""Bit parity of the exact sums with their references.

``exact_sum`` must give the bits of ``math.fsum`` and of the binned
accumulator it replaced (``reference_sums.binned_complex_sum``),
``_exact_sums`` those of ``math.fsum`` on each segment it sums, and
``zeta._power_sums``, which forms its terms in real parts from cached
per-sigma tables, the bits of the complex-exponential route on fresh
arrays (``reference_sums.complex_power_sums``).  numpy picks its ``cos``,
``sin``, ``log``, ``power`` and complex ``exp`` kernels by the host's SIMD
level, so that claim, and the kernel's on every route, is checked at every
level this host can switch off, each in a subprocess started with
``NPY_DISABLE_CPU_FEATURES``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from reference_sums import binned_complex_sum, complex_power_sums, exact_sum
from zetabounds import zeta
from zetabounds.numerics import _exact_sums, geometric_grid

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _seeded_arrays():
    """1,000 seeded arrays: sizes log-uniform in [1, 20,000], each with
    one of five value mixes."""
    rng = np.random.default_rng(2028)
    for i in range(1000):
        n = int(np.exp(rng.uniform(0.0, math.log(20000.0))))
        kind = i % 5
        if kind == 0:  # the evaluator's terms: unit phasors times n^-1/2
            yield np.cos(rng.uniform(-1e5, 1e5, n)) / np.sqrt(np.arange(1.0, n + 1))
        elif kind == 1:  # wide exponents, mixed signs
            yield rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-700.0, 690.0, n))
        elif kind == 2:  # heavy cancellation
            x = rng.normal(size=n // 2) * 10.0 ** rng.integers(-20, 20, n // 2)
            yield rng.permutation(np.concatenate([x, -x, rng.normal(size=n % 2) * 1e-30]))
        elif kind == 3:  # maximal mantissas
            yield np.ldexp(float(2**53 - 1), rng.integers(-1000, 950, n)) * rng.choice([-1, 1], n)
        else:  # subnormals among normals
            x = rng.normal(size=n)
            x[rng.random(n) < 0.3] = 5e-324 * rng.integers(-(2**30), 2**30)
            yield x


def _evaluator_arrays() -> list[np.ndarray]:
    """The real and imaginary parts of every power sum ``zeta_em`` and
    ``zeta_prime_em`` add up at their default config, on 81 points of t
    log-spaced in [10, 1e5]: the segments of one ``_exact_sums`` call a sum."""
    seen: list[np.ndarray] = []

    def recording(terms, cuts):
        seen.extend(np.array(terms[s:e]) for s, e in zip([0, *cuts[:-1]], cuts))
        return _exact_sums(terms, cuts)

    with patch.object(zeta, "_exact_sums", recording):
        for t in geometric_grid(10.0, 1e5, 81):
            point = zeta.EvalPoint(t)
            for log_weighted in (False, True):
                N = zeta.default_em_config(point, for_derivative=log_weighted).N
                zeta._power_sums(point.s, N, log_weighted)
    return seen


def test_exact_sum_matches_fsum_and_the_binned_reference():
    count = 0
    for values in (*_seeded_arrays(), *_evaluator_arrays()):
        want = math.fsum(values.tolist()).hex()
        assert exact_sum(values).hex() == want, values.size
        assert binned_complex_sum(values).real.hex() == want, values.size
        count += 1
    assert count == 1000 + 4 * 81


# Run in a subprocess at one SIMD level: _power_sums and the complex route
# on every case, in order, printing the cases whose bits differ and how
# many cases read a prefix of a table built for a larger N.
_PARITY_SCRIPT = """
import json, sys
from reference_sums import complex_power_sums
from zetabounds import zeta
bad, prefix_reads = [], 0
for sigma, t, N, log_weighted in json.loads(sys.argv[1]):
    key, *tables = zeta._tables
    prefix_reads += key == sigma and tables[0].size > N - 1
    s = complex(sigma, t)
    got, want = zeta._power_sums(s, N, log_weighted), complex_power_sums(s, N, log_weighted)
    hexes = [x.hex() for x in (got[0].real, got[0].imag, got[1], want[0].real, want[0].imag, want[1])]
    if hexes[:3] != hexes[3:]:
        bad.append([sigma, t, N, log_weighted, hexes])
print(json.dumps([bad, prefix_reads]))
"""

PARITY_CASES = [
    [sigma, sign * t, N, log_weighted]
    for sigma in (-0.5, 0.0, 0.5, 2.0)
    for t in (10.0, 1234.5, 1e5)
    for sign in (1.0, -1.0)
    for N in (2, 3, 767, 768, 2345, 19416)
    for log_weighted in (False, True)
]


def _table_cases() -> list[list]:
    """Cases ordered so that the tables are grown, read through prefix
    views and rebuilt: sigma 0.5, 2.0, then 0.5 again, each visiting N in
    descending and then in shuffled order, at the fsum threshold (511,
    512), one extraction block plus one (65,537) and the smallest N."""
    rng = np.random.default_rng(2029)
    sizes = [65_537, 19_417, 4_097, 512, 511, 64, 3, 2]
    cases = []
    for sigma in (0.5, 2.0, 0.5):
        for order in (sizes, rng.permutation(sizes).tolist()):
            for N in order:
                t = float(rng.choice([14.13, -1234.5, 1e5]))
                cases += [[sigma, t, N, False], [sigma, t, N, True]]
    return cases


TABLE_CASES = _table_cases()


def _dispatch_levels() -> list[str]:
    """NPY_DISABLE_CPU_FEATURES values that step the SIMD dispatch down
    one found level at a time: "" (everything on), then the top level
    off, then the top two, and so on down to the baseline."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    found = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    return [" ".join(found[i:]) for i in range(len(found) + 1)][::-1]


@pytest.mark.parametrize(
    "disabled", _dispatch_levels(), ids=lambda d: f"off-from-{d.split()[0]}" if d else "all-on"
)
def test_power_sums_match_the_complex_route(disabled):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    out = subprocess.run(
        [sys.executable, "-c", _PARITY_SCRIPT, json.dumps(PARITY_CASES + TABLE_CASES)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    bad, prefix_reads = json.loads(out.stdout)
    assert bad == []
    assert prefix_reads >= len(TABLE_CASES) // 2


# Both routes of the exact-sum kernel, math.fsum and error-free extraction,
# must give math.fsum's bits on every input, one segment or two, with
# segments extracted in one pass or one at a time: each case runs under four
# settings of the route thresholds, at each SIMD level (the extraction's
# passes and reductions are numpy kernels picked by that level).  The math.fsum route
# and terms of 2^1005 and above, which are added as Python ints, run no
# numpy pass, so below the top level neither the forced fsum route nor the
# 2^16-term cases of those terms run again.
ROUTE_LENGTHS = [0, 1, 127, 128, 511, 512, 2**16 - 1, 2**16 + 1]
ROUTE_KINDS = ["subnormal", "near 2^1005", "above 2^1005", "one huge among tiny",
               "cancelling", "all -0.0", "mixed signs"]
ROUTES = {  # (_EXACT_MIN_TERMS, _PASS_MAX_TERMS)
    "default": None, "fsum": (2**40, 2**40), "extraction": (0, 2**40), "row by row": (0, 0),
}


def route_case(kind: str, n: int, seed: int) -> np.ndarray:
    """n seeded terms of one kind; none makes math.fsum overflow."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], n)
    if kind == "subnormal":  # subnormals and normals just above them
        x = rng.integers(-(2**40), 2**40, n) * 5e-324
        x[rng.random(n) < 0.3] *= 2.0**60
        return x
    if kind == "near 2^1005":  # just below the extraction's top, partial sums far below overflow
        return signs * rng.uniform(0.5, 1.0, n) * math.nextafter(2.0**1005, 0.0)
    if kind == "above 2^1005":
        return signs * rng.uniform(1.0, 8.0, n) * 2.0**1005
    if kind == "one huge among tiny":
        x = rng.normal(size=n) * 1e-300
        if n:
            x[rng.integers(n)] = 2.0**1010 * signs[0]
        return x
    if kind == "cancelling":  # x and -x: exactly +0.0
        half = rng.normal(size=n // 2) * 10.0 ** rng.integers(-300, 300, n // 2)
        return rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
    if kind == "all -0.0":
        return np.full(n, -0.0)
    return signs * np.exp(rng.uniform(-740.0, 690.0, n))  # mixed signs and exponents, below 2^1005


_ROUTE_SCRIPT = """
import json, math, sys
import numpy as np
from zetabounds import numerics
from reference_sums import exact_sum
from test_sum_parity import ROUTE_KINDS, ROUTE_LENGTHS, ROUTES, route_case
top_level = sys.argv[1] == "top"
cases = [(n, kind, route_case(kind, n, 2 * k), route_case(kind, n, 2 * k + 1))
         for n in ROUTE_LENGTHS for k, kind in enumerate(ROUTE_KINDS)
         if top_level or n < 2**15 or kind not in ("above 2^1005", "one huge among tiny")]
wants = [[math.fsum(one).hex(), math.fsum(two).hex()] for _, _, one, two in cases]
bad, raised = [], 0
default = (numerics._EXACT_MIN_TERMS, numerics._PASS_MAX_TERMS)
for route, limits in ROUTES.items():
    if route == "fsum" and not top_level:
        continue
    numerics._EXACT_MIN_TERMS, numerics._PASS_MAX_TERMS = limits or default
    for (n, kind, one, two), want in zip(cases, wants):
        pair = numerics._exact_sums(np.concatenate([one, two]), [n, 2 * n])
        got = [exact_sum(one).hex(), *(x.hex() for x in pair)]
        if got != want[:1] + want:
            bad.append([route, n, kind, got, want])
    for n in ROUTE_LENGTHS:
        for bad_term in (math.nan, math.inf, -math.inf, "inf and -inf"):
            row = np.ones(max(n, 2))
            row[-1] = math.inf if bad_term == "inf and -inf" else bad_term
            if bad_term == "inf and -inf":
                row[0] = -math.inf
            pair = np.concatenate([row[::-1], row])
            for call in (lambda: exact_sum(row), lambda: numerics._exact_sums(pair, [row.size, pair.size])):
                try:
                    call()
                except ValueError as exc:
                    raised += str(exc) == "non-finite term in compensated sum"
                else:
                    bad.append([route, n, "no error on", str(bad_term)])
print(json.dumps([bad, raised]))
"""


@pytest.mark.parametrize(
    "disabled", _dispatch_levels(), ids=lambda d: f"off-from-{d.split()[0]}" if d else "all-on"
)
def test_both_sum_routes_match_fsum(disabled):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    level = "top" if disabled == "" else "lower"
    out = subprocess.run([sys.executable, "-c", _ROUTE_SCRIPT, level], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    bad, raised = json.loads(out.stdout)
    assert bad == []
    assert raised == (len(ROUTES) - (level != "top")) * len(ROUTE_LENGTHS) * 4 * 2


# The kernel on many segments at once, as integrate_gauss_legendre calls it:
# each segment's sum must be math.fsum's on that segment, by float.hex, at
# each SIMD level.  The layouts hold 0, 1, 511, 512 and 2^14 +- 1 terms in
# all, with empty segments among the others (np.add.reduceat gives an
# empty segment the element at its start, not 0), plus one segment longer
# than a block, which crosses a pass boundary.  The routes add one with
# 1,000-term blocks, where every layout of 2^14 +- 1 terms crosses too.
SEGMENT_LAYOUTS = {
    "0": [0], "0, 0, 0": [0, 0, 0], "1": [0, 1, 0], "511": [0, 255, 0, 256],
    "512": [256, 0, 256], "512 uneven": [1, 510, 1], "2^14 - 1": [8191, 0, 8192],
    "2^14 + 1": [8192, 1, 8192], "2^14 + 1 many": [0] + [431] * 38 + [7] + [0],
    "crossing": [2**16 + 3, 5, 0, 700],
}
SEGMENT_KINDS = ["mixed", "tiny next to huge", "cancelling", "subnormal", "above 2^1005"]
SEGMENT_ROUTES = {  # (_EXACT_MIN_TERMS, _PASS_MAX_TERMS, _BLOCK)
    "default": None, "fsum": (2**40, 2**14, 2**16), "one pass": (0, 2**40, 2**40),
    "one at a time": (0, 0, 2**16), "1,000-term blocks": (0, 2**14, 1000),
}


def segment_case(kind: str, lengths: list[int], seed: int) -> np.ndarray:
    """The segments of ``lengths``, each filled with terms of one kind."""
    rng = np.random.default_rng(seed)
    segments = []
    for i, n in enumerate(lengths):
        if kind == "tiny next to huge":  # the tiny segments keep residual terms
            x = rng.normal(size=n) * (1e-300 if i % 2 else 1e300)
        elif kind == "cancelling":  # x and -x in each segment: exactly +0.0
            half = rng.normal(size=n // 2) * 10.0 ** rng.integers(-300, 300, n // 2)
            x = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
        elif kind == "subnormal":
            x = rng.integers(-(2**40), 2**40, n) * 5e-324
        elif kind == "above 2^1005" and i == len(lengths) // 2:  # the Python-int route
            x = rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 8.0, n) * 2.0**1005
        else:
            x = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-740.0, 690.0, n))
        segments.append(x)
    return np.concatenate(segments)


_SEGMENT_SCRIPT = """
import json, math, sys
import numpy as np
from zetabounds import numerics
from test_sum_parity import SEGMENT_KINDS, SEGMENT_LAYOUTS, SEGMENT_ROUTES, segment_case
top_level = sys.argv[1] == "top"
cases = []
for k, (layout, lengths) in enumerate(SEGMENT_LAYOUTS.items()):
    cuts = np.cumsum(lengths).tolist()
    for kind in SEGMENT_KINDS:
        if top_level or kind != "above 2^1005":
            terms = segment_case(kind, lengths, k)
            want = [math.fsum(terms[s:e].tolist()).hex() for s, e in zip([0, *cuts[:-1]], cuts)]
            cases.append((layout, kind, terms, cuts, want))
extract, residual_passes = numerics._extract, []
def counting(block, starts, top):
    rounds, left = extract(block, starts, top)
    residual_passes.append(bool(left))
    return rounds, left
numerics._extract = counting
default = (numerics._EXACT_MIN_TERMS, numerics._PASS_MAX_TERMS, numerics._BLOCK)
bad, raised = [], 0
for route, limits in SEGMENT_ROUTES.items():
    if route == "fsum" and not top_level:
        continue
    numerics._EXACT_MIN_TERMS, numerics._PASS_MAX_TERMS, numerics._BLOCK = limits or default
    for layout, kind, terms, cuts, want in cases:
        got = [x.hex() for x in numerics._exact_sums(terms, cuts)]
        if got != want:
            bad.append([route, layout, kind, got, want])
    for layout, lengths in SEGMENT_LAYOUTS.items():
        cuts = np.cumsum(lengths).tolist()
        if cuts[-1] < 2:
            continue
        for bad_term in (math.nan, math.inf, -math.inf, "inf and -inf"):
            terms = np.ones(cuts[-1])
            terms[-1] = math.inf if bad_term == "inf and -inf" else bad_term
            if bad_term == "inf and -inf":
                terms[-2] = -math.inf
            try:
                numerics._exact_sums(terms, cuts)
            except ValueError as exc:
                raised += str(exc) == "non-finite term in compensated sum"
            else:
                bad.append([route, layout, "no error on", str(bad_term)])
print(json.dumps([bad, raised, any(residual_passes)]))
"""


@pytest.mark.parametrize(
    "disabled", _dispatch_levels(), ids=lambda d: f"off-from-{d.split()[0]}" if d else "all-on"
)
def test_segment_sums_match_fsum(disabled):
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    level = "top" if disabled == "" else "lower"
    out = subprocess.run([sys.executable, "-c", _SEGMENT_SCRIPT, level], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    bad, raised, residual_seen = json.loads(out.stdout)
    assert bad == []
    layouts = sum(sum(lengths) >= 2 for lengths in SEGMENT_LAYOUTS.values())
    assert raised == (len(SEGMENT_ROUTES) - (level != "top")) * layouts * 4
    assert residual_seen  # the tiny segments took the residual route


def test_table_views_are_read_only():
    for N in (2, 512, 5_000):
        for row in zeta._term_tables(0.5, N):
            assert row.size == N - 1
            with pytest.raises(ValueError):
                row[0] = 1.0


def test_import_builds_no_table():
    # neither the term tables nor the Pochhammer walk exist before first use
    script = "from zetabounds import zeta; print(zeta._tables, zeta._walk)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "(None,) (None, [])"

