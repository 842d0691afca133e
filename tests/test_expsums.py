import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetabounds.expsums import (
    RANGE_GUARD,
    VdCParams,
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
from zetabounds import expsums

from reference_blocks import BlockScheme, block_scheme
from reference_sums import WeightSums, log_dirichlet_sum, shifted_diff_rows, weight_sum_rows


class TestPhaseFunction:
    def test_log_phase_value_and_curvature(self):
        f = log_phase(100.0)
        x = np.array([9.5, 10.0, 10.5])
        v = f(x)
        assert v[1] == pytest.approx(-100.0 * math.log(10.0) / (2 * math.pi))
        # second difference against f''(10) = t / (2 pi 10^2)
        curvature = (v[0] - 2.0 * v[1] + v[2]) / 0.25
        assert curvature == pytest.approx(100.0 / (2 * math.pi * 100.0), rel=1e-2)
        with pytest.raises(ValueError):
            log_phase(0.0)

    def test_quadratic(self):
        f = quadratic_phase(0.5, 1.0, 2.0)
        assert f(np.array([3.0]))[0] == pytest.approx(0.5 * 9 + 3 + 2)


class TestExpSumExact:
    def test_zero_phase(self):
        f = quadratic_phase(0.0, 0.0)
        assert exp_sum_exact(f, 0, 7) == pytest.approx(7.0 + 0.0j)

    def test_half_integer_phase_cancels(self):
        f = quadratic_phase(0.0, 0.5)
        for n_start in (0, 3, 10):
            assert abs(exp_sum_exact(f, n_start, 2)) < 1e-12

    def test_empty(self):
        f = log_phase(5.0)
        assert exp_sum_exact(f, 10, 0) == 0.0


class TestVdC:
    def test_worked_value(self):
        assert vdc_second_derivative_bound(VdCParams(L=100, V=50.0, W=100.0)) == pytest.approx(57.0)

    def test_floor_at_l_zero(self):
        b = vdc_second_derivative_bound(VdCParams(L=0, V=50.0, W=100.0))
        assert b >= 23.0 / 5.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            VdCParams(L=10, V=2.0, W=1.0)  # W must exceed 1
        with pytest.raises(ValueError):
            VdCParams(L=10, V=5.0, W=4.0)  # V < W
        with pytest.raises(ValueError):
            VdCParams(L=-1, V=1.0, W=2.0)

    def test_envelope_on_random_log_blocks(self):
        rng = np.random.default_rng(42)
        min_slack = math.inf
        for _ in range(200):
            t = math.exp(rng.uniform(math.log(1e3), math.log(1e5)))
            n_start = int(t ** (2.0 / 3.0) * rng.uniform(1.0, 3.0))
            length = int(rng.integers(2, min(n_start, 5000) + 1))
            f = log_phase(t)
            value = abs(exp_sum_exact(f, n_start, length))
            bound = vdc_second_derivative_bound(vdc_params_for_log_block(t, n_start, length))
            min_slack = min(min_slack, bound - value)
            assert value <= bound
        assert min_slack > 0


class TestLogDirichletSum:
    def test_empty_range(self):
        assert log_dirichlet_sum(13.0, 1.0, 1.0) == 0.0

    def test_single_term(self):
        t = 17.0
        got = log_dirichlet_sum(t, 1.0, 2.0)
        expect = math.log(2.0) * 2.0 ** -0.5 * cmath.exp(-1j * t * math.log(2.0))
        assert got == pytest.approx(expect, abs=1e-15)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            log_dirichlet_sum(10.0, 1.0, 2e8)

    def test_block_partition_additivity(self):
        t = 4321.5
        scheme = block_scheme(t, 2.0 / 3.0, 1.9, 1.0)
        whole = log_dirichlet_sum(t, t ** (2.0 / 3.0), float(math.floor(t)))
        parts = sum(
            log_dirichlet_sum(t, float(n0), float(n1))
            for (_, _, n0, n1) in scheme.blocks
        )
        assert abs(whole - parts) < 1e-10


class TestWeylDifferencing:
    def test_m1_empty_sum(self):
        assert weyl_differencing_rhs(10, 1, []) == pytest.approx(110.0)

    def test_worked_value(self):
        assert weyl_differencing_rhs(10, 2, [10.0]) == pytest.approx(120.0)

    def test_zero_phase_dominates_l_squared(self):
        f = quadratic_phase(0.0, 0.0)
        for L, M in ((5, 2), (13, 5), (40, 9)):
            dm = shifted_diff_maxima(f, 0, L, M)
            assert dm == [float(L)] * (M - 1)
            rhs = weyl_differencing_rhs(L, M, dm)
            assert rhs >= L * L

    def test_validation(self):
        with pytest.raises(ValueError):
            weyl_differencing_rhs(10, 0, [])
        with pytest.raises(ValueError):
            weyl_differencing_rhs(10, 3, [1.0])  # wrong length
        with pytest.raises(ValueError):
            weyl_differencing_rhs(10, 2, [-1.0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=1.0, max_value=5000.0),
        st.integers(min_value=1, max_value=200),
    )
    def test_envelope_property(self, L, M, t, n_start):
        f = log_phase(t)
        s2 = abs(exp_sum_exact(f, n_start, L)) ** 2
        dm = shifted_diff_maxima(f, n_start, L, M)
        rhs = weyl_differencing_rhs(L, M, dm)
        assert s2 <= rhs + 1e-9 * (1.0 + rhs)


def _hexes(values):
    return [v.hex() for v in values]


class TestShiftedDiffMaxima:
    """The array passes against the one-shift-at-a-time loop, bit for bit."""

    PHASES = {
        "zero": quadratic_phase(0.0, 0.0),
        "quadratic": quadratic_phase(0.137, -0.61),
        "log": log_phase(2718.3),
    }

    @pytest.mark.parametrize("phase", sorted(PHASES))
    def test_bits_of_the_shift_loop(self, monkeypatch, phase):
        f = self.PHASES[phase]
        for L, M in itertools.product((1, 2, 199, 5000), (1, 2, 20, 300)):
            want = _hexes(shifted_diff_rows(f, 37, L, M))
            assert len(want) == M - 1
            # 1 and 7 split the rows over many passes
            for block in (1, 7, expsums.SHIFT_BLOCK):
                monkeypatch.setattr(expsums, "SHIFT_BLOCK", block)
                assert _hexes(shifted_diff_maxima(f, 37, L, M)) == want, (L, M, block)

    def test_bits_on_check_like_samples(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            a, b = rng.uniform(-0.2, 0.2), rng.uniform(-1.0, 1.0)
            f = log_phase(rng.uniform(10.0, 1e4)) if rng.random() < 0.5 else quadratic_phase(a, b)
            N, L, M = int(rng.integers(1, 500)), int(rng.integers(1, 200)), int(rng.integers(1, 21))
            assert _hexes(shifted_diff_maxima(f, N, L, M)) == _hexes(shifted_diff_rows(f, N, L, M))

    def test_memory_flat_in_m(self):
        f = log_phase(5000.0)
        tracemalloc.start()
        try:
            out = shifted_diff_maxima(f, 300, 199, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == 19_999
        # all rows at once would take 64 MB of complex terms
        assert peak < 4 * 2**20

    def test_refuses_too_many_terms_before_evaluating_f(self):
        def f(x):
            raise AssertionError("f evaluated")

        for L, M in ((199, 10**8), (2, RANGE_GUARD // 2 + 2), (RANGE_GUARD + 1, 2)):
            with pytest.raises(ValueError, match="range too long for direct summation"):
                shifted_diff_maxima(f, 0, L, M)


class TestIntegerArguments:
    """N, L and M count terms: a float one used to be summed over n = 2.5,
    3.5, .. or to fail inside numpy or range with a TypeError."""

    def test_exp_sum_exact(self):
        f = log_phase(10.0)
        for N, L, name in ((1.5, 3, "N"), (1, 3.0, "L")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                exp_sum_exact(f, N, L)
        assert exp_sum_exact(f, np.int64(1), np.int32(3)) == exp_sum_exact(f, 1, 3)

    def test_shifted_diff_maxima(self):
        f = log_phase(10.0)
        for N, L, M, name in ((1.5, 3, 2, "N"), (1, 3.0, 2, "L"), (1, 3, 2.0, "M"), (1, 3, True, "M")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                shifted_diff_maxima(f, N, L, M)
        want = shifted_diff_maxima(f, 1, 3, 4)
        assert shifted_diff_maxima(f, np.int64(1), np.int64(3), np.int16(4)) == want

    def test_weyl_differencing_rhs(self):
        # L = 2.5 returned 7.875
        for L, M, name in ((2.5, 2, "L"), (2, 2.0, "M")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                weyl_differencing_rhs(L, M, [1.0])
        assert weyl_differencing_rhs(np.int64(10), np.int32(2), [10.0]) == weyl_differencing_rhs(10, 2, [10.0])

    def test_vdc_params_for_log_block(self):
        # L = 2.5 built VdCParams(L=2.5)
        for N, L, name in ((10, 2.5, "L"), (10.0, 5, "N")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                vdc_params_for_log_block(10.0, N, L)
        got = vdc_params_for_log_block(10.0, np.int64(5), np.int64(3))
        assert got == vdc_params_for_log_block(10.0, 5, 3)
        assert type(got.L) is int


class TestVertexMaxBound:
    def test_single_term(self):
        assert vertex_max_bound([0.7], [2.3]) == pytest.approx(0.7)

    def test_perfect_cancellation(self):
        assert vertex_max_bound([1.0, 1.0], [0.0, math.pi]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            vertex_max_bound([], [])
        with pytest.raises(ValueError):
            vertex_max_bound([2.0, 1.0], [0.0, 1.0])  # not ascending
        with pytest.raises(ValueError):
            vertex_max_bound([1.0], [0.0, 1.0])  # length mismatch
        with pytest.raises(ValueError):
            vertex_max_bound([0.5] * 21, [0.0] * 21)  # n > 20 exact path

    @pytest.mark.parametrize("amps, phases", [
        ([1.0, 2.0], [0.0, math.nan]),  # gave 2.0: max(1.0, nan) is 1.0
        ([1.0, math.nan], [0.0, 1.0]),  # gave nan
        ([1.0, math.inf], [0.0, 1.0]),  # gave inf
        ([1.0, 2.0], [-math.inf, 1.0]),
    ])
    def test_non_finite_input_rejected(self, amps, phases):
        with pytest.raises(ValueError, match="amplitudes and phases must be finite"):
            vertex_max_bound(amps, phases)

    def test_dominates_direct_sum_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            n = int(rng.integers(1, 9))
            amps = np.sort(rng.uniform(0.05, 3.0, size=n))
            phases = rng.uniform(0.0, 2 * math.pi, size=n)
            direct = abs(complex(np.sum(amps * np.exp(1j * phases))))
            bound = vertex_max_bound(list(amps), list(phases))
            assert direct <= bound + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=8),
        st.data(),
    )
    def test_dominance_property(self, amps, data):
        amps = sorted(amps)
        phases = [
            data.draw(st.floats(min_value=0.0, max_value=2 * math.pi))
            for _ in amps
        ]
        direct = abs(sum(a * cmath.exp(1j * x) for a, x in zip(amps, phases)))
        assert direct <= vertex_max_bound(amps, phases) + 1e-9


U = 2.0**-53  # unit roundoff of IEEE doubles


def gamma(k):
    return k * U / (1 - k * U)


def reference_weight_sums(M):
    """The weight sums at one M by the per-M route: every weight 1 - m/M
    formed and each sum taken with math.fsum, O(M) work per M.  It shares
    nothing with the running sums of ``weight_sum_blocks``."""
    if M == 1:
        return (0.0, 0.0, 0.0, 0.0)
    m = np.arange(1, M, dtype=np.float64)
    w = 1.0 - m / M
    return (
        math.fsum(w * np.sqrt(m)),
        math.fsum(w / np.sqrt(m)),
        math.fsum(w * m),
        math.fsum(w),
    )


def block_rows(max_m):
    """The rows of ``weight_sum_blocks``, one ``WeightSums`` per M."""
    for ms, exact, bound in weight_sum_blocks(max_m):
        for m_val, e, b in zip(ms.tolist(), exact.tolist(), bound.tolist()):
            yield WeightSums(M=m_val, exact=tuple(e), bound=tuple(b))


# docs/weight_sums.md: for relations 1 and 2, |computed - exact| <= K P,
# where P = S0 + S1/M <= SCALE[i] * bound[i].  K(M) covers the running
# sums, REFERENCE_K the per-M fsum route.
SCALE = (4.0, 2.0)
REFERENCE_K = (U * (1 + U) * (1 + gamma(2)) + gamma(2)) * (1 + U) + U


def running_sum_k(M):
    n = M - 1
    g = gamma(n - 1) ** 2 if n >= 2 else 0.0
    eta = gamma(3) + (1 + gamma(2)) * g
    return (eta + U * (1 + eta)) * (1 + U) + U


def rows_at(ms):
    wanted = set(ms)
    return [ws for ws in block_rows(max(ms)) if ws.M in wanted]


class TestWeightSums:
    def test_m1_all_zero(self):
        ws = rows_at([1])[0]
        assert ws.exact == (0.0, 0.0, 0.0, 0.0)
        assert all(e <= b for e, b in zip(ws.exact, ws.bound))

    def test_m3_worked_values(self):
        ws = rows_at([3])[0]
        assert ws.exact[2] == pytest.approx(4.0 / 3.0)
        assert ws.bound[2] == pytest.approx(1.5)
        assert ws.exact[3] == pytest.approx(1.0)
        assert ws.bound[3] == pytest.approx(1.5)

    def test_closed_forms_and_bounds_sweep(self):
        for ws in block_rows(10**4):
            m_val = ws.M
            assert ws.exact[2] == float(Fraction(m_val * m_val - 1, 6))
            assert ws.exact[3] == float(Fraction(m_val - 1, 2))
            for e, b in zip(ws.exact, ws.bound):
                assert e <= b * (1 + 1e-12)

    def test_rows_match_fsum_reference(self):
        rng = np.random.default_rng(46)
        sampled = sorted(set(rng.integers(2001, 10**4, size=20).tolist()) | {10**4})
        for ws in rows_at(list(range(1, 2001)) + sampled):
            ref = reference_weight_sums(ws.M)
            k = running_sum_k(ws.M) + REFERENCE_K
            for i in (0, 1):
                assert abs(ws.exact[i] - ref[i]) <= k * SCALE[i] * ws.bound[i], (ws.M, i)

    def test_relations_1_2_within_bound_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        ms = [2, 3, 10, 64, 444, 657, 1000, 2048, 5000, 10**4]
        with mpmath.workdps(30):
            for ws in rows_at(ms):
                M = ws.M
                exact = [mpmath.mpf(0), mpmath.mpf(0)]
                for m in range(1, M):
                    w, root = 1 - mpmath.mpf(m) / M, mpmath.sqrt(m)
                    exact[0] += w * root
                    exact[1] += w / root
                for i in (0, 1):
                    err = abs(mpmath.mpf(ws.exact[i]) - exact[i])
                    assert err <= running_sum_k(M) * SCALE[i] * ws.bound[i], (M, i)

    def test_error_bound_below_check_budget(self):
        # check 4.6 budgets 1e-12 (1 + bound) for every M <= RANGE_GUARD
        for i in (0, 1):
            assert SCALE[i] * running_sum_k(RANGE_GUARD) < 1e-14

    def test_rows_stream(self):
        # the first block comes at once, however large max_m is
        ms, exact, bound = next(weight_sum_blocks(10**9))
        assert ms.tolist() == list(range(1, expsums.WEIGHT_BLOCK + 1))
        assert exact.shape == bound.shape == (expsums.WEIGHT_BLOCK, 4)
        assert exact[0].tolist() == [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            next(weight_sum_blocks(0))

    def test_bounds_asymptotically_tight(self):
        small, ws = rows_at([100, 10**4])
        ratios = [e / b for e, b in zip(ws.exact, ws.bound)]
        assert ratios[0] > 0.999
        assert ratios[1] > 0.985  # m^{-1/2} sum converges like 1 - c/sqrt(M)
        assert ratios[2] > 0.999
        assert ratios[3] > 0.999
        smaller = [e / b for e, b in zip(small.exact, small.bound)]
        assert all(r_big >= r_small for r_big, r_small in zip(ratios, smaller))


def reference_bits(max_m):
    """M, exact and bound of the scalar reference rows, with the floats
    read as their IEEE bit patterns."""
    rows = list(weight_sum_rows(max_m))
    exact = np.array([ws.exact for ws in rows])
    bound = np.array([ws.bound for ws in rows])
    return [ws.M for ws in rows], exact.view(np.uint64), bound.view(np.uint64)


def block_bits(max_m):
    """The same from ``weight_sum_blocks``, and each block's row count."""
    blocks = list(weight_sum_blocks(max_m))
    ms, exact, bound = (np.concatenate(parts) for parts in zip(*blocks))
    sizes = [block[0].size for block in blocks]
    return (ms.tolist(), exact.view(np.uint64), bound.view(np.uint64)), sizes


class TestWeightSumBlocks:
    @pytest.mark.parametrize("block, max_m", [(1, 40), (7, 1000), (64, 64), (64, 65), (100, 2345)])
    def test_small_blocks_keep_the_reference_bits(self, monkeypatch, block, max_m):
        monkeypatch.setattr(expsums, "WEIGHT_BLOCK", block)
        got, sizes = block_bits(max_m)
        want = reference_bits(max_m)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        assert sizes == [block] * (max_m // block) + ([max_m % block] if max_m % block else [])

    def test_real_blocks_keep_the_reference_bits(self):
        # four blocks: the Sum2 pairs and integer sums cross three boundaries
        max_m = 3 * expsums.WEIGHT_BLOCK + 321
        got, sizes = block_bits(max_m)
        want = reference_bits(max_m)
        assert sizes == [expsums.WEIGHT_BLOCK] * 3 + [321]
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    def test_bound_keeps_python_power(self):
        # numpy's power can round M^1.5 differently from the libm pow
        # behind Python's **; the bound must not depend on which
        ms, _, bound = next(weight_sum_blocks(2000))
        assert bound[:, 0].tolist() == [4.0 / 15.0 * m**1.5 for m in ms.tolist()]


def count_limit(scheme: BlockScheme) -> int:
    """Closed-form cap on the number of blocks for the standard ranges
    (exponent span 1/3): floor(log t / (3 log ratio)) + 1."""
    return math.floor(math.log(scheme.t) / (3.0 * math.log(scheme.ratio))) + 1


class TestBlockScheme:
    def test_worked_example(self):
        scheme = block_scheme(math.exp(6.0), 1.0 / 3.0, 2.0, 2.0 / 3.0)
        assert scheme.blocks[0][0] == pytest.approx(math.exp(2.0))
        assert scheme.J <= count_limit(scheme) == 3

    def test_partition_property(self):
        for t, ratio in ((12345.6, 1.7), (999.0, 1.1), (4.06e5, 3.0)):
            scheme = block_scheme(t, 2.0 / 3.0, ratio, 1.0)
            covered = []
            for (_, _, n0, n1) in scheme.blocks:
                covered.extend(range(n0 + 1, n1 + 1))
            lo = math.floor(t ** (2.0 / 3.0)) + 1
            hi = math.floor(t)
            assert covered == list(range(lo, hi + 1))

    def test_huge_ratio_single_block(self):
        scheme = block_scheme(1000.0, 2.0 / 3.0, 1000.0, 1.0)
        assert scheme.J == 1

    def test_invariants_hold(self):
        scheme = block_scheme(5e4, 1.0 / 3.0, 1.35, 2.0 / 3.0)
        t = scheme.t
        assert scheme.J <= count_limit(scheme)
        for (x0, x1, n0, n1) in scheme.blocks:
            assert n0 == math.floor(x0) or x1 == t ** (2.0 / 3.0)
            assert x0 < x1
            assert n0 <= n1

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            block_scheme(5.0, 1.0 / 3.0, 2.0, 2.0 / 3.0)  # t^alpha < 2
        with pytest.raises(ValueError):
            block_scheme(100.0, 2.0 / 3.0, 1.0, 1.0)  # ratio must exceed 1
        with pytest.raises(ValueError):
            block_scheme(100.0, 0.5, 2.0, 1.0)  # alpha not in the allowed set
