import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from zetabounds import numerics, zeta
from zetabounds.numerics import geometric_grid
from zetabounds.zeta import (
    _COST_PER_ORDER,
    _MAX_V,
    CertifiedComplex,
    EMConfig,
    EvalPoint,
    default_em_config,
    em_range_sum,
    em_remainder_bound,
    zeta_em,
    zeta_prime_em,
)

from reference_oracle import default_eta_terms, eta_oracle, zeta_prime_oracle
from reference_sums import direct_sum_budget, log_dirichlet_sum

ZETA2 = math.pi**2 / 6.0
# zeta'(2) frozen from the direct-summation oracle (see test below, which
# recomputes it from scratch with a certified tail)
ZETA_PRIME_2 = -0.9375482543158438
FIRST_ZERO_T = 14.1347251417
S2 = EvalPoint(t=0.0, sigma=2.0)


def direct_zeta_prime_2_oracle(n_terms: int = 10**7) -> tuple[float, float]:
    """-sum log n / n^2 by chunked direct summation; the omitted tail lies
    between 0 and the integral bound, so using the midpoint-corrected tail
    integral (log N + 1)/N - log N/(2 N^2) leaves an error far below it."""
    total = 0.0
    for lo in range(1, n_terms + 1, 10**6):
        n = np.arange(lo, min(lo + 10**6, n_terms + 1), dtype=np.float64)
        total += float(np.sum(np.log(n) / n**2))
    tail = (math.log(n_terms) + 1.0) / n_terms - math.log(n_terms) / (2.0 * n_terms**2)
    tail_err = math.log(n_terms) / n_terms**2
    return -(total + tail), tail_err


class TestZetaEm:
    def test_calibration_at_2(self):
        r = zeta_em(S2, EMConfig(N=50, v=5))
        assert r.converged
        assert abs(r.value - ZETA2) < 1e-12
        assert abs(r.value - ZETA2) <= r.error_bound + 1e-15

    def test_first_zero(self):
        r = zeta_em(EvalPoint(t=FIRST_ZERO_T), EMConfig(N=200, v=6))
        assert abs(r.value) < 1e-6

    def test_conjugate_symmetry_exact(self):
        cfg = EMConfig(N=300, v=4)
        plus = zeta_em(EvalPoint(t=37.5), cfg)
        minus = zeta_em(EvalPoint(t=-37.5), cfg)
        assert minus.value == plus.value.conjugate()

    def test_desk_ceiling(self):
        with pytest.raises(ValueError):
            zeta_em(EvalPoint(t=2e5), EMConfig(N=100, v=4))

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            EMConfig(N=1, v=2)
        with pytest.raises(ValueError):
            EMConfig(N=10, v=_MAX_V + 1)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                EMConfig(N=10, v=2, tol=tol)

    @pytest.mark.parametrize("N, v, name", [(40.5, 6, "N"), (40, 6.0, "v"), (40.0, 6, "N")])
    def test_non_integer_indices_rejected(self, N, v, name):
        # at N = 40.5 the power sum stopped at n = 40 and the tail started at
        # 40.5: zeta' came out 0.29 off with a radius of 5.3e-13
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            EMConfig(N=N, v=v)

    def test_numpy_integer_indices(self):
        point = EvalPoint(10.0)
        want = zeta_prime_em(point, EMConfig(N=40, v=6))
        assert zeta_prime_em(point, EMConfig(N=np.int64(40), v=np.int32(6))) == want

    def test_v0_path(self):
        # the evaluators take only configs of order v >= 1
        with pytest.raises(ValueError):
            EMConfig(N=10, v=0)


class TestRemainderBound:
    def test_worked_value(self):
        # (|2||3|/2!) * (1/6) * 10^-3 / 3 = 1/6000
        got = em_remainder_bound(S2, N=10, v=1)
        assert got == pytest.approx(1.0 / 6000.0, rel=1e-12)

    def test_doubling_n_power_law(self):
        # the closed form makes the ratio exactly 2^{sigma+2v-1}
        s = EvalPoint(t=30.0)
        for v in (1, 2, 4):
            b1 = em_remainder_bound(s, N=100, v=v)
            b2 = em_remainder_bound(s, N=200, v=v)
            assert b1 / b2 >= 2.0 ** (0.5 + 2 * v - 1) * (1.0 - 1e-12)

    def test_v0_worked_value(self):
        # every bound uses a Bernoulli kernel of order v >= 1: v = 0 has no
        # value or derivative bound
        for derivative in (False, True):
            with pytest.raises(ValueError):
                em_remainder_bound(S2, 10, 0, derivative=derivative)

    def test_domain_is_where_the_closed_form_holds(self):
        # sigma + 2v > 0 but p = sigma + 2v - 1 <= 0: the closed form would
        # be negative (p < 0) or divide by zero (p = 0)
        for point in (EvalPoint(t=3.0, sigma=-3.2), EvalPoint(t=0.0, sigma=-3.0)):
            for derivative in (False, True):
                with pytest.raises(ValueError, match="sigma \\+ 2v - 1 > 0"):
                    em_remainder_bound(point, N=300, v=2, derivative=derivative)
            for evaluate in (zeta_em, zeta_prime_em):
                with pytest.raises(ValueError, match="sigma \\+ 2v - 1 > 0"):
                    evaluate(point, EMConfig(N=300, v=2))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, -2.0])
    def test_derivative_needs_s_plus_i_nonzero(self, sigma):
        # at t = 0 the derivative divides by s + i = 0; the value does not
        point = EvalPoint(t=0.0, sigma=sigma)
        with pytest.raises(ValueError, match="s \\+ i != 0"):
            zeta_prime_em(point, EMConfig(N=300, v=2))
        with pytest.raises(ValueError, match="s \\+ i != 0"):
            em_remainder_bound(point, N=300, v=2, derivative=True)
        em_remainder_bound(point, N=300, v=2)

    def test_zeta_at_zero_is_minus_half(self):
        r = zeta_em(EvalPoint(t=0.0, sigma=0.0), EMConfig(N=300, v=2))
        assert abs(r.value + 0.5) <= r.error_bound

    def test_monotone_decreasing_in_n(self):
        s = EvalPoint(t=50.0)
        for v in (1, 3, 6):
            bounds = [em_remainder_bound(s, N, v) for N in (64, 128, 256, 512, 1024)]
            assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_eventually_decreasing_in_v(self):
        s = EvalPoint(t=50.0)
        N = 400  # t <= N
        bounds = [em_remainder_bound(s, N, v) for v in range(1, 13)]
        drop = next(i for i in range(len(bounds) - 1) if bounds[i + 1] < bounds[i])
        tail = bounds[drop:]
        assert all(b2 < b1 for b1, b2 in zip(tail, tail[1:]))


class TestZetaPrimeEm:
    def test_calibration_at_2(self):
        r = zeta_prime_em(S2, EMConfig(N=50, v=5))
        oracle, oracle_err = direct_zeta_prime_2_oracle(10**6)
        assert abs(r.value - oracle) < 1e-10 + oracle_err + r.error_bound
        assert abs(r.value - ZETA_PRIME_2) < 1e-10

    def test_conjugate_symmetry_exact(self):
        cfg = EMConfig(N=250, v=5)
        plus = zeta_prime_em(EvalPoint(t=19.25), cfg)
        minus = zeta_prime_em(EvalPoint(t=-19.25), cfg)
        assert minus.value == plus.value.conjugate()

    def test_agrees_with_oracle_at_e2(self):
        point = EvalPoint(t=math.exp(2.0))
        em = zeta_prime_em(point, EMConfig(N=10**4, v=6))
        oracle = zeta_prime_oracle(point)
        assert oracle.converged
        assert abs(em.value - oracle.value) <= em.error_bound + oracle.error_bound

    def test_matches_finite_differences_of_zeta_em(self):
        # Richardson-extrapolated central differences of zeta_em along sigma
        point = EvalPoint(t=25.0)
        cfg = EMConfig(N=2000, v=8)
        em = zeta_prime_em(point, cfg)
        h0 = 0.02
        diffs = []
        for k in range(4):
            h = h0 / 2**k
            zp = zeta_em(EvalPoint(t=25.0, sigma=0.5 + h), cfg)
            zm = zeta_em(EvalPoint(t=25.0, sigma=0.5 - h), cfg)
            diffs.append((zp.value - zm.value) / (2 * h))
        table = [diffs[0]]
        for k in range(1, 4):
            row = [diffs[k]]
            for j in range(1, k + 1):
                f = 4.0**j
                row.append((f * row[j - 1] - table[j - 1]) / (f - 1.0))
            table = row
        assert abs(em.value - table[-1]) < 1e-9


def smallest_n_at(point, v, tol, derivative):
    """The smallest N in [64, max(ceil(8|t|), 64)] whose order-v bound
    meets tol, by bisection on em_remainder_bound; the cap if none does."""
    lo, hi = 64, max(math.ceil(8 * abs(point.t)), 64)
    while lo < hi:
        mid = (lo + hi) // 2
        if em_remainder_bound(point, mid, v, derivative) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestDefaultEmConfig:
    @pytest.mark.parametrize("for_derivative", [False, True])
    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
    def test_smallest_n_meeting_tol(self, for_derivative, tol):
        def bound(point, N, v):
            return em_remainder_bound(point, N, v, derivative=for_derivative)

        for t in (0.0, 10.0, 170.0, 1234.5, 3e3, 1e4, 3e4, 99999.9, 1e5):
            point = EvalPoint(t)
            cfg = default_em_config(point, tol, for_derivative)
            assert 15 <= cfg.v <= _MAX_V, t
            assert bound(point, cfg.N, cfg.v) <= tol, t
            if cfg.N > 64:
                # N is the smallest that meets tol at the chosen order
                assert bound(point, cfg.N - 1, cfg.v) > tol, t
            # and the config costs no more than the v = 15 one
            n15 = smallest_n_at(point, 15, tol, for_derivative)
            assert cfg.N + _COST_PER_ORDER * cfg.v <= n15 + _COST_PER_ORDER * 15, t

    @pytest.mark.parametrize("t, n", [(50.0, 64), (1e3, 340)])
    def test_low_t_keeps_order_15(self, t, n):
        # below t ~ 2e3 one more order saves fewer terms than it costs
        cfg = default_em_config(EvalPoint(t), for_derivative=True)
        assert (cfg.N, cfg.v) == (n, 15)

    def test_high_t_raises_the_order(self):
        # the cost model's gains: N at most 0.2 t from t = 3.5e4 up, and the
        # top order at the ceiling (where v = 15 needs 37,430 terms)
        for t in np.geomspace(3.5e4, 1e5, 12):
            cfg = default_em_config(EvalPoint(t), for_derivative=True)
            assert cfg.N <= 0.2 * t, t
        cfg = default_em_config(EvalPoint(1e5), for_derivative=True)
        assert (cfg.N, cfg.v) == (19_417, _MAX_V)

    def test_low_t_reads_no_high_bernoulli_number(self):
        # only the orders the walk reaches cost a Bernoulli number: at
        # t = 100 and e^6 (the benchmark warm-ups) nothing past B_32
        caches = (numerics._bernoulli_exact, zeta._correction_ratio, zeta._log_bernoulli_factor)
        for cache in caches:
            cache.cache_clear()
        for t in (100.0, math.exp(6.0)):
            point = EvalPoint(t)
            zeta_prime_em(point, default_em_config(point, for_derivative=True))
        assert max(numerics._bernoulli_exact.cache_info().currsize - 1, 0) <= 32

    @pytest.mark.parametrize(
        "t, n, v",
        [(100.0, 64, 15), (1e3, 340, 15), (2e3, 655, 16), (3e3, 909, 18),
         (1e4, 2_346, 30), (3e4, 6_092, 48), (3.5e4, 6_975, 52), (1e5, 19_417, _MAX_V)],
    )
    def test_remainder_bounds_table(self, t, n, v):
        # the table of docs/remainder_bounds.md, "Choosing N and v"
        cfg = default_em_config(EvalPoint(t), for_derivative=True)
        assert (cfg.N, cfg.v) == (n, v)

    def test_cap_fallback_reports_nonconverged(self):
        # no N up to the cap meets tol at v = 15, so the walk takes no order;
        # at t = 1e5 an evaluation of 800,000 terms is left out
        for t, cap in ((10.0, 80), (1e3, 8_000), (1e5, 800_000)):
            point = EvalPoint(t)
            cfg = default_em_config(point, tol=1e-300, for_derivative=True)
            assert (cfg.N, cfg.v) == (cap, 15), t
            if t < 1e5:
                assert not zeta_prime_em(point, cfg).converged, t

    def test_domain_edge_falls_back_to_the_cap(self):
        # at sigma = -28.999, p = 0.001 at v = 15: the estimate of log N
        # is far past log(DBL_MAX), so the walk stops before exp overflows
        for t, cap in ((50.0, 400), (1e5, 800_000)):
            cfg = default_em_config(EvalPoint(t, -28.999), for_derivative=True)
            assert (cfg.N, cfg.v) == (cap, 15), t

    def test_huge_tol_takes_the_floor(self):
        # the estimate of log N falls below 0; 64 terms meet tol
        for t in (50.0, 1e5):
            cfg = default_em_config(EvalPoint(t), tol=1e300, for_derivative=True)
            assert (cfg.N, cfg.v) == (64, 15), t


class TestCorrections:
    def test_top_order_at_the_ceiling(self):
        # at t = 1e5, v = 60 the Pochhammer product alone is ~1e595: the
        # ratio recurrence and the log-space bound keep every value finite
        mpmath = pytest.importorskip("mpmath")
        point = EvalPoint(1e5)
        r = zeta_prime_em(point, EMConfig(N=19_417, v=_MAX_V))
        assert r.converged and math.isfinite(r.error_bound)
        with mpmath.workdps(30):
            exact = mpmath.zeta(mpmath.mpc(0.5, 1e5), derivative=1)
            assert float(abs(mpmath.mpc(r.value) - exact)) <= r.error_bound

    def test_rounding_term_is_part_of_the_radius(self):
        for t, N, v in ((10.0, 64, 15), (1e3, 340, 15), (1e4, 2346, 30)):
            point = EvalPoint(t)
            s = point.s
            r = zeta_prime_em(point, EMConfig(N=N, v=v))
            head, moduli = zeta._power_sums(s, N, log_weighted=True)
            n_pow = cmath.exp(-s * math.log(N))
            _, corrections = zeta._corrections(s, N, n_pow, v, True, 0.0)
            value, rounding = zeta._em_tail(point, N, v, True, -head)
            assert value == r.value
            # the tail's bound holds the corrections' and the rounding of N^{-s}
            assert rounding > corrections > 0
            trunc = em_remainder_bound(point, N, v, derivative=True)
            term_err = zeta._pow_err(point, math.log(N)) + 2.0 * numerics.EPS
            assert r.error_bound == trunc + term_err * moduli + rounding

    @pytest.mark.parametrize("t", [1e4, 1e5])
    def test_radius_covers_the_power_sum_worst_case(self, t):
        # first order of the documented model: term n is off by at most
        # eps (1.5 |t| log n + 2.5) of its modulus |log n n^{-s}|
        point = EvalPoint(t)
        cfg = default_em_config(point, for_derivative=True)
        n = np.arange(1, cfg.N, dtype=np.float64)
        logn = np.log(n)
        worst = numerics.EPS * float(np.sum(logn * n**-0.5 * (1.5 * t * logn + 2.5)))
        assert zeta_prime_em(point, cfg).error_bound >= worst

    @pytest.mark.parametrize("derivative", [False, True])
    @pytest.mark.parametrize(
        "t, sigma, N, v",
        [(0.0, 2.0, 50, 5), (25.0, 0.5, 64, 15), (1e3, 0.5, 340, 15),
         (1e4, 0.5, 2346, 30), (1e5, 0.5, 19_417, _MAX_V), (3.0, -3.2, 300, 4)],
    )
    def test_rounding_bound_covers_the_recurrence(self, t, sigma, N, v, derivative):
        # the same corrections in 50-digit arithmetic from the same N^{-s}:
        # sum_j B_2j/(2j)! s(s+1)...(s+2j-2) N^{1-2j} N^{-s} [* (harm_j - log N)]
        mpmath = pytest.importorskip("mpmath")
        s = complex(sigma, t)
        n_pow = cmath.exp(-s * math.log(N))
        total, rounding = zeta._corrections(s, N, n_pow, v, derivative, 0.0)
        with mpmath.workdps(50):
            sm, logn = mpmath.mpc(s), mpmath.log(N)
            exact, poch, harm = mpmath.mpc(0), mpmath.mpc(1), mpmath.mpc(0)
            for j in range(1, v + 1):
                for i in range(max(2 * j - 3, 0), 2 * j - 1):
                    poch *= sm + i
                    harm += 1 / (sm + i)
                term = (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * poch
                        * mpmath.mpf(N) ** (1 - 2 * j) * mpmath.mpc(n_pow))
                exact += term * (harm - logn) if derivative else term
            err = float(abs(mpmath.mpc(total) - exact))
        assert err <= rounding, (err, rounding)


def mid_tail_ends(t):
    """a = floor(t) + 1 and b = floor(t^2) + 1: a <= n < b is t < n <= t^2."""
    return math.floor(t) + 1, math.floor(Fraction(t) ** 2) + 1


# 20 seeded t, log-uniform in [e^2, 300], where direct sums stay short
DIRECT_TS = np.exp(np.random.default_rng(2024).uniform(2.0, math.log(300.0), 20)).tolist()


class TestEmRangeSum:
    @pytest.mark.parametrize("t", DIRECT_TS)
    def test_within_radius_of_direct_sums(self, t):
        # (t, t^2] and [floor(t) + 1, 4 floor(t)), against direct summation
        # allowed its own worst-case rounding
        for a, b in (mid_tail_ends(t), (math.floor(t) + 1, 4 * math.floor(t))):
            r = em_range_sum(EvalPoint(t), a, b)
            direct = log_dirichlet_sum(t, a - 1, b - 1)
            budget = r.error_bound + direct_sum_budget(t, a - 1, b - 1)
            assert abs(r.value - direct) <= budget, (a, b)

    @pytest.mark.parametrize("t", [1e4, 1e6, 1e8])
    def test_within_radius_of_hurwitz_zeta(self, t):
        # zeta'(s, b) - zeta'(s, a) = sum_{a<=n<b} log n n^{-s}; at t = 1e8,
        # b = 1e16 + 1 is not a double, so the rounding of b is in play
        mpmath = pytest.importorskip("mpmath")
        a, b = mid_tail_ends(t)
        r = em_range_sum(EvalPoint(t), a, b)
        with mpmath.workdps(30):
            s = mpmath.mpc(0.5, t)
            exact = mpmath.zeta(s, b, 1) - mpmath.zeta(s, a, 1)
            err = float(abs(mpmath.mpc(r.value) - exact))
        assert err <= r.error_bound, (err, r.error_bound)

    def test_honest_radius_where_euler_maclaurin_diverges(self):
        # at t = 1e4 the corrections at N = 10, far below t / 2 pi, grow
        # with the order: the value is far off and the radius says so
        t = 1e4
        r = em_range_sum(EvalPoint(t), 10, 1000)
        distance = abs(r.value - log_dirichlet_sum(t, 9, 999))
        assert math.isfinite(r.error_bound)
        assert r.error_bound >= distance > 1e6

    def test_phase_rounding_is_in_the_tail_bound(self):
        # at t = 1e8, N = 1e16 the phase t log N ~ 3.7e9 of N^{-s} carries
        # almost all of the tail's error; the corrections' bound alone
        # would miss it by orders of magnitude
        mpmath = pytest.importorskip("mpmath")
        point, N, v = EvalPoint(1e8), 10**16, 15
        value, rounding = zeta._em_tail(point, N, v, True)
        s = point.s
        _, corrections = zeta._corrections(s, N, cmath.exp(-s * math.log(N)), v, True, 0.0)
        with mpmath.workdps(40):
            sm = mpmath.mpc(0.5, 1e8)
            err = float(abs(mpmath.mpc(value) - mpmath.zeta(sm, N, 1)))
        remainder = em_remainder_bound(point, N, v, derivative=True)
        assert err <= rounding + remainder
        assert err > 1e3 * (corrections + remainder)

    def test_empty_and_invalid_ranges(self):
        point = EvalPoint(50.0)
        assert em_range_sum(point, 7, 7).value == 0
        for a, b in ((0, 5), (6, 5)):
            with pytest.raises(ValueError, match="1 <= a <= b"):
                em_range_sum(point, a, b)
        # b = 100.5 used to miss the direct sum by 0.46 with a radius of 0.23
        for a, b, name in ((10, 100.5, "b"), (10.0, 100, "a"), (1.5, 1.5, "a")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                em_range_sum(point, a, b)


def _ulp_samples(mp) -> dict:
    """(computed, exact) pairs for each function that the rounding model of
    docs/remainder_bounds.md ("Rounding") takes to err by at most one ulp,
    at the arguments the evaluators pass it up to the certified ceiling and
    the lemma quadratures pass it."""
    rng = np.random.default_rng(0)
    n = np.concatenate([np.arange(2.0, 1000.0), rng.integers(1000, 800_000, 1000).astype(float)])
    phi = rng.uniform(0.0, 1.4e6, 2000)  # t log n, below 1e5 log 8e5
    big_n = [float(x) for x in rng.integers(64, 800_000, 200)]
    x = rng.uniform(-10.0, 10.0, 200)  # -sigma log N
    z = np.exp(-1j * phi)
    # the quadrature of checks 2.1 and 2.2 takes sin and cos of phases below
    # t log b + 2 pi v b <= 3.3e3
    quad_phase = rng.uniform(0.0, 3.3e3, 2000)
    return {
        "np.log": zip(np.log(n), map(mp.log, n)),
        "np.power": zip(
            np.concatenate([n ** -0.5, n ** -1.3]),
            [mp.mpf(m) ** e for e in (-0.5, -1.3) for m in n],
        ),
        "np.exp": zip(
            np.concatenate([z.real, z.imag]),
            [*map(mp.cos, phi), *(-mp.sin(f) for f in phi)],
        ),
        "math.log": zip(map(math.log, big_n), map(mp.log, big_n)),
        "cmath.exp": zip(
            [cmath.exp(complex(0.0, -f)).real for f in phi[:200]]
            + [cmath.exp(complex(0.0, -f)).imag for f in phi[:200]]
            + [cmath.exp(complex(e, 0.0)).real for e in x],
            [*map(mp.cos, phi[:200]), *(-mp.sin(f) for f in phi[:200]), *map(mp.exp, x)],
        ),
        "np.sin": zip(np.sin(quad_phase), map(mp.sin, quad_phase)),
        "np.cos": zip(np.cos(quad_phase), map(mp.cos, quad_phase)),
    }


def test_one_ulp_model_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        worst = {
            name: max(float(abs(mpmath.mpf(float(got)) - exact)) / math.ulp(float(exact))
                      for got, exact in pairs)
            for name, pairs in _ulp_samples(mpmath).items()
        }
    assert max(worst.values()) <= 1.0, f"ulps beyond the model: {worst}"


# mpmath at 30 digits is independent of both routes; its own error is far
# below every radius checked here.
REFERENCE_TS = (10.0, FIRST_ZERO_T, 100.0, 1234.5, 1e4, 19291.48, 54321.0, 99999.9, 1e5)


@pytest.mark.parametrize("t", REFERENCE_TS)
def test_default_config_within_radius_of_mpmath(t):
    mpmath = pytest.importorskip("mpmath")
    point = EvalPoint(t)
    with mpmath.workdps(30):
        s = mpmath.mpc(0.5, t)
        for derivative, evaluate in ((0, zeta_em), (1, zeta_prime_em)):
            r = evaluate(point, default_em_config(point, for_derivative=bool(derivative)))
            assert r.converged
            err = abs(mpmath.mpc(r.value) - mpmath.zeta(s, derivative=derivative))
            assert float(err) <= r.error_bound, (t, derivative)


@pytest.mark.parametrize("t", REFERENCE_TS)
def test_oracles_within_radius_of_mpmath(t):
    mpmath = pytest.importorskip("mpmath")
    point = EvalPoint(t)
    with mpmath.workdps(30):
        s = mpmath.mpc(0.5, t)
        for derivative, r in (
            (0, eta_oracle(point, default_eta_terms(t))),
            (1, zeta_prime_oracle(point)),
        ):
            assert r.converged, (t, derivative)
            err = abs(mpmath.mpc(r.value) - mpmath.zeta(s, derivative=derivative))
            assert float(err) <= r.error_bound, (t, derivative)


# The t grid of the scan_theorem2 golden file, whose printed values come
# from zeta_prime_em, plus the top of the certified range.
GOLDEN_SCAN_TS = (*geometric_grid(500.0, 1e4, 12), 1e5)


@pytest.mark.parametrize("t", GOLDEN_SCAN_TS)
def test_certified_route_within_radii_of_oracle(t):
    point = EvalPoint(t)
    em = zeta_prime_em(point, default_em_config(point, for_derivative=True))
    oracle = zeta_prime_oracle(point)
    assert em.converged and oracle.converged
    assert abs(em.value - oracle.value) <= em.error_bound + oracle.error_bound


class TestEtaOracle:
    def test_zeta2_with_60_terms(self):
        r = eta_oracle(S2, 60)
        assert abs(r.value - ZETA2) < 1e-12

    def test_zeta_half_self_consistency(self):
        half = EvalPoint(t=0.0, sigma=0.5)
        a = eta_oracle(half, 60)
        b = eta_oracle(half, 120)
        assert abs(a.value - b.value) <= a.error_bound + b.error_bound
        assert a.value.real == pytest.approx(-1.4603545088, abs=1e-9)

    def test_cross_validation_at_t100(self):
        point = EvalPoint(t=100.0)
        em = zeta_em(point, default_em_config(point))
        eta = eta_oracle(point, 200)
        assert abs(em.value - eta.value) <= em.error_bound + eta.error_bound

    def test_minimum_terms(self):
        with pytest.raises(ValueError):
            eta_oracle(S2, 9)

    def test_denominator_zero_guard(self):
        # 1 - 2^{1-s} vanishes at s = 1 (sigma = 1, t = 0)
        with pytest.raises(ZeroDivisionError):
            eta_oracle(EvalPoint(t=0.0, sigma=1.0), 50)

    def test_cross_oracle_agreement_random_points(self):
        rng = np.random.default_rng(12345)
        for _ in range(25):
            t = math.exp(rng.uniform(0.0, math.log(1e4)))
            point = EvalPoint(t=t)
            em = zeta_em(point, default_em_config(point))
            eta = eta_oracle(point, default_eta_terms(t))
            assert abs(em.value - eta.value) <= em.error_bound + eta.error_bound, t


class TestZetaPrimeOracle:
    def test_calibration_at_2(self):
        r = zeta_prime_oracle(S2)
        assert r.converged
        oracle, oracle_err = direct_zeta_prime_2_oracle(10**6)
        assert abs(r.value - oracle) < 1e-8 + oracle_err

    def test_conjugate_symmetry(self):
        plus = zeta_prime_oracle(EvalPoint(t=40.0))
        minus = zeta_prime_oracle(EvalPoint(t=-40.0))
        assert abs(minus.value - plus.value.conjugate()) <= (
            plus.error_bound + minus.error_bound
        )

    def test_pole_guard(self):
        with pytest.raises(ValueError):
            zeta_prime_oracle(EvalPoint(t=0.3, sigma=1.2))

    def test_certified_complex_invariants(self):
        with pytest.raises(ValueError):
            CertifiedComplex(value=1 + 0j, error_bound=-1.0)
        with pytest.raises(ValueError):
            CertifiedComplex(value=1 + 0j, error_bound=math.inf)


def test_derivative_integral_identity_small_n():
    """The truncated-derivative identity at small N: the log partial sum
    plus the two boundary terms plus the two tail integrals reproduces the
    derivative.  Tail integrals are summed interval-by-interval in closed
    form (the kernel is linear on each [n, n+1]) with an integral bound on
    the truncated part."""
    for s in (complex(2.0, 0.0), complex(1.5, 3.0)):
        N, U = 10, 200_000
        n = np.arange(1, N + 1, dtype=np.float64)
        log_head = complex(np.sum(np.log(n) * np.exp(-s * np.log(n))))

        m = np.arange(N, U, dtype=np.float64)

        def anti_pow(u, a):
            # integral of u^a du
            return u ** (a + 1) / (a + 1)

        def anti_pow_log(u, a):
            # integral of u^a log u du
            return u ** (a + 1) * (np.log(u) / (a + 1) - 1.0 / (a + 1) ** 2)

        lo, hi = m, m + 1.0
        # integral over [n, n+1] of (u - n) u^{-s-1} du
        block_a = (
            anti_pow(hi, -s) - anti_pow(lo, -s)
            - lo * (anti_pow(hi, -s - 1) - anti_pow(lo, -s - 1))
        )
        a_val = -complex(np.sum(block_a))
        # integral over [n, n+1] of (u - n) u^{-s-1} log u du
        block_b = (
            anti_pow_log(hi, -s) - anti_pow_log(lo, -s)
            - lo * (anti_pow_log(hi, -s - 1) - anti_pow_log(lo, -s - 1))
        )
        b_val = s * complex(np.sum(block_b))
        sigma = s.real
        tail_budget = U ** (-sigma) / sigma + abs(s) * U ** (-sigma) * (
            math.log(U) / sigma + 1.0 / sigma**2
        )

        c_val = -1.0 / ((s - 1) ** 2 * N ** (s - 1))
        d_val = -math.log(N) / ((s - 1) * N ** (s - 1))
        rhs = -log_head + a_val + b_val + c_val + d_val

        point = EvalPoint(t=s.imag, sigma=s.real)
        lhs = zeta_prime_em(point, EMConfig(N=3000, v=8))
        assert abs(lhs.value - rhs) <= lhs.error_bound + tail_budget + 1e-10
