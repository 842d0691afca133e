import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zetabounds.numerics import (
    _CHUNK,
    _EXACT_MIN_TERMS,
    BERNOULLI_MAX_M,
    EPS,
    QuadratureResult,
    bernoulli_number,
    compensated_complex_sum,
    compensated_sum,
    geometric_grid,
    integrate_adaptive,
)
from zetabounds import numerics, zeta
from zetabounds.zeta import _MAX_V


class TestCompensatedSum:
    def test_empty(self):
        assert compensated_sum([]) == 0.0

    def test_exact_small_integers(self):
        assert compensated_sum([1.0, 2.0, 3.0]) == 6.0
        assert compensated_sum([1e16, 1.0, -1e16]) == 1.0

    def test_tenth_million_times(self):
        # oracle: exact rational arithmetic
        exact = Fraction(1, 10) * 10**6
        value = compensated_sum([0.1] * 10**6)
        assert abs(value - float(exact)) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            compensated_sum([1.0, math.inf])
        with pytest.raises(ValueError):
            compensated_sum([math.nan])

    def test_deterministic(self):
        data = [math.sin(i) * 10**(i % 7) for i in range(2000)]
        assert compensated_sum(data) == compensated_sum(list(data))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-10**6, max_value=10**6).map(lambda n: n / 256),
            max_size=300,
        )
    )
    def test_error_bound_vs_exact_rationals(self, xs):
        # every x is exactly representable, so Fraction summation is exact
        exact = sum(Fraction(x) for x in xs) if xs else Fraction(0)
        budget = 2 * EPS * sum(abs(x) for x in xs)
        assert abs(compensated_sum(xs) - float(exact)) <= budget + 1e-300

    def test_error_bound_thousand_trials(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 400))
            xs = (rng.integers(-10**6, 10**6, size=n) / 64.0).tolist()
            exact = sum(Fraction(x) for x in xs)
            budget = 2 * EPS * sum(abs(x) for x in xs)
            assert abs(compensated_sum(xs) - float(exact)) <= budget + 1e-300

    def test_complex_sum_matches_fsum(self):
        rng = np.random.default_rng(0)
        for n in (500, 5000):  # one size on each side of the fsum threshold
            arr = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = compensated_complex_sum(arr)
            assert got.real == math.fsum(arr.real)
            assert got.imag == math.fsum(arr.imag)


# Sizes around every boundary of compensated_complex_sum: the fsum threshold,
# one bincount chunk, several chunks with a ragged tail, and a long array.
EXACT_SIZES = [
    0, 1, _EXACT_MIN_TERMS - 1, _EXACT_MIN_TERMS, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7, 10**5,
]


def assert_fsum_bits(re, im):
    """compensated_complex_sum(re + i im) has the bits of math.fsum, part by part."""
    arr = np.empty(len(re), dtype=np.complex128)
    arr.real, arr.imag = re, im
    got = compensated_complex_sum(arr)
    assert got.real.hex() == math.fsum(arr.real).hex()
    assert got.imag.hex() == math.fsum(arr.imag).hex()
    return got


FINITE = st.floats(-1e300, 1e300)


def wide_exponents(rng, n):
    # magnitudes from the smallest subnormal to 1e300, mixed signs
    mags = np.exp(rng.uniform(math.log(5e-324), math.log(1e300), size=n))
    mags[rng.random(n) < 0.05] = 5e-324
    return np.where(rng.random(n) < 0.5, -mags, mags)


class TestExactComplexSum:
    @pytest.mark.parametrize("n", EXACT_SIZES)
    def test_wide_exponents(self, n):
        rng = np.random.default_rng(n)
        assert_fsum_bits(wide_exponents(rng, n), wide_exponents(rng, n))

    @pytest.mark.parametrize("n", EXACT_SIZES)
    def test_cancellation_gives_positive_zero(self, n):
        rng = np.random.default_rng(n + 1)
        half = wide_exponents(rng, n // 2)
        re = rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
        got = assert_fsum_bits(re, re[::-1])
        assert got.real.hex() == got.imag.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("n", EXACT_SIZES[2:])
    def test_round_half_even_ties(self, n):
        # head + 2^-53 lies halfway between two doubles: pairs x, -x that
        # cancel, plus two terms of 2^-54, make up the tail
        rng = np.random.default_rng(n + 3)
        pairs = wide_exponents(rng, (n - 3) // 2)
        tail = np.concatenate([pairs, -pairs, [2.0**-54, 2.0**-54], np.zeros((n - 3) % 2)])
        ties = {1.0: 1.0, 1.0 + 2.0**-52: 1.0 + 2.0**-51}  # round half to even
        for head, rounded in ties.items():
            for sign in (1.0, -1.0):
                re = np.concatenate([[sign * head], rng.permutation(sign * tail)])
                got = assert_fsum_bits(re, re[::-1])
                assert got.real == got.imag == sign * rounded

    @pytest.mark.parametrize("n", [_CHUNK, 3 * _CHUNK + 7, 10**5])
    def test_maximal_mantissas(self, n):
        # (2^53 - 1) 2^k fills both halves of every bin they land in
        rng = np.random.default_rng(n + 2)
        k = rng.integers(-1000, 950, size=n)
        k[: n // 2] = 3  # half of them in one bin
        re = np.ldexp(float(2**53 - 1), k) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
        got = assert_fsum_bits(re, np.ldexp(float(2**53 - 1), -k - 53))
        assert got.real == float(sum(map(Fraction, re.tolist())))

    @pytest.mark.parametrize("flush_terms", [1000, _CHUNK])
    def test_several_flushes(self, flush_terms, monkeypatch):
        # a second block needs over 2^26 terms; smaller blocks run the same path
        monkeypatch.setattr(numerics, "_FLUSH_TERMS", flush_terms)
        rng = np.random.default_rng(flush_terms)
        n = 3 * _CHUNK + 7
        assert_fsum_bits(wide_exponents(rng, n), wide_exponents(rng, n))
        k = rng.integers(-1000, 950, size=n)
        assert_fsum_bits(np.ldexp(float(2**53 - 1), k), -np.ldexp(float(2**53 - 1), k // 2))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=_EXACT_MIN_TERMS, max_value=3 * _CHUNK + 7).flatmap(
            lambda n: st.tuples(*[arrays(np.float64, n, elements=FINITE, fill=FINITE)] * 2)
        )
    )
    def test_matches_fsum_property(self, parts):
        # finite |x| <= 1e300, sizes above the fsum threshold
        assert_fsum_bits(*parts)

    @pytest.mark.parametrize("log_weighted", [False, True])
    def test_evaluator_power_sums(self, log_weighted, monkeypatch):
        # the arrays zeta_em / zeta_prime_em sum at their default config
        seen = []

        def recording(values):
            seen.append((np.array(values), compensated_complex_sum(values)))
            return seen[-1][1]

        monkeypatch.setattr(zeta, "compensated_complex_sum", recording)
        for t in geometric_grid(10.0, 1e5, 81):
            point = zeta.EvalPoint(t)
            N = zeta.default_em_config(point, for_derivative=log_weighted).N
            zeta._power_sums(point.s, N, log_weighted)
        assert len(seen) == 81 and max(arr.size for arr, _ in seen) > 3 * _CHUNK
        for arr, got in seen:
            assert got.real.hex() == math.fsum(arr.real).hex()
            assert got.imag.hex() == math.fsum(arr.imag).hex()

    def test_rejects_non_finite(self):
        for n in (10, 10**4):
            arr = np.ones(n, dtype=np.complex128)
            arr[n // 2] = complex(0.0, math.nan)
            with pytest.raises(ValueError):
                compensated_complex_sum(arr)


class TestBernoulli:
    def test_b2(self):
        assert bernoulli_number(2) == pytest.approx(1 / 6, abs=0)

    def test_b4(self):
        assert bernoulli_number(4) == pytest.approx(-1 / 30, abs=0)

    def test_b12_known_rational(self):
        assert bernoulli_number(12) == pytest.approx(-691 / 2730, rel=1e-15)

    def test_against_independent_oracle_up_to_30(self):
        sympy = pytest.importorskip("sympy")
        for m in range(2, 32, 2):
            exact = sympy.bernoulli(m)
            mine = bernoulli_number(m)
            assert mine == pytest.approx(float(exact), rel=4 * EPS), m

    def test_against_mpmath_up_to_cap(self):
        # every order EMConfig accepts needs B_2 .. B_{2 _MAX_V}; each is
        # the correctly rounded exact value
        mpmath = pytest.importorskip("mpmath")
        assert BERNOULLI_MAX_M == 2 * _MAX_V
        with mpmath.workdps(60):
            for m in range(2, BERNOULLI_MAX_M + 1, 2):
                assert bernoulli_number(m) == float(mpmath.bernoulli(m)), m

    def test_domain_errors(self):
        for bad in (1, 3, 0, -2, 2 * _MAX_V + 2, 2.0):
            with pytest.raises(ValueError):
                bernoulli_number(bad)


class TestQuadrature:
    def test_constant(self):
        r = integrate_adaptive(np.ones_like, 0.0, 1.0, 1e-12)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-13)

    def test_sine_half_period(self):
        r = integrate_adaptive(np.sin, 0.0, math.pi, 1e-12)
        assert r.converged
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_oscillatory_self_consistency_under_refinement(self):
        def f(x):
            return np.sin(10 * np.log(x) + 2 * math.pi * x) / x**1.5 * np.log(x)

        r1 = integrate_adaptive(f, 3.0, 10.0, 1e-10, min_wavelength=0.5)
        r2 = integrate_adaptive(f, 3.0, 10.0, 1e-10, min_wavelength=0.25)
        assert r1.converged and r2.converged
        assert abs(r1.value - r2.value) < 1e-9

    def test_error_estimate_is_honest_on_known_integral(self):
        # integral of x^3 e^{-x} over [0, 4] has a closed form
        truth = 6.0 - 142.0 * math.exp(-4.0)
        r = integrate_adaptive(lambda x: x**3 * np.exp(-x), 0.0, 4.0, 1e-9)
        assert r.converged
        assert abs(r.value - truth) <= r.error_estimate + 1e-15

    def test_tightening_tol_shrinks_error(self):
        def f(x):
            return np.sin(40.0 * x) * np.exp(-x)

        errs = []
        for tol in (1e-4, 1e-7, 1e-10):
            r = integrate_adaptive(f, 0.0, 5.0, tol, min_wavelength=2 * math.pi / 40)
            assert r.converged
            errs.append(r.error_estimate)
        assert errs[0] >= errs[1] >= errs[2]

    def test_tightening_on_log_weighted_oscillatory_family(self):
        # the integrand family the verification sweeps feed through here:
        # products of sin(t log x) / sin(2 pi v x) with a log weight
        t, v, sigma, a, b = 30.0, 2, 0.5, 7.0, 21.0

        def f(x):
            return (
                np.sin(t * np.log(x))
                * np.sin(2 * math.pi * v * x)
                * np.log(x)
                / x ** (1 + sigma)
            )

        wavelength = 2 * math.pi / (t / a + 2 * math.pi * v)
        errs = []
        for tol in (1e-6, 1e-9, 1e-12):
            r = integrate_adaptive(f, a, b, tol, min_wavelength=wavelength)
            assert r.converged
            errs.append(r.error_estimate)
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] <= 1e-12

    def test_cap_flags_nonconvergence(self):
        def nasty(x):
            return np.sin(1.0 / (x + 1e-9)) / np.sqrt(x + 1e-9)

        r = integrate_adaptive(nasty, 0.0, 1.0, 1e-14, max_subdivisions=5)
        assert not r.converged

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 1.0, 0.0, 1e-6)
        with pytest.raises(ValueError):
            integrate_adaptive(np.sin, 0.0, 1.0, -1e-6)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    @pytest.mark.parametrize("min_wavelength", [None, 1.0])
    def test_non_finite_endpoints_rejected_before_any_evaluation(self, a, b, min_wavelength):
        def never_called(x):
            raise AssertionError("integrand evaluated")

        with pytest.raises(ValueError, match="requires finite a and b"):
            integrate_adaptive(never_called, a, b, 1e-6, min_wavelength=min_wavelength)

    @pytest.mark.parametrize("poles, min_wavelength, panel", [
        ((0.5,), None, "[0.0, 1.0]"),
        # panels [0, .25], [.25, .5], [.5, .75], [.75, 1]; poles at the
        # midpoints of the second and fourth
        ((0.375, 0.875), 0.25, "[0.25, 0.5]"),
    ], ids=["one_panel", "four_panels"])
    def test_non_finite_integrand_names_leftmost_initial_panel(self, poles, min_wavelength, panel):
        def f(x):
            return np.where(np.isin(x, poles), np.inf, x)

        message = re.escape(f"integrand not finite on {panel}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_adaptive(f, 0.0, 1.0, 1e-6, min_wavelength=min_wavelength)

    def test_non_finite_integrand_names_leftmost_bisection_child(self):
        # one initial panel, which does not converge; both children of its
        # bisection have a pole at their midpoint
        def f(x):
            return np.where((x == 0.25) | (x == 0.75), np.inf, np.sqrt(x))

        with pytest.raises(ValueError, match=r"^integrand not finite on \[0\.0, 0\.5\]$"):
            integrate_adaptive(f, 0.0, 1.0, 1e-14)

    def test_integrand_must_return_node_shape(self):
        with pytest.raises(ValueError, match="array of its shape"):
            integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-6)

    def test_result_invariants(self):
        r = integrate_adaptive(lambda x: x * x, 0.0, 2.0, 1e-10)
        assert isinstance(r, QuadratureResult)
        assert r.error_estimate >= 0
        assert r.value == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_geometric_grid_endpoints_and_monotone():
    g = geometric_grid(2.0, 512.0, 9)
    assert g[0] == 2.0 and g[-1] == 512.0
    assert all(b > a for a, b in zip(g, g[1:]))
    assert geometric_grid(5.0, 10.0, 1) == [5.0]
