import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetabounds.numerics import (
    EPS,
    QuadratureResult,
    bernoulli_number,
    compensated_complex_sum,
    compensated_sum,
    geometric_grid,
    integrate_adaptive,
)


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
        arr = rng.normal(size=500) + 1j * rng.normal(size=500)
        got = compensated_complex_sum(arr)
        assert got.real == math.fsum(arr.real)
        assert got.imag == math.fsum(arr.imag)


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

    def test_domain_errors(self):
        for bad in (1, 3, 0, -2, 62, 2.0):
            with pytest.raises(ValueError):
                bernoulli_number(bad)


class TestQuadrature:
    def test_constant(self):
        r = integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-12)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-13)

    def test_sine_half_period(self):
        r = integrate_adaptive(math.sin, 0.0, math.pi, 1e-12)
        assert r.converged
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_oscillatory_self_consistency_under_refinement(self):
        def f(x):
            return math.sin(10 * math.log(x) + 2 * math.pi * x) / x**1.5 * math.log(x)

        r1 = integrate_adaptive(f, 3.0, 10.0, 1e-10, min_wavelength=0.5)
        r2 = integrate_adaptive(f, 3.0, 10.0, 1e-10, min_wavelength=0.25)
        assert r1.converged and r2.converged
        assert abs(r1.value - r2.value) < 1e-9

    def test_error_estimate_is_honest_on_known_integral(self):
        # integral of x^3 e^{-x} over [0, 4] has a closed form
        truth = 6.0 - 142.0 * math.exp(-4.0)
        r = integrate_adaptive(lambda x: x**3 * math.exp(-x), 0.0, 4.0, 1e-9)
        assert r.converged
        assert abs(r.value - truth) <= r.error_estimate + 1e-15

    def test_tightening_tol_shrinks_error(self):
        def f(x):
            return math.sin(40.0 * x) * math.exp(-x)

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
                math.sin(t * math.log(x))
                * math.sin(2 * math.pi * v * x)
                * math.log(x)
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
            return math.sin(1.0 / (x + 1e-9)) / math.sqrt(x + 1e-9)

        r = integrate_adaptive(nasty, 0.0, 1.0, 1e-14, max_subdivisions=5)
        assert not r.converged

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate_adaptive(math.sin, 1.0, 0.0, 1e-6)
        with pytest.raises(ValueError):
            integrate_adaptive(math.sin, 0.0, 1.0, -1e-6)

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
