import math
import re
import sys
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zetabounds.numerics import (
    _BLOCK,
    _EXACT_MIN_TERMS,
    BERNOULLI_MAX_M,
    EPS,
    GL_WEIGHT_ERR,
    MAX_GL_NODES,
    bernoulli_number,
    compensated_sum,
    exact_sum,
    gauss_legendre,
    geometric_grid,
    integrate_gauss_legendre,
)
from zetabounds import numerics, verify, zeta
from zetabounds.zeta import _MAX_V

from reference_sums import compensated_complex_sum


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


# Sizes around every boundary of exact_sum: the fsum threshold, sizes of
# the evaluator's sums, one extraction block, one block plus one, and 10^5
# (one block and a ragged tail).
EXACT_SIZES = [
    0, 1, _EXACT_MIN_TERMS - 1, _EXACT_MIN_TERMS, 767, 768, 4096, 4097, 3 * 4096 + 7,
    _BLOCK, _BLOCK + 1, 10**5,
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

    @pytest.mark.parametrize("n", [4096, 3 * 4096 + 7, _BLOCK + 1, 10**5])
    def test_maximal_mantissas(self, n):
        # (2^53 - 1) 2^k: every bit of the mantissa set, so every round
        # extracts a part of each term until its residual is spent
        rng = np.random.default_rng(n + 2)
        k = rng.integers(-1000, 950, size=n)
        k[: n // 2] = 3  # half of them of one size
        re = np.ldexp(float(2**53 - 1), k) * np.where(rng.random(n) < 0.3, -1.0, 1.0)
        got = assert_fsum_bits(re, np.ldexp(float(2**53 - 1), -k - 53))
        assert got.real == float(sum(map(Fraction, re.tolist())))

    @pytest.mark.parametrize("block_terms", [1000, 4096])
    def test_several_blocks(self, block_terms, monkeypatch):
        # 10^5 terms make two blocks; smaller blocks run the same path
        # with a ragged last block
        monkeypatch.setattr(numerics, "_BLOCK", block_terms)
        rng = np.random.default_rng(block_terms)
        n = 3 * 4096 + 7
        assert_fsum_bits(wide_exponents(rng, n), wide_exponents(rng, n))
        k = rng.integers(-1000, 950, size=n)
        assert_fsum_bits(np.ldexp(float(2**53 - 1), k), -np.ldexp(float(2**53 - 1), k // 2))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=_EXACT_MIN_TERMS, max_value=3 * 4096 + 7).flatmap(
            lambda n: st.tuples(*[arrays(np.float64, n, elements=FINITE, fill=FINITE)] * 2)
        )
    )
    def test_matches_fsum_property(self, parts):
        # finite |x| <= 1e300, sizes above the fsum threshold, in blocks
        # of 4096 terms so that most arrays take several
        with patch.object(numerics, "_BLOCK", 4096):
            assert_fsum_bits(*parts)

    @pytest.mark.parametrize("log_weighted", [False, True])
    def test_evaluator_power_sums(self, log_weighted, monkeypatch):
        # the arrays zeta_em / zeta_prime_em sum at their default config
        seen = []

        def recording(values):
            seen.append((np.array(values), exact_sum(values)))
            return seen[-1][1]

        monkeypatch.setattr(zeta, "exact_sum", recording)
        for t in geometric_grid(10.0, 1e5, 81):
            point = zeta.EvalPoint(t)
            N = zeta.default_em_config(point, for_derivative=log_weighted).N
            zeta._power_sums(point.s, N, log_weighted)
        assert len(seen) == 2 * 81 and max(arr.size for arr, _ in seen) > 3 * 4096
        for arr, got in seen:
            assert got.hex() == math.fsum(arr).hex()

    def test_rejects_non_finite(self):
        for n in (10, 10**4):
            arr = np.ones(n, dtype=np.complex128)
            arr[n // 2] = complex(0.0, math.nan)
            with pytest.raises(ValueError):
                compensated_complex_sum(arr)
            for bad in (math.inf, -math.inf, math.nan):
                arr = np.ones(n)
                arr[-1] = bad
                with pytest.raises(ValueError):
                    exact_sum(arr)


class TestExactSumEdges:
    def test_overflowing_partial_sums_give_the_finite_sum(self):
        # math.fsum alone raises on the intermediate overflow
        values = [1e308] * 400 + [-1e308] * 399 + [1.0] * 100
        with pytest.raises(OverflowError):
            math.fsum(values)
        for order in (values, values[::-1], values[1::2] + values[::2]):
            assert exact_sum(np.array(order)) == 1e308

    def test_block_sums_that_overflow_fsum(self, monkeypatch):
        # the round sums of 16 blocks of 2^1012 - ulp would overflow fsum's
        # partials; 1024-term blocks keep sigma = 2^1023 finite up to 2^1012
        monkeypatch.setattr(numerics, "_BLOCK", 1024)
        monkeypatch.setattr(numerics, "_TOP_MAX", 2.0**1012)
        big = 2.0**1012 * (1.0 - 2.0**-53)
        values = np.array([big] * 8192 + [-big] * 8191 + [3.0] * 4)
        assert exact_sum(values) == big

    def test_extracted_parts_sum_exactly(self):
        # 2^17 - 2 terms, the most for m = 17: 1.0 sets sigma = 2^18, whose
        # ulp is 2^-34, and the others, just above half of it and with every
        # mantissa bit in use, round up to it, leaving residuals of nearly
        # the largest size, all negative, which the second round must sum
        # exactly.  Every term and part is a whole multiple of 2^-100.
        def exact(xs):
            return sum(int(x * 2.0**100) for x in xs)

        for seed in range(8):
            values = np.random.default_rng(seed).uniform(1.01, 1.1, 2**17 - 2) * 2.0**-35
            values[0] = 1.0
            parts = numerics._extract(values, 1.0)
            assert exact(parts) == exact(values.tolist()), seed

    @pytest.mark.parametrize("n", [2, 1000, 4 * 4096])
    def test_overflow_only_when_the_sum_overflows(self, n):
        with pytest.raises(OverflowError):
            exact_sum(np.full(n, 1e308))
        values = np.full(n, 2.0**1023)
        values[n // 2:] = -(2.0**1023)
        assert exact_sum(values) == (2.0**1023 if n % 2 else 0.0)

    @pytest.mark.parametrize("n", [1, 5, _EXACT_MIN_TERMS, _BLOCK + 3])
    def test_exact_zero_is_positive(self, n):
        for values in (np.full(n, -0.0), np.zeros(n)):
            assert exact_sum(values).hex() == "0x0.0p+0"
        assert exact_sum(np.empty(0)).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("n", [4, 2 * _EXACT_MIN_TERMS])
    def test_two_dimensional_input_raises(self, n):
        with pytest.raises(ValueError):
            exact_sum(np.ones((2, n // 2)))
        with pytest.raises(ValueError):
            compensated_complex_sum(np.ones((2, n // 2), dtype=np.complex128))

    @pytest.mark.parametrize("scale", [2**40, 16])
    def test_subnormal_terms(self, scale):
        # sigma = 2^-1022, then subnormal; and subnormal, then underflowed to 0
        rng = np.random.default_rng(scale)
        values = rng.integers(-scale, scale, size=3000) * 5e-324
        assert exact_sum(values) == float(sum(map(Fraction, values.tolist())))


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

    def test_numpy_integer_index(self):
        # np.int64(2) was refused as "requires even m in [2, 120]"
        for m in (np.int64(2), np.int32(12), np.uint8(120)):
            assert bernoulli_number(m) == bernoulli_number(int(m)), m
        for bad in (True, np.float64(2.0), 2.5):
            with pytest.raises(ValueError, match="m must be an integer"):
                bernoulli_number(bad)


def integrate_one(f, a, b, tol, ellipse_bound, wavelength, node_err):
    """One integral as a batch of one, f and its ellipse bound taking no
    owner: (value, radius) as floats."""
    values, radii = integrate_gauss_legendre(
        lambda x, owner: f(x), np.array([a]), np.array([b]), tol,
        lambda mid, re_axis, im_axis, owner: ellipse_bound(mid, re_axis, im_axis),
        np.array([wavelength]), np.array([node_err]),
    )
    return float(values[0]), float(radii[0])


def _box_bound(f_bound):
    """An ellipse bound from a bound on |f| over the box |Re z| <= x,
    |Im z| <= y around each ellipse, f_bound(x, y), for integrands whose
    modulus grows with |Re z| and |Im z|."""
    return lambda mid, re_axis, im_axis: f_bound(np.abs(mid) + re_axis, im_axis)


def _damped_sine(k):
    """sin(k x) e^-x and its ellipse bound cosh(k Im z) e^{-Re z}."""
    def bound(mid, re_axis, im_axis):
        return np.cosh(k * im_axis) * np.exp(re_axis - mid)

    return (lambda x: np.sin(k * x) * np.exp(-x)), bound


def _legendre_reference(mp, n, x):
    """The root of P_n next to the float x and its weight, by Newton's
    method at the working precision."""
    x = mp.mpf(x)
    for _ in range(4):
        p0, p1 = mp.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        x -= p1 / dp
    return x, 2 / ((1 - x * x) * dp * dp)


class TestQuadrature:
    def test_nodes_and_weights_against_mpmath(self):
        # every rule integrate_gauss_legendre can pick; the rounding bound
        # charges 2 eps per node and GL_WEIGHT_ERR per weight
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in range(4, MAX_GL_NODES + 1, 4):
                x, w = gauss_legendre(n)
                assert np.all(np.diff(x) > 0) and np.array_equal(x, -x[::-1])
                for xi, wi in zip(x[n // 2:], w[n // 2:]):
                    root, weight = _legendre_reference(mp, n, xi)
                    assert abs(xi - root) <= 2 * EPS * root, (n, xi)
                    assert abs(wi - weight) <= GL_WEIGHT_ERR * weight, (n, wi)

    def test_truncation_exponent_is_two_minus_two_n(self, monkeypatch):
        # the n-point rule's bound carries rho^(2 - 2n): at rho = 40 the
        # 4-point rule on cos(x / 2) errs by 1.1e-9, within 7.2e-9, while
        # rho^(-2n) would claim 4.5e-12
        monkeypatch.setattr(numerics, "RHO_GRID", (40.0,))
        k = 0.5
        value, radius = integrate_one(
            lambda x: np.cos(k * x), -1.0, 1.0, 1e-8, _box_bound(lambda x, y: np.cosh(k * y)),
            2 * math.pi / k, 4 * EPS,
        )
        err = abs(value - 2.0 * math.sin(k) / k)
        assert 1e-9 < err <= radius < 1e-8
        assert err > radius / 40.0**2

    @pytest.mark.parametrize("m, h, rho", [(1.0, 1.0, 2.0), (3.5, 0.25, 4.0), (0.2, 2.0, 1.5)])
    def test_radius_is_its_documented_formula(self, monkeypatch, m, h, rho):
        # f = 1 on one panel of half-length h, |f| <= m on the ellipse of the
        # one rho tried, and a tol that the 4-point rule meets: the radius is
        # the truncation bound (64/15) h m rho^(2 - 2n) / (rho^2 - 1), rounded
        # up, plus the rounding of the weights, products and sum, charged on
        # sum |w h f| = 2h, itself rounded up by 1 + 4 eps
        monkeypatch.setattr(numerics, "RHO_GRID", (rho,))
        truncation = 64.0 / 15.0 * h * m * rho ** (2 - 8) / (rho * rho - 1.0)
        value, radius = integrate_one(
            np.ones_like, 0.0, 2.0 * h, 10.0 * truncation,
            lambda mid, re_axis, im_axis: np.full(np.broadcast(mid, re_axis).shape, m),
            2.0 * h, 0.0,
        )
        rounding = (2.0 * EPS + GL_WEIGHT_ERR) * 2.0 * h * (1.0 + 4.0 * EPS)
        assert radius == pytest.approx(numerics._ROUND_UP * truncation + rounding, rel=1e-13, abs=0.0)
        assert abs(value - 2.0 * h) <= radius

    def test_constant(self):
        value, radius = integrate_one(
            np.ones_like, 0.0, 1.0, 1e-12, _box_bound(lambda x, y: np.ones_like(x)), 1.0, 0.0
        )
        assert abs(value - 1.0) <= radius <= 1e-12

    def test_sine_half_period(self):
        # |sin z| <= cosh(Im z)
        value, radius = integrate_one(
            np.sin, 0.0, math.pi, 1e-12, _box_bound(lambda x, y: np.cosh(y)), 2 * math.pi, 16 * EPS
        )
        assert abs(value - 2.0) <= radius <= 2e-12

    def test_oscillatory_self_consistency_under_refinement(self):
        # half the wavelength, twice the panels: both values hold their
        # radii; each node value is off by under 1e3 eps (phase 40 x <= 200)
        f, bound = _damped_sine(40.0)
        v1, r1 = integrate_one(f, 0.0, 5.0, 1e-10, bound, 2 * math.pi / 40, 1e3 * EPS)
        v2, r2 = integrate_one(f, 0.0, 5.0, 1e-10, bound, math.pi / 40, 1e3 * EPS)
        assert abs(v1 - v2) <= r1 + r2

    def test_error_estimate_is_honest_on_known_integral(self):
        # integral of x^3 e^{-x} over [0, 4] has a closed form; on the
        # ellipse |z^3 e^-z| <= (|mid| + A + B)^3 e^{A - mid}
        truth = 6.0 - 142.0 * math.exp(-4.0)

        def bound(mid, re_axis, im_axis):
            return (np.abs(mid) + re_axis + im_axis) ** 3 * np.exp(re_axis - mid)

        for tol in (1e-6, 1e-9, 1e-12):
            value, radius = integrate_one(
                lambda x: x**3 * np.exp(-x), 0.0, 4.0, tol, bound, 4.0, 1e2 * EPS
            )
            assert abs(value - truth) <= radius <= tol + 1e-12

    def test_tightening_tol_shrinks_error(self):
        f, bound = _damped_sine(40.0)
        truth = (40.0 - math.exp(-5.0) * (math.sin(200.0) + 40.0 * math.cos(200.0))) / 1601.0
        radii = []
        for tol in (1e-4, 1e-7, 1e-10):
            value, radius = integrate_one(
                f, 0.0, 5.0, tol, bound, 2 * math.pi / 40, 1e3 * EPS
            )
            assert abs(value - truth) <= radius <= tol + 2e-12
            radii.append(radius)
        assert radii[0] >= radii[1] >= radii[2]

    def test_tightening_on_log_weighted_oscillatory_family(self, monkeypatch):
        # the integrand and ellipse bound of a check 2.2c sample, at
        # tightening tolerances
        calls = []

        def recording(*args):
            calls.append(args)
            return integrate_gauss_legendre(*args)

        monkeypatch.setattr(verify, "integrate_gauss_legendre", recording)
        verify.verify_lemma("2.2c", verify.SampleSpec(samples=1, seed=5))
        f, a, b, _, bound, wavelength, node_err = calls[0]
        for i in range(a.size):  # each integral of the batch on its own
            one = slice(i, i + 1)
            results = [
                integrate_gauss_legendre(
                    lambda x, owner: f(x, owner + i), a[one], b[one], tol,
                    lambda mid, re_axis, im_axis, owner: bound(mid, re_axis, im_axis, owner + i),
                    wavelength[one], node_err[one],
                )
                for tol in (1e-6, 1e-9, 1e-12)
            ]
            radii = [float(radius[0]) for _, radius in results]
            assert radii[0] >= radii[1] >= radii[2]
            assert radii[2] <= 1e-12 + (b[i] - a[i]) * node_err[i] + 1e-12
            (v0, r0), (v2, r2) = results[0], results[2]
            assert abs(v0[0] - v2[0]) <= r0[0] + r2[0]

    def test_cap_flags_nonconvergence(self):
        # a finite bound that MAX_GL_NODES nodes cannot bring below tol, and
        # no finite bound at all, both raise rather than return a value
        huge, infinite = _box_bound(lambda x, y: 1e300 + 0 * x), _box_bound(lambda x, y: np.inf + x)
        with pytest.raises(ArithmeticError, match="needs more than 64 nodes on"):
            integrate_one(np.sin, 0.0, 1.0, 1e-14, huge, 1.0, 0.0)
        with pytest.raises(ArithmeticError, match="no Bernstein ellipse"):
            integrate_one(np.sin, 0.0, 1.0, 1e-6, infinite, 1.0, 0.0)

    def test_invalid_inputs(self):
        bound = _box_bound(lambda x, y: np.cosh(y))
        with pytest.raises(ValueError):
            integrate_one(np.sin, 1.0, 0.0, 1e-6, bound, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_one(np.sin, 0.0, 1.0, -1e-6, bound, 1.0, 0.0)
        for wavelength in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="wavelength must be positive and finite"):
                integrate_one(np.sin, 0.0, 1.0, 1e-6, bound, wavelength, 0.0)
        with pytest.raises(ValueError, match="1-D arrays of one shape"):
            integrate_gauss_legendre(np.sin, 0.0, 1.0, 1e-6, bound, 1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0)])
    @pytest.mark.parametrize("wavelength", [None, 1.0])
    def test_non_finite_endpoints_rejected_before_any_evaluation(self, a, b, wavelength):
        # the ends are checked first: not even the wavelength is read
        def never_called(*args):
            raise AssertionError("integrand or bound evaluated")

        with pytest.raises(ValueError, match="requires finite a < b"):
            integrate_gauss_legendre(
                never_called, np.array([1.0, a]), np.array([2.0, b]), 1e-6, never_called,
                wavelength, 0.0,
            )

    @pytest.mark.parametrize("bad, wavelength, panel", [
        ([(0.5, 1.0)], 1.0, "[0.0, 1.0]"),
        # wavelength 1/32: panels [0, .25], [.25, .5], [.5, .75], [.75, 1];
        # bad stretches in the second and the fourth
        ([(0.3, 0.5), (0.8, 1.0)], 1 / 32, "[0.25, 0.5]"),
    ], ids=["one_panel", "four_panels"])
    def test_non_finite_integrand_names_leftmost_initial_panel(self, bad, wavelength, panel):
        def f(x):
            inside = np.zeros(x.shape, dtype=bool)
            for lo, hi in bad:
                inside |= (lo < x) & (x < hi)
            return np.where(inside, np.inf, x)

        message = re.escape(f"integrand not finite on {panel}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_one(f, 0.0, 1.0, 1e-6, _box_bound(np.add), wavelength, 0.0)

    def test_integrand_must_return_node_shape(self):
        with pytest.raises(ValueError, match="array of its shape"):
            integrate_one(lambda x: 1.0, 0.0, 1.0, 1e-6, _box_bound(np.add), 1.0, 0.0)

    def test_result_invariants(self):
        # one integrand call over ceil((b - a) / (8 wavelength)) equal panels
        calls = []

        def f(x, owner):
            calls.append(x.size)
            return x * x

        bound = _box_bound(lambda x, y: x * x + y * y)
        values, radii = integrate_gauss_legendre(
            f, np.array([0.0]), np.array([2.0]), 1e-10,
            lambda mid, re_axis, im_axis, owner: bound(mid, re_axis, im_axis),
            np.array([2.0 / 24]), np.array([0.0]),
        )
        assert len(calls) == 1 and calls[0] % 3 == 0 and calls[0] // 3 % 4 == 0
        assert values.shape == radii.shape == (1,) and values.dtype == radii.dtype == np.float64
        assert 0 < radii[0] <= 1e-10 + 1e-12
        assert abs(values[0] - 8.0 / 3.0) <= radii[0]

    def test_empty_batch(self):
        def never_called(*args):
            raise AssertionError("integrand or bound evaluated")

        empty = np.empty(0)
        values, radii = integrate_gauss_legendre(
            never_called, empty, empty, 1e-6, never_called, empty, empty
        )
        assert values.shape == radii.shape == (0,)


def test_geometric_grid_endpoints_and_monotone():
    g = geometric_grid(2.0, 512.0, 9)
    assert g[0] == 2.0 and g[-1] == 512.0
    assert all(b > a for a, b in zip(g, g[1:]))
    assert geometric_grid(5.0, 10.0, 1) == [5.0]


def test_geometric_grid_needs_an_integer_count():
    # n = 2.5 used to fail in range() with a TypeError
    with pytest.raises(ValueError, match="n must be an integer, got 2.5"):
        geometric_grid(1.0, 2.0, 2.5)
    assert geometric_grid(1.0, 4.0, np.int64(3)) == geometric_grid(1.0, 4.0, 3)


@pytest.mark.parametrize("lo, hi", [
    (1e-300, 1e300),  # hi / lo overflows: gave [1e-300, inf, 1e300]
    (1e300, 1e-300),  # hi / lo underflows to 0: gave [1e300, 0.0, 1e-300]
    (5e-324, 1e5),
    (1e300, 1e-10),  # hi / lo = 1e-310, subnormal
])
def test_geometric_grid_rejects_ends_whose_ratio_is_not_normal(lo, hi):
    with pytest.raises(ValueError, match="grid ends must have a finite, normal ratio"):
        geometric_grid(lo, hi, 3)
    # one or two points have no interior point, and keep working
    assert geometric_grid(lo, hi, 1) == [lo]
    assert geometric_grid(lo, hi, 2) == [lo, hi]


def _parent_grid(lo, hi, n):
    """geometric_grid as it was before it checked hi / lo."""
    if n == 1:
        return [lo]
    ratio = (hi / lo) ** (1.0 / (n - 1))
    pts = [lo * ratio**i for i in range(n)]
    pts[-1] = hi
    return pts


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(min_value=5e-324, max_value=sys.float_info.max),
    hi=st.floats(min_value=5e-324, max_value=sys.float_info.max),
    n=st.integers(1, 40),
)
def test_geometric_grid_keeps_the_bits_of_every_grid_it_spaces(lo, hi, n):
    ratio = hi / lo
    if n > 2 and not (sys.float_info.min <= ratio < math.inf):
        with pytest.raises(ValueError, match="grid ends must have a finite, normal ratio"):
            geometric_grid(lo, hi, n)
        return
    grid = geometric_grid(lo, hi, n)
    assert [x.hex() for x in grid] == [x.hex() for x in _parent_grid(lo, hi, n)]
    assert all(0.0 < x < math.inf for x in grid)


def test_geometric_grid_keeps_edge_grids():
    assert geometric_grid(1.0, 2.0**-1022, 3) == [1.0, 2.0**-511, 2.0**-1022]
    assert geometric_grid(2.0**-1074, 2.0**-52, 3) == [2.0**-1074, 2.0**-563, 2.0**-52]
    assert geometric_grid(5.0, 5.0, 4) == [5.0] * 4


def test_integer_with_numpy_loaded_takes_numpy_integers_only():
    assert numerics._integer("n", np.int64(3)) == 3
    assert type(numerics._integer("n", np.int64(3))) is int
    assert numerics._integer("n", np.uint8(7)) == 7
    for value in (np.bool_(True), np.float64(3.0), True, 3.0):
        with pytest.raises(ValueError, match=f"n must be an integer, got {re.escape(repr(value))}"):
            numerics._integer("n", value)


@pytest.mark.parametrize("lo, hi", [
    (0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (math.nan, 2.0), (1.0, math.nan), (-math.inf, 1.0),
])
@pytest.mark.parametrize("n", [1, 3])
def test_geometric_grid_rejects_ends_it_cannot_space(lo, hi, n):
    # these gave ZeroDivisionError, complex points, [1.0, inf, inf] or NaNs
    with pytest.raises(ValueError, match="grid ends must be finite and positive"):
        geometric_grid(lo, hi, n)
