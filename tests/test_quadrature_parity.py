"""The batched Gauss-Legendre rule against a scalar reference and mpmath.

``integrate_gauss_legendre`` evaluates every node of every panel in one
integrand call; the scalar rule of ``reference_quadrature`` evaluates one
node per call.  Given the same node values they must agree bit for bit.
The lemma integrands of checks 2.1 and 2.2 use numpy's log, sin, cos and
power, which may differ from math's by an ulp, so there the batched value
must lie within its radius of the scalar one, of the same rule at a
thousandth of the tolerance, and of mpmath at 20 digits.
"""

import math

import numpy as np
import pytest

from reference_quadrature import (
    integrate_gauss_legendre_scalar,
    oscillatory_tail_draws,
    partial_integration_draws,
)
from zetabounds import numerics, verify
from zetabounds.numerics import EPS
from zetabounds.verify import SampleSpec, verify_lemma

# (integrand, a, b, tol): arithmetic only, so numpy and Python give the
# same node values
ARITHMETIC_CASES = {
    "peak_refines": (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0, 1e-9),
    # a tol below the rounding of the values themselves: more nodes
    "peak_at_floor": (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0, 1e-15),
    "cubic_many_panels": (lambda x: x * x * x - 2.0 * x, 0.0, 3.0, 1e-12),
    "offset_peak_panels": (lambda x: 1.0 / (1e-4 + (x - 0.3) * (x - 0.3)), 0.0, 1.0, 1e-8),
    "rational_tail": (lambda x: 1.0 / (x * x * x + 1.0), 0.5, 40.0, 1e-11),
}


def _unit_bound(mid, re_axis, im_axis):
    return np.ones_like(re_axis)


def _spy_nodes(monkeypatch):
    """The node counts integrate_gauss_legendre picks, in call order."""
    picked = []
    rule = numerics.gauss_legendre

    def spy(n):
        picked.append(n)
        return rule(n)

    monkeypatch.setattr(numerics, "gauss_legendre", spy)
    return picked


@pytest.mark.parametrize("name", sorted(ARITHMETIC_CASES))
@pytest.mark.parametrize("panels", [4000, 3])
def test_bit_identical_to_scalar_driver(monkeypatch, name, panels):
    # bits only: the unit ellipse bound serves to pick n, not to certify
    f, a, b, tol = ARITHMETIC_CASES[name]
    wavelength = (b - a) / (8 * panels)
    picked = _spy_nodes(monkeypatch)
    got, _ = numerics.integrate_gauss_legendre(f, a, b, tol, _unit_bound, wavelength, 0.0)
    want = integrate_gauss_legendre_scalar(f, a, b, picked[-1], wavelength)
    assert got.hex() == want.hex()


def test_parity_cases_refine():
    # 1 / (1e-3 + z^2) has poles at +-0.0316i: no Bernstein ellipse of one
    # panel over [-1, 1] misses them, while panels 0.08 wide certify the
    # integral.  On an ellipse |1e-3 + z^2| >= 1e-3 + min (Re z)^2 - B^2.
    def bound(mid, re_axis, im_axis):
        near = np.maximum(np.abs(mid) - re_axis, 0.0)
        gap = 1e-3 + near * near - im_axis * im_axis
        return np.where(gap > 0.0, 1.0 / gap, np.inf)

    f, a, b, tol = ARITHMETIC_CASES["peak_refines"]
    with pytest.raises(ArithmeticError, match="no Bernstein ellipse"):
        numerics.integrate_gauss_legendre(f, a, b, tol, bound, b - a, 0.0)
    # each node value: three roundings of a value at most 1e3
    value, radius = numerics.integrate_gauss_legendre(f, a, b, tol, bound, 0.01, 3e3 * EPS)
    root = math.sqrt(1e-3)
    assert abs(value - 2.0 * math.atan(1.0 / root) / root) <= radius <= 1e-9 + 1e-11


def _replay_with_reference(monkeypatch, check_id, spec, draws):
    """Run a check with every quadrature answered by the scalar reference
    on the scalar integrand; returns its report and (batched value,
    radius, reference value) per call."""
    pending = iter(draws)
    picked = _spy_nodes(monkeypatch)
    triples = []

    def integrate(f, a, b, tol, ellipse_bound, wavelength, node_err):
        g, ra, rb, rtol, rwavelength, _ = next(pending)
        assert (a, b, tol, wavelength) == (ra, rb, rtol, rwavelength)
        args = (a, b, tol, ellipse_bound, wavelength, node_err)
        got, radius = numerics.integrate_gauss_legendre(f, *args)
        want = integrate_gauss_legendre_scalar(g, a, b, picked[-1], wavelength)
        triples.append((got, radius, want))
        return want, radius

    monkeypatch.setattr(verify, "integrate_gauss_legendre", integrate)
    report = verify_lemma(check_id, spec)
    assert next(pending, None) is None
    return report, triples


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("check_id", ["2.1", "2.2"])
def test_lemma_reports_hold_against_scalar_reference(monkeypatch, check_id, seed):
    spec = SampleSpec(samples=20, seed=seed)
    if check_id == "2.1":
        draws = partial_integration_draws(seed, spec.samples)
    else:
        draws = oscillatory_tail_draws(seed, spec.samples, verify._OSC_VARIANTS)
    got = verify_lemma(check_id, spec)
    want, triples = _replay_with_reference(monkeypatch, check_id, spec, draws)
    assert (got.samples, got.violations, got.notes) == (want.samples, want.violations, want.notes)
    assert len(triples) == spec.samples
    for new, radius, ref in triples:
        assert abs(new - ref) <= radius


def _recorded_quadratures(monkeypatch, check_id, spec):
    """Run a check and return, per quadrature call, (value, radius, value
    of the same integral at a thousandth of its tol)."""
    calls = []

    def recording(f, a, b, tol, *args):
        value, radius = numerics.integrate_gauss_legendre(f, a, b, tol, *args)
        fine, _ = numerics.integrate_gauss_legendre(f, a, b, tol / 1000, *args)
        calls.append((value, radius, fine))
        return value, radius

    monkeypatch.setattr(verify, "integrate_gauss_legendre", recording)
    verify_lemma(check_id, spec)
    return calls


@pytest.mark.parametrize("check_id", ["2.1", "2.2a", "2.2b", "2.2c", "2.2d"])
def test_lemma_values_within_radius_of_a_finer_rule(monkeypatch, check_id):
    calls = _recorded_quadratures(monkeypatch, check_id, SampleSpec(samples=200, seed=21))
    assert len(calls) == 200
    for value, radius, fine in calls:
        assert abs(value - fine) <= radius


def _split_points(mp, a, b, wavelength):
    n = math.ceil((b - a) / (8 * wavelength))
    return [mp.mpf(a) + (mp.mpf(b) - mp.mpf(a)) * k / n for k in range(n + 1)]


def test_partial_integration_sample_against_mpmath(monkeypatch):
    mp = pytest.importorskip("mpmath")
    calls = _recorded_quadratures(monkeypatch, "2.1", SampleSpec(samples=2, seed=1))
    draws = partial_integration_draws(1, 2)
    for (_, a, b, _, wavelength, p), (value, radius, _) in zip(draws, calls):
        with mp.workdps(20):
            c, d, pw, amp, w, phi = (mp.mpf(p[k]) for k in ("c", "d", "p", "amp", "w", "phi"))
            truth = mp.quad(
                lambda x: c * (x + d) ** (-pw) * amp * w * mp.cos(w * x + phi),
                _split_points(mp, a, b, wavelength),
            )
        assert abs(value - float(truth)) <= radius


MP_KERNELS = {
    "2.2a": lambda mp, tl, w, sign: mp.sin(tl + sign * w),
    "2.2b": lambda mp, tl, w, sign: mp.sin(tl + w) + sign * mp.sin(tl - w),
    "2.2c": lambda mp, tl, w, sign: mp.sin(tl) * mp.sin(w),
    "2.2d": lambda mp, tl, w, sign: mp.cos(tl) * mp.sin(w),
}


def test_oscillatory_tail_sample_against_mpmath(monkeypatch):
    # two samples per variant, with 2 pi exact: the check's float 2 pi is
    # part of its node error
    mp = pytest.importorskip("mpmath")
    for variant, mp_kernel in MP_KERNELS.items():
        calls = _recorded_quadratures(monkeypatch, variant, SampleSpec(samples=2, seed=3))
        draws = oscillatory_tail_draws(3, 2, (variant,))
        for (_, a, b, _, wavelength, p), (value, radius, _) in zip(draws, calls):
            with mp.workdps(20):
                t, sigma, sign = mp.mpf(p["t"]), mp.mpf(p["sigma"]), p["sign"]
                two_pi_v = 2 * mp.pi * p["v"]

                def integrand(x):
                    kernel = mp_kernel(mp, t * mp.log(x), two_pi_v * x, sign)
                    return kernel * mp.log(x) / x ** (1 + sigma)

                truth = mp.quad(integrand, _split_points(mp, a, b, wavelength))
            assert abs(value - float(truth)) <= radius, variant
