"""The batched quadrature against the scalar reference and mpmath.

``integrate_adaptive`` evaluates many panels per integrand call; the
scalar driver of ``reference_quadrature`` evaluates one node per call.
Given the same node values they must agree bit for bit.  The lemma
integrands of checks 2.1 and 2.2 use numpy's log and power, which may
differ from math's by an ulp, so there the batched value must lie within
its own error estimate of the scalar one and of a 30-digit mpmath value.
"""

import math

import pytest

from reference_quadrature import (
    integrate_adaptive_scalar,
    oscillatory_tail_draws,
    partial_integration_draws,
)
from zetabounds import numerics, verify
from zetabounds.expsums import TWO_PI
from zetabounds.verify import SampleSpec, verify_lemma

# arithmetic only, so numpy and Python give the same node values
ARITHMETIC_CASES = {
    "peak_refines": (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0, 1e-9, None),
    # tol below the sum of the panels' error floors: both stop at the floor
    "peak_at_floor": (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0, 1e-12, None),
    "cubic_many_panels": (lambda x: x * x * x - 2.0 * x, 0.0, 3.0, 1e-12, 0.1),
    "offset_peak_panels": (lambda x: 1.0 / (1e-4 + (x - 0.3) * (x - 0.3)), 0.0, 1.0, 1e-8, 0.05),
    "rational_tail": (lambda x: 1.0 / (x * x * x + 1.0), 0.5, 40.0, 1e-11, 7.0),
}


@pytest.mark.parametrize("name", sorted(ARITHMETIC_CASES))
@pytest.mark.parametrize("max_subdivisions", [4000, 3])
def test_bit_identical_to_scalar_driver(name, max_subdivisions):
    f, a, b, tol, wavelength = ARITHMETIC_CASES[name]
    kwargs = {"min_wavelength": wavelength, "max_subdivisions": max_subdivisions}
    got = numerics.integrate_adaptive(f, a, b, tol, **kwargs)
    want = integrate_adaptive_scalar(f, a, b, tol, **kwargs)
    assert got == want  # value, error estimate, subdivisions, converged
    assert got.value.hex() == want.value.hex()


def test_parity_cases_refine():
    f, a, b, tol, wavelength = ARITHMETIC_CASES["peak_refines"]
    r = numerics.integrate_adaptive(f, a, b, tol, min_wavelength=wavelength)
    assert r.converged and r.subdivisions > 10
    root = math.sqrt(1e-3)
    assert r.value == pytest.approx(2.0 * math.atan(1.0 / root) / root, rel=1e-12)


def _replay_with_reference(monkeypatch, check_id, spec, draws):
    """Run a check with every quadrature answered by the scalar reference
    on the scalar integrand; returns its report and (batched, reference)
    results per call."""
    pending = iter(draws)
    pairs = []

    def integrate(f, a, b, tol, *, min_wavelength):
        g, ra, rb, rtol, rwavelength, _ = next(pending)
        assert (a, b, tol, min_wavelength) == (ra, rb, rtol, rwavelength)
        got = numerics.integrate_adaptive(f, a, b, tol, min_wavelength=min_wavelength)
        want = integrate_adaptive_scalar(g, a, b, tol, min_wavelength=min_wavelength)
        pairs.append((got, want))
        return want

    monkeypatch.setattr(verify, "integrate_adaptive", integrate)
    report = verify_lemma(check_id, spec)
    assert next(pending, None) is None
    return report, pairs


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("check_id", ["2.1", "2.2"])
def test_lemma_reports_hold_against_scalar_reference(monkeypatch, check_id, seed):
    spec = SampleSpec(samples=20, seed=seed)
    if check_id == "2.1":
        draws = partial_integration_draws(seed, spec.samples)
    else:
        draws = oscillatory_tail_draws(seed, spec.samples, verify._OSC_VARIANTS)
    got = verify_lemma(check_id, spec)
    want, pairs = _replay_with_reference(monkeypatch, check_id, spec, draws)
    assert (got.samples, got.violations, got.notes) == (want.samples, want.violations, want.notes)
    assert len(pairs) == spec.samples
    for new, ref in pairs:
        assert new.converged == ref.converged
        assert abs(new.value - ref.value) <= new.error_estimate


def _first_quadrature(monkeypatch, check_id, seed):
    calls = []

    def integrate(f, a, b, tol, *, min_wavelength):
        result = numerics.integrate_adaptive(f, a, b, tol, min_wavelength=min_wavelength)
        calls.append(result)
        return result

    monkeypatch.setattr(verify, "integrate_adaptive", integrate)
    verify_lemma(check_id, SampleSpec(samples=1, seed=seed))
    return calls[0]


def _split_points(mp, a, b, wavelength):
    n = math.ceil((b - a) / wavelength)
    return [mp.mpf(a) + (mp.mpf(b) - mp.mpf(a)) * k / n for k in range(n + 1)]


def test_partial_integration_sample_against_mpmath(monkeypatch):
    mp = pytest.importorskip("mpmath")
    _, a, b, _, wavelength, p = next(partial_integration_draws(1, 1))
    got = _first_quadrature(monkeypatch, "2.1", 1)
    assert got.converged
    with mp.workdps(30):
        c, d, pw, amp, w, phi = (mp.mpf(p[k]) for k in ("c", "d", "p", "amp", "w", "phi"))
        truth = mp.quad(
            lambda x: c * (x + d) ** (-pw) * amp * w * mp.cos(w * x + phi),
            _split_points(mp, a, b, wavelength),
        )
    assert abs(got.value - float(truth)) <= got.error_estimate


def test_oscillatory_tail_sample_against_mpmath(monkeypatch):
    mp = pytest.importorskip("mpmath")
    _, a, b, _, wavelength, p = next(oscillatory_tail_draws(3, 1, ("2.2b",)))
    got = _first_quadrature(monkeypatch, "2.2b", 3)
    assert got.converged
    with mp.workdps(30):
        t, sigma, sign = mp.mpf(p["t"]), mp.mpf(p["sigma"]), p["sign"]
        two_pi_v = mp.mpf(TWO_PI) * p["v"]

        def integrand(x):
            tl, w = t * mp.log(x), two_pi_v * x
            return (mp.sin(tl + w) + sign * mp.sin(tl - w)) * mp.log(x) / x ** (1 + sigma)

        truth = mp.quad(integrand, _split_points(mp, a, b, wavelength))
    assert abs(got.value - float(truth)) <= got.error_estimate

