"""The batched Gauss-Legendre rule against a scalar reference and mpmath.

``integrate_gauss_legendre`` evaluates every node of every panel of a
batch of integrals in one integrand call; the scalar rule of
``reference_quadrature`` evaluates one node per call.  Given the same node
values they must agree bit for bit, and each integral of a batch must keep
the bits it has alone.
The lemma integrands of checks 2.1 and 2.2 use numpy's log, sin, cos and
power, which may differ from math's by an ulp, so there the batched value
must lie within its radius of the scalar one, of the same rule at a
thousandth of the tolerance, and of mpmath at 20 digits.
"""

import math
import re

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


def _unit_bound(mid, re_axis, im_axis, owner):
    return np.ones_like(re_axis)


def _one(f, a, b, wavelength, node_err=0.0):
    """Batch arguments for one integral of an owner-free integrand f."""
    one = (np.array([v]) for v in (a, b, wavelength, node_err))
    return (lambda x, owner: f(x), *one)


def _alone(args, i):
    """Integral i of a batch's arguments (f, a, b, tol, ellipse_bound,
    wavelength, node_err) as a batch of one; f and the bound still see
    owner i."""
    f, a, b, tol, ellipse_bound, wavelength, node_err = args
    one = slice(i, i + 1)
    return (
        lambda x, owner: f(x, owner + i), a[one], b[one], tol,
        lambda mid, re_axis, im_axis, owner: ellipse_bound(mid, re_axis, im_axis, owner + i),
        wavelength[one], node_err[one],
    )


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
    g, a_, b_, wavelength_, node_err = _one(f, a, b, wavelength)
    got, _ = numerics.integrate_gauss_legendre(g, a_, b_, tol, _unit_bound, wavelength_, node_err)
    want = integrate_gauss_legendre_scalar(f, a, b, picked[-1], wavelength)
    assert float(got[0]).hex() == want.hex()


def _peak_bound(c, shift=0.0):
    """On a Bernstein ellipse |c + (z - shift)^2| >= c + min (Re z -
    shift)^2 - B^2, B its imaginary semi-axis; c and shift scalars or one
    per integral."""
    c, shift = np.asarray(c), np.asarray(shift)

    def bound(mid, re_axis, im_axis, owner):
        c_, shift_ = (c[owner], shift[owner]) if c.ndim else (c, shift)
        near = np.maximum(np.abs(mid - shift_) - re_axis, 0.0)
        gap = c_ + near * near - im_axis * im_axis
        return np.where(gap > 0.0, 1.0 / gap, np.inf)

    return bound


def test_parity_cases_refine():
    # 1 / (1e-3 + z^2) has poles at +-0.0316i: no Bernstein ellipse of one
    # panel over [-1, 1] misses them, while panels 0.08 wide certify the
    # integral.  On an ellipse |1e-3 + z^2| >= 1e-3 + min (Re z)^2 - B^2.
    f, a, b, tol = ARITHMETIC_CASES["peak_refines"]
    g, a_, b_, wavelength, node_err = _one(f, a, b, b - a)
    with pytest.raises(ArithmeticError, match="no Bernstein ellipse"):
        numerics.integrate_gauss_legendre(g, a_, b_, tol, _peak_bound(1e-3), wavelength, node_err)
    # each node value: three roundings of a value at most 1e3
    g, a_, b_, wavelength, node_err = _one(f, a, b, 0.01, 3e3 * EPS)
    value, radius = numerics.integrate_gauss_legendre(
        g, a_, b_, tol, _peak_bound(1e-3), wavelength, node_err
    )
    root = math.sqrt(1e-3)
    assert abs(value[0] - 2.0 * math.atan(1.0 / root) / root) <= radius[0] <= 1e-9 + 1e-11


# a batch of peaks 1 / (c + (x - shift)^2) over [-1, 1]: several rule sizes
# and panel counts, one to forty panels
BATCH_C = np.array([1e-1, 1e-3, 1e-2, 1.0, 1e-3, 1e-1, 1e-2])
BATCH_SHIFT = np.array([0.0, 0.3, -0.5, 0.1, 0.0, 0.9, 0.25])
BATCH_PANELS = np.array([1, 40, 5, 1, 25, 3, 8])


def _peak_batch(c=BATCH_C, shift=BATCH_SHIFT, panels=BATCH_PANELS):
    """Batch arguments (f, a, b, tol, ellipse_bound, wavelength, node_err)
    of the peaks; each node value is three roundings of a value at most
    1 / c."""
    def f(x, owner):
        d = x - shift[owner]
        return 1.0 / (c[owner] + d * d)

    ones = np.ones(c.size)
    return (f, -ones, ones, 1e-9, _peak_bound(c, shift), 2.0 / (8 * panels), 3 * EPS / c)


def test_batch_equals_one_integral_batches(monkeypatch):
    # every bit of each value and radius, whatever else shares the batch
    picked = _spy_nodes(monkeypatch)
    args = _peak_batch()
    values, radii = numerics.integrate_gauss_legendre(*args)
    assert len(picked) >= 3  # several rule sizes in the one batch
    for i in range(BATCH_C.size):
        value, radius = numerics.integrate_gauss_legendre(*_alone(args, i))
        assert (float(values[i]).hex(), float(radii[i]).hex()) == \
            (float(value[0]).hex(), float(radius[0]).hex()), i
        root = math.sqrt(BATCH_C[i])
        truth = (math.atan((1.0 - BATCH_SHIFT[i]) / root)
                 + math.atan((1.0 + BATCH_SHIFT[i]) / root)) / root
        assert abs(values[i] - truth) <= radii[i] <= 1e-9 + 1e-11


def test_check_blocks_equal_one_sample_blocks():
    # check 2.2's block, all four variants in one call, against each sample
    # integrated alone: the kernel slices keep every bit
    spec = SampleSpec(samples=24, seed=7)
    block = next(verify._blocks(verify._oscillatory_tail_draws(spec, verify._OSC_VARIANTS)))
    assert sorted(set(block[0].tolist())) == [0.0, 1.0, 2.0, 3.0]
    fields = np.delete(block, 7, axis=0)  # every field but the bound
    values, radii = verify._oscillatory_tail_quadrature(verify._OSC_VARIANTS, *fields)
    for i in range(fields.shape[1]):
        one = fields[:, i:i + 1]
        value, radius = verify._oscillatory_tail_quadrature(verify._OSC_VARIANTS, *one)
        assert (float(values[i]).hex(), float(radii[i]).hex()) == \
            (float(value[0]).hex(), float(radius[0]).hex()), i


def _failing_batch(kinds):
    """Integrals of x over [0, 1 + i / 4] in ten panels each, integral i
    being "ok", "node" (f not finite on (0.3, 0.5)), "ellipse" (no finite
    ellipse bound) or "tol" (a bound no rule brings below tol)."""
    kinds = np.array(kinds)

    def f(x, owner):
        return np.where((kinds[owner] == "node") & (0.3 < x) & (x < 0.5), np.inf, x)

    def bound(mid, re_axis, im_axis, owner):
        m_rho = np.abs(mid) + re_axis + im_axis
        m_rho = np.where(kinds[owner] == "tol", 1e300, m_rho)
        return np.where(kinds[owner] == "ellipse", np.inf, m_rho)

    b = 1.0 + np.arange(kinds.size) / 4
    return f, np.zeros(kinds.size), b, 1e-6, bound, b / 80, np.zeros(kinds.size)


@pytest.mark.parametrize("kinds, error, message", [
    (["ok", "node", "ellipse"], ValueError, "integrand not finite on [0.25, 0.375]"),
    (["ok", "node", "node"], ValueError, "integrand not finite on [0.25, 0.375]"),
    (["ok", "ellipse", "node"], ArithmeticError,
     "no Bernstein ellipse gives a finite bound on [0.0, 1.25]"),
    (["ok", "tol", "ellipse"], ArithmeticError, "tol 1e-06 needs more than 64 nodes on [0.0, 1.25]"),
])
def test_batch_raises_for_its_first_failing_integral(kinds, error, message):
    # whatever fails later in the batch, and at whichever step
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        numerics.integrate_gauss_legendre(*_failing_batch(kinds))
    # the same integral alone fails the same way
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        numerics.integrate_gauss_legendre(*_alone(_failing_batch(kinds), 1))
    numerics.integrate_gauss_legendre(*_failing_batch(kinds[:1]))


def _replay_with_reference(monkeypatch, check_id, spec, draws):
    """Run a check with every integral answered by the scalar reference on
    the scalar integrand; returns its report and (batched value, radius,
    reference value) per integral."""
    pending = iter(draws)
    picked = _spy_nodes(monkeypatch)
    triples = []

    def integrate(*args):
        _, a, b, tol, _, wavelength, _ = args
        wants, radii = [], []
        for i in range(a.size):
            g, ra, rb, rtol, rwavelength, _ = next(pending)
            assert (a[i], b[i], tol, wavelength[i]) == (ra, rb, rtol, rwavelength)
            got, radius = numerics.integrate_gauss_legendre(*_alone(args, i))
            want = integrate_gauss_legendre_scalar(g, ra, rb, picked[-1], rwavelength)
            triples.append((float(got[0]), float(radius[0]), want))
            wants.append(want)
            radii.append(float(radius[0]))
        return np.array(wants), np.array(radii)

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


def test_partial_integration_block_draws_have_the_scalar_bits():
    # 40 samples: one full block of QUAD_BLOCK and a part block
    for seed in range(300):
        got = verify._partial_integration_draws(SampleSpec(samples=40, seed=seed))
        want = partial_integration_draws(seed, 40)
        for drawn, (_, a, b, _, _, params) in zip(got, want, strict=True):
            scalar = (a, b, *(params[k] for k in ("c", "d", "p", "amp", "w", "phi")))
            assert [x.hex() for x in drawn[:8]] == [x.hex() for x in scalar], seed


def test_oscillatory_tail_block_draws_have_the_scalar_bits():
    # the scalar uniform and integers calls of the reference, replayed from
    # one rng.random((n, 5)) call per QUAD_BLOCK samples: 20 samples (5 a
    # variant), and 163 (40 a variant, a full block and a part block, and
    # 3 not drawn)
    for seed in range(300):
        for samples in (20, 163):
            got = verify._oscillatory_tail_draws(SampleSpec(samples=samples, seed=seed), verify._OSC_VARIANTS)
            want = oscillatory_tail_draws(seed, samples, verify._OSC_VARIANTS)
            for drawn, (_, a, b, _, _, params) in zip(got, want, strict=True):
                kind = verify._OSC_VARIANTS.index(params["variant"])
                scalar = (kind, params["t"], a, b, params["v"], params["sigma"], params["sign"])
                assert [repr(x) for x in drawn[:7]] == [repr(x) for x in scalar], seed
                assert type(drawn[4]) is int


def _recorded_quadratures(monkeypatch, check_id, spec):
    """Run a check and return, per integral, (value, radius, value of the
    same integral at a thousandth of its tol)."""
    calls = []

    def recording(*args):
        values, radii = numerics.integrate_gauss_legendre(*args)
        for i in range(values.size):
            f, a, b, tol, *rest = _alone(args, i)
            fine, _ = numerics.integrate_gauss_legendre(f, a, b, tol / 1000, *rest)
            calls.append((float(values[i]), float(radii[i]), float(fine[0])))
        return values, radii

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
