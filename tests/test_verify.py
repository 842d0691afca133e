import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from zetabounds import expsums, verify
from zetabounds.bounds import BoundParams, E2, E6, theorem1_bound
from zetabounds.verify import (
    SampleSpec,
    SUPPORTED_CHECKS,
    VerificationReport,
    envelope_points,
    verify_lemma,
    verify_theorem_envelope,
)
from zetabounds.zeta import EvalPoint, default_em_config, zeta_prime_em

from reference_fold import ReferenceSweep
from reference_sums import weight_sum_rows


class TestLemmaSweeps:
    def test_partial_integration_clean(self):
        r = verify_lemma("2.1", SampleSpec(samples=25, seed=1))
        assert r.violations == 0
        assert r.samples > 0
        assert r.error_budget_used > 0

    @pytest.mark.parametrize("variant", ["2.2a", "2.2b", "2.2c", "2.2d"])
    def test_oscillatory_tails_clean(self, variant):
        r = verify_lemma(variant, SampleSpec(samples=10, seed=2))
        assert r.violations == 0
        assert r.min_slack > 0

    def test_oscillatory_tail_moves_a_into_the_bound_hypothesis(self, monkeypatch):
        # this draw has a = 2.834 for t = 16.09, v = 1, sigma = 0.00086,
        # sign = +1, where g/phi' rises at a and the bound fails; the check
        # moves a up and still reports every sample it was asked for
        t, a = 16.090558596991528, 2.8340380998035295
        sigma = 0.0008596295071204296
        assert not verify._decreasing_from(a, t, 1, sigma, 1.0)
        spec = SampleSpec(samples=10, seed=2101258441)
        r = verify_lemma("2.2a", spec)
        assert (r.samples, r.violations) == (10, 0)
        # without the move, |integral| 0.0624 exceeds the bound 0.0614
        monkeypatch.setattr(verify, "_decreasing_from", lambda *args: True)
        r = verify_lemma("2.2a", spec)
        assert (r.samples, r.violations) == (10, 1)
        assert r.min_slack_inputs["a"] == a
        assert round(r.min_slack, 5) == -0.00104
        assert -r.min_slack > 1e-3 + r.error_budget_used

    def test_vacuous_sweep_rejected(self):
        # a sweep that would check nothing raises instead of passing clean
        for check_id, spec in [
            ("2.1", SampleSpec(samples=0)),
            ("2.2a", SampleSpec(samples=0)),
            ("2.2", SampleSpec(samples=3)),
            ("4.6", SampleSpec(ranges={"M": (1, 0)})),
        ]:
            with pytest.raises(ValueError):
                verify_lemma(check_id, spec)

    def test_fanout_merges_variants(self):
        r = verify_lemma("2.2", SampleSpec(samples=16, seed=3))
        assert r.samples == 16
        assert r.violations == 0
        for variant in ("2.2a", "2.2b", "2.2c", "2.2d"):
            assert variant in r.notes
        assert "not drawn" not in r.notes

    def test_fanout_notes_the_samples_not_drawn(self):
        r = verify_lemma("2.2", SampleSpec(samples=6, seed=3))
        assert r.samples == 4
        assert r.notes.endswith("; 2 of 6 samples not drawn (1 per variant)")

    @pytest.mark.parametrize("check_id", ["2.1", "2.2", "2.2a"])
    @pytest.mark.parametrize("block", [1, 7])
    def test_quadrature_blocks_keep_the_report(self, monkeypatch, check_id, block):
        # every field, to the bit, whatever the block size; 42 samples span
        # two default blocks, and "2.2"'s blocks cross variants
        spec = SampleSpec(samples=42, seed=2301)
        want = verify_lemma(check_id, spec)
        monkeypatch.setattr(verify, "QUAD_BLOCK", block)
        assert repr(verify_lemma(check_id, spec)) == repr(want)

    @pytest.mark.parametrize("block", [7, 32])
    def test_fanout_counts_violations_per_variant(self, monkeypatch, block):
        # a kernel 1000 times too large breaks every 2.2c sample and no
        # other, in blocks that mix variants
        monkeypatch.setattr(verify, "QUAD_BLOCK", block)
        monkeypatch.setitem(verify._OSC_KERNELS, "2.2c",
                            lambda tl, w, sign: 1e3 * np.sin(tl) * np.sin(w))
        r = verify_lemma("2.2", SampleSpec(samples=40, seed=3))
        assert r.violations == 10
        assert r.notes == ("2.2a: 0 violations; 2.2b: 0 violations; "
                           "2.2c: 10 violations; 2.2d: 0 violations")

    def test_mid_tail_clean(self):
        r = verify_lemma("2.4", SampleSpec(samples=10, seed=4))
        assert r.violations == 0
        assert r.min_slack > r.error_budget_used

    def test_mid_tail_samples_the_whole_range(self, monkeypatch):
        # check 2.4 reaches far past the t <= 300 of direct summation
        ts = []
        range_sum = verify.em_range_sum

        def recording(point, a, b):
            ts.append(point.t)
            return range_sum(point, a, b)

        monkeypatch.setattr(verify, "em_range_sum", recording)
        r = verify_lemma("2.4", SampleSpec(samples=50, seed=11))
        assert r.samples == len(ts) == 50
        assert E2 <= min(ts) and max(ts) <= 1e8
        assert max(ts) > 1e6

    def test_mid_tail_floor_square_is_exact(self):
        # check 2.4's b = floor(t^2) + 1 from t's integer ratio, against
        # exact rational arithmetic
        rng = np.random.default_rng(24)
        ts = np.exp(rng.uniform(math.log(E2), math.log(1e8), size=10**4)).tolist()
        ts += [float(n) for n in (8, 9, 1000, 99_999_999, 10**8)]
        for k in (8, 9, 10, 12345, 10**8, 10**16 - 1, 10**16):
            root = math.sqrt(k)
            ts += [root, math.nextafter(root, 0.0), math.nextafter(root, math.inf)]
        for t in ts:
            assert verify._floor_square(t) == math.floor(Fraction(t) ** 2), t

    def test_vertex_clean(self):
        r = verify_lemma("2.5", SampleSpec(samples=1500, seed=5))
        assert r.violations == 0

    def test_curvature_clean(self):
        r = verify_lemma("4.1", SampleSpec(samples=60, seed=6))
        assert r.violations == 0
        assert r.min_slack > 0

    def test_differencing_clean(self):
        r = verify_lemma("4.3", SampleSpec(samples=40, seed=7))
        assert r.violations == 0

    def test_weight_sums_notes_strictness(self):
        r = verify_lemma("4.6", SampleSpec(ranges={"M": (1, 500)}))
        assert r.violations == 0
        assert r.samples == 4 * 500
        assert "strict inequality" in r.notes
        assert "(M^2-1)/6" in r.notes

    def test_weight_sums_honour_low_end_of_m_range(self):
        r = verify_lemma("4.6", SampleSpec(ranges={"M": (500, 600)}))
        assert r.samples == 4 * 101
        assert r.violations == 0
        assert 500 <= r.min_slack_inputs["M"] <= 600

    @staticmethod
    def assert_weight_sums_fold_the_reference_rows(m_range):
        """The report of check 4.6 over m_range equals the in-order fold of
        every reference row and relation."""
        m_lo, m_hi = m_range
        reference = ReferenceSweep("4.6")
        for ws in weight_sum_rows(m_hi):
            if ws.M >= m_lo:
                for exact, bound in zip(ws.exact, ws.bound):
                    reference.add(exact, bound, 1e-12 * (1.0 + bound), {"M": ws.M})
        r = verify_lemma("4.6", SampleSpec(ranges={"M": m_range}))
        assert "strict inequality" in r.notes
        assert dataclasses.replace(r, notes="") == reference.report()
        assert r.samples == 4 * (m_hi - m_lo + 1)

    @pytest.mark.parametrize("block, m_range", [(64, (300, 400)), (None, (2**14 + 5, 2**14 + 40))])
    def test_weight_sums_start_inside_a_later_block(self, monkeypatch, block, m_range):
        # the M range starts in the fifth block of 64 rows, or in the second
        # real block
        if block is not None:
            monkeypatch.setattr(expsums, "WEIGHT_BLOCK", block)
        assert m_range[0] > expsums.WEIGHT_BLOCK
        self.assert_weight_sums_fold_the_reference_rows(m_range)

    @pytest.mark.parametrize("block, limit, m_range", [
        (64, 350, (300, 400)),  # int64 up to the block of 257..320
        (None, 2**14, (2**14 - 20, 2**14 + 20)),  # int64 in the first real block only
    ])
    def test_weight_sums_cross_the_int64_limit(self, monkeypatch, block, limit, m_range):
        # relations 3 and 4 and their closed forms leave int64 for Python
        # ints inside the range, with the same report
        if block is not None:
            monkeypatch.setattr(expsums, "WEIGHT_BLOCK", block)
        monkeypatch.setattr(expsums, "WEIGHT_INT64_M", limit)
        assert m_range[0] <= limit < m_range[1]
        self.assert_weight_sums_fold_the_reference_rows(m_range)

    @pytest.mark.parametrize("relation", [3, 4])
    def test_weight_sums_note_fails_one_ulp_off(self, monkeypatch, relation):
        # relations 3 and 4 must equal their correctly rounded closed forms;
        # one ulp at M = 100 is 1.5e-13 of relation 3's 1666.5
        blocks = verify.weight_sum_blocks

        def one_ulp_off(max_m):
            for ms, exact, bound in blocks(max_m):
                exact = exact.copy()
                at = ms == 100
                exact[at, relation - 1] = np.nextafter(exact[at, relation - 1], np.inf)
                yield ms, exact, bound

        monkeypatch.setattr(verify, "weight_sum_blocks", one_ulp_off)
        r = verify_lemma("4.6", SampleSpec(ranges={"M": (1, 200)}))
        assert r.notes == "closed-form check for relations 3 and 4 FAILED"
        assert r.violations == 0

    @pytest.mark.parametrize("check_id", ["4.3", "4.6"])
    @pytest.mark.parametrize("m_range", [(1.5, 3.9), (1, 500.0), (np.float64(2.0), 9), (True, 3), (True, True)])
    def test_non_integer_m_range_rejected(self, check_id, m_range):
        # (1.5, 3.9) used to run check 4.3 on M in (1, 3) without a word,
        # and (True, 3) ran it on M from 1
        with pytest.raises(ValueError, match=f"check {check_id} needs integer M bounds"):
            verify_lemma(check_id, SampleSpec(samples=3, ranges={"M": m_range}))

    @pytest.mark.parametrize("check_id", ["4.3", "4.6"])
    @pytest.mark.parametrize("m_range", [(5,), (5, 6, 7)])
    def test_m_range_of_wrong_length_rejected(self, check_id, m_range):
        # used to end in "not enough/too many values to unpack"
        with pytest.raises(ValueError, match=f'check {check_id} needs an "M" range'):
            verify_lemma(check_id, SampleSpec(samples=3, ranges={"M": m_range}))

    def test_numpy_integer_m_range(self):
        spec = SampleSpec(samples=6, seed=7, ranges={"M": (np.int64(2), np.int32(9))})
        assert verify_lemma("4.3", spec) == verify_lemma("4.3", SampleSpec(6, 7, {"M": (2, 9)}))

    def test_differencing_honours_low_end_of_m_range(self):
        r = verify_lemma("4.3", SampleSpec(samples=30, ranges={"M": (20, 20)}))
        assert r.violations == 0
        assert r.min_slack_inputs["M"] == 20

    @pytest.mark.parametrize("check_id", ["4.3", "4.6"])
    @pytest.mark.parametrize("m_range", [(0, 5), (6, 5)])
    def test_bad_m_range_rejected(self, check_id, m_range):
        with pytest.raises(ValueError, match="needs 1 <= max M <= 100000000 and 1 <= min M <= max M"):
            verify_lemma(check_id, SampleSpec(samples=3, ranges={"M": m_range}))

    def test_differencing_refuses_too_many_terms_before_any_phase(self, monkeypatch):
        def phase(*args):
            def f(x):
                raise AssertionError("phase evaluated")
            return f

        monkeypatch.setattr(verify, "quadratic_phase", phase)
        monkeypatch.setattr(verify, "log_phase", phase)
        with pytest.raises(ValueError, match="range too long for direct summation"):
            verify_lemma("4.3", SampleSpec(samples=1, ranges={"M": (10**8, 10**8)}))

    def test_differencing_evaluates_each_phase_once(self, monkeypatch):
        # f runs once a sample, on N+1 .. N+L+M-1, and |S|^2 has the bits of
        # the direct sum over its first L values, exp_sum_exact(f, N, L)
        calls, sums = [], []
        for name in ("quadratic_phase", "log_phase"):
            def counted(*args, make=getattr(verify, name)):
                f = make(*args)
                return lambda x: calls.append((f, x[0], x.size)) or f(x)

            monkeypatch.setattr(verify, name, counted)
        maxima = verify.shifted_diff_maxima

        def recorded(f, N, L, M):
            sums.append((N, L, M))
            return maxima(f, N, L, M)

        monkeypatch.setattr(verify, "shifted_diff_maxima", recorded)
        added = []
        monkeypatch.setattr(verify._Sweep, "add", lambda sweep, value, *rest: added.append(value))
        verify_lemma("4.3", SampleSpec(samples=30, seed=3, ranges={"M": (1, 40)}))
        assert len(calls) == len(sums) == len(added) == 30
        for (f, first, size), (N, L, M), value in zip(calls, sums, added):
            assert (first, size) == (N + 1, L + M - 1)
            assert value.hex() == (abs(expsums.exp_sum_exact(f, N, L)) ** 2).hex()

    @pytest.mark.parametrize(
        "check_id, ranges, name",
        [
            ("2.4", {"T": (10.0, 20.0)}, "T"),
            ("2.4", {"t": (10.0, 1e6)}, "t"),
            ("2.5", {"n": (1, 8)}, "n"),
            ("2.1", {"M": (1, 5)}, "M"),
            ("2.2", {"margin": (0.1, 2.0)}, "margin"),
            ("4.6", {"M": (1, 5), "m": (1, 5)}, "m"),
        ],
    )
    def test_unknown_range_rejected(self, check_id, ranges, name):
        with pytest.raises(ValueError, match=f"check {check_id} takes no '{name}' range"):
            verify_lemma(check_id, SampleSpec(samples=4, ranges=ranges))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma("9.9")

    def test_reports_reproducible(self):
        spec = SampleSpec(samples=15, seed=42)
        assert verify_lemma("2.5", spec) == verify_lemma("2.5", spec)
        assert verify_lemma("4.1", spec) == verify_lemma("4.1", spec)

    def test_min_slack_inputs_recorded(self):
        r = verify_lemma("4.1", SampleSpec(samples=10, seed=8))
        assert r.min_slack_inputs is not None
        assert "t" in r.min_slack_inputs

    def test_supported_listing(self):
        assert "4.6" in SUPPORTED_CHECKS and "2.2" in SUPPORTED_CHECKS

    def test_supported_checks_pinned(self):
        assert SUPPORTED_CHECKS == (
            "2.1", "2.2a", "2.2b", "2.2c", "2.2d", "2.4", "2.5", "4.1", "4.3", "4.6", "2.2",
        )

    @pytest.mark.parametrize("check_id, samples", [("2.5", 2.5), ("2.2", 8.0)])
    def test_non_integer_sample_count_rejected(self, check_id, samples):
        # used to fail deep in the sweep with "'float' object cannot be
        # interpreted as an integer"
        with pytest.raises(ValueError, match=f"samples must be an integer, got {samples}"):
            verify_lemma(check_id, SampleSpec(samples=samples))

    def test_non_integer_seed_rejected(self):
        # used to fail in numpy's SeedSequence
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            SampleSpec(samples=3, seed=1.5)

    def test_numpy_integer_samples_and_seed(self):
        spec = SampleSpec(samples=np.int64(6), seed=np.int32(3))
        assert type(spec.samples) is int and type(spec.seed) is int
        assert verify_lemma("2.5", spec) == verify_lemma("2.5", SampleSpec(6, 3))

    def test_record_roundtrip(self):
        r = verify_lemma("2.5", SampleSpec(samples=5, seed=1))
        rec = r.to_record()
        assert rec["check_id"] == "2.5"
        assert rec["violations"] == 0
        assert isinstance(rec["min_slack"], float)


def fold_state(sweep):
    # repr tells -0.0 from 0.0 and shows NaN
    return repr(sweep.report())


class TestSweepAddMany:
    def test_equals_add_in_order(self, monkeypatch):
        # few distinct values: tied slacks, equal maxima of both signs of
        # zero, NaNs (violations in both) and violations, in chunks of 0 to
        # 12 entries, each given to the one fold whole or one sample at a
        # time through ``add``'s queue of QUAD_BLOCK
        rng, route = np.random.default_rng(4606), np.random.default_rng(4607)
        for _ in range(300):
            monkeypatch.setattr(verify, "QUAD_BLOCK", int(route.choice([1, 2, 3, 5, 32])))
            one, many = ReferenceSweep("x"), verify._Sweep("x")
            if rng.integers(0, 2):  # some state carried in
                for sweep in (one, many):
                    sweep.add(1.0, 2.0, 0.25, {"i": -1})
            start = 0
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(0, 13))
                oracle = rng.choice([-0.0, 0.0, 1.0, 2.0, 3.5, np.nan], size=n)
                bound = rng.choice([-0.0, 0.0, 1.0, 2.0, 3.0], size=n)
                budget = rng.choice([0.0, 0.5, 1e-12, np.nan], size=n)
                for i in range(n):
                    one.add(float(oracle[i]), float(bound[i]), float(budget[i]),
                            {"i": start + i})
                if route.integers(0, 2):
                    many.add_many(oracle, bound, budget, lambda i, start=start: {"i": start + i})
                else:
                    for i in range(n):
                        many.add(float(oracle[i]), float(bound[i]), float(budget[i]),
                                 {"i": start + i})
                start += n
                if route.integers(0, 2):  # report mid-stream, or let the queue fill
                    assert fold_state(many) == fold_state(one)
            assert fold_state(many) == fold_state(one)

    @pytest.mark.parametrize("side", ["oracle", "bound", "budget"])
    def test_nan_is_a_violation(self, side):
        # a NaN oracle, bound or budget cannot show the bound holds, whether
        # it comes whole or through add's queue
        sample = {"oracle": 1.0, "bound": 2.0, "budget": 0.5, side: math.nan}
        one, many, queued = ReferenceSweep("x"), verify._Sweep("x"), verify._Sweep("x")
        one.add(sample["oracle"], sample["bound"], sample["budget"], {})
        violated = many.add_many(*(np.array([sample[k]]) for k in ("oracle", "bound", "budget")),
                                 lambda i: {})
        queued.add(sample["oracle"], sample["bound"], sample["budget"], {})
        assert one.violations == many.violations == 1
        assert violated.tolist() == [True]
        assert one.report().violations == queued.report().violations == 1

    def test_inputs_only_for_a_new_minimum(self):
        sweep, asked = verify._Sweep("x"), []

        def inputs_at(i):
            asked.append(i)
            return {"i": i}

        sweep.add_many(np.array([1.0, 3.0, 3.0]), np.array([2.0, 3.0, 3.0]),
                       np.zeros(3), inputs_at)
        sweep.add_many(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.zeros(2), inputs_at)
        assert asked == [1]  # the first of the tied zero slacks
        assert (sweep.min_slack, sweep.min_slack_inputs) == (0.0, {"i": 1})

    @pytest.mark.parametrize("block", [1, 7, 32])
    @pytest.mark.parametrize("run", [
        lambda: verify_lemma("2.4", SampleSpec(samples=40, seed=25)),
        lambda: verify_lemma("2.5", SampleSpec(samples=70, seed=25)),
        lambda: verify_lemma("4.1", SampleSpec(samples=40, seed=25)),
        lambda: verify_lemma("4.3", SampleSpec(samples=40, seed=25, ranges={"M": (1, 9)})),
        lambda: verify_lemma("2.2", SampleSpec(samples=40, seed=25)),
        lambda: verify_lemma("4.6", SampleSpec(ranges={"M": (1, 100)})),
        lambda: verify_theorem_envelope(1, (E2, 2e3), 40),
        lambda: verify_theorem_envelope(2, (E6, 5e3), 33),
    ], ids=["2.4", "2.5", "4.1", "4.3", "2.2", "4.6", "theorem-1", "theorem-2"])
    def test_checks_report_the_in_order_fold(self, monkeypatch, block, run):
        # every field of every check's report, to the bit, equals the fold
        # one sample at a time, whatever the block; ``add``'s queue runs
        # with 1, 7 and 32 samples
        monkeypatch.setattr(verify, "_Sweep", ReferenceSweep)
        want = run()
        monkeypatch.undo()
        monkeypatch.setattr(verify, "QUAD_BLOCK", block)
        assert repr(run()) == repr(want)

    def test_report_keeps_skip_note_and_the_empty_fold(self):
        sweep = verify._Sweep("x")
        sweep.skipped += 2
        assert sweep.report("a") == VerificationReport(
            "x", 0, 0, math.inf, -math.inf, 0.0, "a; 2 samples excluded (oracle did not converge)"
        )
        assert sweep.report().to_record() == {
            "check_id": "x", "samples": 0, "violations": 0, "min_slack": math.inf,
            "max_oracle": -math.inf, "error_budget_used": 0.0,
            "notes": "2 samples excluded (oracle did not converge)",
        }


class TestTheoremEnvelopes:
    def test_theorem1_small_sweep(self):
        r = verify_theorem_envelope(1, (E2, 2e3), 25)
        assert r.violations == 0
        assert r.min_slack > r.error_budget_used
        assert r.max_oracle > 0

    def test_theorem2_small_sweep(self):
        r = verify_theorem_envelope(2, (E6, 2e3), 10, BoundParams())
        assert r.violations == 0
        assert r.min_slack > r.error_budget_used

    def test_boundary_single_sample(self):
        r = verify_theorem_envelope(1, (E2, E2), 1)
        assert r.samples == 1
        assert r.violations == 0
        # bound at e^2 is 22.493; the derivative there is tiny
        assert r.min_slack == pytest.approx(22.493 - r.max_oracle, abs=1e-3)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            verify_theorem_envelope(3, (E2, 100.0), 5)
        with pytest.raises(ValueError):
            verify_theorem_envelope(1, (1.0, 100.0), 5)
        with pytest.raises(ValueError):
            verify_theorem_envelope(2, (E2, 1e4), 5)  # starts below e^6
        with pytest.raises(ValueError):
            verify_theorem_envelope(1, (E2, 100.0), 0)

    def test_non_integer_sample_count_rejected(self):
        with pytest.raises(ValueError, match="n_samples must be an integer, got 2.5"):
            verify_theorem_envelope(1, (10.0, 100.0), 2.5)

    def test_which_is_read_as_an_integer(self):
        # True was read as the integer 1 and ran theorem 1; a bool is no count
        for which, n_samples, name in ((True, 1, "which"), (1, True, "n_samples")):
            with pytest.raises(ValueError, match=f"{name} must be an integer, got True"):
                verify_theorem_envelope(which, (10.0, 10.0), n_samples)
        with pytest.raises(ValueError, match="which must be an integer, got 1.0"):
            verify_theorem_envelope(1.0, (10.0, 100.0), 2)
        r = verify_theorem_envelope(np.int64(2), (E6, 1e3), np.int32(2))
        assert r == verify_theorem_envelope(2, (E6, 1e3), 2)

    def test_envelope_points_take_only_theorems_1_and_2(self):
        # which = 3 used to yield theorem 2's bound, and 1.0 theorem 1's
        for which, message in ((3, "which must be 1 or 2"), (0, "which must be 1 or 2"),
                               (1.0, "which must be an integer")):
            with pytest.raises(ValueError, match=message):
                next(envelope_points(which, [1000.0], BoundParams()))

    def test_bad_range_rejected_before_any_evaluation(self, monkeypatch):
        def no_evaluation(point, cfg):
            raise AssertionError(f"zeta' evaluated at t={point.t}")

        monkeypatch.setattr(verify, "zeta_prime_em", no_evaluation)
        with pytest.raises(ValueError, match="exceeds the certified ceiling"):
            verify_theorem_envelope(1, (E2, 2e5), 50)
        with pytest.raises(ValueError, match="exceeds the certified ceiling"):
            verify_theorem_envelope(2, (E6, 1e5 * (1 + 1e-15)), 3)
        for which, t_range in ((1, (2e4, 1e4)), (2, (500.0, 100.0))):
            with pytest.raises(ValueError, match="need 0 < t_min <= t_max"):
                verify_theorem_envelope(which, t_range, 50)

    @pytest.mark.parametrize("which", [1, 2])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_t_named_as_such(self, which, bad, monkeypatch):
        # (inf, inf) and (nan, 1e4) used to say the range must start at or
        # above the threshold; a finite start below it keeps that wording
        def no_evaluation(point, cfg):
            raise AssertionError(f"zeta' evaluated at t={point.t}")

        monkeypatch.setattr(verify, "zeta_prime_em", no_evaluation)
        for t_range in ((bad, 1e4), (1e4, bad), (bad, bad)):
            with pytest.raises(ValueError, match=f"^t range must be finite, got {bad}$"):
                verify_theorem_envelope(which, t_range, 5)
        with pytest.raises(ValueError, match=f"^t range must start at or above {(E2, E6)[which - 1]:.6g}$"):
            verify_theorem_envelope(which, (5.0, 1e4), 5)

    def test_keeps_skip_note(self, monkeypatch):
        # every third point fails to converge; the report must say how many
        # samples it left out
        calls = itertools.count(1)
        evaluate = verify.zeta_prime_em

        def flaky(point, cfg):
            result = evaluate(point, cfg)
            return dataclasses.replace(result, converged=bool(next(calls) % 3))

        monkeypatch.setattr(verify, "zeta_prime_em", flaky)
        r = verify_theorem_envelope(1, (E2, 2e3), 12)
        assert r.samples == 8
        assert r.notes == "4 samples excluded (oracle did not converge)"
        assert r.violations == 0

    def test_budget_is_certified_radius(self):
        # the value side is zeta_prime_em at its default derivative config
        t = 1e5
        point = EvalPoint(t)
        zp = zeta_prime_em(point, default_em_config(point, for_derivative=True))
        r = verify_theorem_envelope(1, (t, t), 1)
        assert r.error_budget_used == zp.error_bound + 1e-9 * theorem1_bound(t).total
        assert r.max_oracle == abs(zp.value)
