import itertools
import math
import sys
import time

import numpy as np
import pytest

from hypodp import hypothesis_dp, subsampling
from hypodp.composition import Advanced, Simple, compose
from hypodp.core import BitVector, Hypothesis, MechanismSequence, PrivacyParams, _exact_suffix_sums
from hypodp.errors import IncompatibleTheoremError, InvalidRateError
from hypodp.hypothesis_dp import PAIR_DTYPE, _aggregate, uniform_nonzero_closed_form
from hypodp.oracle import randomized_response, verify_hdp
from hypodp.subsampling import (
    LN2,
    amplify,
    uniform_prior_bound,
)

# Frozen via direct 50-digit evaluation.
AMPLIFY_EPS1_HALF = 0.6201145069582775      # ln(1 + 0.5 (e - 1))
CLOSED_K2_EPS1 = 1.4528324252639413         # ln(((e+1)^2 - 1)/3)
SPLIT_K2_HET = 1.0816573819736248           # k=2, [(1,0),(0.5,0)], simple tail
CLOSED_K12_EPS01 = 0.615105922653321        # ln(((e^0.1+1)^12 - 1)/4095)
# k=3 homogeneous (1, 1e-8), split pipeline with Advanced(1e-6) tails.
ADVANCED_SPLIT_K3 = (6.189862317847167, 8.74285714285714e-07)


class TestAmplify:
    def test_rate_one_is_identity(self):
        g = PrivacyParams(0.7, 1e-6)
        assert amplify(g, 1.0) == g

    def test_rate_zero_is_perfect(self):
        assert amplify(PrivacyParams(3.0, 0.5), 0.0) == PrivacyParams(0.0, 0.0)

    def test_half_rate(self):
        g = amplify(PrivacyParams(1.0, 1e-6), 0.5)
        assert g.epsilon == pytest.approx(AMPLIFY_EPS1_HALF, abs=1e-15)
        assert g.delta == 5e-7

    def test_invalid_rate(self):
        with pytest.raises(InvalidRateError):
            amplify(PrivacyParams(1.0, 0.0), 1.5)
        with pytest.raises(InvalidRateError):
            amplify(PrivacyParams(1.0, 0.0), -0.1)

    def test_never_hurts(self):
        for eps in (0.0, 0.1, 1.0, 10.0, 800.0):
            for rate in (0.0, 0.1, 0.5, 0.9, 1.0):
                g = amplify(PrivacyParams(eps, 1e-6), rate)
                assert g.epsilon <= eps + 1e-12
                if 0.0 < rate < 1.0 and eps > 0.0:
                    assert g.epsilon < eps

    def test_zero_epsilon_fixed_point(self):
        # Sampling cannot help a mechanism that already leaks nothing.
        g = amplify(PrivacyParams(0.0, 1e-6), 0.5)
        assert g.epsilon == 0.0
        assert g.delta == 5e-7

    def test_huge_epsilon_stays_finite(self):
        g = amplify(PrivacyParams(5000.0, 0.0), 0.5)
        assert math.isfinite(g.epsilon)
        assert g.epsilon == pytest.approx(5000.0 + math.log(0.5), rel=1e-12)


class TestUniformPriorBound:
    def test_empty_sequence_refused(self):
        with pytest.raises(ValueError, match="sequence must be non-empty"):
            uniform_prior_bound([], Simple())

    def test_k1_is_identity(self):
        seq = MechanismSequence.from_pairs([(0.8, 1e-7)])
        g = uniform_prior_bound(seq, Simple())
        assert g.epsilon == pytest.approx(0.8, abs=1e-14)
        assert g.delta == pytest.approx(1e-7, rel=1e-12)

    def test_k2_matches_closed_form(self):
        seq = MechanismSequence.homogeneous(1.0, 0.0, 2)
        g = uniform_prior_bound(seq, Simple())
        assert g.epsilon == pytest.approx(CLOSED_K2_EPS1, abs=1e-9)
        assert g.delta == 0.0

    def test_k3_delta(self):
        seq = MechanismSequence.homogeneous(0.0, 1e-6, 3)
        g = uniform_prior_bound(seq, Simple())
        assert g.epsilon == pytest.approx(0.0, abs=1e-12)
        assert g.delta == pytest.approx(12.0 / 7.0 * 1e-6, rel=1e-9)

    def test_advanced_incompatible_with_mixed_blocks(self):
        # Only the homogeneous tails go through the theorem, so Advanced
        # applies; the value is the head-plus-composed-tail (split) one.
        seq = MechanismSequence.homogeneous(1.0, 1e-8, 3)
        g = uniform_prior_bound(seq, Advanced(1e-6))
        assert g.epsilon == pytest.approx(ADVANCED_SPLIT_K3[0], rel=1e-12)
        assert g.delta >= ADVANCED_SPLIT_K3[1] * (1.0 - 1e-12)
        # RR with q = 1/(1 + e) is (1, 0)-DP, hence (1, 1e-8)-DP.
        mechs = [randomized_response(1.0 / (1.0 + math.e))] * 3
        report = verify_hdp(
            mechs, Hypothesis.point_mass(BitVector.zeros(3)), Hypothesis.uniform_nonzero(3), g
        )
        assert report.sound

    def test_heterogeneous_advanced_rejected(self):
        seq = MechanismSequence.from_pairs([(1.0, 0.0), (0.5, 0.0), (0.25, 0.0)])
        with pytest.raises(IncompatibleTheoremError):
            uniform_prior_bound(seq, Advanced(1e-6))

    @pytest.mark.parametrize("k", [1024, 1100])
    def test_any_k_matches_closed_form(self, k):
        # Block weights 2^-(i+1) underflow past i = 1074; those blocks drop.
        seq = MechanismSequence.homogeneous(0.3, 1e-7, k)
        got = uniform_prior_bound(seq, Simple())
        want = uniform_nonzero_closed_form(0.3, 1e-7, k)
        assert got.epsilon == pytest.approx(want.epsilon, rel=1e-9)
        assert got.delta == pytest.approx(want.delta, rel=1e-9)

    @pytest.mark.parametrize("k", [1, 5, 1100])
    def test_table_words_are_non_decreasing(self, k, monkeypatch):
        # hypothesis_dp._Groups takes each vector as one run of equal words
        # and sorts no table by word, so both columns must come in order.
        tables = []

        def capture(pairs, key, table):
            tables.append(pairs.copy())
            return _aggregate(pairs, key, table)

        monkeypatch.setattr(subsampling, "_aggregate", capture)
        seq = MechanismSequence.homogeneous(0.3, 1e-7, k)
        uniform_prior_bound(seq, Simple())
        (pairs,) = tables
        for column in ("word0", "word1"):
            assert np.all(pairs[column][1:] >= pairs[column][:-1])
        # Past block 1074 the weights underflow to 0; those rows never reach _aggregate.
        assert (pairs["weight"] > 0.0).all()

    @pytest.mark.parametrize("k", [1074, 1075, 1500])
    def test_zero_weight_blocks_are_left_out(self, k, monkeypatch):
        # Block weights 2^-(i+1) round to 0 from i = 1074 on. _aggregate takes
        # positive weights only (a zero-mass group would divide 0 by 0).
        tables = []

        def capture(pairs, key, table):
            tables.append((pairs.copy(), key.copy(), table.copy()))
            return _aggregate(pairs, key, table)

        monkeypatch.setattr(subsampling, "_aggregate", capture)
        got = uniform_prior_bound(MechanismSequence.homogeneous(0.3, 1e-7, k), Simple())
        ((pairs, key, table),) = tables
        assert len(pairs) == len(key) == len(table) == 1074
        assert pairs["weight"].min() == 2.0**-1074
        assert got.epsilon > 0.3 and got.delta > 1e-7


class TestUniformPriorSplitBound:
    """The block pipeline's split shape: each head at full strength, its tail at rate 1/2."""

    def test_k1_is_identity(self):
        seq = MechanismSequence.from_pairs([(0.8, 1e-7)])
        g = uniform_prior_bound(seq, Simple())
        assert g.epsilon == pytest.approx(0.8, abs=1e-14)
        assert g.delta == pytest.approx(1e-7, rel=1e-12)

    def test_coincides_with_block_bound_under_simple(self):
        # With a simple-composition tail, joining the head additively is
        # the same arithmetic as composing head and tail together.
        seq = MechanismSequence.homogeneous(1.0, 0.0, 2)
        halved = [amplify(g, 0.5) for g in seq]
        blocks = [compose([seq[i], *halved[i + 1:]], Simple()) for i in range(2)]
        rows = np.array([(2.0 / 3.0, 0, 1), (1.0 / 3.0, 0, 2)], dtype=PAIR_DTYPE)
        a = _aggregate(rows, np.arange(2), np.array([g.as_tuple() for g in blocks]))
        b = uniform_prior_bound(seq, Simple())
        assert b.epsilon == pytest.approx(a.epsilon, abs=1e-12)
        assert b.delta == pytest.approx(a.delta, abs=1e-18)

    def test_heterogeneous_k2(self):
        seq = MechanismSequence.from_pairs([(1.0, 0.0), (0.5, 0.0)])
        g = uniform_prior_bound(seq, Simple())
        assert g.epsilon == pytest.approx(SPLIT_K2_HET, abs=1e-12)


class TestUniformPriorClosedForm:
    def test_k1_is_identity(self):
        g = uniform_nonzero_closed_form(0.7, 1e-6, 1)
        assert g.epsilon == pytest.approx(0.7, abs=1e-15)
        assert g.delta == pytest.approx(1e-6, rel=1e-15)

    def test_k2(self):
        g = uniform_nonzero_closed_form(1.0, 0.0, 2)
        assert g.epsilon == pytest.approx(CLOSED_K2_EPS1, abs=1e-12)
        assert g.delta == 0.0

    def test_k12(self):
        g = uniform_nonzero_closed_form(0.1, 1e-6, 12)
        assert g.epsilon == pytest.approx(CLOSED_K12_EPS01, abs=1e-12)
        assert g.delta == pytest.approx(2048.0 / 4095.0 * 12.0 * 1e-6, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 14])
    def test_eps_zero_rounding_dust_is_zero(self, k):
        # ln(2^k - 1) - ln(2^k - 1) through two roundings: unclamped, a few ulps below 0.
        unclamped = hypothesis_dp._log_expm1(k * hypothesis_dp._softplus(0.0)) - math.log(2**k - 1)
        assert unclamped < 0.0
        g = uniform_nonzero_closed_form(0.0, 1e-6, k)
        assert math.copysign(1.0, g.epsilon) == 1.0 and g.epsilon == 0.0

    @pytest.mark.parametrize("eps, delta", [
        (math.nan, 0.0), (-1.0, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.1, 2.0), (0.1, -1e-9)])
    def test_invalid_guarantee_refused(self, eps, delta):
        # Unchecked, a NaN or negative epsilon yields (0, 0) and a delta of NaN or 2 is clamped to 1.
        with pytest.raises(ValueError):
            uniform_nonzero_closed_form(eps, delta, 3)

    def test_delta_ratio_equals_big_integer_ratio(self):
        # 2^(k-1) / (2^k - 1) as a float ratio: the same correctly rounded double.
        for k in range(1, 5001):
            assert 1.0 / (2.0 - 2.0 ** (1 - k)) == 2 ** (k - 1) / (2**k - 1), k
            want = k * (2 ** (k - 1) / (2**k - 1)) * 3e-7
            assert uniform_nonzero_closed_form(0.2, 3e-7, k).delta == want, k

    def test_huge_k_in_constant_time(self):
        # As a ratio of two k-bit integers the delta factor would take 125 MB each at this k.
        start = time.perf_counter()
        g = uniform_nonzero_closed_form(0.1, 1e-12, 10**9)
        assert time.perf_counter() - start < 1.0
        assert g.delta == 10**9 * 0.5 * 1e-12


class TestPipelineEquality:
    def test_block_bound_equals_closed_form_on_grid(self):
        for k in range(1, 13):
            for eps in (0.1, 0.5, 1.0, 2.0):
                for delta in (0.0, 1e-6):
                    seq = MechanismSequence.homogeneous(eps, delta, k)
                    got = uniform_prior_bound(seq, Simple())
                    want = uniform_nonzero_closed_form(eps, delta, k)
                    assert got.epsilon == pytest.approx(want.epsilon, abs=1e-9)
                    assert got.delta == pytest.approx(want.delta, abs=1e-12)
        # eps = 0 takes _softplus's x <= 0 branch; at k = 3 the deltas
        # differ by one ulp (1.714285714285714e-06 against ...43e-06).
        for k in (1, 3, 51, 64, 1024):
            got = uniform_prior_bound(MechanismSequence.homogeneous(0.0, 1e-6, k), Simple())
            want = uniform_nonzero_closed_form(0.0, 1e-6, k)
            assert got.epsilon == want.epsilon == 0.0
            assert want.delta == pytest.approx(got.delta, rel=1e-15)

    def test_improves_on_worst_case_compose(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            k = int(rng.integers(1, 10))
            seq = MechanismSequence.from_pairs([
                (float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.0, 1e-5)))
                for _ in range(k)
            ])
            got = uniform_prior_bound(seq, Simple())
            classic = compose(seq, Simple())
            assert got.epsilon <= classic.epsilon + 1e-12


def per_tail_reference(seq, theorem):
    """uniform_prior_bound with one ``compose`` per tail: O(k^2) under Simple.

    Blocks whose weight rounds to 0 are dropped, as uniform_prior_bound drops them.
    """
    guarantees = list(seq)
    k = len(guarantees)
    halved = [amplify(g, 0.5) for g in guarantees]
    norm = -math.expm1(-k * LN2)
    tails = [compose(halved[i + 1 :], theorem) for i in range(k)]
    rows = [(math.ldexp(1.0, -(i + 1)) / norm, 0, i + 1) for i in range(k)]
    eps = np.array([g.epsilon + t.epsilon for g, t in zip(guarantees, tails)])
    delta = np.array([g.delta + t.delta for g, t in zip(guarantees, tails)])
    table = np.array(rows, dtype=PAIR_DTYPE)
    keep = table["weight"] > 0.0
    return _aggregate(table[keep], np.arange(k)[keep], np.stack((eps, delta), 1))


class TestExactTails:
    """The one-pass tails give the per-tail result bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 63, 64, 1000, 3000])
    def test_equals_per_tail_reference(self, k):
        rng = np.random.default_rng(k)
        homog = MechanismSequence.homogeneous(0.37, 3e-7, k)
        het = MechanismSequence.from_pairs(
            zip(rng.exponential(0.4, k).tolist(), rng.choice([0.0, 1e-9, 2e-6, 0.4], k).tolist())
        )
        for seq in (homog, het):
            assert uniform_prior_bound(seq, Simple()) == per_tail_reference(seq, Simple())

    def test_advanced_equals_per_tail_reference(self):
        firsts = (PrivacyParams(0.2, 1e-8), PrivacyParams(1.3, 0.0), PrivacyParams(0.05, 1e-5))
        for k, first, slack in itertools.product((1, 2, 40, 400), firsts, (1e-9, 1e-6, 0.05)):
            # Tail 0 is halved[1:], so only the rest must be homogeneous.
            seq = [first] + [PrivacyParams(0.2, 1e-8)] * (k - 1)
            assert uniform_prior_bound(seq, Advanced(slack)) == per_tail_reference(seq, Advanced(slack))

    def test_suffix_sums_equal_fsum_of_each_slice(self):
        rng = np.random.default_rng(31)
        for n in (0, 1, 2, 5, 200):
            for scale in (1e-300, 1e-12, 1.0, 1e150):
                values = (rng.exponential(scale, n) * (rng.random(n) < 0.8)).tolist()
                assert _exact_suffix_sums(values) == [math.fsum(values[i:]) for i in range(n + 1)]

    def test_subnormal_suffix_sums_equal_fsum(self):
        tiny = [5e-324, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308, 0.0, 1e-300]
        rng = np.random.default_rng(47)
        for n in (1, 3, 40):
            for _ in range(50):
                values = rng.choice(tiny, n).tolist()
                values = [v * int(m) for v, m in zip(values, rng.integers(1, 9, n))]
                assert _exact_suffix_sums(values) == [math.fsum(values[i:]) for i in range(n + 1)]

    def test_suffix_sums_at_the_overflow_edge(self):
        # DBL_MAX plus just under half its ulp still rounds to DBL_MAX.
        below = [sys.float_info.max, 9.9792015476735e291]
        sums = _exact_suffix_sums(below)
        assert sums == [math.fsum(below), below[1], 0.0]
        assert sums[0] == sys.float_info.max
        with pytest.raises(OverflowError, match="overflow"):
            _exact_suffix_sums([sys.float_info.max, 9.9792015476736e291])
        with pytest.raises(OverflowError):
            math.fsum([sys.float_info.max, 9.9792015476736e291])

    def test_heterogeneous_advanced_k2_composes_each_tail(self):
        # Each tail holds one guarantee or none, so Advanced applies even
        # though the whole sequence is heterogeneous.
        seq = MechanismSequence.from_pairs([(0.3, 1e-6), (0.9, 0.0)])
        with pytest.raises(IncompatibleTheoremError):
            compose(seq, Advanced(1e-6))
        got = uniform_prior_bound(seq, Advanced(1e-6))
        assert got == per_tail_reference(seq, Advanced(1e-6))
        with pytest.raises(IncompatibleTheoremError):
            uniform_prior_bound(MechanismSequence.from_pairs([(0.3, 0), (0.9, 0), (0.1, 0)]),
                                Advanced(1e-6))

    def test_overflow_raises_like_compose(self):
        for k in (2, 3, 50):
            seq = [PrivacyParams(1e308, 0.0)] * k
            with pytest.raises(OverflowError):
                uniform_prior_bound(seq, Simple())
        # At k=2 the one tail is finite, so the refusal comes from block 0,
        # whose head plus tail overflows, not from summing the tails.
        with pytest.raises(OverflowError, match="^a uniform-prior block epsilon overflows a double$"):
            uniform_prior_bound([PrivacyParams(1e308, 0.0)] * 2, Simple())
        with pytest.raises(OverflowError):
            per_tail_reference([PrivacyParams(1e308, 0.0)] * 3, Simple())
        with pytest.raises(OverflowError):
            _exact_suffix_sums([1e308, 1e308])
        # Every tail sum is finite, but block 0's head plus its rounded
        # tail overflows; summing that infinity would report (0, 0).
        seq = [PrivacyParams(e, 0.0)
               for e in (6.688135203187133e307, 4.163036948621316e307, 7.125759196814709e307)]
        assert math.isfinite(math.fsum(amplify(g, 0.5).epsilon for g in seq))
        with pytest.raises(OverflowError, match="block"):
            uniform_prior_bound(seq, Simple())

    def test_linear_time(self):
        rng = np.random.default_rng(20000)
        k = 20000
        seq = MechanismSequence.from_pairs(
            zip(rng.uniform(0.01, 1.0, k).tolist(), rng.uniform(0.0, 1e-6, k).tolist())
        )
        start = time.perf_counter()
        g = uniform_prior_bound(seq, Simple())
        assert time.perf_counter() - start < 2.0
        assert 0.0 < g.epsilon < compose(seq, Simple()).epsilon
