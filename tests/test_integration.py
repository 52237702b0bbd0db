"""Cross-module soundness: every analytic bound survives the exact oracle.

These tests wire the accounting pipelines to the brute-force checker:
randomized-response mechanisms realize the per-iteration guarantees
exactly, so any bound the library reports for them must hold under
exact enumeration. This exercises refinement, per-pair composition,
aggregation, constraints, and the subsampling pipelines end to end.
"""

import itertools
import math

import numpy as np
import pytest

from hypodp.composition import Simple
from hypodp.constraints import (
    MaxOnes,
    NeighborhoodMode,
    PatternSet,
    constrained_bound,
    exclusive_groups_bound,
)
from hypodp.core import BitVector, Hypothesis, MechanismSequence, PrivacyParams
from hypodp.hypothesis_dp import _aggregate, hdp_guarantee, pair_guarantee
from hypodp.oracle import (
    DiscreteMechanism,
    leaky_rr,
    randomized_response,
    randomized_response_guarantee,
    verify_hdp,
)
from hypodp.refinement import PAIR_DTYPE
from hypodp.subsampling import uniform_prior_bound


def rr_setup(qs):
    """Mechanisms plus the matching per-iteration guarantee sequence."""
    mechs = [randomized_response(q) for q in qs]
    seq = MechanismSequence(tuple(randomized_response_guarantee(q) for q in qs))
    return mechs, seq


def bv(s):
    return BitVector.from_string(s)


def random_hypothesis(rng, k):
    n = int(rng.integers(1, (1 << k) + 1))
    words = rng.choice(1 << k, size=n, replace=False)
    weights = rng.dirichlet(np.ones(n))
    return Hypothesis({BitVector(int(w), k): float(p) for w, p in zip(words, weights)})


class TestHdpGuaranteeSound:
    def test_random_mixture_pairs_homogeneous(self):
        # The aggregated pair bound itself (not just the classic worst
        # case) must survive enumeration for arbitrary mixtures.
        mechs, seq = rr_setup([0.25] * 3)
        rng = np.random.default_rng(60901)
        for _ in range(60):
            p0 = random_hypothesis(rng, 3)
            p1 = random_hypothesis(rng, 3)
            claimed = hdp_guarantee(p0, p1, seq, Simple())
            report = verify_hdp(mechs, p0, p1, claimed)
            assert report.sound, (p0, p1, claimed, report)

    def test_random_mixture_pairs_heterogeneous(self):
        mechs, seq = rr_setup([0.25, 0.4, 0.1, 0.45])
        rng = np.random.default_rng(424242)
        for _ in range(40):
            p0 = random_hypothesis(rng, 4)
            p1 = random_hypothesis(rng, 4)
            claimed = hdp_guarantee(p0, p1, seq, Simple())
            report = verify_hdp(mechs, p0, p1, claimed)
            assert report.sound, (p0, p1, claimed, report)

    def test_aggregation_can_be_tight(self):
        # Two mixtures: the claim must hold, though the method promises no
        # tightness here (the exact epsilon at delta 0 is 0.742).
        mechs, seq = rr_setup([0.25, 0.45])
        p0 = Hypothesis({BitVector.from_string("00"): 0.5, BitVector.from_string("01"): 0.5})
        p1 = Hypothesis({BitVector.from_string("01"): 0.5, BitVector.from_string("10"): 0.5})
        claimed = hdp_guarantee(p0, p1, seq, Simple())
        report = verify_hdp(mechs, p0, p1, claimed)
        assert report.sound
        # A point mass against a mixture, where the aggregated epsilon
        # ln(0.5 * 11/9 + 0.5 * 3 * 11/9) is achieved exactly: one matched
        # pair differs only in the weak second mechanism, the other in
        # both; the worst output set balances the two.
        p0 = Hypothesis.point_mass(bv("00"))
        p1 = Hypothesis({bv("01"): 0.5, bv("11"): 0.5})
        claimed = hdp_guarantee(p0, p1, seq, Simple())
        assert verify_hdp(mechs, p0, p1, claimed).sound
        # Shaving the claim noticeably must break it.
        shaved = PrivacyParams(claimed.epsilon * 0.9, claimed.delta)
        assert not verify_hdp(mechs, p0, p1, shaved).sound

    def test_point_mass_with_heterogeneous_deltas(self):
        # A (0, 0.05) mechanism next to RR with q = 0.1. Averaging the
        # per-pair deltas gives (ln 5, 0.025); the oracle needs 0.0325.
        leak = DiscreteMechanism(absent={"a": 1.0, "s": 0.0}, present={"a": 0.95, "s": 0.05})
        mechs = [leak, randomized_response(0.1)]
        seq = MechanismSequence((PrivacyParams(0.0, 0.05), randomized_response_guarantee(0.1)))
        mixture = Hypothesis({bv("00"): 0.5, bv("11"): 0.5})
        point = Hypothesis.point_mass(bv("10"))
        for p0, p1 in ((mixture, point), (point, mixture)):
            claimed = hdp_guarantee(p0, p1, seq, Simple())
            report = verify_hdp(mechs, p0, p1, claimed)
            assert report.sound, (claimed, report)

    def test_other_matching_is_sound(self):
        # Refinement picks one of several valid matchings. The other one
        # for the two-mixture pair above (01<->01, 00<->10) must aggregate
        # to a sound claim too; log-sum-exp gave ln 2 < 0.742 on it.
        mechs, seq = rr_setup([0.25, 0.45])
        p0 = Hypothesis({bv("00"): 0.5, bv("01"): 0.5})
        p1 = Hypothesis({bv("01"): 0.5, bv("10"): 0.5})
        matching = ((0.5, bv("01"), bv("01")), (0.5, bv("00"), bv("10")))
        pairs = np.array([(w, b0.word, b1.word) for w, b0, b1 in matching], dtype=PAIR_DTYPE)
        per_pair = [pair_guarantee(b0, b1, seq, Simple()) for _, b0, b1 in matching]
        claimed = _aggregate(
            pairs, np.array([g.epsilon for g in per_pair]), np.array([g.delta for g in per_pair])
        )
        report = verify_hdp(mechs, p0, p1, claimed)
        assert report.sound, (claimed, report)

    def test_random_pairs_with_delta(self):
        # Heterogeneous (eps, delta) sequences with some eps = 0 or
        # delta = 0 entries, checked on the canonical mechanism.
        rng = np.random.default_rng(7031)
        for _ in range(800):
            k = int(rng.integers(1, 5))
            params = [
                (0.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 2.0)),
                 0.0 if rng.random() < 0.3 else float(rng.uniform(1e-3, 0.1)))
                for _ in range(k)
            ]
            mechs = [leaky_rr(e, d) for e, d in params]
            seq = MechanismSequence.from_pairs(params)
            p0, p1 = (
                Hypothesis.point_mass(BitVector(int(rng.integers(1 << k)), k))
                if rng.random() < 0.3 else random_hypothesis(rng, k)
                for _ in range(2)
            )
            claimed = hdp_guarantee(p0, p1, seq, Simple())
            report = verify_hdp(mechs, p0, p1, claimed)
            assert report.sound, (p0, p1, params, claimed, report)


class TestUniformPriorSound:
    def test_block_pipeline_heterogeneous(self):
        # No closed form exists for mixed rates; enumeration is the only
        # independent check of the per-block pipeline here.
        mechs, seq = rr_setup([0.25, 0.3, 0.4])
        claimed = uniform_prior_bound(seq, Simple())
        report = verify_hdp(
            mechs,
            Hypothesis.point_mass(BitVector.zeros(3)),
            Hypothesis.uniform_nonzero(3),
            claimed,
        )
        assert report.sound

    def test_split_pipeline_heterogeneous(self):
        mechs, seq = rr_setup([0.2, 0.35, 0.45, 0.3])
        claimed = uniform_prior_bound(seq, Simple())
        report = verify_hdp(
            mechs,
            Hypothesis.point_mass(BitVector.zeros(4)),
            Hypothesis.uniform_nonzero(4),
            claimed,
        )
        assert report.sound

    def test_uniform_all_against_zero(self):
        # The uniform prior over *all* vectors is an even weaker
        # adversary; the nonzero-prior bound still covers it.
        mechs, seq = rr_setup([0.25] * 3)
        claimed = uniform_prior_bound(seq, Simple())
        report = verify_hdp(
            mechs,
            Hypothesis.point_mass(BitVector.zeros(3)),
            Hypothesis.uniform_all(3),
            claimed,
        )
        assert report.sound


    def test_heterogeneous_deltas_point_mass(self):
        # Averaging the block deltas gave (2.6716, 0.0667); the canonical
        # mechanism needs 0.0724 at that epsilon.
        params = [(0.1, 0.1), (3.0, 0.0)]
        claimed = uniform_prior_bound(MechanismSequence.from_pairs(params), Simple())
        assert uniform_prior_bound_sound(params, claimed), claimed

    def test_random_sequences_with_delta(self):
        rng = np.random.default_rng(2718)
        for _ in range(100):
            params = random_params(rng, int(rng.integers(1, 6)))
            claimed = uniform_prior_bound(MechanismSequence.from_pairs(params), Simple())
            assert uniform_prior_bound_sound(params, claimed), (params, claimed)


def random_params(rng, k):
    """Heterogeneous (eps, delta) pairs, some with eps = 0 or delta = 0."""
    return [
        (0.0 if rng.random() < 0.15 else float(rng.uniform(0.05, 3.0)),
         0.0 if rng.random() < 0.3 else float(rng.uniform(1e-3, 0.2)))
        for _ in range(k)
    ]


def uniform_prior_bound_sound(params, claimed):
    k = len(params)
    report = verify_hdp(
        [leaky_rr(e, d) for e, d in params],
        Hypothesis.point_mass(BitVector.zeros(k)),
        Hypothesis.uniform_nonzero(k),
        claimed,
    )
    return report.sound


def point_pairs_sound(params, pairs, claimed):
    mechs = [leaky_rr(e, d) for e, d in params]
    return all(
        verify_hdp(mechs, Hypothesis.point_mass(a), Hypothesis.point_mass(b), claimed).sound
        for a, b in pairs
    )


def max_ones_pairs(k, size):
    """Zero against every vector with min(size, k) ones.

    These cover every pair the constraint allows on the canonical
    mechanism: the pair's differing positions decide the oracle's answer
    (the mechanism is symmetric under swapping absent and present), and
    fewer differing positions is a post-processing of more, by
    resampling the extra positions from the absent distribution.
    """
    zero = BitVector.zeros(k)
    return [
        (zero, BitVector.from_bits(int(i in ones) for i in range(k)))
        for ones in itertools.combinations(range(k), min(size, k))
    ]


class TestConstrainedBoundSound:
    def test_max_ones_heterogeneous_deltas(self):
        # The epsilon-largest singleton is 10 with delta 0; 01 needs 1e-3.
        params = [(math.log(3.0), 0.0), (math.log(1.5), 1e-3)]
        seq = MechanismSequence.from_pairs(params)
        claimed = constrained_bound(seq, MaxOnes(1), NeighborhoodMode.UNBOUNDED, Simple())
        assert point_pairs_sound(params, max_ones_pairs(2, 1), claimed), claimed

    def test_random_max_ones_with_delta(self):
        rng = np.random.default_rng(3141)
        for _ in range(80):
            k = int(rng.integers(1, 6))
            params = random_params(rng, k)
            m = int(rng.integers(1, k + 1))
            mode = NeighborhoodMode.BOUNDED if rng.random() < 0.5 else NeighborhoodMode.UNBOUNDED
            claimed = constrained_bound(
                MechanismSequence.from_pairs(params), MaxOnes(m), mode, Simple()
            )
            size = 2 * m if mode is NeighborhoodMode.BOUNDED else m
            assert point_pairs_sound(params, max_ones_pairs(k, size), claimed), (params, m, mode)

    def test_random_pattern_sets_with_delta(self):
        rng = np.random.default_rng(1618)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            params = random_params(rng, k)
            count = min(int(rng.integers(1, 5)), (1 << k) - 1)
            words = rng.choice(np.arange(1, 1 << k), size=count, replace=False)
            patterns = PatternSet.of([BitVector(0, k)] + [BitVector(int(w), k) for w in words])
            ordered = sorted(patterns.patterns, key=lambda p: p.word)
            for mode in NeighborhoodMode:
                claimed = constrained_bound(
                    MechanismSequence.from_pairs(params), patterns, mode, Simple()
                )
                if mode is NeighborhoodMode.BOUNDED:
                    pairs = list(itertools.combinations(ordered, 2))
                else:
                    pairs = [(ordered[0], p) for p in ordered[1:]]
                assert point_pairs_sound(params, pairs, claimed), (params, ordered, mode)

    def test_max_ones_all_allowed_pairs(self):
        mechs, seq = rr_setup([0.25, 0.3, 0.35, 0.4])
        for mode in NeighborhoodMode:
            bound = constrained_bound(seq, MaxOnes(2), mode, Simple())
            vectors = [BitVector(w, 4) for w in range(16) if BitVector(w, 4).ones_count() <= 2]
            if mode is NeighborhoodMode.UNBOUNDED:
                pairs = [(BitVector.zeros(4), b) for b in vectors]
            else:
                pairs = list(itertools.combinations(vectors, 2))
            for a, b in pairs:
                report = verify_hdp(
                    mechs,
                    Hypothesis.point_mass(a),
                    Hypothesis.point_mass(b),
                    bound,
                )
                assert report.sound, (mode, str(a), str(b))

    def test_max_ones_mixtures_over_allowed_vectors(self):
        # Composite hypotheses supported on the allowed set are covered
        # by the same constrained bound.
        mechs, seq = rr_setup([0.25] * 4)
        bound = constrained_bound(seq, MaxOnes(2), NeighborhoodMode.UNBOUNDED, Simple())
        allowed = [BitVector(w, 4) for w in range(16) if BitVector(w, 4).ones_count() <= 2]
        rng = np.random.default_rng(11)
        zero = Hypothesis.point_mass(BitVector.zeros(4))
        for _ in range(25):
            n = int(rng.integers(1, len(allowed) + 1))
            chosen = rng.choice(len(allowed), size=n, replace=False)
            weights = rng.dirichlet(np.ones(n))
            p1 = Hypothesis({allowed[int(i)]: float(p) for i, p in zip(chosen, weights)})
            report = verify_hdp(mechs, zero, p1, bound)
            assert report.sound

    def test_pattern_set_all_pairs(self):
        mechs, seq = rr_setup([0.25, 0.3, 0.4])
        patterns = PatternSet.of([
            BitVector.from_string("000"),
            BitVector.from_string("110"),
            BitVector.from_string("101"),
        ])
        bound = constrained_bound(seq, patterns, NeighborhoodMode.BOUNDED, Simple())
        for a, b in itertools.combinations(sorted(patterns.patterns, key=lambda p: p.word), 2):
            report = verify_hdp(
                mechs, Hypothesis.point_mass(a), Hypothesis.point_mass(b), bound
            )
            assert report.sound, (str(a), str(b))


class TestExclusiveGroupsSound:
    def test_random_boundaries_with_delta(self):
        # Bounded mode claims all three pairs of the first-group pattern,
        # the second-group pattern and zero; unbounded mode drops
        # second vs zero.
        rng = np.random.default_rng(1729)
        for _ in range(150):
            total = int(rng.integers(2, 7))
            shared_end = int(rng.integers(0, total - 1))
            first_only_end = int(rng.integers(shared_end + 1, total))
            params = random_params(rng, total)
            seq = MechanismSequence.from_pairs(params)
            first = bv("1" * first_only_end + "0" * (total - first_only_end))
            second = bv("1" * shared_end + "0" * (first_only_end - shared_end)
                        + "1" * (total - first_only_end))
            zero = BitVector.zeros(total)
            for mode in NeighborhoodMode:
                claimed = exclusive_groups_bound(seq, shared_end, first_only_end, total, mode)
                pairs = [(first, second), (first, zero)]
                if mode is NeighborhoodMode.BOUNDED:
                    pairs.append((second, zero))
                assert point_pairs_sound(params, pairs, claimed), (
                    params, shared_end, first_only_end, mode, claimed
                )


class TestClaimsAreSharp:
    def test_classic_bound_cannot_be_shaved(self):
        # (3 ln 3, 0) is exactly attained by the all-zero/all-one pair;
        # any smaller epsilon at delta 0 must fail enumeration.
        mechs, seq = rr_setup([0.25] * 3)
        tight = PrivacyParams(3.0 * math.log(3.0), 0.0)
        shaved = PrivacyParams(2.9 * math.log(3.0), 0.0)
        p0 = Hypothesis.point_mass(BitVector.zeros(3))
        p1 = Hypothesis.point_mass(BitVector.ones(3))
        assert verify_hdp(mechs, p0, p1, tight).sound
        assert not verify_hdp(mechs, p0, p1, shaved).sound

    def test_uniform_prior_closed_form_cannot_be_shaved(self):
        mechs, seq = rr_setup([0.25] * 3)
        claimed = uniform_prior_bound(seq, Simple())
        p0 = Hypothesis.point_mass(BitVector.zeros(3))
        p1 = Hypothesis.uniform_nonzero(3)
        assert verify_hdp(mechs, p0, p1, claimed).sound
        shaved = PrivacyParams(claimed.epsilon - 0.05, 0.0)
        assert not verify_hdp(mechs, p0, p1, shaved).sound
