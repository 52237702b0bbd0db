"""Cross-module soundness: every analytic bound survives the exact oracle.

These tests wire the accounting pipelines to the brute-force checker:
randomized-response mechanisms realize the per-iteration guarantees
exactly, so any bound the library reports for them must hold under
exact enumeration. This exercises refinement, per-pair composition,
aggregation, constraints, and the subsampling pipelines end to end.
"""

import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from hypodp.composition import (
    Advanced,
    Simple,
    _piece_keys,
    best_classic_bound,
    simple_compose,
)
from hypodp.constraints import (
    MaxOnes,
    NeighborhoodMode,
    PatternSet,
    constrained_bound,
    exclusive_groups_bound,
)
from hypodp.core import (
    NORMALIZATION_TOLERANCE,
    BitVector,
    Hypothesis,
    MechanismSequence,
    PrivacyParams,
    word_of,
)
from hypodp.hypothesis_dp import (
    PAIR_DTYPE,
    _aggregate,
    hdp_guarantee,
    pair_guarantee,
    refine_tuples,
    uniform_nonzero_closed_form,
)
from hypodp.oracle import (
    DiscreteMechanism,
    leaky_rr,
    randomized_response,
    randomized_response_guarantee,
    verify_hdp,
)
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
        claimed = _aggregate(pairs, np.arange(2), np.array([g.as_tuple() for g in per_pair]))
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



def shifted_uniform(k, shift):
    """``uniform_all(k)`` and the same weights moved by +shift, -shift, ... in word order."""
    p0 = Hypothesis.uniform_all(k)
    moved = p0.weights + np.where(np.arange(1 << k) % 2 == 0, shift, -shift)
    return p0, Hypothesis([(BitVector(i, k), float(w)) for i, w in enumerate(moved)])


class TestEveryUnitOfMassIsMatched:
    # Every step of these walks leaves a residual below 1e-12. Each must
    # become a piece: without them all pieces are diagonal and claim (0, 0).
    def test_near_uniform_pair_with_randomized_response(self):
        k = 10
        p0, p1 = shifted_uniform(k, 9e-13)
        mechs, seq = rr_setup([0.25] * k)
        claimed = hdp_guarantee(p0, p1, seq, Simple())
        report = verify_hdp(mechs, p0, p1, claimed)
        assert report.sound, (claimed, report)

    def test_near_uniform_pair_with_leaky_rr(self):
        k = 7
        p0, p1 = shifted_uniform(k, 9e-13)
        claimed = hdp_guarantee(p0, p1, MechanismSequence.homogeneous(0.5, 1e-3, k), Simple())
        report = verify_hdp([leaky_rr(0.5, 1e-3)] * k, p0, p1, claimed)
        assert report.sound, (claimed, report)

    def test_totals_apart_within_the_normalization_tolerance(self):
        # p1 totals 1 - 9e-10: rescaled at construction, all its mass is matched.
        p0 = Hypothesis({bv("00"): 0.5, bv("11"): 0.5})
        p1 = Hypothesis({bv("00"): 0.5 - 5e-10, bv("11"): 0.5 - 4e-10})
        claimed = hdp_guarantee(p0, p1, MechanismSequence.homogeneous(1.0, 0.0, 2), Simple())
        assert verify_hdp([leaky_rr(1.0, 0.0)] * 2, p0, p1, claimed).sound


@st.composite
def near_equal_pairs(draw):
    """A shared support whose weights move in +/- pairs by 1e-13 to 1e-11,
    mostly below 1e-12, each side's total 1 or just inside 1 +/-
    NORMALIZATION_TOLERANCE; either side may instead be a point mass."""
    k = draw(st.integers(1, 9))
    n = draw(st.integers(1, 1 << k))
    start, stride = draw(st.integers(0, (1 << k) - 1)), 2 * draw(st.integers(0, 255)) + 1
    words = [(start + stride * i) % (1 << k) for i in range(n)]  # distinct: stride is odd
    raw = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    base = [r / math.fsum(raw) for r in raw]
    moved = list(base)
    for i in range(0, n - 1, 2):
        shift = draw(st.one_of(st.floats(1e-13, 1e-12), st.floats(1e-13, 1e-11)))
        sign = draw(st.sampled_from([1.0, -1.0]))
        moved[i] += sign * shift
        moved[i + 1] -= sign * shift
    edges = [draw(st.sampled_from([0.0, 1.0, -1.0])) * (NORMALIZATION_TOLERANCE - 1e-13)
             for _ in range(2)]
    sides = [Hypothesis([(BitVector(w, k), x * (1.0 + edge)) for w, x in zip(words, ws)])
             for ws, edge in zip((base, moved), edges)]
    for i in range(2):
        if draw(st.integers(0, 4)) == 0:
            sides[i] = Hypothesis.point_mass(BitVector(draw(st.integers(0, (1 << k) - 1)), k))
    if draw(st.booleans()):
        sides.reverse()
    return k, *sides


class BestClassic:
    """A pluggable theorem: the better of simple and advanced composition, each sound."""

    def compose_guarantees(self, guarantees):
        return best_classic_bound(guarantees, 1e-6)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(near_equal_pairs(), st.sampled_from([0.05, 0.25, 0.45]),
       st.sampled_from([0.0, 1e-6, 1e-3, 0.05]),
       st.sampled_from([Simple(), Advanced(1e-12), Advanced(1e-6), BestClassic()]))
def test_hdp_guarantee_holds_on_near_equal_pairs(pair, q, delta, theorem):
    # Randomized response at delta 0; leaky_rr, four views a position,
    # only at k <= 7, where the oracle stays fast.
    k, p0, p1 = pair
    if k > 7:
        delta = 0.0
    if delta == 0.0:
        mechs, seq = rr_setup([q] * k)
    else:
        eps = randomized_response_guarantee(q).epsilon
        mechs, seq = [leaky_rr(eps, delta)] * k, MechanismSequence.homogeneous(eps, delta, k)
    claimed = hdp_guarantee(p0, p1, seq, theorem)
    report = verify_hdp(mechs, p0, p1, claimed)
    assert report.sound, (claimed, report)


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
        (zero, BitVector(word_of(ones, k), k))
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
        # The block bound and the closed form, equal here, are attained on zero vs
        # uniform_nonzero: 0.05 less epsilon at delta 0 fails enumeration.
        mechs, seq = rr_setup([0.25] * 3)
        p0 = Hypothesis.point_mass(BitVector.zeros(3))
        p1 = Hypothesis.uniform_nonzero(3)
        for claimed in (uniform_prior_bound(seq, Simple()),
                        uniform_nonzero_closed_form(seq[0].epsilon, seq[0].delta, 3)):
            assert verify_hdp(mechs, p0, p1, claimed).sound
            shaved = PrivacyParams(claimed.epsilon - 0.05, 0.0)
            assert not verify_hdp(mechs, p0, p1, shaved).sound


# Soundness gates, one per pipeline: every claim is judged by verify_hdp
# with leaky_rr at each position, the canonical mechanism for its (eps,
# delta), on guarantees drawn toward the edges.
EDGE_EPS = st.one_of(st.sampled_from([0.0, 1e-12, 30.0, 300.0, math.nextafter(690.0, 0.0)]),
                     st.floats(0.0, 3.0))
EDGE_DELTA = st.one_of(st.sampled_from([0.0, 1e-6, 0.5, 0.999, 1.0]), st.floats(0.0, 0.05))
GATE = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def edge_sequences(draw, min_k=1):
    """(eps, delta) pairs for k <= 5 positions and a theorem: Simple, or
    Advanced where every position carries the same pair."""
    k = draw(st.integers(min_k, 5))
    if draw(st.booleans()):
        params = [(draw(EDGE_EPS), draw(EDGE_DELTA))] * k
        theorem = draw(st.sampled_from([Simple(), Advanced(1e-12), Advanced(1e-6)]))
    else:
        params = [(draw(EDGE_EPS), draw(EDGE_DELTA)) for _ in range(k)]
        theorem = Simple()
    return params, theorem


def zero_against(k, words):
    """The zero point mass against the point mass on each nonzero word.

    leaky_rr is symmetric under swapping absent and present, so the
    oracle's verdict on point masses a and b is its verdict on 0 and a ^ b.
    """
    zero = Hypothesis.point_mass(BitVector.zeros(k))
    return [(zero, Hypothesis.point_mass(BitVector(w, k))) for w in sorted(set(words)) if w]


def judge(params, pairs, claimed):
    """Assert that ``claimed`` holds on every pair; return the mechanisms.

    An input the oracle refuses, since its views cannot resolve the claim,
    is rejected.
    """
    mechs = [leaky_rr(e, d) for e, d in params]
    for p0, p1 in pairs:
        try:
            report = verify_hdp(mechs, p0, p1, claimed)
        except ValueError:
            reject()
        assert report.sound, (params, str(p1.atoms[0][0]), len(p1), claimed, report)
    return mechs


@GATE
@given(edge_sequences(), st.sampled_from(list(NeighborhoodMode)), st.data())
def test_constrained_bound_holds_on_allowed_pairs(drawn, mode, data):
    params, theorem = drawn
    k = len(params)
    if data.draw(st.booleans()):
        m = data.draw(st.integers(1, k))
        constraint = MaxOnes(m)
        size = m if mode is NeighborhoodMode.UNBOUNDED else 2 * m
        words = [w for w in range(1 << k) if w.bit_count() <= size]
    else:
        patterns = {0} | data.draw(st.sets(st.integers(1, (1 << k) - 1), max_size=4))
        constraint = PatternSet.of([BitVector(w, k) for w in patterns])
        if mode is NeighborhoodMode.UNBOUNDED:
            words = patterns
        else:
            words = [a ^ b for a, b in itertools.combinations(patterns, 2)]
    claimed = constrained_bound(MechanismSequence.from_pairs(params), constraint, mode, theorem)
    judge(params, zero_against(k, words), claimed)


@GATE
@given(edge_sequences(min_k=2), st.sampled_from(list(NeighborhoodMode)), st.data())
def test_exclusive_groups_bound_holds_on_allowed_pairs(drawn, mode, data):
    params, theorem = drawn
    k = len(params)
    shared_end = data.draw(st.integers(0, k - 2))
    first_only_end = data.draw(st.integers(shared_end + 1, k - 1))
    first = word_of(range(first_only_end), k)
    second = word_of([*range(shared_end), *range(first_only_end, k)], k)
    words = [first ^ second, first] + ([second] if mode is NeighborhoodMode.BOUNDED else [])
    claimed = exclusive_groups_bound(MechanismSequence.from_pairs(params), shared_end,
                                     first_only_end, k, mode, theorem)
    judge(params, zero_against(k, words), claimed)


def zero_against_uniform_nonzero(k):
    return [(Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k))]


@GATE
@given(edge_sequences())
def test_uniform_prior_bound_holds_on_zero_against_uniform_nonzero(drawn):
    params, theorem = drawn
    claimed = uniform_prior_bound(MechanismSequence.from_pairs(params), theorem)
    judge(params, zero_against_uniform_nonzero(len(params)), claimed)


@GATE
@given(st.integers(1, 5), EDGE_EPS, EDGE_DELTA)
def test_uniform_nonzero_closed_form_holds_on_zero_against_uniform_nonzero(k, eps, delta):
    claimed = uniform_nonzero_closed_form(eps, delta, k)
    judge([(eps, delta)] * k, zero_against_uniform_nonzero(k), claimed)


@GATE
@given(edge_sequences(), st.sampled_from([1e-12, 1e-6, 0.5]))
def test_best_classic_bound_holds_on_zero_against_all_ones(drawn, slack):
    params, _ = drawn
    k = len(params)
    seq = MechanismSequence.from_pairs(params)
    claimed = best_classic_bound(seq, slack)
    pair = zero_against(k, [(1 << k) - 1])
    mechs = judge(params, pair, claimed)
    # Simple composition at delta 0 is attained on this pair: 10 % less epsilon fails.
    if claimed == simple_compose(seq) and claimed.delta == 0.0 and claimed.epsilon >= 0.01:
        shaved = PrivacyParams(0.9 * claimed.epsilon, 0.0)
        assert not verify_hdp(mechs, *pair[0], shaved).sound, (params, claimed)


# The class path: exchangeable pairs, whose weights depend only on the
# count of ones in each guarantee group, refine as popcount laws.
PRESETS = ("uniform_all", "uniform_nonzero")


def exchangeable(k, groups, law):
    """The hypothesis spreading ``law[c]`` evenly over class c, a tuple of counts per group;
    a law named in ``PRESETS`` is that preset, built by its constructor."""
    if isinstance(law, str):
        return getattr(Hypothesis, law)(k)
    classes = {w: tuple(sum(w >> (k - 1 - i) & 1 for i in g) for g in groups)
               for w in range(1 << k)}
    sizes = Counter(classes.values())
    return Hypothesis([(BitVector(w, k), law[c] / sizes[c])
                       for w, c in classes.items() if c in law])


def flat_pipeline(p0, p1, seq, theorem):
    """``hdp_guarantee`` atom by atom, as it runs wherever the class path does not."""
    pairs = refine_tuples(p0, p1).pairs
    return _aggregate(pairs, *_piece_keys(pairs["word0"] ^ pairs["word1"], seq, theorem, p0.k))


@st.composite
def exchangeable_pairs(draw, guarantee=st.tuples(EDGE_EPS, EDGE_DELTA), max_k=5):
    """Two class laws over 1-3 guarantee groups, each position's (eps, delta),
    and a theorem: Simple, the pluggable BestClassic, or Advanced where one
    group holds every position.

    A law is drawn, a point mass at zero or at all-ones, or a preset; the
    second is drawn or a preset, or may move a drawn first law's masses in
    +/- pairs by 1e-13 to 1e-11."""
    k = draw(st.integers(2, max_k))  # at k = 1 every class is one vector
    group_of = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    labels = sorted(set(group_of))
    groups = [[i for i in range(k) if group_of[i] == g] for g in labels]
    classes = list(itertools.product(*(range(len(g) + 1) for g in groups)))

    def law(shapes=("drawn", "zero", "ones", *PRESETS)):
        shape = draw(st.sampled_from(shapes))
        if shape in PRESETS:
            return shape
        if shape != "drawn":
            return {classes[0 if shape == "zero" else -1]: 1.0}
        raw = draw(st.lists(st.integers(0, 3), min_size=len(classes), max_size=len(classes)))
        raw = [3 - r for r in raw]  # shrinks toward full support
        raw[-1] += not any(raw)
        return {c: r / sum(raw) for c, r in zip(classes, raw) if r}

    law0 = law()
    if isinstance(law0, str) or len(law0) == 1 or draw(st.booleans()):
        law1 = law(["drawn", *PRESETS])
    else:
        law1, present = dict(law0), list(law0)
        for a, b in zip(present[::2], present[1::2]):
            shift = draw(st.floats(1e-13, 1e-11)) * draw(st.sampled_from([1.0, -1.0]))
            law1[a] += shift
            law1[b] -= shift
    laws = [law0, law1][::draw(st.sampled_from([1, -1]))]
    drawn = draw(st.lists(guarantee, min_size=len(labels), max_size=len(labels), unique=True))
    by_label = dict(zip(labels, drawn))
    theorems = [Simple(), BestClassic()]
    if len(groups) == 1:
        theorems += [Advanced(1e-12), Advanced(1e-6)]
    return [by_label[g] for g in group_of], groups, *laws, draw(st.sampled_from(theorems))


def exchangeable_claim(params, groups, law0, law1, theorem):
    k = len(params)
    p0, p1 = exchangeable(k, groups, law0), exchangeable(k, groups, law1)
    return p0, p1, hdp_guarantee(p0, p1, MechanismSequence.from_pairs(params), theorem)


@GATE
@given(exchangeable_pairs())
def test_hdp_guarantee_holds_on_exchangeable_pairs(drawn):
    p0, p1, claimed = exchangeable_claim(*drawn)
    judge(drawn[0], [(p0, p1)], claimed)


def test_class_epsilon_is_not_above_the_flat_pipelines():
    # k <= 10: at k = 11 and 12 the flat pipeline's own sequential group
    # sums over thousands of pieces drift by up to 5e-13 on point masses.
    rng = np.random.default_rng(1807)
    lower = total = 0
    for _ in range(400):
        k = int(rng.integers(2, 11))
        group_of = rng.integers(0, int(rng.integers(1, 4)), size=k).tolist()
        groups = [[i for i in range(k) if group_of[i] == g] for g in sorted(set(group_of))]
        classes = list(itertools.product(*(range(len(g) + 1) for g in groups)))
        raw = rng.integers(0, 4, size=(2, len(classes)))
        raw[:, -1] += 1
        law0, law1 = ({c: r / row.sum() for c, r in zip(classes, row.tolist()) if r} for row in raw)
        shape = rng.choice(["drawn", "zero", "ones", "moved"])
        if shape in ("zero", "ones"):
            law0 = {classes[0 if shape == "zero" else -1]: 1.0}
        elif shape == "moved":
            law1, shift = dict(law0), float(rng.uniform(1e-13, 1e-11))
            for a, b in zip(list(law0)[::2], list(law0)[1::2]):
                law1[a], law1[b] = law1[a] + shift, law1[b] - shift
        guarantee = {g: PrivacyParams(float(rng.uniform(0.05, 1.0)),
                                      float(rng.choice([0.0, 1e-6, 1e-3]))) for g in group_of}
        seq = MechanismSequence(tuple(guarantee[g] for g in group_of))
        p0, p1 = exchangeable(k, groups, law0), exchangeable(k, groups, law1)
        for theorem in [Simple()] + ([Advanced(1e-6)] if len(groups) == 1 else []):
            got, flat = hdp_guarantee(p0, p1, seq, theorem), flat_pipeline(p0, p1, seq, theorem)
            assert got.epsilon <= flat.epsilon + 1e-13, (k, groups, law0, law1, seq, theorem)
            lower, total = lower + (got.epsilon < flat.epsilon), total + 1
    assert lower > total // 4  # strictly tighter on 194 of 551, the rest equal or dust


def test_point_masses_against_presets_match_the_flat_pipeline():
    # Sums in another order: epsilon within 1e-13, delta never above by more than 1e-15.
    rng = np.random.default_rng(2323)
    for k in range(2, 13):
        pool = [PrivacyParams(float(rng.uniform(0.01, 1.5)), float(rng.choice([0.0, 1e-7, 1e-3])))
                for _ in range(3)]
        for seq in (MechanismSequence((pool[0],) * k),
                    MechanismSequence(tuple(pool[i] for i in rng.integers(0, 3, size=k)))):
            theorems = [Simple()] + ([Advanced(1e-6)] if seq.is_homogeneous() else [])
            for point, preset, theorem in itertools.product(
                    (BitVector.zeros(k), BitVector.ones(k)),
                    (Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k)), theorems):
                for pair in ((Hypothesis.point_mass(point), preset),
                             (preset, Hypothesis.point_mass(point))):
                    got = hdp_guarantee(*pair, seq, theorem)
                    flat = flat_pipeline(*pair, seq, theorem)
                    assert abs(got.epsilon - flat.epsilon) <= 1e-13, (k, seq, theorem)
                    assert got.delta <= flat.delta * (1 + 1e-15), (k, seq, theorem)


def test_preset_pairs_at_k23_within_budget():
    # The presets declare their class laws, so neither builds its 2^23 atoms.
    k = 23
    seq = MechanismSequence.homogeneous(0.3, 1e-6, k)
    zero = Hypothesis.point_mass(BitVector.zeros(k))
    for p0 in (Hypothesis.uniform_all(k), zero):
        p1 = Hypothesis.uniform_nonzero(k)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            got = hdp_guarantee(p0, p1, seq, Simple())
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.5 and peak < 1 << 20, (elapsed, peak)
        assert all(p._words is None for p in (p0, p1) if p._first is not None)
        if p0 is zero:
            want = uniform_nonzero_closed_form(0.3, 1e-6, k)
            assert got.epsilon == pytest.approx(want.epsilon, rel=1e-12)
            assert got.delta == pytest.approx(want.delta, rel=1e-12)
        else:
            assert got.epsilon < 0.02 and got.delta < 1e-11, got
    assert np.array_equal(p1.words, np.arange(1, 2**k))
