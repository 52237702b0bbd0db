import itertools
import math

import numpy as np
import pytest

from hypodp import hypothesis_dp
from hypodp.composition import Advanced, Simple, compose, compose_selections, simple_compose
from hypodp.core import BitVector, Hypothesis, MechanismSequence, PrivacyParams, bit_rows
from hypodp.errors import EmptySetError, IncompatibleTheoremError, MixedLengthError
from hypodp.hypothesis_dp import (
    _aggregate,
    differing_indices,
    hdp_guarantee,
    hdp_guarantee_over_set,
    pair_guarantee,
    uniform_nonzero_closed_form,
)
from hypodp.refinement import PAIR_DTYPE, refine_tuples

# Frozen via direct 50-digit evaluation of ln[((1+e^eps)^k - 1)/(2^k - 1)].
UNIFORM_K2_EPS1 = 1.4528324252639413   # k=2, eps=1
UNIFORM_K3_EPS05 = 0.9210052221977069  # k=3, eps=0.5
UNIFORM_K12_EPS01 = 0.615105922653321  # k=12, eps=0.1


def bv(s):
    return BitVector.from_string(s)


class TestDifferingIndices:
    def test_identical(self):
        assert differing_indices(bv("000"), bv("000")) == ()

    def test_full_flip(self):
        # 0-based positions; position 0 is the first iteration.
        assert differing_indices(bv("000"), bv("111")) == (0, 1, 2)

    def test_single_bit(self):
        assert differing_indices(bv("010"), bv("011")) == (2,)

    def test_mixed_length_rejected(self):
        with pytest.raises(MixedLengthError):
            differing_indices(bv("00"), bv("000"))


class TestPairGuarantee:
    seq = MechanismSequence.homogeneous(0.1, 1e-6, 3)

    def test_equal_vectors(self):
        b = bv("0110")
        seq = MechanismSequence.homogeneous(0.1, 1e-6, 4)
        assert pair_guarantee(b, b, seq, Simple()) == PrivacyParams(0.0, 0.0)

    def test_full_flip_reduces_to_simple(self):
        g = pair_guarantee(bv("000"), bv("111"), self.seq, Simple())
        assert g == simple_compose(self.seq)

    def test_single_differing_index(self):
        g = pair_guarantee(bv("010"), bv("011"), self.seq, Simple())
        assert g == PrivacyParams(0.1, 1e-6)

    def test_flip_pair_equals_compose_for_every_vector(self):
        seq = MechanismSequence.from_pairs([(0.1, 0.0), (0.2, 1e-7), (0.3, 1e-6)])
        for word in range(8):
            b = BitVector(word, 3)
            assert pair_guarantee(b, b.flip(), seq, Simple()) == simple_compose(seq)
        homog = MechanismSequence.homogeneous(0.2, 1e-7, 3)
        for word in range(8):
            b = BitVector(word, 3)
            assert pair_guarantee(b, b.flip(), homog, Advanced(1e-6)) == compose(
                homog, Advanced(1e-6)
            )

    def test_advanced_on_heterogeneous_subsequence_fails(self):
        seq = MechanismSequence.from_pairs([(0.1, 0.0), (0.2, 0.0)])
        with pytest.raises(IncompatibleTheoremError):
            pair_guarantee(bv("00"), bv("11"), seq, Advanced(1e-6))

    def test_sequence_length_must_match(self):
        for k in (2, 4):
            seq = MechanismSequence.homogeneous(0.5, 0.0, k)
            with pytest.raises(MixedLengthError):
                pair_guarantee(bv("000"), bv("111"), seq, Simple())


class TestHdpGuarantee:
    def test_identical_hypotheses(self):
        p = Hypothesis.uniform(BitVector(w, 2) for w in (0, 1, 3))
        seq = MechanismSequence.homogeneous(0.5, 1e-6, 2)
        g = hdp_guarantee(p, p, seq, Simple())
        assert g.epsilon <= 1e-12
        assert g.delta == 0.0

    def test_single_bit_reduces_to_classic(self):
        p0 = Hypothesis.point_mass(bv("0"))
        p1 = Hypothesis.point_mass(bv("1"))
        seq = MechanismSequence.from_pairs([(0.5, 1e-6)])
        assert hdp_guarantee(p0, p1, seq, Simple()) == PrivacyParams(0.5, 1e-6)

    def test_uniform_nonzero_matches_closed_form_k2(self):
        p0 = Hypothesis.point_mass(bv("00"))
        p1 = Hypothesis.uniform_nonzero(2)
        seq = MechanismSequence.homogeneous(1.0, 1e-6, 2)
        g = hdp_guarantee(p0, p1, seq, Simple())
        assert g.epsilon == pytest.approx(UNIFORM_K2_EPS1, abs=1e-12)
        assert g.delta == pytest.approx(4.0 / 3.0 * 1e-6, rel=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            k = int(rng.integers(1, 5))
            n = 1 << k
            n0 = int(rng.integers(1, n + 1))
            n1 = int(rng.integers(1, n + 1))
            w0 = rng.choice(n, size=n0, replace=False)
            w1 = rng.choice(n, size=n1, replace=False)
            p0 = Hypothesis({BitVector(int(w), k): float(p)
                             for w, p in zip(w0, rng.dirichlet(np.ones(n0)))})
            p1 = Hypothesis({BitVector(int(w), k): float(p)
                             for w, p in zip(w1, rng.dirichlet(np.ones(n1)))})
            seq = MechanismSequence.homogeneous(0.3, 1e-7, k)
            assert hdp_guarantee(p0, p1, seq, Simple()) == hdp_guarantee(p1, p0, seq, Simple())

    def test_dominated_by_classic_bound(self):
        rng = np.random.default_rng(5150)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            seq = MechanismSequence.from_pairs([
                (float(rng.uniform(1e-3, 2.0)), float(rng.uniform(0.0, 1e-4)))
                for _ in range(k)
            ])
            n = 1 << k
            n0, n1 = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
            p0 = Hypothesis({BitVector(int(w), k): float(p) for w, p in
                             zip(rng.choice(n, n0, replace=False), rng.dirichlet(np.ones(n0)))})
            p1 = Hypothesis({BitVector(int(w), k): float(p) for w, p in
                             zip(rng.choice(n, n1, replace=False), rng.dirichlet(np.ones(n1)))})
            g = hdp_guarantee(p0, p1, seq, Simple())
            classic = compose(seq, Simple())
            assert g.epsilon <= classic.epsilon + 1e-12
            assert g.delta <= classic.delta + 1e-15


    def test_sequence_length_must_match(self):
        # Five mechanisms used to return the three-mechanism answer
        # (0.921, 0); two raised a bare IndexError.
        zero, nonzero = Hypothesis.point_mass(bv("000")), Hypothesis.uniform_nonzero(3)
        for k in (2, 5):
            seq = MechanismSequence.homogeneous(0.5, 0.0, k)
            for p0, p1 in ((zero, nonzero), (nonzero, zero)):
                with pytest.raises(MixedLengthError):
                    hdp_guarantee(p0, p1, seq, Simple())


def per_row_reference(p0, p1, seq, theorem):
    """hdp_guarantee with ``compose`` run on every refined piece's differing positions."""
    r = refine_tuples(p0, p1)
    per_row = [
        compose([seq[i] for i in differing_indices(BitVector(w0, r.k), BitVector(w1, r.k))],
                theorem)
        for _, w0, w1 in r.pairs.tolist()
    ]
    eps = np.array([g.epsilon for g in per_row])
    delta = np.array([g.delta for g in per_row])
    return _aggregate(r.pairs, eps, delta)


def random_mixture(rng, k):
    n = int(rng.integers(1, (1 << k) + 1))
    words = rng.choice(1 << k, size=n, replace=False)
    return Hypothesis({BitVector(int(w), k): float(p)
                       for w, p in zip(words, rng.dirichlet(np.ones(n)))})


class TestDistinctKeys:
    """One composition per distinct key gives exactly the per-piece result."""

    def test_equals_per_row_reference(self):
        rng = np.random.default_rng(4242)
        cases = []
        for k in (3, 6, 10):
            zero, nonzero = Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k)
            homog = MechanismSequence.homogeneous(float(rng.uniform(0.05, 1.0)), 1e-7, k)
            for p0 in (zero, Hypothesis.uniform_all(k)):
                cases += [(p0, nonzero, homog, Simple()), (nonzero, p0, homog, Advanced(1e-6))]
        for _ in range(30):
            k = int(rng.integers(2, 11))
            p0, p1 = random_mixture(rng, k), random_mixture(rng, k)
            # Three guarantees repeated across positions, so one key
            # covers pieces whose differing positions are not the same.
            pool = [PrivacyParams(float(rng.uniform(0.01, 1.5)), float(rng.choice([0.0, 1e-6])))
                    for _ in range(3)]
            repeated = MechanismSequence(tuple(pool[i] for i in rng.integers(0, 3, size=k)))
            distinct = MechanismSequence.from_pairs(
                (float(rng.uniform(0.01, 1.5)), float(rng.uniform(0.0, 1e-5))) for _ in range(k)
            )
            homog = MechanismSequence.homogeneous(float(rng.uniform(0.01, 1.5)), 1e-6, k)
            cases += [(p0, p1, repeated, Simple()), (p0, p1, distinct, Simple()),
                      (p0, p1, homog, Advanced(1e-5))]
        for p0, p1, seq, theorem in cases:
            assert hdp_guarantee(p0, p1, seq, theorem) == per_row_reference(p0, p1, seq, theorem)

    def test_homogeneous_sequence_composes_once_per_key(self, monkeypatch):
        k = 12
        rows = []
        original = hypothesis_dp.compose_selections

        def counted(seq, selected, theorem):
            rows.extend(selected.tolist())
            return original(seq, selected, theorem)

        monkeypatch.setattr(hypothesis_dp, "compose_selections", counted)
        zero, nonzero = Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k)
        seq = MechanismSequence.homogeneous(0.1, 1e-6, k)
        g = hdp_guarantee(zero, nonzero, seq, Simple())
        # One key per number of ones, against 4095 pieces.
        assert len(rows) <= k + 1
        assert g.epsilon == pytest.approx(UNIFORM_K12_EPS01, abs=1e-12)

    def test_overflow_raises_like_compose(self):
        k = 4
        seq = [PrivacyParams(1e308, 0.0)] * k
        zero, nonzero = Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k)
        with pytest.raises(OverflowError):
            compose(seq, Simple())
        with pytest.raises(OverflowError):
            hdp_guarantee(zero, nonzero, seq, Simple())
        with pytest.raises(OverflowError):
            pair_guarantee(BitVector.zeros(k), BitVector.ones(k), seq, Simple())


class TestComposeDifferences:
    def test_pair_guarantee_equals_compose_of_differing_indices(self):
        rng = np.random.default_rng(606)
        for k in (1, 2, 7, 31, 63):
            seq = MechanismSequence.from_pairs(
                (float(rng.uniform(0.0, 2.0)), float(rng.choice([0.0, 1e-6]))) for _ in range(k)
            )
            words = rng.integers(0, 1 << k, size=(20, 2), dtype=np.uint64, endpoint=False)
            for w0, w1 in words.tolist() + [[0, (1 << k) - 1], [0, 0]]:
                b0, b1 = BitVector(w0, k), BitVector(w1, k)
                expected = compose([seq[i] for i in differing_indices(b0, b1)], Simple())
                assert pair_guarantee(b0, b1, seq, Simple()) == expected
                assert compose_selections(
                    seq, bit_rows([w0 ^ w1], k), Simple()
                ).tolist() == [list(expected.as_tuple())]


class TestAggregate:
    def test_zero_weight_piece_is_ignored(self):
        # A block weight that underflows to 0 must not turn into 0/0.
        pairs = np.array([(0.5, 0, 1), (0.5, 0, 2), (0.0, 0, 3)], dtype=PAIR_DTYPE)
        eps, delta = np.array([0.4, 1.1, 2.0]), np.array([1e-6, 3e-6, 1e-3])
        got = _aggregate(pairs, eps, delta)
        assert got == _aggregate(pairs[:2], eps[:2], delta[:2])
        assert got.epsilon > 0.4


class TestHdpOverSet:
    seq = MechanismSequence.from_pairs([(0.5, 1e-6)])

    def test_singleton(self):
        p0 = Hypothesis.point_mass(bv("0"))
        p1 = Hypothesis.point_mass(bv("1"))
        single = hdp_guarantee(p0, p1, self.seq, Simple())
        assert hdp_guarantee_over_set([(p0, p1)], self.seq, Simple()) == single

    def test_max_of_two(self):
        p0 = Hypothesis.point_mass(bv("0"))
        p1 = Hypothesis.point_mass(bv("1"))
        g = hdp_guarantee_over_set([(p0, p1), (p0, p0)], self.seq, Simple())
        assert g == PrivacyParams(0.5, 1e-6)

    def test_all_deterministic_pairs_k2(self):
        seq = MechanismSequence.homogeneous(0.1, 1e-6, 2)
        pairs = [
            (Hypothesis.point_mass(BitVector(a, 2)), Hypothesis.point_mass(BitVector(b, 2)))
            for a, b in itertools.product(range(4), repeat=2)
        ]
        g = hdp_guarantee_over_set(pairs, seq, Simple())
        assert g.epsilon == pytest.approx(0.2, rel=1e-15)
        assert g.delta == pytest.approx(2e-6, rel=1e-15)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            hdp_guarantee_over_set([], self.seq, Simple())

    def test_mixed_lengths_raise(self):
        k2, k3 = (Hypothesis.point_mass(BitVector.zeros(k)) for k in (2, 3))
        for pairs in ([(k2, k3)], [(k2, k2), (k3, k3)], [(k3, k2)]):
            for k in (2, 3):
                seq = MechanismSequence.homogeneous(0.5, 1e-6, k)
                with pytest.raises(MixedLengthError):
                    hdp_guarantee_over_set(pairs, seq, Simple())


class TestUniformNonzeroClosedForm:
    def test_k1_is_identity(self):
        g = uniform_nonzero_closed_form(0.7, 1e-6, 1)
        assert g.epsilon == pytest.approx(0.7, abs=1e-15)
        assert g.delta == pytest.approx(1e-6, rel=1e-15)

    def test_k2(self):
        g = uniform_nonzero_closed_form(1.0, 1e-6, 2)
        assert g.epsilon == pytest.approx(UNIFORM_K2_EPS1, abs=1e-12)
        assert g.delta == pytest.approx(4.0 / 3.0 * 1e-6, rel=1e-12)

    def test_k3(self):
        g = uniform_nonzero_closed_form(0.5, 1e-6, 3)
        assert g.epsilon == pytest.approx(UNIFORM_K3_EPS05, abs=1e-12)
        assert g.delta == pytest.approx(12.0 / 7.0 * 1e-6, rel=1e-12)

    def test_binomial_sum_route(self):
        # Independent route: ln[sum_j C(k,j) e^(j eps) / (2^k - 1)] over
        # nonzero j, which the closed form collapses via the binomial
        # formula.
        for k in (1, 2, 3, 5, 8):
            for eps in (0.1, 0.5, 1.0, 2.0):
                direct = math.log(
                    sum(math.comb(k, j) * math.exp(j * eps) for j in range(1, k + 1))
                    / (2**k - 1)
                )
                g = uniform_nonzero_closed_form(eps, 0.0, k)
                assert g.epsilon == pytest.approx(direct, abs=1e-12)

    def test_large_k_no_overflow(self):
        g = uniform_nonzero_closed_form(2.0, 1e-9, 400)
        assert math.isfinite(g.epsilon)
        assert g.epsilon > 0.0


class TestClosedFormAgreement:
    def test_grid(self):
        # The refinement pipeline must reproduce the closed form on the
        # full grid; this is the small-scale version of the acceptance
        # criterion (which extends k to 12).
        for k in range(1, 9):
            p0 = Hypothesis.point_mass(BitVector.zeros(k))
            p1 = Hypothesis.uniform_nonzero(k)
            for eps in (0.1, 0.5, 1.0, 2.0):
                for delta in (0.0, 1e-6):
                    seq = MechanismSequence.homogeneous(eps, delta, k)
                    got = hdp_guarantee(p0, p1, seq, Simple())
                    want = uniform_nonzero_closed_form(eps, delta, k)
                    assert got.epsilon == pytest.approx(want.epsilon, abs=1e-9)
                    assert got.delta == pytest.approx(want.delta, abs=1e-12)
