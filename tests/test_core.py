import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hypodp import core
from hypodp.core import (
    BitVector,
    Hypothesis,
    MechanismSequence,
    PrivacyParams,
    all_vectors,
    bit_rows,
    bounded_params,
    word_of,
)
from hypodp.errors import (
    DuplicateAtomError,
    KTooLargeError,
    MixedLengthError,
    NonNormalizedError,
    NonPositiveWeightError,
)


class TestPrivacyParams:
    def test_valid(self):
        g = PrivacyParams(0.5, 1e-6)
        assert g.as_tuple() == (0.5, 1e-6)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            PrivacyParams(-0.1, 0.0)

    def test_delta_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            PrivacyParams(0.1, 1.5)
        with pytest.raises(ValueError, match="delta"):
            PrivacyParams(0.1, -1e-9)

    def test_bounded_params_clamps_delta_to_one(self):
        assert bounded_params(1.0, 3.0).delta == 1.0

    def test_bounded_params_zeroes_rounding_dust(self):
        assert bounded_params(-1e-16, 0.0).epsilon == 0.0

    def test_non_finite_epsilon_rejected(self):
        for eps in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                PrivacyParams(eps, 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            MechanismSequence.from_pairs([(math.inf, 0.0), (0.5, 0.0)])
        with pytest.raises(ValueError, match="epsilon"):
            MechanismSequence.homogeneous(math.inf, 0.0, 3)

    def test_bounded_params_overflow_raises(self):
        with pytest.raises(OverflowError):
            bounded_params(math.inf, 0.0)


class TestBitVector:
    def test_flip_examples(self):
        assert str(BitVector.from_string("000").flip()) == "111"
        assert str(BitVector.from_string("101").flip()) == "010"

    def test_flip_is_involution(self):
        b = BitVector.from_string("0110")
        assert b.flip().flip() == b

    @given(st.integers(min_value=1, max_value=63), st.data())
    def test_flip_involution_property(self, k, data):
        word = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1))
        b = BitVector(word, k)
        assert b.flip().flip() == b
        assert b.flip().k == k

    def test_string_roundtrip(self):
        for s in ("0", "1", "0101", "111000"):
            assert str(BitVector.from_string(s)) == s

    def test_bits_and_bit(self):
        b = BitVector.from_string("101")
        assert b.bits() == (1, 0, 1)
        assert [b.bit(i) for i in range(3)] == [1, 0, 1]

    def test_from_bits(self):
        assert BitVector.from_bits([1, 0, 1]) == BitVector.from_string("101")

    def test_k_cap(self):
        with pytest.raises(KTooLargeError):
            BitVector(0, 64)

    def test_word_range(self):
        with pytest.raises(ValueError):
            BitVector(4, 2)

    def test_ones_count(self):
        assert BitVector.from_string("1011").ones_count() == 3

    def test_lexicographic_word_order(self):
        vecs = all_vectors(3)
        assert [str(v) for v in vecs] == sorted(str(v) for v in vecs)

    def test_frozen_value_type(self):
        b = BitVector(5, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.word = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.k = 4
        assert (b.word, b.k) == (5, 3)
        assert repr(b) == "BitVector(word=5, k=3)"
        assert b == BitVector(5, 3) and hash(b) == hash(BitVector(5, 3))
        assert b != BitVector(5, 4) and len({b, BitVector(5, 3), BitVector(5, 4)}) == 2
        assert BitVector(word=5, k=3) == b

    def test_replace_validates(self):
        b = BitVector(5, 3)
        assert dataclasses.replace(b, word=2) == BitVector(2, 3)
        assert dataclasses.replace(b, k=4) == BitVector(5, 4)
        with pytest.raises(ValueError, match="out of range"):
            dataclasses.replace(b, word=8)
        with pytest.raises(KTooLargeError):
            dataclasses.replace(b, k=64)


class TestWordLayout:
    """``bit_rows`` and ``word_of`` agree with ``BitVector``'s own shifts."""

    @pytest.mark.parametrize("k", [1, 2, 31, 63])
    def test_bit_rows_and_word_of_match_bitvector(self, k):
        rng = np.random.default_rng(k)
        top = 1 << (k - 1)
        words = [0, (1 << k) - 1, top, top | 1] + rng.integers(0, 1 << k, 40, dtype=np.uint64,
                                                               endpoint=False).tolist()
        vecs = [BitVector(w, k) for w in words]
        expected = [list(map(bool, v.bits())) for v in vecs]
        assert bit_rows(words, k).tolist() == expected
        assert bit_rows(np.array(words, dtype=np.uint64), k).tolist() == expected
        assert bit_rows(words, k).shape == (len(words), k)
        for v in vecs:
            positions = [i for i, b in enumerate(v.bits()) if b]
            assert word_of(positions, k) == v.word == BitVector.from_bits(v.bits()).word
        assert bit_rows([], k).shape == (0, k)
        assert word_of([], k) == 0
        assert word_of([0], k) == top


class TestHypothesis:
    def test_point_mass_ok(self):
        h = Hypothesis({BitVector.from_string("000"): 1.0})
        assert h.k == 3
        assert len(h) == 1

    def test_symmetric_two_atom_ok(self):
        h = Hypothesis({
            BitVector.from_string("01"): 0.5,
            BitVector.from_string("10"): 0.5,
        })
        assert h.weight(BitVector.from_string("01")) == 0.5

    def test_non_normalized_rejected(self):
        with pytest.raises(NonNormalizedError):
            Hypothesis({
                BitVector.from_string("01"): 0.5,
                BitVector.from_string("10"): 0.4,
            })

    def test_non_positive_weight_rejected(self):
        with pytest.raises(NonPositiveWeightError):
            Hypothesis({
                BitVector.from_string("01"): 1.0,
                BitVector.from_string("10"): 0.0,
            })

    def test_mixed_length_rejected(self):
        with pytest.raises(MixedLengthError):
            Hypothesis({
                BitVector.from_string("01"): 0.5,
                BitVector.from_string("100"): 0.5,
            })
        # The first atom of another length is named.
        with pytest.raises(MixedLengthError, match="atom 100 has k=3, expected 2"):
            Hypothesis([(BitVector.from_string(s), 0.25) for s in ("01", "100", "10", "1")])

    def test_duplicate_vector_rejected(self):
        # A mapping cannot repeat a key; a list of pairs can.
        a, b = BitVector.from_string("01"), BitVector.from_string("10")
        with pytest.raises(DuplicateAtomError):
            Hypothesis([(a, 0.5), (a, 0.25), (b, 0.25)])
        with pytest.raises(DuplicateAtomError):
            Hypothesis.uniform([a, a])
        with pytest.raises(DuplicateAtomError):
            Hypothesis.uniform([a, b, a])

    def test_normalization_tolerance(self):
        # 1e-10 off is inside the 1e-9 tolerance, 1e-8 off is not.
        Hypothesis({BitVector.from_string("0"): 1.0 - 1e-10})
        with pytest.raises(NonNormalizedError):
            Hypothesis({BitVector.from_string("0"): 1.0 - 1e-8})

    def test_atoms_sorted_lexicographically(self):
        h = Hypothesis({
            BitVector.from_string("10"): 0.25,
            BitVector.from_string("01"): 0.75,
        })
        assert [str(v) for v, _ in h.atoms] == ["01", "10"]
        # Any input order gives the same arrays, byte for byte.
        rng = np.random.default_rng(5)
        words = rng.choice(1 << 12, size=300, replace=False)
        items = [(BitVector(int(w), 12), float(p))
                 for w, p in zip(words, rng.dirichlet(np.ones(300)))]
        first = Hypothesis(items)
        assert np.all(first.words[1:] > first.words[:-1])
        for _ in range(5):
            order = rng.permutation(len(items))
            h = Hypothesis([items[i] for i in order])
            assert h.words.tobytes() == first.words.tobytes()
            assert h.weights.tobytes() == first.weights.tobytes()

    def test_uniform_nonzero(self):
        h = Hypothesis.uniform_nonzero(3)
        assert len(h) == 7
        assert all(v.word != 0 for v in h.support())

    def test_uniform_all(self):
        assert len(Hypothesis.uniform_all(3)) == 8

    def test_uniform_enumeration_guard(self):
        with pytest.raises(KTooLargeError):
            Hypothesis.uniform_nonzero(40)


class _Forbidden:
    """Stands in for numpy and BitVector: any call through it fails the test."""

    def __getattr__(self, name):
        return self

    def __call__(self, *args, **kwargs):
        raise AssertionError("allocated before the enumeration guard")


class TestEnumerationGuard:
    @pytest.mark.parametrize("k", [-1, 0, 24, 64])
    @pytest.mark.parametrize(
        "enumerate_k",
        [all_vectors, Hypothesis.uniform_all, Hypothesis.uniform_nonzero],
        ids=["all_vectors", "uniform_all", "uniform_nonzero"],
    )
    def test_refused_before_any_allocation(self, monkeypatch, enumerate_k, k):
        monkeypatch.setattr(core, "np", _Forbidden())
        monkeypatch.setattr(core, "BitVector", _Forbidden())
        with pytest.raises(KTooLargeError):
            enumerate_k(k)


def random_items(rng, k, n):
    words = rng.choice(1 << k, size=n, replace=False)
    weights = rng.dirichlet(np.ones(n))
    return [(BitVector(int(w), k), float(p)) for w, p in zip(words, weights)]


class TestArrays:
    def assert_invariants(self, h):
        assert h.words.dtype == np.uint64 and h.weights.dtype == np.float64
        assert len(h.words) == len(h.weights) == len(h)
        assert np.all(h.words[1:] > h.words[:-1])
        for arr in (h.words, h.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_mixtures(self):
        rng = np.random.default_rng(20261018)
        for _ in range(100):
            k = int(rng.integers(1, 13))
            items = random_items(rng, k, int(rng.integers(1, min(60, 1 << k) + 1)))
            h = Hypothesis(items)
            self.assert_invariants(h)
            assert h.atoms == tuple(sorted(items, key=lambda a: a[0].word))
            shuffled = Hypothesis([items[i] for i in rng.permutation(len(items))])
            assert shuffled == h and hash(shuffled) == hash(h)
            assert shuffled.words.tobytes() == h.words.tobytes()
            assert shuffled.weights.tobytes() == h.weights.tobytes()

    def test_presets(self):
        for k in (1, 2, 7, 12):
            for h in (Hypothesis.point_mass(BitVector.ones(k)),
                      Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k)):
                self.assert_invariants(h)

    def test_presets_equal_generic_uniform(self):
        for k in range(1, 11):
            vectors = all_vectors(k)
            assert Hypothesis.uniform_all(k) == Hypothesis.uniform(vectors)
            assert Hypothesis.uniform_nonzero(k) == Hypothesis.uniform(vectors[1:])

    def test_views_follow_the_arrays(self):
        h = Hypothesis({BitVector.from_string("110"): 0.75, BitVector.from_string("001"): 0.25})
        assert h.words.tolist() == [1, 6] and h.weights.tolist() == [0.25, 0.75]
        assert [str(v) for v in h.support()] == ["001", "110"]
        assert h.weight(BitVector.from_string("110")) == 0.75
        assert h.weight(BitVector.from_string("111")) == 0.0
        assert h.weight(BitVector.from_string("1")) == 0.0
        assert repr(h) == "Hypothesis({001: 0.25, 110: 0.75})"
        assert h != Hypothesis({BitVector.from_string("0110"): 0.75,
                                BitVector.from_string("0001"): 0.25})


class TestMechanismSequence:
    def test_homogeneous(self):
        seq = MechanismSequence.homogeneous(0.1, 1e-6, 3)
        assert seq.k == 3
        assert seq.is_homogeneous()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MechanismSequence(())

    def test_long_sequences_allowed(self):
        # Only vector-enumerating operations are capped at k=63.
        assert MechanismSequence.homogeneous(0.01, 0.0, 365).k == 365
