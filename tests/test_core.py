import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hypodp import core
from hypodp.core import (
    BitVector,
    Hypothesis,
    MechanismSequence,
    PrivacyParams,
    EXACT_SUM_MIN,
    bit_rows,
    bounded_params,
    exact_sum,
    word_of,
)
from hypodp.errors import (
    DuplicateAtomError,
    KTooLargeError,
    MixedLengthError,
    NonNormalizedError,
    NonPositiveWeightError,
)


def flip(b):
    """Every bit of ``b`` inverted."""
    return BitVector(b.word ^ ((1 << b.k) - 1), b.k)


def bits(b):
    """The bits of ``b``, position 0 first."""
    return tuple(map(int, str(b)))


def bit(b, i):
    return bits(b)[i]


def from_bits(bit_list):
    return BitVector.from_string("".join(map(str, bit_list)))


def all_vectors(k):
    """Every vector of {0,1}^k in lexicographic order, behind the library's enumeration guard."""
    return [BitVector(w, k) for w in range(core._enumeration_size(k))]


def weight(h, vec):
    """The weight ``h`` puts on ``vec``; 0 off its support."""
    return dict(h.atoms).get(vec, 0.0)


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

    def test_bounded_params_refuses_negative_epsilon(self):
        # Rounding dust below 0 is uniform_nonzero_closed_form's to clamp, not this helper's.
        with pytest.raises(ValueError, match="epsilon"):
            bounded_params(-1e-16, 0.0)

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
        assert str(flip(BitVector.from_string("000"))) == "111"
        assert str(flip(BitVector.from_string("101"))) == "010"

    def test_flip_is_involution(self):
        b = BitVector.from_string("0110")
        assert flip(flip(b)) == b

    @given(st.integers(min_value=1, max_value=63), st.data())
    def test_flip_involution_property(self, k, data):
        word = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1))
        b = BitVector(word, k)
        assert flip(flip(b)) == b
        assert flip(b).k == k

    @pytest.mark.parametrize("s", ["", "012", "1 0"])
    def test_from_string_refuses_non_bit_strings(self, s):
        with pytest.raises(ValueError, match="nonempty string of 0/1"):
            BitVector.from_string(s)

    def test_string_roundtrip(self):
        for s in ("0", "1", "0101", "111000"):
            assert str(BitVector.from_string(s)) == s

    def test_bits_and_bit(self):
        b = BitVector.from_string("101")
        assert bits(b) == (1, 0, 1)
        assert [bit(b, i) for i in range(3)] == [1, 0, 1]

    def test_from_bits(self):
        assert from_bits([1, 0, 1]) == BitVector.from_string("101")

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
        expected = [list(map(bool, bits(v))) for v in vecs]
        assert bit_rows(words, k).tolist() == expected
        assert bit_rows(np.array(words, dtype=np.uint64), k).tolist() == expected
        assert bit_rows(words, k).shape == (len(words), k)
        for v in vecs:
            positions = [i for i, b in enumerate(bits(v)) if b]
            assert word_of(positions, k) == v.word == from_bits(bits(v)).word
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
        assert weight(h, BitVector.from_string("01")) == 0.5

    def test_empty_hypotheses_refused(self):
        with pytest.raises(NonNormalizedError, match="at least one atom"):
            Hypothesis({})
        with pytest.raises(NonNormalizedError, match="uniform hypothesis over nothing"):
            Hypothesis.uniform([])

    def test_non_normalized_rejected(self):
        with pytest.raises(NonNormalizedError):
            Hypothesis({
                BitVector.from_string("01"): 0.5,
                BitVector.from_string("10"): 0.4,
            })
        # The message shows the rejected total.
        total = math.fsum([0.3] * 3)
        with pytest.raises(NonNormalizedError, match=re.escape(f"weights sum to {total!r}, not 1")):
            Hypothesis({BitVector.from_string(s): 0.3 for s in ("00", "01", "10")})
        # A sum beyond the double range is refused as not 1, equal weights or not.
        for weights in ([1e308, 1e308], [1e308, 1.5e308]):
            with pytest.raises(NonNormalizedError, match="weights sum to inf, not 1"):
                Hypothesis([(BitVector.from_string(s), w) for s, w in zip(("0", "1"), weights)])

    @given(st.integers(1, 1 << 20))
    @example(1 << 20)
    @example(49)
    @example(10)
    def test_equal_weights_pass(self, n):
        # _set is the path every constructor takes; n atoms via BitVector objects would be slow.
        words, weights = np.arange(n, dtype=np.uint64), np.full(n, 1.0 / n)
        assert len(Hypothesis.__new__(Hypothesis)._set(20, words, weights)) == n

    @given(st.integers(8, 64), st.floats(3e-17, 5e-17), st.sampled_from((-1.0, 1.0)),
           st.floats(0.0, 0.99) | st.floats(1.01, 3.0))
    def test_total_off_by_ulps_decided_as_by_the_exact_sum(self, m, tiny, sign, factor):
        # Each tiny weight is below half an ulp of the head, so a sequential sum loses
        # them all and misses the exact sum by a few ulps. A total clear of the tolerance
        # by 1% is accepted or refused as its exact sum is.
        head = 1.0 + sign * factor * core.NORMALIZATION_TOLERANCE - m * tiny
        weights = [head] + [tiny] * m
        exact = math.fsum(weights)
        assert sum(weights) == head != exact
        atoms = [(BitVector(i, 7), w) for i, w in enumerate(weights)]
        if abs(exact - 1.0) <= core.NORMALIZATION_TOLERANCE:
            assert len(Hypothesis(atoms)) == m + 1
        else:
            with pytest.raises(NonNormalizedError, match="weights sum to"):
                Hypothesis(atoms)

    def test_overflowing_total_refused_without_warning(self):
        atoms = [(BitVector(i, 4), 1e308) for i in range(10)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning must not escape
            with pytest.raises(NonNormalizedError, match="weights sum to inf, not 1"):
                Hypothesis(atoms)

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
        assert weight(h, BitVector.from_string("110")) == 0.75
        assert weight(h, BitVector.from_string("111")) == 0.0
        assert weight(h, BitVector.from_string("1")) == 0.0
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


def fsum_bits(values):
    """``math.fsum`` of the array as ``float.hex()``, or the exception type it raises."""
    try:
        return math.fsum(values.tolist()).hex()
    except OverflowError as exc:
        return type(exc)


def exact_sum_bits(values):
    try:
        return exact_sum(values).hex()
    except OverflowError as exc:
        return type(exc)


class TestExactSum:
    """``exact_sum`` returns ``math.fsum``'s double bit for bit, on either side of its threshold."""

    SIZES = (0, 1, 7, EXACT_SUM_MIN - 1, EXACT_SUM_MIN, 3 * EXACT_SUM_MIN, (1 << 16) + 3,
             3 * (1 << 16) + 1)

    def assert_matches(self, values):
        values = np.asarray(values, dtype=np.float64)
        assert exact_sum_bits(values) == fsum_bits(values)

    def test_magnitudes_from_1e_minus_300_to_1e300(self):
        rng = np.random.default_rng(1616)
        for n in self.SIZES:
            for lo, hi in ((-300, 300), (-300, -250), (-20, 0), (250, 300), (-8, -5)):
                magnitudes = 10.0 ** rng.uniform(lo, hi, n)
                self.assert_matches(magnitudes)
                self.assert_matches(magnitudes * rng.choice([-1.0, 1.0], n))
                # Cancelling pairs leave a small remainder for the sum to keep.
                self.assert_matches(np.concatenate((magnitudes, -magnitudes[::-1], [1e-300])))

    def test_subnormal_results(self):
        rng = np.random.default_rng(1617)
        tiny = 5e-324
        for n in self.SIZES[1:]:
            counts = rng.integers(-2**40, 2**40, n).astype(np.float64)
            self.assert_matches(counts * tiny)
            self.assert_matches(rng.uniform(0.0, 1.0, n) * 2.0**-1022)
            big = 10.0 ** rng.uniform(-300, 0, n)
            # Every large value cancels; only a subnormal remainder survives.
            self.assert_matches(np.concatenate((big, -big, [3 * tiny, -tiny])))

    def test_ties_round_to_even(self):
        half_ulp = 2.0**-53
        for n in self.SIZES[2:]:
            zeros = np.zeros(n)
            for head in ([1.0, half_ulp], [1.0 + 2 * half_ulp, half_ulp],
                         [1.0, half_ulp, -half_ulp / 2**20, half_ulp / 2**20],
                         [2.0**1000, 2.0**946], [-3.0, -half_ulp * 3]):
                values = np.concatenate((head, zeros))
                self.assert_matches(values)
                self.assert_matches(values[::-1])
            # A halfway case built from several small values.
            self.assert_matches(np.concatenate(([1.0], np.full(8, half_ulp / 8), zeros)))

    def test_zeros_infinities_and_the_overflow_guard(self):
        for n in self.SIZES[1:]:
            self.assert_matches(np.zeros(n))
            self.assert_matches(np.full(n, -0.0))
            self.assert_matches(np.concatenate(([-0.0], np.zeros(n))))
            for odd in ([math.inf], [-math.inf, 1.0], [math.nan], [1e308, 1e308, -1e308],
                        [1.7e308, 1e292]):
                values = np.concatenate((odd, np.ones(n)))
                assert repr(exact_sum_bits(values)) == repr(fsum_bits(values))

    def test_strided_views(self):
        x = np.random.default_rng(1618).uniform(-1.0, 1.0, (3 * EXACT_SUM_MIN, 2))
        self.assert_matches(x[:, 1])
        assert exact_sum(x[:, 1]) == math.fsum(x[:, 1].tolist())
