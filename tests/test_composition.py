import itertools
import math
import sys
from itertools import compress

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypodp.composition import (
    _FSUM_ROWS,
    Advanced,
    Simple,
    _compose_words,
    _guarantee_masks,
    _pack_counts,
    _piece_keys,
    advanced_compose,
    best_classic_bound,
    compose,
    compose_suffixes,
    simple_compose,
)
from hypodp.core import MechanismSequence, PrivacyParams, _exact_word_sums, word_of
from hypodp.errors import HeterogeneousInputError, IncompatibleTheoremError, InvalidSlackError
from hypodp.subsampling import uniform_prior_bound

# Frozen via direct 50-digit evaluation of
# sqrt(2 k ln(1/slack)) eps + k eps (e^eps - 1).
ADV_K100 = 5.8502350929445575   # eps=0.1, delta=1e-8, slack=1e-5
ADV_K10 = 1.7674290543447575    # eps=0.1, delta=0,    slack=1e-6
ADV_K2_HALF = 4.3656434595499665  # eps=0.5, delta=0,  slack=1e-6
ADV_K365 = 0.9534401981542315   # eps=0.01, delta=0,   slack=1e-5


class TestSimpleCompose:
    def test_empty_sequence(self):
        assert simple_compose([]) == PrivacyParams(0.0, 0.0)

    def test_homogeneous_triple(self):
        g = simple_compose([PrivacyParams(0.1, 1e-6)] * 3)
        assert g.epsilon == pytest.approx(0.3, rel=1e-15)
        assert g.delta == pytest.approx(3e-6, rel=1e-15)

    def test_heterogeneous(self):
        g = simple_compose([PrivacyParams(0.1, 0.0), PrivacyParams(0.2, 1e-6)])
        assert g.epsilon == pytest.approx(0.3, rel=1e-15)
        assert g.delta == 1e-6

    def test_delta_clamped(self):
        g = simple_compose([PrivacyParams(1.0, 0.7)] * 2)
        assert g.delta == 1.0

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1e-3),
    ), min_size=0, max_size=8))
    def test_permutation_invariant(self, pairs):
        seq = [PrivacyParams(e, d) for e, d in pairs]
        forward = simple_compose(seq)
        backward = simple_compose(list(reversed(seq)))
        # fsum returns the correctly rounded sum, so order cannot matter.
        assert forward == backward

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1e-4),
    ), min_size=0, max_size=6), st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1e-4),
    ), min_size=0, max_size=6))
    def test_additive(self, pairs_a, pairs_b):
        a = [PrivacyParams(e, d) for e, d in pairs_a]
        b = [PrivacyParams(e, d) for e, d in pairs_b]
        joint = simple_compose(a + b)
        ga, gb = simple_compose(a), simple_compose(b)
        assert joint.epsilon == pytest.approx(ga.epsilon + gb.epsilon, rel=1e-12, abs=1e-15)
        assert joint.delta == pytest.approx(ga.delta + gb.delta, rel=1e-12, abs=1e-18)


class TestAdvancedCompose:
    def test_zero_epsilon(self):
        g = advanced_compose([PrivacyParams(0.0, 0.0)] * 10, 1e-5)
        assert g == PrivacyParams(0.0, 1e-5)

    def test_k100(self):
        g = advanced_compose([PrivacyParams(0.1, 1e-8)] * 100, 1e-5)
        assert g.epsilon == pytest.approx(ADV_K100, abs=1e-12)
        assert g.delta == pytest.approx(1.1e-5, rel=1e-15)

    def test_k10(self):
        g = advanced_compose([PrivacyParams(0.1, 0.0)] * 10, 1e-6)
        assert g.epsilon == pytest.approx(ADV_K10, abs=1e-12)
        assert g.delta == 1e-6

    def test_heterogeneous_rejected(self):
        seq = [PrivacyParams(0.1, 0.0), PrivacyParams(0.2, 0.0)]
        with pytest.raises(HeterogeneousInputError):
            advanced_compose(seq, 1e-5)

    @pytest.mark.parametrize("slack", [0.0, 1.0, -0.1, 2.0])
    def test_invalid_slack_rejected(self, slack):
        with pytest.raises(InvalidSlackError):
            advanced_compose([PrivacyParams(0.1, 0.0)], slack)
        with pytest.raises(InvalidSlackError, match="delta_slack must be in"):
            Advanced(slack)  # refused at construction, before any composition

    def test_monotone_in_k_eps_delta(self):
        base = advanced_compose([PrivacyParams(0.1, 1e-7)] * 10, 1e-6)
        for k, eps, delta in [(11, 0.1, 1e-7), (10, 0.11, 1e-7), (10, 0.1, 2e-7)]:
            bigger = advanced_compose([PrivacyParams(eps, delta)] * k, 1e-6)
            assert bigger.epsilon >= base.epsilon
            assert bigger.delta >= base.delta


class TestComposeDispatch:
    def test_single_mechanism_simple(self):
        g = compose([PrivacyParams(0.5, 1e-6)], Simple())
        assert g == PrivacyParams(0.5, 1e-6)

    def test_advanced_dispatch_matches_direct(self):
        seq = [PrivacyParams(0.1, 0.0)] * 100
        assert compose(seq, Advanced(1e-5)) == advanced_compose(seq, 1e-5)

    def test_heterogeneous_advanced_incompatible(self):
        seq = [PrivacyParams(0.1, 0.0), PrivacyParams(0.2, 0.0)]
        with pytest.raises(IncompatibleTheoremError):
            compose(seq, Advanced(1e-5))

    def test_accepts_mechanism_sequence(self):
        seq = MechanismSequence.homogeneous(0.1, 1e-6, 3)
        assert compose(seq, Simple()) == simple_compose(seq)

    def test_pluggable_theorem(self):
        class Fixed:
            def compose_guarantees(self, guarantees):
                return PrivacyParams(42.0, 0.0)

        assert compose([PrivacyParams(1.0, 0.0)], Fixed()).epsilon == 42.0

    def test_unknown_theorem_rejected(self):
        with pytest.raises(IncompatibleTheoremError):
            compose([PrivacyParams(1.0, 0.0)], object())


class TestBuiltinProtocol:
    """The built-in theorems compose through the pluggable-theorem method."""

    def test_simple_method_is_simple_compose(self):
        rng = np.random.default_rng(8)
        for k in (1, 2, 17, 300):
            seq = [PrivacyParams(e, d) for e, d in
                   zip(rng.exponential(0.5, k).tolist(), rng.uniform(0.0, 1e-3, k).tolist())]
            assert Simple().compose_guarantees(seq) == simple_compose(seq)
            assert compose(seq, Simple()) == simple_compose(seq)

    def test_advanced_method_is_advanced_compose(self):
        for eps, delta, k, slack in [(0.1, 1e-8, 100, 1e-5), (0.5, 0.0, 2, 1e-6), (2.0, 1e-3, 7, 0.3)]:
            seq = [PrivacyParams(eps, delta)] * k
            assert Advanced(slack).compose_guarantees(seq) == advanced_compose(seq, slack)
            assert compose(seq, Advanced(slack)) == advanced_compose(seq, slack)

    def test_heterogeneous_errors_unchanged(self):
        # One check, in advanced_compose: every entry point raises its type and message.
        seq = [PrivacyParams(0.1, 0.0), PrivacyParams(0.1, 1e-9)]
        calls = [
            lambda: compose(seq, Advanced(1e-5)),
            lambda: Advanced(1e-5).compose_guarantees(seq),
            lambda: advanced_compose(seq, 1e-5),
            lambda: _compose_words(seq, words_of(np.ones((1, 2), dtype=bool)), Advanced(1e-5)),
            lambda: uniform_prior_bound(seq + [PrivacyParams(0.1, 0.0)], Advanced(1e-5)),
        ]
        for call in calls:
            with pytest.raises(HeterogeneousInputError) as exc:
                call()
            assert isinstance(exc.value, IncompatibleTheoremError)
            assert str(exc.value) == "the advanced theorem requires a homogeneous sequence"
        assert best_classic_bound(seq, 1e-5) == simple_compose(seq)

    def test_best_classic_bound_skips_heterogeneous_advanced(self):
        seq = [PrivacyParams(0.1, 0.0), PrivacyParams(0.2, 0.0)]
        assert best_classic_bound(seq, 1e-6) == simple_compose(seq)
        assert best_classic_bound([], 1e-6) == PrivacyParams(0.0, 0.0)
        with pytest.raises(InvalidSlackError):
            best_classic_bound(seq, 0.0)


class TestBestClassicBound:
    def test_simple_wins_small_k(self):
        g = best_classic_bound([PrivacyParams(0.5, 0.0)] * 2, 1e-6)
        assert g.epsilon == pytest.approx(1.0, rel=1e-15)
        assert g.delta == 0.0
        # sanity: the advanced branch really is worse here
        adv = advanced_compose([PrivacyParams(0.5, 0.0)] * 2, 1e-6)
        assert adv.epsilon == pytest.approx(ADV_K2_HALF, abs=1e-12)

    def test_advanced_wins_large_k(self):
        g = best_classic_bound([PrivacyParams(0.01, 0.0)] * 365, 1e-5)
        assert g.epsilon == pytest.approx(ADV_K365, abs=1e-12)
        assert g.delta == 1e-5

    def test_single_mechanism_is_identity(self):
        g = best_classic_bound([PrivacyParams(0.3, 1e-7)], 1e-6)
        assert g == PrivacyParams(0.3, 1e-7)

    def test_never_beats_simple_on_epsilon(self):
        for k in (1, 5, 50, 200):
            seq = [PrivacyParams(0.05, 0.0)] * k
            assert best_classic_bound(seq, 1e-6).epsilon <= simple_compose(seq).epsilon

    def test_heterogeneous_falls_back_to_simple(self):
        seq = [PrivacyParams(0.1, 0.0), PrivacyParams(0.2, 0.0)]
        assert best_classic_bound(seq, 1e-6) == simple_compose(seq)

    def test_overflowing_advanced_falls_back_to_simple(self):
        for seq in ([PrivacyParams(700.0, 0.0)] * 1000, [PrivacyParams(710.0, 0.0)] * 2):
            with pytest.raises(OverflowError):
                advanced_compose(seq, 1e-6)
            assert best_classic_bound(seq, 1e-6) == simple_compose(seq)


class Capped:
    """A pluggable theorem: simple composition with epsilon capped at 1."""

    def compose_guarantees(self, guarantees):
        g = simple_compose(guarantees)
        return PrivacyParams(min(g.epsilon, 1.0), g.delta)


def selections(k, rng, count):
    """Every selection for small k, else ``count`` seeded ones plus none and all."""
    if k <= 6:
        return np.array(list(itertools.product((False, True), repeat=k)), dtype=bool)
    rows = rng.random((count, k)) < rng.random((count, 1))
    return np.vstack([rows, np.zeros(k, bool), np.ones(k, bool)])


class TestComposeSelections:
    """``_compose_words`` of each boolean row, packed by ``words_of``, equals ``compose``
    on the selected guarantees, bit for bit."""

    def assert_rows_match(self, seq, rows, theorem):
        got = _compose_words(list(seq), words_of(rows), theorem)
        assert got.shape == (len(rows), 2) and got.dtype == np.float64
        for row, out in zip(rows.tolist(), got.tolist()):
            picked = [g for g, keep in zip(seq, row) if keep]
            assert tuple(out) == compose(picked, theorem).as_tuple()

    def test_simple_and_pluggable(self):
        rng = np.random.default_rng(77)
        for k in (1, 2, 5, 6, 13, 40):
            seq = [PrivacyParams(float(e), float(d)) for e, d in
                   zip(rng.exponential(0.5, k), rng.choice([0.0, 1e-7, 3e-3], k))]
            rows = selections(k, rng, 2 * _FSUM_ROWS)  # both summation paths
            for theorem in (Simple(), Capped()):
                self.assert_rows_match(seq, rows, theorem)

    def test_advanced_on_homogeneous(self):
        rng = np.random.default_rng(78)
        for k in (1, 4, 20):
            seq = MechanismSequence.homogeneous(0.2, 1e-8, k)
            self.assert_rows_match(seq, selections(k, rng, 30), Advanced(1e-6))

    def test_advanced_on_heterogeneous_raises_like_compose(self):
        seq = [PrivacyParams(0.1, 0.0), PrivacyParams(0.2, 0.0)]
        self.assert_rows_match(seq, np.array([[True, False], [False, True]]), Advanced(1e-6))
        with pytest.raises(IncompatibleTheoremError):
            _compose_words(seq, words_of(np.array([[True, True]])), Advanced(1e-6))

    def test_empty_selection_and_no_rows(self):
        seq = [PrivacyParams(0.3, 1e-6)] * 3
        for theorem in (Simple(), Advanced(1e-6), Capped()):
            assert _compose_words(seq, words_of(np.zeros((1, 3), bool)), theorem).tolist() == [
                [0.0, 0.0]]
            assert _compose_words(seq, words_of(np.zeros((0, 3), bool)), theorem).shape == (0, 2)
            for n in (1, _FSUM_ROWS):  # k = 0 on both summation paths
                got = _compose_words([], words_of(np.zeros((n, 0), bool)), theorem)
                assert got.tolist() == [[0.0, 0.0]] * n

    def test_delta_sum_above_one_is_capped(self):
        seq = [PrivacyParams(1.0, 0.7), PrivacyParams(0.5, 0.6), PrivacyParams(0.1, 0.2)]
        rows = selections(3, None, 0)
        self.assert_rows_match(seq, rows, Simple())
        self.assert_rows_match(seq, np.tile(rows, (_FSUM_ROWS, 1)), Simple())  # integer path
        assert _compose_words(seq, words_of(np.ones((1, 3), bool)), Simple())[0, 1] == 1.0

    def test_overflow_raises_like_compose(self):
        seq = [PrivacyParams(1e308, 0.0)] * 3
        with pytest.raises(OverflowError):
            compose(seq, Simple())
        for n in (1, _FSUM_ROWS):
            with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
                _compose_words(seq, words_of(np.ones((n, 3), bool)), Simple())


class Ordered:
    """A pluggable theorem that reads order: the i-th selected epsilon counts i + 1 times."""

    def compose_guarantees(self, guarantees):
        return PrivacyParams(math.fsum((i + 1) * g.epsilon for i, g in enumerate(guarantees)),
                             min(1.0, math.fsum(g.delta for g in guarantees)))


def test_each_key_composes_its_smallest_word():
    # Three guarantees in turn, so words of one key select them in different orders; the
    # key's row must be its smallest word's, whatever order the sort leaves ties in.
    rng = np.random.default_rng(4545)
    for k in (4, 9, 16):
        seq = [PrivacyParams((0.1, 0.2, 0.3)[i % 3], 1e-7) for i in range(k)]
        words = rng.integers(0, 1 << k, int(rng.integers(500, 3000)), dtype=np.uint64)
        key, table = _piece_keys(words, seq, Ordered(), k)
        packed = _pack_counts(words, _guarantee_masks(seq, k))
        for count in set(packed.tolist()):
            smallest = int(words[packed == count].min())
            picked = [g for p, g in enumerate(seq) if smallest >> (k - 1 - p) & 1]
            assert table[key[packed == count]].tolist() == [
                list(compose(picked, Ordered()).as_tuple())] * int((packed == count).sum())


def fsum_rows(rows, values):
    """The reference: one ``math.fsum`` over each row's selected values."""
    return [math.fsum(compress(values, row)) for row in rows.tolist()]


def words_of(rows):
    """Each 0/1 row as a ``uint64`` word, position 0 the top of its k bits (``word_of``)."""
    k = rows.shape[1]
    return np.array([word_of(np.flatnonzero(row).tolist(), k) for row in rows], dtype=np.uint64)


def word_sums(rows, values):
    """``_exact_word_sums`` of the rows packed into words."""
    return _exact_word_sums(words_of(rows), values)


@st.composite
def fuzz_values(draw, k):
    """k non-negative doubles, for drawn lo < hi: any double in [2^lo, 2^hi), up
    to ``DBL_MAX``, an exact power of two in it, or zero; in half the lists, a
    subnormal or zero."""
    hi = draw(st.integers(-1073, 1023) | st.just(1024))
    narrow = st.integers(1, min(300, hi + 1074))  # few limbs
    lo = hi - draw(narrow | st.integers(1, hi + 1074))
    subnormal = st.floats(0.0, sys.float_info.min, exclude_max=True)
    value = st.one_of(
        st.floats(math.ldexp(1.0, lo), math.ldexp(1.0 - 2.0**-53, hi)),  # DBL_MAX at 1024
        st.integers(lo, hi - 1).map(lambda e: math.ldexp(1.0, e)),
        subnormal if draw(st.booleans()) else st.just(0.0),
    )
    return draw(st.lists(value, min_size=k, max_size=k))


class TestExactRowSums:
    """Exact integer sums of the values each word selects round as ``math.fsum`` does.

    Each row is packed into a ``uint64`` word for ``_exact_word_sums``. Calls
    of any size sum in int64, one gather per byte of the words from 256-entry
    limb tables: in one limb when the integers sum below 2^63, else in limbs
    of 62 - bits(k) bits. One limb converts to float64 and scales by
    ``np.ldexp``; several make each word's exact total a Python integer,
    divided once. Each is checked against ``math.fsum``, bit for bit, on a
    call's full rows and on its first 1 and 16.
    """

    def assert_fsum(self, rows, values):
        want = np.array(fsum_rows(rows, values), dtype=np.float64)
        got = np.asarray(word_sums(rows, values), dtype=np.float64)
        assert got.tobytes() == want.tobytes()
        for part in (rows[:1], rows[:16]):
            small = np.asarray(word_sums(part, values), dtype=np.float64)
            assert small.tobytes() == want[: len(part)].tobytes()

    def test_magnitudes_from_1e_minus_300_to_1e300(self):
        rng = np.random.default_rng(2024)
        for k in (0, 1, 7, 30, 63):
            for lo, hi in ((-300, 300), (-20, 20), (-12, -4), (290, 300)):
                values = (10.0 ** rng.uniform(lo, hi, k) * (rng.random(k) < 0.8)).tolist()
                rows = rng.random((200, k)) < rng.random((200, 1))
                self.assert_fsum(rows, values)

    def test_subnormal_results(self):
        tiny = [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 2.225073858507201e-308, 0.0]
        rng = np.random.default_rng(2025)
        for k in (2, 9, 63):
            picks, counts = rng.choice(tiny, k).tolist(), rng.integers(1, 9, k).tolist()
            values = [v * m for v, m in zip(picks, counts)]
            self.assert_fsum(rng.random((100, k)) < 0.5, values)

    def test_k63_many_limbs_and_all_zero_rows(self):
        rng = np.random.default_rng(2026)
        values = (10.0 ** rng.uniform(-200, 200, 63)).tolist()
        rows = rng.random((300, 63)) < 0.5
        rows[::7] = False
        self.assert_fsum(rows, values)
        for n in (40, 64):
            assert word_sums(np.zeros((n, 63), bool), values).tolist() == [0.0] * n

    def test_values_spanning_ten_decades_and_more(self):
        # Integers far above 2^62 split into limbs; each row's limb sums make its
        # exact total, which one division rounds.
        rng = np.random.default_rng(2027)
        for k in (2, 5, 17, 40, 63):
            for lo, span in ((-8, 10), (-30, 12), (-300, 20), (-320, 40), (250, 57), (-200, 400)):
                values = (10.0 ** rng.uniform(lo, lo + span, k)).tolist()
                values[0] = 10.0**lo  # every span is at least ten decades wide
                values[-1] = 10.0 ** (lo + span)
                rows = rng.random((int(rng.integers(64, 300)), k)) < rng.random((1, k))
                self.assert_fsum(rows, values)

    def test_limb_halfway_cases(self):
        # 2^53 + 1 (a tie) and 2^53 + 1 + 2^-80 (just above it), among integers
        # wide enough for several limbs.
        values = [2.0**53, 1.0, 2.0**-80, 2.0**-300, 3.0 * 2.0**60, 0.0]
        rows = np.array(list(itertools.product((False, True), repeat=6)) * 2, dtype=bool)
        self.assert_fsum(rows, values)

    def test_ties_round_half_to_even(self):
        # 2^53 + 1 and 2^53 + 3 are exact halfway cases between doubles.
        values = [2.0**53, 1.0, 2.0, 2.0**-60, 0.0]
        rows = np.array(list(itertools.product((False, True), repeat=5)) * 2, dtype=bool)
        self.assert_fsum(rows, values)

    def test_row_sums_at_the_int64_edge(self):
        # Integers summing to 2^63 - 1 take one int64 limb, and the full row rounds
        # up to 2^63; at 2^63 + 1 they take limbs, and two of them sum to 2^63.
        rows = np.array(list(itertools.product((False, True), repeat=3)) * 10, dtype=bool)
        for values in ([2.0**62, 2.0**62 - 1024, 1023.0], [2.0**62, 2.0**62, 1.0]):
            self.assert_fsum(rows, values)

    def test_many_limbs_at_k1_and_k63(self):
        # DBL_MAX alone is a 1024-bit integer: 17 limbs of 61 bits at k = 1. At
        # k = 63 the values run from 2^-1074 to about 2^973 over a scale of
        # 2^1074: 2047-bit integers, 37 limbs of 56 bits.
        rng = np.random.default_rng(2028)
        self.assert_fsum(rng.random((100, 1)) < 0.5, [sys.float_info.max])
        values = [math.ldexp(1.0 + i / 64, 33 * i - 1074) for i in range(63)]
        self.assert_fsum(rng.random((150, 63)) < rng.random((150, 1)), values)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 63).flatmap(fuzz_values), st.integers(64, 200),
           st.integers(0, 2**32 - 1))
    def test_fuzz_against_fsum(self, values, n, seed):
        rng = np.random.default_rng(seed)
        rows = rng.random((n, len(values))) < rng.random((n, 1))
        try:
            want = np.array(fsum_rows(rows, values), dtype=np.float64)
        except OverflowError:
            with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
                word_sums(rows, values)
        else:
            assert word_sums(rows, values).tobytes() == want.tobytes()

    def test_overflow_message(self):
        for n in (1, 40, 64, 200):
            with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
                word_sums(np.ones((n, 3), bool), [1e308, 1e308, 0.0])
            # DBL_MAX plus just under half its ulp still rounds to DBL_MAX.
            rows = np.ones((n, 2), bool)
            edge = [sys.float_info.max, 9.9792015476735e291]
            assert word_sums(rows, edge).tolist() == [sys.float_info.max] * n
            with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
                word_sums(rows, [sys.float_info.max, 9.9792015476736e291])


def test_advanced_formula_shape():
    # Spot-check the closed form against an inline evaluation.
    eps, k, slack = 0.2, 20, 1e-4
    expected = math.sqrt(2 * k * math.log(1 / slack)) * eps + k * eps * (math.exp(eps) - 1)
    g = advanced_compose([PrivacyParams(eps, 0.0)] * k, slack)
    assert g.epsilon == pytest.approx(expected, rel=1e-12)


def suffixes(seq, theorem):
    """``compose_suffixes`` of a list of guarantees, split into its two columns."""
    return compose_suffixes([g.epsilon for g in seq], [g.delta for g in seq], theorem)


class TestComposeSuffixes:
    """Row i equals ``compose(guarantees[i:])`` bit for bit, and refusals match it too."""

    def assert_suffixes_match(self, seq, theorem):
        got = suffixes(seq, theorem)
        assert got.shape == (len(seq) + 1, 2) and got.dtype == np.float64
        assert [tuple(row) for row in got.tolist()] == [
            compose(seq[i:], theorem).as_tuple() for i in range(len(seq) + 1)]

    def test_simple_advanced_and_pluggable(self):
        rng = np.random.default_rng(91)
        for k in (1, 2, 7, 64, 300):
            het = [PrivacyParams(float(e), float(d)) for e, d in
                   zip(rng.exponential(0.5, k), rng.choice([0.0, 1e-7, 0.4], k))]
            homog = list(MechanismSequence.homogeneous(float(rng.exponential(0.3)), 1e-8, k))
            for theorem in (Simple(), Capped()):
                self.assert_suffixes_match(het, theorem)
            for slack in (1e-9, 1e-6, 0.3):
                self.assert_suffixes_match(homog, Advanced(slack))

    def test_empty_list(self):
        for theorem in (Simple(), Advanced(1e-6), Capped()):
            assert compose_suffixes([], [], theorem).tolist() == [[0.0, 0.0]]

    def test_advanced_on_heterogeneous_raises_like_compose(self):
        rest = [PrivacyParams(0.2, 1e-8)] * 5
        for seq in ([PrivacyParams(0.3, 1e-8)] + rest, rest + [PrivacyParams(0.2, 0.0)]):
            with pytest.raises(HeterogeneousInputError) as expected:
                compose(seq, Advanced(1e-6))
            with pytest.raises(HeterogeneousInputError) as got:
                suffixes(seq, Advanced(1e-6))
            assert type(got.value) is type(expected.value)
            assert str(got.value) == str(expected.value)

    def test_delta_capped_and_overflow_raised_like_compose(self):
        seq = [PrivacyParams(1.0, 0.7), PrivacyParams(0.5, 0.6), PrivacyParams(0.1, 0.2)]
        self.assert_suffixes_match(seq, Simple())
        assert suffixes(seq, Simple())[0, 1] == 1.0
        with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            suffixes([PrivacyParams(1e308, 0.0)] * 3, Simple())
