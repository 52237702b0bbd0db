import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from hypodp import constraints
from hypodp.composition import Advanced, Simple, compose, simple_compose
from hypodp.constraints import (
    AT_MOST_ONE,
    MaxOnes,
    NeighborhoodMode,
    PatternSet,
    allowed_vectors,
    constrained_bound,
    exclusive_groups_bound,
    parallel_bound,
)
from hypodp.core import BitVector, MechanismSequence, PrivacyParams, bit_rows, bounded_params
from hypodp.errors import (
    IncompatibleModeError,
    IncompatibleTheoremError,
    InvalidBoundariesError,
    KTooLargeError,
    MixedLengthError,
    NonzeroDeltaError,
)

UNBOUNDED = NeighborhoodMode.UNBOUNDED
BOUNDED = NeighborhoodMode.BOUNDED

# Frozen via direct 50-digit evaluation of the advanced-composition formula
# at eps=0.01, k=365, slack=1e-5.
ADV_K365 = 0.9534401981542315


def bv(s):
    return BitVector.from_string(s)


class CountTimesWorst:
    """A pluggable order-independent theorem: the count times the worst epsilon, deltas summed."""

    def compose_guarantees(self, guarantees):
        return bounded_params(len(guarantees) * max(g.epsilon for g in guarantees),
                              math.fsum(g.delta for g in guarantees))


def assert_max_of_compose_per_pair(bound, seq, differences, theorem):
    """``bound()`` is the componentwise maximum of composing each pair's positions on its own.

    Where composing some pair refuses, ``bound()`` raises the same type with the same message.
    """
    try:
        per_pair = [compose([seq[i] for i in sorted(d)], theorem) for d in differences]
    except Exception as err:
        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
            bound()
        return
    assert bound() == PrivacyParams(max(g.epsilon for g in per_pair),
                                    max(g.delta for g in per_pair))


def random_sequences(rng, k):
    """Heterogeneous, grouped (three guarantees cycling) and homogeneous sequences of length k."""
    het = MechanismSequence.from_pairs(
        zip(rng.uniform(0.0, 2.0, k).tolist(), rng.choice([0.0, 1e-6, 0.3], k).tolist())
    )
    cycle = [(0.1, 0.0), (0.7, 1e-6), (0.3, 1e-9)]
    grouped = MechanismSequence.from_pairs([cycle[i % 3] for i in range(k)])
    return het, grouped, MechanismSequence.homogeneous(0.3, 1e-7, k)


class TestAllowedVectors:
    def test_at_most_one_k2(self):
        got = {str(v) for v in allowed_vectors(AT_MOST_ONE, 2)}
        assert got == {"00", "01", "10"}

    def test_max_ones_2_k3(self):
        got = {str(v) for v in allowed_vectors(MaxOnes(2), 3)}
        assert len(got) == 7
        assert "111" not in got

    def test_pattern_set_identity(self):
        patterns = PatternSet.of([bv("110"), bv("101"), bv("000")])
        assert allowed_vectors(patterns, 3) == set(patterns.patterns)
        with pytest.raises(MixedLengthError):
            allowed_vectors(patterns, 4)

    def test_k_cap(self):
        with pytest.raises(KTooLargeError):
            allowed_vectors(MaxOnes(1), 64)

    def test_count_guard(self):
        with pytest.raises(KTooLargeError):
            allowed_vectors(MaxOnes(31), 62)


class TestMaxOnesBound:
    def test_at_most_one_picks_worst_singleton(self):
        seq = MechanismSequence.from_pairs([(0.1, 1e-8), (0.3, 2e-8), (0.2, 3e-8)])
        g = constrained_bound(seq, AT_MOST_ONE, UNBOUNDED, Simple())
        # Index 1 has the largest epsilon, index 2 the largest delta; the
        # claim must cover both singletons.
        assert g == PrivacyParams(0.3, 3e-8)

    def test_max_ones_2_unbounded(self):
        seq = MechanismSequence.homogeneous(0.1, 1e-6, 5)
        g = constrained_bound(seq, MaxOnes(2), UNBOUNDED, Simple())
        assert g.epsilon == pytest.approx(0.2, rel=1e-15)
        assert g.delta == pytest.approx(2e-6, rel=1e-15)

    def test_max_ones_2_bounded_doubles(self):
        seq = MechanismSequence.homogeneous(0.1, 1e-6, 5)
        g = constrained_bound(seq, MaxOnes(2), BOUNDED, Simple())
        assert g.epsilon == pytest.approx(0.4, rel=1e-15)
        assert g.delta == pytest.approx(4e-6, rel=1e-15)

    def test_bounded_size_capped_at_k(self):
        seq = MechanismSequence.homogeneous(0.1, 0.0, 3)
        g = constrained_bound(seq, MaxOnes(2), BOUNDED, Simple())
        assert g.epsilon == pytest.approx(0.3, rel=1e-15)

    def test_vacuous_constraint_equals_compose(self):
        seq = MechanismSequence.from_pairs([(0.1, 1e-7), (0.4, 0.0), (0.2, 2e-7)])
        g = constrained_bound(seq, MaxOnes(3), UNBOUNDED, Simple())
        assert g == compose(seq, Simple())
        for mode in (UNBOUNDED, BOUNDED):
            assert constrained_bound([], MaxOnes(2), mode, Simple()) == PrivacyParams(0.0, 0.0)

    def test_m_below_one_refused(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            MaxOnes(0)
        with pytest.raises(ValueError, match="m must be >= 1"):
            parallel_bound(MechanismSequence.homogeneous(0.1, 0.0, 3), 0, UNBOUNDED)

    def test_advanced_homogeneous_no_search(self):
        seq = MechanismSequence.homogeneous(0.01, 0.0, 365)
        g = constrained_bound(seq, MaxOnes(365), UNBOUNDED, Advanced(1e-5))
        assert g.epsilon == pytest.approx(ADV_K365, abs=1e-12)

    def test_advanced_heterogeneous_rejected(self):
        seq = MechanismSequence.from_pairs([(0.1, 0.0), (0.2, 0.0), (0.3, 0.0)])
        with pytest.raises(IncompatibleTheoremError):
            constrained_bound(seq, MaxOnes(2), UNBOUNDED, Advanced(1e-5))

    def test_pluggable_theorem_rejected(self):
        class Fixed:
            def compose_guarantees(self, guarantees):
                return PrivacyParams(42.0, 0.0)

        seq = MechanismSequence.homogeneous(0.1, 0.0, 4)
        with pytest.raises(IncompatibleTheoremError):
            constrained_bound(seq, MaxOnes(2), UNBOUNDED, Fixed())

    def test_shortcut_path_warns_and_dominates(self):
        # C(40, 20) subsets: the simple theorem sums the top-m epsilons
        # and the top-m deltas without enumerating them.
        rng = np.random.default_rng(3)
        seq = MechanismSequence.from_pairs([
            (float(e), float(d))
            for e, d in zip(rng.uniform(0.0, 1.0, 40), rng.uniform(0.0, 1e-6, 40))
        ])
        g = constrained_bound(seq, MaxOnes(20), UNBOUNDED, Simple())
        top_eps = sorted((p.epsilon for p in seq), reverse=True)[:20]
        assert g.epsilon == pytest.approx(math.fsum(top_eps), rel=1e-12)
        # dominance over a handful of arbitrary subsets
        for _ in range(20):
            subset = rng.choice(40, size=20, replace=False)
            sub = simple_compose([seq[i] for i in subset])
            assert g.epsilon >= sub.epsilon - 1e-12
            assert g.delta >= sub.delta - 1e-18


class TestPatternSetBound:
    seq = MechanismSequence.from_pairs([(0.1, 0.0), (0.4, 0.0), (0.2, 0.0)])

    def test_unbounded_needs_zero_vector(self):
        patterns = PatternSet.of([bv("110"), bv("101")])
        with pytest.raises(IncompatibleModeError):
            constrained_bound(self.seq, patterns, UNBOUNDED, Simple())

    def test_unbounded_pairs_zero_against_others(self):
        patterns = PatternSet.of([bv("000"), bv("110"), bv("101")])
        g = constrained_bound(self.seq, patterns, UNBOUNDED, Simple())
        # (000,110) composes {0,1} -> 0.5; (000,101) composes {0,2} -> 0.3
        assert g.epsilon == pytest.approx(0.5, rel=1e-15)

    def test_bounded_all_pairs(self):
        patterns = PatternSet.of([bv("000"), bv("110"), bv("101")])
        g = constrained_bound(self.seq, patterns, BOUNDED, Simple())
        # adds (110,101) over the symmetric difference {1,2} -> 0.6
        assert g.epsilon == pytest.approx(0.6, rel=1e-15)

    def test_single_pattern_leaks_nothing(self):
        patterns = PatternSet.of([bv("000")])
        for mode in (UNBOUNDED, BOUNDED):  # no pair to compare: the empty word list
            assert constrained_bound(self.seq, patterns, mode, Simple()) == PrivacyParams(0.0, 0.0)

    def test_malformed_pattern_sets_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            PatternSet.of([])
        with pytest.raises(MixedLengthError):
            PatternSet.of([bv("00"), bv("000")])
        for mode in (UNBOUNDED, BOUNDED):
            with pytest.raises(MixedLengthError):
                constrained_bound(self.seq, PatternSet.of([bv("00"), bv("11")]), mode, Simple())

    def test_equals_max_of_compose_per_pair(self):
        # Pairs compose once per key; each must equal its own compose. Grouped sequences
        # put many pairs on one key, and Advanced refuses a heterogeneous pair as it did
        # pair by pair.
        rng = np.random.default_rng(515)
        for _ in range(40):
            k = int(rng.integers(2, 20))
            words = {0} | set(rng.integers(1, 1 << k, size=int(rng.integers(1, 12))).tolist())
            patterns = PatternSet.of(BitVector(w, k) for w in words)
            het, grouped, homogeneous = random_sequences(rng, k)
            cases = [(het, Simple()), (homogeneous, Advanced(1e-6)), (grouped, Simple()),
                     (het, CountTimesWorst()), (grouped, CountTimesWorst()),
                     (het, Advanced(1e-6)), (grouped, Advanced(1e-6))]
            for seq, theorem in cases:
                for mode in (UNBOUNDED, BOUNDED):
                    pairs = sorted(patterns.patterns, key=lambda p: p.word)
                    if mode is UNBOUNDED:
                        pairs = [(pairs[0], p) for p in pairs[1:]]
                    else:
                        pairs = list(itertools.combinations(pairs, 2))
                    differences = [{i for i in range(k) if str(a)[i] != str(b)[i]}
                                   for a, b in pairs]
                    assert_max_of_compose_per_pair(
                        lambda: constrained_bound(seq, patterns, mode, theorem),
                        seq, differences, theorem)

    @pytest.mark.parametrize("k, kind, theorem", [
        (20, "homogeneous", Simple()), (20, "homogeneous", Advanced(1e-6)),
        (16, "heterogeneous", Simple()),
    ])
    def test_3000_bounded_patterns_within_10s(self, k, kind, theorem):
        # About 4.5 million pairs: only their distinct keys compose.
        rng = np.random.default_rng(2718)
        words = rng.choice(1 << k, size=3000, replace=False).astype(np.uint64)
        patterns = PatternSet.of(BitVector(w, k) for w in words.tolist())
        if kind == "homogeneous":
            seq = MechanismSequence.homogeneous(0.1, 1e-7, k)
            # The worst pair differs in the most positions.
            widest = max(int(np.bitwise_count(words[i + 1:] ^ w).max())
                         for i, w in enumerate(words[:-1]))
            want = compose([seq[0]] * widest, theorem)
        else:
            seq = MechanismSequence.from_pairs(
                zip(rng.uniform(0.0, 2.0, k).tolist(), rng.uniform(0.0, 1e-5, k).tolist()))
            # Some pair is complementary, so the worst pair composes every position.
            assert np.isin(words ^ np.uint64((1 << k) - 1), words).any()
            want = compose(seq, theorem)
        start = time.perf_counter()
        got = constrained_bound(seq, patterns, BOUNDED, theorem)
        assert time.perf_counter() - start < 10.0
        assert got == want


    @staticmethod
    def six_hundred_patterns():
        """600 seeded patterns at k = 63 and 63 distinct guarantees, deltas over four decades."""
        rng = np.random.default_rng(52)
        k = 63
        seq = MechanismSequence.from_pairs(
            zip(rng.uniform(0.05, 0.8, k).tolist(), (10.0 ** rng.uniform(-8, -4, k)).tolist()))
        words = rng.integers(0, 1 << 62, 600, dtype=np.int64).tolist()
        return k, seq, words, PatternSet.of(BitVector(w, k) for w in words)

    def test_600_bounded_patterns_with_deltas_over_four_decades(self):
        # 179,700 distinct XOR words at k = 63 with 63 distinct guarantees: the
        # deltas' fixed-point integers reach 2^65, so their row sums take two
        # 56-bit int64 limbs and one Python integer division per row, where a
        # per-row math.fsum took about a second.
        k, seq, words, patterns = self.six_hundred_patterns()
        start = time.perf_counter()
        got = constrained_bound(seq, patterns, BOUNDED, Simple())
        assert time.perf_counter() - start < 0.6
        # Each column's maximum is some pair's fsum: the float products rank the
        # pairs, and the exact sums of the top few decide.
        xor = np.array([a ^ b for a, b in itertools.combinations(words, 2)], dtype=np.uint64)
        rows = bit_rows(xor, k)
        for column, got_max in ((0, got.epsilon), (1, got.delta)):
            values = [g.as_tuple()[column] for g in seq]
            top = np.argsort(rows @ np.array(values))[-8:]
            assert got_max == max(math.fsum(itertools.compress(values, rows[i])) for i in top)

    def test_600_bounded_patterns_within_32_mb(self):
        # The same 179,700 keys summed from their XOR words by byte tables, a
        # chunk at a time: no (keys, k) selection and no int64 copy of it, which
        # alone took 90 MB (122 MB traced in all). The budget is wall time
        # under tracemalloc, which traces every Python integer of the two-limb sums.
        _, seq, _, patterns = self.six_hundred_patterns()
        tracemalloc.start()
        start = time.perf_counter()
        try:
            constrained_bound(seq, patterns, BOUNDED, Simple())
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 << 20 and elapsed < 15.0, (peak, elapsed)

    def test_more_bounded_pattern_pairs_than_the_budget_refused_at_once(self, monkeypatch):
        # 4,473 patterns make 10,001,628 pairs, past MAX_ENUMERATION = 10^7. Their index
        # pairs and XOR words alone would take 240 MB, so the refusal comes before any
        # pair is built.
        rng = np.random.default_rng(4473)
        k = 63
        words = set(rng.integers(0, 1 << 62, 4473, dtype=np.int64).tolist())
        assert len(words) == 4473
        patterns = PatternSet.of(BitVector(w, k) for w in words)
        seq = MechanismSequence.homogeneous(0.1, 1e-7, k)

        def unreached(*_args):
            raise AssertionError("the pairs were built")

        monkeypatch.setattr(np, "triu_indices", unreached)
        start = time.perf_counter()
        with pytest.raises(KTooLargeError, match="4473 patterns make 10001628 pairs"):
            constrained_bound(seq, patterns, BOUNDED, Simple())
        assert time.perf_counter() - start < 1.0

    def test_pattern_pair_budget_boundary(self, monkeypatch):
        monkeypatch.setattr(constraints, "MAX_ENUMERATION", 45)  # 10 patterns, 45 pairs
        seq = MechanismSequence.from_pairs([(0.1 * (i + 1), 1e-6) for i in range(5)])
        patterns = [BitVector(w, 5) for w in range(11)]
        ten = PatternSet.of(patterns[:10])
        # Patterns 0b00111 and 0b01000 differ in positions 1-4.
        assert constrained_bound(seq, ten, BOUNDED, Simple()) == compose(seq[1:], Simple())
        with pytest.raises(KTooLargeError, match="11 patterns make 55 pairs"):
            constrained_bound(seq, PatternSet.of(patterns), BOUNDED, Simple())


class TestExclusiveGroupsBound:
    def test_homogeneous_unbounded(self):
        seq = MechanismSequence.homogeneous(0.1, 0.0, 3)
        g = exclusive_groups_bound(seq, 1, 2, 3, UNBOUNDED, Simple())
        assert g.epsilon == pytest.approx(0.2, rel=1e-15)
        assert g.delta == 0.0

    def test_homogeneous_bounded(self):
        seq = MechanismSequence.homogeneous(0.1, 0.0, 3)
        g = exclusive_groups_bound(seq, 1, 2, 3, BOUNDED, Simple())
        assert g.epsilon == pytest.approx(0.2, rel=1e-15)

    def test_heterogeneous_bounded(self):
        seq = MechanismSequence.from_pairs([(0.1, 0.0), (0.4, 0.0)])
        g = exclusive_groups_bound(seq, 0, 1, 2, BOUNDED, Simple())
        # pairs: (10,01) -> {0,1} -> 0.5; (10,00) -> {0} -> 0.1; (01,00) -> {1} -> 0.4
        assert g.epsilon == pytest.approx(0.5, rel=1e-15)

    def test_heterogeneous_unbounded_drops_second_vs_zero(self):
        seq = MechanismSequence.from_pairs([(0.1, 0.0), (0.4, 0.0)])
        g = exclusive_groups_bound(seq, 0, 1, 2, UNBOUNDED, Simple())
        assert g.epsilon == pytest.approx(0.5, rel=1e-15)

    def test_k_cap(self):
        with pytest.raises(KTooLargeError):
            exclusive_groups_bound(MechanismSequence.homogeneous(0.1, 0.0, 64), 1, 2, 64, BOUNDED)

    def test_equals_max_of_compose_per_pair(self):
        rng = np.random.default_rng(808)
        for _ in range(40):
            k = int(rng.integers(2, 30))
            shared = int(rng.integers(0, k - 1))
            first_only = int(rng.integers(shared + 1, k))
            first, second = set(range(first_only)), {*range(shared), *range(first_only, k)}
            for seq in random_sequences(rng, k):
                for theorem in (Simple(), Advanced(1e-6), CountTimesWorst()):
                    for mode in (UNBOUNDED, BOUNDED):
                        differences = [first ^ second, first] + [second] * (mode is BOUNDED)
                        assert_max_of_compose_per_pair(
                            lambda: exclusive_groups_bound(seq, shared, first_only, k, mode,
                                                           theorem),
                            seq, differences, theorem)

    @pytest.mark.parametrize("bounds", [(2, 2, 3), (1, 1, 3), (0, 3, 3), (1, 2, 4)])
    def test_invalid_boundaries(self, bounds):
        seq = MechanismSequence.homogeneous(0.1, 0.0, 3)
        with pytest.raises(InvalidBoundariesError):
            exclusive_groups_bound(seq, *bounds, UNBOUNDED, Simple())


class TestParallelBound:
    def test_single_invocation(self):
        seq = MechanismSequence.from_pairs([(0.1, 0.0), (0.3, 0.0)])
        assert parallel_bound(seq, 1, UNBOUNDED) == PrivacyParams(0.3, 0.0)

    def test_hospital_unbounded(self):
        seq = MechanismSequence.homogeneous(0.01, 0.0, 365)
        g = parallel_bound(seq, 365, UNBOUNDED)
        assert g.epsilon == 365 * 0.01

    def test_hospital_bounded(self):
        seq = MechanismSequence.homogeneous(0.01, 0.0, 730)
        g = parallel_bound(seq, 365, BOUNDED)
        assert g.epsilon == 730 * 0.01

    def test_count_capped_at_k(self):
        # At most k positions can differ, in either mode, as constrained_bound counts them.
        seq = MechanismSequence.homogeneous(0.1, 0.0, 3)
        for mode in (UNBOUNDED, BOUNDED):
            assert parallel_bound(seq, 5, mode) == PrivacyParams(0.30000000000000004, 0.0)
            assert parallel_bound(seq, 5, mode) == constrained_bound(seq, MaxOnes(5), mode, Simple())

    def test_empty_sequence_is_zero(self):
        # As compose and constrained_bound give it; once a bare ValueError from max().
        for mode in (UNBOUNDED, BOUNDED):
            assert parallel_bound([], 2, mode) == PrivacyParams(0.0, 0.0)
            assert parallel_bound([], 2, mode) == constrained_bound([], MaxOnes(2), mode, Simple())

    def test_nonzero_delta_rejected(self):
        seq = MechanismSequence.homogeneous(0.01, 1e-9, 10)
        with pytest.raises(NonzeroDeltaError):
            parallel_bound(seq, 2, UNBOUNDED)

    def test_overflow_raises(self):
        seq = MechanismSequence.homogeneous(1e308, 0.0, 3)
        with pytest.raises(OverflowError):
            parallel_bound(seq, 3, UNBOUNDED)


class TestInvariants:
    def test_constrained_never_exceeds_compose(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            k = int(rng.integers(1, 8))
            seq = MechanismSequence.from_pairs([
                (float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 1e-4)))
                for _ in range(k)
            ])
            m = int(rng.integers(1, k + 1))
            mode = UNBOUNDED if rng.integers(2) else BOUNDED
            g = constrained_bound(seq, MaxOnes(m), mode, Simple())
            classic = compose(seq, Simple())
            assert g.epsilon <= classic.epsilon + 1e-12
            assert g.delta <= classic.delta + 1e-15

    def test_constrained_never_beats_parallel_for_pure_dp(self):
        rng = np.random.default_rng(4321)
        for _ in range(50):
            k = int(rng.integers(1, 8))
            seq = MechanismSequence.from_pairs(
                [(float(rng.uniform(0.0, 2.0)), 0.0) for _ in range(k)]
            )
            m = int(rng.integers(1, k + 1))
            for mode in (UNBOUNDED, BOUNDED):
                g = constrained_bound(seq, MaxOnes(m), mode, Simple())
                p = parallel_bound(seq, m, mode)
                assert g.epsilon <= p.epsilon + 1e-12

    def test_advanced_beats_parallel_at_k365(self):
        seq = MechanismSequence.homogeneous(0.01, 0.0, 365)
        constrained = constrained_bound(seq, MaxOnes(365), UNBOUNDED, Advanced(1e-5))
        parallel = parallel_bound(seq, 365, UNBOUNDED)
        assert constrained.epsilon == pytest.approx(ADV_K365, abs=1e-12)
        assert parallel.epsilon == pytest.approx(3.65, rel=1e-15)
        assert constrained.epsilon < parallel.epsilon
