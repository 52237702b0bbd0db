import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from hypodp import composition
from hypodp.composition import (
    Advanced,
    Simple,
    _compose_words,
    _piece_keys,
    compose,
    simple_compose,
)
from hypodp.core import BitVector, Hypothesis, MechanismSequence, PrivacyParams, bit_rows
from hypodp.errors import EmptySetError, IncompatibleTheoremError, MixedLengthError
from hypodp.hypothesis_dp import (
    PAIR_DTYPE,
    _Groups,
    _aggregate,
    _class_refinement,
    hdp_guarantee,
    hdp_guarantee_over_set,
    pair_guarantee,
    refine_tuples,
    uniform_nonzero_closed_form,
)

# Frozen via direct 50-digit evaluation of ln[((1+e^eps)^k - 1)/(2^k - 1)].
UNIFORM_K2_EPS1 = 1.4528324252639413   # k=2, eps=1
UNIFORM_K3_EPS05 = 0.9210052221977069  # k=3, eps=0.5
UNIFORM_K12_EPS01 = 0.615105922653321  # k=12, eps=0.1


def bv(s):
    return BitVector.from_string(s)


def differing(b0, b1):
    """0-based positions where two vectors of one k disagree: ``bit_rows`` of the XOR word."""
    return np.flatnonzero(bit_rows([b0.word ^ b1.word], b0.k)[0]).tolist()


class TestDifferingIndices:
    def test_identical(self):
        assert differing(bv("000"), bv("000")) == []

    def test_full_flip(self):
        # 0-based positions; position 0 is the first iteration.
        assert differing(bv("000"), bv("111")) == [0, 1, 2]

    def test_single_bit(self):
        assert differing(bv("010"), bv("011")) == [2]


class TestPairGuarantee:
    seq = MechanismSequence.homogeneous(0.1, 1e-6, 3)

    def test_equal_vectors(self):
        b = bv("0110")
        seq = MechanismSequence.homogeneous(0.1, 1e-6, 4)
        assert pair_guarantee(b, b, seq, Simple()) == PrivacyParams(0.0, 0.0)

    def test_full_flip_reduces_to_simple(self):
        g = pair_guarantee(bv("000"), bv("111"), self.seq, Simple())
        assert g == simple_compose(self.seq)

    def test_vectors_of_unequal_k_refused(self):
        with pytest.raises(MixedLengthError, match="vectors have k=3 and k=2"):
            pair_guarantee(bv("010"), bv("01"), self.seq, Simple())

    def test_single_differing_index(self):
        g = pair_guarantee(bv("010"), bv("011"), self.seq, Simple())
        assert g == PrivacyParams(0.1, 1e-6)

    def test_flip_pair_equals_compose_for_every_vector(self):
        seq = MechanismSequence.from_pairs([(0.1, 0.0), (0.2, 1e-7), (0.3, 1e-6)])
        for word in range(8):
            b = BitVector(word, 3)
            flipped = BitVector(word ^ 0b111, 3)
            assert pair_guarantee(b, flipped, seq, Simple()) == simple_compose(seq)
        homog = MechanismSequence.homogeneous(0.2, 1e-7, 3)
        for word in range(8):
            b = BitVector(word, 3)
            assert pair_guarantee(b, BitVector(word ^ 0b111, 3), homog, Advanced(1e-6)) == compose(
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

    def test_hypotheses_of_unequal_k_refused(self):
        # Each order takes the class path, which never reached refine_tuples'
        # check, and returned a bound (0.311 to 0.676 nats) for a sequence of p0's k.
        for p0 in (Hypothesis.uniform_all(3), Hypothesis.point_mass(bv("000"))):
            p1 = Hypothesis.uniform_nonzero(4)
            for a, b in ((p0, p1), (p1, p0)):
                with pytest.raises(MixedLengthError):
                    hdp_guarantee(a, b, MechanismSequence.homogeneous(0.3, 0.0, a.k), Simple())


def flat_pipeline(p0, p1, seq, theorem):
    """``hdp_guarantee`` atom by atom, as it runs wherever the class path does not."""
    pairs = refine_tuples(p0, p1).pairs
    return _aggregate(pairs, *_piece_keys(pairs["word0"] ^ pairs["word1"], seq, theorem, p0.k))


def per_row_reference(p0, p1, seq, theorem):
    """hdp_guarantee with ``compose`` run on every refined piece's differing positions."""
    r = refine_tuples(p0, p1)
    per_row = [
        compose([seq[i] for i in differing(BitVector(w0, r.k), BitVector(w1, r.k))], theorem)
        for _, w0, w1 in r.pairs.tolist()
    ]
    return _aggregate(r.pairs, np.arange(len(per_row)),
                      np.array([g.as_tuple() for g in per_row]).reshape(-1, 2))


def random_mixture(rng, k):
    n = int(rng.integers(1, (1 << k) + 1))
    words = rng.choice(1 << k, size=n, replace=False)
    return Hypothesis({BitVector(int(w), k): float(p)
                       for w, p in zip(words, rng.dirichlet(np.ones(n)))})


class TestDistinctKeys:
    """One composition per distinct key gives exactly the per-piece result."""

    def test_equals_per_row_reference(self):
        rng = np.random.default_rng(4242)
        presets = []
        for k in (3, 6, 10):
            zero, nonzero = Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k)
            homog = MechanismSequence.homogeneous(float(rng.uniform(0.05, 1.0)), 1e-7, k)
            for p0 in (zero, Hypothesis.uniform_all(k)):
                presets += [(p0, nonzero, homog, Simple()), (nonzero, p0, homog, Advanced(1e-6))]
        # Exchangeable pairs take the class path, whose pieces are not vectors.
        for p0, p1, seq, theorem in presets:
            assert flat_pipeline(p0, p1, seq, theorem) == per_row_reference(p0, p1, seq, theorem)
        cases = []
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
        original = composition._compose_words

        def counted(seq, words, theorem):
            rows.extend(words.tolist())
            return original(seq, words, theorem)

        monkeypatch.setattr(composition, "_compose_words", counted)
        zero, nonzero = Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k)
        seq = MechanismSequence.homogeneous(0.1, 1e-6, k)
        g = hdp_guarantee(zero, nonzero, seq, Simple())
        # One key per number of ones, against 4095 pieces.
        assert 0 < len(rows) <= k + 1
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


class TestWorkingMemory:
    def test_point_mass_against_uniform_nonzero_16_within_128_bytes_a_piece(self):
        # 16 distinct guarantees: the flat walk, 65,535 pieces, each its own key.
        # Keys are summed from their XOR words and each side reduced on its own,
        # with no selection matrix and no permuted copies (240 B a piece before).
        k = 16
        rng = np.random.default_rng(1616)
        seq = MechanismSequence.from_pairs(
            zip(rng.uniform(0.05, 1.0, k).tolist(), rng.uniform(0.0, 1e-6, k).tolist()))
        zero, nonzero = Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k)
        nonzero.words  # the input's own arrays are built before tracing
        tracemalloc.start()
        start = time.perf_counter()
        try:
            hdp_guarantee(zero, nonzero, seq, Simple())
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * len(nonzero) and elapsed < 2.0, (peak / len(nonzero), elapsed)


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
                expected = compose([seq[i] for i in differing(b0, b1)], Simple())
                assert pair_guarantee(b0, b1, seq, Simple()) == expected
                assert _compose_words(
                    list(seq), np.array([w0 ^ w1], dtype=np.uint64), Simple()
                ).tolist() == [list(expected.as_tuple())]


def aggregate(pairs, eps, delta):
    """``_aggregate`` with one key per piece: the guarantee of row i is ``(eps[i], delta[i])``."""
    return _aggregate(pairs, np.arange(len(pairs)), np.stack((eps, delta), 1))


def shared_keys(eps, delta):
    """One key per distinct ``(eps, delta)``, as ``hdp_guarantee`` passes them: (key, table)."""
    table, key = np.unique(np.stack((eps, delta), 1), axis=0, return_inverse=True)
    return key.reshape(-1), table


class LexsortGroups:
    """The grouping ``_Groups`` replaced: a lexsort by word, then by delta."""

    def __init__(self, words, weight, eps, delta):
        order = np.lexsort((delta, words))
        words = words[order]
        self.weight, self.eps, self.delta = weight[order], eps[order], delta[order]
        self.starts = np.flatnonzero(np.concatenate(([True], words[1:] != words[:-1])))
        self.sizes = np.diff(self.starts, append=len(words))
        self.mass = np.add.reduceat(self.weight, self.starts)
        hi = np.maximum.reduceat(self.eps, self.starts)
        lo = np.minimum.reduceat(self.eps, self.starts)
        up = np.add.reduceat(self.weight * np.exp(self.eps - np.repeat(hi, self.sizes)),
                             self.starts) / self.mass
        down = np.add.reduceat(self.weight * np.exp(np.repeat(lo, self.sizes) - self.eps),
                               self.starts) / self.mass
        self.eps_g = max(0.0, float(np.max(hi + np.log(up))))
        self.eps_j = max(0.0, float(np.max(lo - np.log(down))))

    def delta_j(self, eps):
        mass = np.repeat(self.mass, self.sizes)
        a = np.minimum(1.0, self.weight / mass * np.exp(np.minimum(eps - self.eps, 700.0)))
        best = np.zeros(len(self.starts))
        for m in np.unique(self.sizes):
            rows = np.flatnonzero(self.sizes == m)
            idx = self.starts[rows, None] + np.arange(m)
            d, ad = self.delta[idx], a[idx]
            sa, sad = np.cumsum(ad, axis=1), np.cumsum(ad * d, axis=1)
            at_breaks = np.max(d * (1.0 - (sa - ad)) + (sad - ad * d), axis=1)
            at_one = 1.0 - sa[:, -1] + sad[:, -1]
            group_best = np.maximum(0.0, np.maximum(at_breaks, at_one))
            best[rows] = np.where(d[:, -1] > 0.0, group_best, 0.0)
        return float(np.sum(self.mass * best))


def lexsort_aggregate(pairs, eps, delta):
    """``_aggregate`` on ``LexsortGroups``."""
    weight = pairs["weight"]
    side0 = LexsortGroups(pairs["word0"], weight, eps, delta)
    side1 = LexsortGroups(pairs["word1"], weight, eps, delta)
    epsilon = max(0.0, min(side1.eps_g, side0.eps_j), min(side0.eps_g, side1.eps_j))
    delta_g = math.fsum((weight * delta).tolist())
    return PrivacyParams(epsilon, min(1.0, max(
        delta_g if epsilon >= side1.eps_g else side0.delta_j(epsilon),
        delta_g if epsilon >= side0.eps_g else side1.delta_j(epsilon),
    )))


def assert_matches_lexsort(pairs, eps, delta):
    want = lexsort_aggregate(pairs, eps, delta).as_tuple()
    assert aggregate(pairs, eps, delta).as_tuple() == want
    assert _aggregate(pairs, *shared_keys(eps, delta)).as_tuple() == want


class TestRunGroups:
    """Groups as runs of equal words give the lexsort result bit for bit."""

    def test_equal_deltas_on_distinct_keys_keep_row_order(self):
        # Many epsilons, two deltas: keys tie on their delta's rank, and the
        # sum order inside a group (row order among ties) shows in the bits.
        rng = np.random.default_rng(9093)
        for _ in range(200):
            n = int(rng.integers(2, 80))
            pairs = np.zeros(n, dtype=PAIR_DTYPE)
            pairs["word0"] = np.sort(rng.integers(0, max(2, n // 8), n))
            pairs["word1"] = np.sort(rng.integers(0, max(2, n // 2), n))
            pairs["weight"] = rng.dirichlet(np.ones(n))
            eps = rng.uniform(0.0, 3.0, n)
            delta = rng.choice([1e-6, 3e-7], n)
            assert_matches_lexsort(pairs, eps, delta)
            assert_matches_lexsort(pairs, eps, np.zeros(n))

    def test_random_tables_out_of_order_within_runs(self):
        rng = np.random.default_rng(9090)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            pairs = np.zeros(n, dtype=PAIR_DTYPE)
            # Both columns non-decreasing, as refinement emits them, with long runs.
            pairs["word0"] = np.sort(rng.integers(0, max(2, n // 3), n))
            pairs["word1"] = np.sort(rng.integers(0, max(2, n // 4), n))
            pairs["weight"] = rng.dirichlet(np.ones(n))  # positive, as _aggregate requires
            eps = rng.choice([0.0, 0.1, 0.7, 2.5, 900.0], n)
            delta = rng.choice([0.0, 1e-9, 1e-6, 1e-6, 0.2], n)  # tied and unsorted
            assert_matches_lexsort(pairs, eps, delta)

    def test_refined_pairs_with_permuted_deltas(self):
        rng = np.random.default_rng(9091)
        for _ in range(40):
            k = int(rng.integers(2, 9))
            pairs = refine_tuples(random_mixture(rng, k), random_mixture(rng, k)).pairs
            eps = rng.uniform(0.0, 3.0, len(pairs))
            delta = rng.permutation(rng.choice([0.0, 1e-7, 3e-6], len(pairs)))
            assert_matches_lexsort(pairs, eps, delta)


class ReduceatGroups:
    """``_Groups`` before its lean reductions, frozen: extremes by ``reduceat`` on every side.

    Every side is reduced, all-singleton sides included, and ``delta_j``
    scans the sizes once per size present.
    """

    def __init__(self, words, weight, key, eps, delta):
        self.weight, self.eps, self.delta = weight, eps[key], delta[key]
        new = np.concatenate(([True], words[1:] != words[:-1], [True]))
        if ((self.delta[1:] < self.delta[:-1]) & ~new[1:-1]).any():
            sort_key = new[:-1].astype(np.intp).cumsum()
            sort_key *= len(delta)
            sort_key += np.sort(delta).searchsorted(delta)[key]
            order = sort_key.argsort(kind="stable")
            self.weight, self.eps, self.delta = (
                a[order] for a in (self.weight, self.eps, self.delta))
        edges = new.nonzero()[0]
        self.starts, self.sizes = edges[:-1], edges[1:] - edges[:-1]
        self.mass = np.add.reduceat(self.weight, self.starts)
        hi = np.maximum.reduceat(self.eps, self.starts)
        lo = np.minimum.reduceat(self.eps, self.starts)
        rel_hi = np.exp(self.eps - hi.repeat(self.sizes))
        rel_lo = np.exp(lo.repeat(self.sizes) - self.eps)
        up = np.add.reduceat(self.weight * rel_hi, self.starts) / self.mass
        down = np.add.reduceat(self.weight * rel_lo, self.starts) / self.mass
        self.eps_g = max(0.0, float((hi + np.log(up)).max()))
        self.eps_j = max(0.0, float((lo - np.log(down)).max()))

    def delta_j(self, eps):
        mass = self.mass.repeat(self.sizes)
        a = np.minimum(1.0, self.weight / mass * np.exp(np.minimum(eps - self.eps, 700.0)))
        best = np.zeros(len(self.starts))
        for m in np.bincount(self.sizes).nonzero()[0]:
            rows = (self.sizes == m).nonzero()[0]
            idx = self.starts[rows] + np.arange(m)[:, None]
            d, ad = self.delta[idx], a[idx]
            sa, sad = np.add.accumulate(ad), np.add.accumulate(ad * d)
            at_breaks = np.maximum.reduce(d * (1.0 - (sa - ad)) + (sad - ad * d))
            at_one = 1.0 - sa[-1] + sad[-1]
            group_best = np.maximum(0.0, np.maximum(at_breaks, at_one))
            best[rows] = np.where(d[-1] > 0.0, group_best, 0.0)
        return float((self.mass * best).sum())


def reduceat_aggregate(pairs, key, table):
    """``_aggregate`` on ``ReduceatGroups``."""
    eps, delta = table.T
    side0 = ReduceatGroups(pairs["word0"], pairs["weight"], key, eps, delta)
    side1 = ReduceatGroups(pairs["word1"], pairs["weight"], key, eps, delta)
    epsilon = max(0.0, min(side1.eps_g, side0.eps_j), min(side0.eps_g, side1.eps_j))
    delta_g = math.fsum((side1.weight * side1.delta).tolist())
    return PrivacyParams(epsilon, min(1.0, max(
        delta_g if epsilon >= side1.eps_g else side0.delta_j(epsilon),
        delta_g if epsilon >= side0.eps_g else side1.delta_j(epsilon),
    )))


class TestLeanReductions:
    """Extremes by ``ufunc.at``, run ids, skipped singleton sides and sides reduced one at a
    time through one buffer, without permuted copies, keep every bit."""

    @staticmethod
    def assert_matches_reduceat(pairs, key, table):
        got, want = _aggregate(pairs, key, table), reduceat_aggregate(pairs, key, table)
        assert (got.epsilon.hex(), got.delta.hex()) == (want.epsilon.hex(), want.delta.hex())
        # Each side on its own, so a difference the claim's min and max hide shows too.
        eps, delta = table.T
        for column in ("word0", "word1"):
            side = _Groups(pairs[column], pairs["weight"], eps[key], key, table,
                           lambda: np.sort(delta).searchsorted(delta), np.empty(len(pairs)))
            assert side.order is None or sorted(side.order.tolist()) == list(range(len(pairs)))
            frozen = ReduceatGroups(pairs[column], pairs["weight"], key, eps, delta)
            assert (side.eps_g.hex(), side.eps_j.hex()) == (frozen.eps_g.hex(), frozen.eps_j.hex())
            for at in (frozen.eps_j, frozen.eps_j + 0.3, frozen.eps_j + 5.0):
                assert side.delta_j(at).hex() == frozen.delta_j(at).hex()

    @staticmethod
    def random_table(rng, keys, zero_deltas):
        eps = rng.choice([rng.uniform(0.0, 3.0), 0.0, 750.0], keys, p=[0.8, 0.1, 0.1])
        eps[: keys // 2] = rng.uniform(0.0, 3.0, keys // 2)
        delta = rng.choice([0.0, 1e-7, 3e-6, 2e-4], keys)
        return np.stack((eps, np.zeros(keys) if zero_deltas else delta), 1)

    def test_refined_tables_with_long_groups(self):
        # A few atoms against many: side-0 groups of tens of pieces, side-1 groups of one or two.
        rng = np.random.default_rng(2701)
        for trial in range(24):
            k = int(rng.integers(9, 13))
            few = rng.choice(1 << k, size=int(rng.integers(2, 20)), replace=False)
            many = rng.choice(1 << k, size=int(rng.integers(200, 1 << (k - 1))), replace=False)
            sides = [Hypothesis([(BitVector(int(w), k), float(p))
                                 for w, p in zip(words, rng.dirichlet(np.ones(len(words))))])
                     for words in (few, many)]
            for p0, p1 in (sides, sides[::-1]):
                pairs = refine_tuples(p0, p1).pairs
                keys = int(rng.integers(1, 40))
                key = rng.integers(0, keys, len(pairs))
                table = self.random_table(rng, keys, zero_deltas=trial % 4 == 0)
                self.assert_matches_reduceat(pairs, key, table)
                counts = [np.unique(pairs[c], return_counts=True)[1] for c in ("word0", "word1")]
                assert max(c.max() for c in counts) > 9

    def test_all_singleton_sides(self):
        rng = np.random.default_rng(2702)
        for trial in range(40):
            k = int(rng.integers(3, 11))
            mixture = random_mixture(rng, k)
            point = Hypothesis.point_mass(BitVector(int(rng.integers(1 << k)), k))
            for p0, p1 in ((point, mixture), (mixture, point), (mixture, mixture)):
                pairs = refine_tuples(p0, p1).pairs
                keys = int(rng.integers(1, len(pairs) + 1))
                key = rng.integers(0, keys, len(pairs))
                table = self.random_table(rng, keys, zero_deltas=trial % 3 == 0)
                self.assert_matches_reduceat(pairs, key, table)

    def test_descending_delta_uniform_prior_tables(self):
        # uniform_prior_bound's table: one side-0 run whose deltas descend, side 1 all singletons.
        rng = np.random.default_rng(2703)
        for n in (1, 2, 3, 10, 80, 1074):
            pairs = np.zeros(n, dtype=PAIR_DTYPE)
            pairs["weight"] = np.ldexp(1.0, -np.arange(1, n + 1)) / -math.expm1(-n * math.log(2.0))
            pairs["word1"] = np.arange(1, n + 1)
            eps = np.sort(rng.uniform(0.0, 2.0, n))[::-1].copy()
            for delta in (np.sort(rng.uniform(0.0, 1e-4, n))[::-1].copy(), np.zeros(n)):
                self.assert_matches_reduceat(pairs, np.arange(n), np.stack((eps, delta), 1))

    def test_flat_pipeline_tables(self):
        rng = np.random.default_rng(2704)
        for _ in range(20):
            k = int(rng.integers(2, 11))
            pairs = refine_tuples(random_mixture(rng, k), random_mixture(rng, k)).pairs
            varied = MechanismSequence.from_pairs(
                (float(rng.uniform(0.05, 1.0)), float(rng.choice([0.0, 1e-6]))) for _ in range(k))
            same = MechanismSequence.homogeneous(float(rng.uniform(0.05, 1.0)), 1e-7, k)
            for seq, theorem in ((varied, Simple()), (same, Simple()), (same, Advanced(1e-6))):
                key, table = _piece_keys(pairs["word0"] ^ pairs["word1"], seq, theorem, k)
                self.assert_matches_reduceat(pairs, key, table)


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
    def test_k0_refused(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            uniform_nonzero_closed_form(0.5, 0.0, 0)

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


def undeclared(h):
    """The atoms of ``h`` built one by one: a hypothesis that declares nothing."""
    return Hypothesis(list(zip(h.support(), h.weights.tolist())))


def preset_pairs(k):
    """Constructor pairs: each two presets, and each preset against a point mass, both orders."""
    presets = [lambda: Hypothesis.uniform_all(k), lambda: Hypothesis.uniform_nonzero(k)]
    points = [lambda v=v: Hypothesis.point_mass(v) for v in (BitVector.zeros(k), BitVector.ones(k))]
    pairs = list(itertools.product(presets, presets))
    for point, preset in itertools.product(points, presets):
        pairs += [(point, preset), (preset, point)]
    return pairs


class TestDeclaredPresets:
    """A preset's declared class law refines exactly as the scan of its atoms does."""

    def test_class_refinement_and_guarantee_equal_the_scan(self):
        rng = np.random.default_rng(2601)
        class_tables = 0
        for k in range(1, 13):
            for n_groups in range(1, min(3, k) + 1):
                group_of = rng.permutation([i % n_groups for i in range(k)]).tolist()
                pool = [PrivacyParams(float(rng.uniform(0.05, 1.0)), float(rng.choice([0.0, 1e-6])))
                        for _ in range(n_groups)]
                seq = MechanismSequence(tuple(pool[g] for g in group_of))
                masks = composition._guarantee_masks(seq, k)
                theorems = [Simple()] + ([Advanced(1e-6)] if n_groups == 1 else [])
                for make0, make1 in preset_pairs(k):
                    p0, p1 = make0(), make1()
                    e0, e1 = undeclared(make0()), undeclared(make1())
                    got, want = _class_refinement(p0, p1, masks), _class_refinement(e0, e1, masks)
                    assert (got is None) == (want is None), (k, group_of, p0, p1)
                    if got is not None:
                        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
                        class_tables += 1
                    for theorem in theorems:
                        assert hdp_guarantee(p0, p1, seq, theorem) == \
                            hdp_guarantee(e0, e1, seq, theorem), (k, group_of, theorem)
                    # The class path never read a preset's atoms.
                    if got is not None:
                        assert all(p._words is None for p in (p0, p1) if p._first is not None)
        assert class_tables >= 250, class_tables  # 284 of the 396 pairs take the class path
