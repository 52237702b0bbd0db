import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypodp import hypothesis_dp
from hypodp.composition import Simple
from hypodp.core import BitVector, Hypothesis, MechanismSequence
from hypodp.errors import MixedLengthError
from hypodp.hypothesis_dp import (
    _BURST,
    _SCALAR_ATOMS,
    PAIR_DTYPE,
    _fill,
    _steps,
    hdp_guarantee,
    refine_tuples,
)
from hypodp.oracle import randomized_response, verify_hdp


def bv(s):
    return BitVector.from_string(s)


def hyp(mapping):
    return Hypothesis({bv(s): w for s, w in mapping.items()})


def rows(r):
    """The table as (side-0 vector, weight, side-1 vector) strings and floats."""
    return [
        (str(BitVector(w0, r.k)), w, str(BitVector(w1, r.k)))
        for w, w0, w1 in r.pairs.tolist()
    ]


def side_masses(r, side):
    """Total weight per vector on one side (0 or 1), summed in table order."""
    masses = {}
    for w, *words in r.pairs.tolist():
        vec = BitVector(words[side], r.k)
        masses[vec] = masses.get(vec, 0.0) + w
    return masses


class TestTraces:
    def test_identical_point_masses(self):
        r = refine_tuples(hyp({"00": 1.0}), hyp({"00": 1.0}))
        assert len(r.pairs) == 1
        assert rows(r) == [("00", 1.0, "00")]

    def test_point_mass_against_two_atoms(self):
        r = refine_tuples(hyp({"00": 1.0}), hyp({"01": 0.25, "10": 0.75}))
        assert rows(r) == [
            ("00", 0.25, "01"),
            ("00", 0.75, "10"),
        ]

    def test_two_against_two(self):
        r = refine_tuples(hyp({"00": 0.5, "01": 0.5}), hyp({"10": 0.2, "11": 0.8}))
        got = [(v0, v1) for v0, _, v1 in rows(r)]
        assert got == [("00", "10"), ("00", "11"), ("01", "11")]
        weights = [w for _, w, _ in rows(r)]
        assert weights == pytest.approx([0.2, 0.3, 0.5], rel=1e-15)

    def test_mixed_length_rejected(self):
        with pytest.raises(MixedLengthError):
            refine_tuples(hyp({"00": 1.0}), hyp({"000": 1.0}))


def random_hypothesis(rng, k):
    n_support = int(rng.integers(1, min(16, 1 << k) + 1))
    words = rng.choice(1 << k, size=n_support, replace=False)
    weights = rng.dirichlet(np.ones(n_support))
    return Hypothesis({BitVector(int(w), k): float(p) for w, p in zip(words, weights)})


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 7))
        yield random_hypothesis(rng, k), random_hypothesis(rng, k)


@st.composite
def hypothesis_pairs(draw):
    """Two hypotheses on one k, with supports and weights drawn freely."""
    k = draw(st.integers(1, 6))
    sides = []
    for _ in range(2):
        words = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=12, unique=True))
        raw = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(words), max_size=len(words)))
        sides.append(Hypothesis({BitVector(w, k): r / math.fsum(raw) for w, r in zip(words, raw)}))
    return sides


@settings(max_examples=300, deadline=None)
@given(hypothesis_pairs())
def test_pair_table_columns_ascend_and_weights_are_positive(pair):
    # hypothesis_dp._Groups finds each vector's group as one run of equal
    # words, which needs both columns non-decreasing.
    pairs = refine_tuples(*pair).pairs
    for column in ("word0", "word1"):
        assert np.all(pairs[column][1:] >= pairs[column][:-1])
    assert np.all(pairs["weight"] > 0.0)


class TestProperties:
    def test_random_pair_suite(self):
        # 1000 seeded random pairs: per-vector mass conservation within
        # 1e-12, positive weights (one weight per row, so both sides of a
        # pair carry it exactly), the pair-count bound, and side-swap
        # symmetry.
        for p0, p1 in random_pairs(seed=20240817, count=1000):
            r = refine_tuples(p0, p1)
            assert r.k == p0.k
            assert np.all(r.pairs["weight"] > 0.0)
            assert len(r.pairs) <= len(p0) + len(p1) - 1
            for side, p in ((0, p0), (1, p1)):
                masses = side_masses(r, side)
                assert set(masses) == set(p.support())
                for vec, mass in masses.items():
                    assert abs(mass - dict(p.atoms)[vec]) <= 1e-12
            swapped = refine_tuples(p1, p0).pairs
            assert np.array_equal(swapped["word0"], r.pairs["word1"])
            assert np.array_equal(swapped["word1"], r.pairs["word0"])
            assert np.array_equal(swapped["weight"], r.pairs["weight"])

    def test_total_mass_per_side(self):
        for p0, p1 in random_pairs(seed=7, count=50):
            r = refine_tuples(p0, p1)
            for side in (0, 1):
                total = math.fsum(side_masses(r, side).values())
                assert abs(total - 1.0) <= 1e-9

    def test_pair_count_tight_case(self):
        # Interleaved dyadic weights force a split at every step.
        p0 = hyp({"000": 0.5, "001": 0.25, "010": 0.125, "011": 0.125})
        p1 = hyp({"100": 0.375, "101": 0.375, "110": 0.25})
        r = refine_tuples(p0, p1)
        assert len(r.pairs) <= len(p0) + len(p1) - 1


def reference_pairs(p0, p1):
    """The smallest-first walk over per-atom ``(BitVector, weight)`` objects.

    The reference the array walk must reproduce byte for byte.
    """
    atoms0, atoms1 = iter(p0.atoms), iter(p1.atoms)
    (vec0, w0), (vec1, w1) = next(atoms0), next(atoms1)
    rows = []
    try:
        while True:
            w = min(w0, w1)
            rows.append((w, vec0.word, vec1.word))
            w0 -= w
            w1 -= w
            if w0 <= 0.0:
                vec0, w0 = next(atoms0)
            if w1 <= 0.0:
                vec1, w1 = next(atoms1)
    except StopIteration:
        pass
    return np.array(rows, dtype=PAIR_DTYPE)


def list_walk_pairs(p0, p1):
    """The step-by-step walk over float lists, as ``refine_tuples`` ran it before its windows.

    Per atom it takes the same steps as ``reference_pairs``, without a
    ``BitVector`` per atom: the reference for inputs of a million atoms.
    """
    weights0, weights1 = iter(p0.weights.tolist()), iter(p1.weights.tolist())
    w0, w1 = next(weights0), next(weights1)
    weight, codes = [], bytearray()
    try:
        while True:
            if w0 < w1:
                weight.append(w0)
                codes.append(1)
                w1 -= w0
                w0 = next(weights0)
            elif w1 < w0:
                weight.append(w1)
                codes.append(2)
                w0 -= w1
                w1 = next(weights1)
            else:
                weight.append(w0)
                codes.append(3)
                w0, w1 = next(weights0), next(weights1)
    except StopIteration:
        pass
    steps = np.frombuffer(codes, dtype=np.uint8)[:-1]
    pairs = np.empty(len(weight), dtype=PAIR_DTYPE)
    pairs["weight"] = weight
    pairs["word0"] = p0.words[np.concatenate(([0], np.cumsum(steps & 1, dtype=np.intp)))]
    pairs["word1"] = p1.words[np.concatenate(([0], np.cumsum(steps >> 1, dtype=np.intp)))]
    return pairs


def best_time(fn, *args, repeat=3):
    """The fastest of ``repeat`` calls, in seconds."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def mixture(rng, k, weights):
    """Atoms with these weights, in this order, on distinct random words."""
    words = np.sort(rng.choice(1 << k, size=len(weights), replace=False))
    return Hypothesis([(BitVector(int(w), k), float(p)) for w, p in zip(words, weights)])


def presets(k):
    return (Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.point_mass(BitVector.ones(k)),
            Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k))


def ulp_twins(weights):
    """The weights one ulp apart, up and down in turn."""
    twins = np.nextafter(weights, 1.0)
    twins[1::2] = np.nextafter(weights[1::2], 0.0)
    return twins


class TestArrayWalk:
    def assert_matches_reference(self, p0, p1):
        for a, b in ((p0, p1), (p1, p0)):
            assert refine_tuples(a, b).pairs.tobytes() == reference_pairs(a, b).tobytes()

    @staticmethod
    def turns(monkeypatch, p0, p1):
        """The walk's turns in order: "window", or a run of steps as its count.

        Checks the table against ``list_walk_pairs`` first.
        """
        events = []  # each steps call's count, and None for each fill

        def logged_steps(list0, list1, i0, i1, x, count, weight, codes):
            events.append(count)
            return _steps(list0, list1, i0, i1, x, count, weight, codes)

        def logged_fill(*args):
            events.append(None)
            return _fill(*args)

        monkeypatch.setattr(hypothesis_dp, "_steps", logged_steps)
        monkeypatch.setattr(hypothesis_dp, "_fill", logged_fill)
        assert refine_tuples(p0, p1).pairs.tobytes() == list_walk_pairs(p0, p1).tobytes()
        # A fill right after a steps call holds their pieces; any other, a window's.
        return [e if e is not None else "window" for before, e in zip([None, *events], events)
                if e is not None or before is None]

    def test_walks_around_the_scalar_bound(self, monkeypatch):
        # _SCALAR_ATOMS atoms in all step to the end; one more takes a window,
        # which here runs to the walk's end.
        rng = np.random.default_rng(2801)
        half = _SCALAR_ATOMS // 2
        for n1, turns in ((half, [_SCALAR_ATOMS]), (half + 1, ["window"])):
            p0 = mixture(rng, 12, rng.dirichlet(np.ones(half)))
            p1 = mixture(rng, 12, rng.dirichlet(np.ones(n1)))
            for a, b in ((p0, p1), (p1, p0)):
                assert self.turns(monkeypatch, a, b) == turns

    def test_few_atoms_left_after_a_wrong_prediction(self, monkeypatch):
        # Ulp-apart twins: the first window is predicted wrong within its
        # first atoms, and the burst of steps leaves at most _SCALAR_ATOMS
        # atoms, so the walk steps on to its end rather than take a window.
        rng = np.random.default_rng(2810)
        weights = rng.dirichlet(np.ones(300))
        p0, p1 = mixture(rng, 12, weights), mixture(rng, 12, ulp_twins(weights))
        for a, b in ((p0, p1), (p1, p0)):
            assert self.turns(monkeypatch, a, b) == ["window", 2 * _BURST, _SCALAR_ATOMS]

    def test_few_atoms_left_at_a_window_end(self, monkeypatch):
        # 50 twins, then 400 atoms of independent weights a side: a burst
        # steps past the twins, the burst-sized window after it runs to its
        # end, and the at most _SCALAR_ATOMS atoms left are stepped.
        rng = np.random.default_rng(2813)
        twins = rng.dirichlet(np.ones(50)) * 0.1
        p0 = mixture(rng, 12, np.concatenate((twins, rng.dirichlet(np.ones(400)) * 0.9)))
        p1 = mixture(rng, 12, np.concatenate((ulp_twins(twins), rng.dirichlet(np.ones(400)) * 0.9)))
        for a, b in ((p0, p1), (p1, p0)):
            assert self.turns(monkeypatch, a, b) == ["window", 2 * _BURST, "window", _SCALAR_ATOMS]

    def test_seeded_mixtures(self):
        for p0, p1 in random_pairs(seed=99, count=300):
            self.assert_matches_reference(p0, p1)
        # A 1e-10 residual stays a piece.
        self.assert_matches_reference(hyp({"0": 0.5, "1": 0.5}),
                                      hyp({"0": 0.5 + 1e-10, "1": 0.5 - 1e-10}))
        # Two point masses: one piece.
        self.assert_matches_reference(hyp({"101": 1.0}), hyp({"010": 1.0}))
        assert len(refine_tuples(hyp({"101": 1.0}), hyp({"010": 1.0})).pairs) == 1
        # Equal front weights on every piece: both sides advance each time.
        equal = hyp({"00": 0.25, "01": 0.25, "10": 0.5}), hyp({"01": 0.25, "10": 0.25, "11": 0.5})
        self.assert_matches_reference(*equal)
        assert len(refine_tuples(*equal).pairs) == 3
        # Side 0 runs out while side 1 still holds a whole atom.
        short = hyp({"00": 0.5, "01": 0.5}), hyp({"00": 0.5, "01": 0.5, "11": 5e-10})
        self.assert_matches_reference(*short)
        assert rows(refine_tuples(*short)) == [("00", 0.5, "00"), ("01", 0.5, "01")]
        rng = np.random.default_rng(1018)
        for k, n0, n1 in ((10, 200, 700), (14, 3000, 1000), (16, 5000, 5000)):
            sides = []
            for n in (n0, n1):
                words = rng.choice(1 << k, size=n, replace=False)
                weights = rng.dirichlet(np.ones(n))
                sides.append(Hypothesis([(BitVector(int(w), k), float(p))
                                         for w, p in zip(words, weights)]))
            self.assert_matches_reference(*sides)

    def test_point_mass_against_seeded_mixtures(self):
        rng = np.random.default_rng(1019)
        for _ in range(200):
            k = int(rng.integers(1, 11))
            point = Hypothesis.point_mass(BitVector(int(rng.integers(1 << k)), k))
            self.assert_matches_reference(point, random_hypothesis(rng, k))
        for k, n in ((12, 4000), (16, 20000)):
            words = rng.choice(1 << k, size=n, replace=False)
            mixture = Hypothesis([(BitVector(int(w), k), float(p))
                                  for w, p in zip(words, rng.dirichlet(np.ones(n)))])
            for word in (0, int(words[n // 2]), (1 << k) - 1):
                self.assert_matches_reference(Hypothesis.point_mass(BitVector(word, k)), mixture)

    def test_every_tiny_residual_is_one_piece(self):
        for r in (2.0**-54, 1e-300, 5e-324):
            # Subtracted from 1.0 in order, the chain's weights leave exactly
            # these residuals: powers of two 52 binades apart, the power of
            # two just above r, then r. The last atom weighs r.
            residuals = [1.0]
            top = math.ldexp(1.0, math.frexp(r)[1])
            while residuals[-1] * 2.0**-52 > top:
                residuals.append(residuals[-1] * 2.0**-52)
            residuals += [x for x in (top, r) if x < residuals[-1]]
            weights = [a - b for a, b in zip(residuals, residuals[1:])] + [r]
            assert residuals[-1] == r
            assert all(a - w == b for a, w, b in zip(residuals, weights, residuals[1:]))
            chain = Hypothesis([(BitVector(i, 5), w) for i, w in enumerate(weights)])
            point, halves = hyp({"11111": 1.0}), hyp({"11110": 0.5, "11111": 0.5})
            for other, pieces in ((point, len(weights)), (halves, len(weights) + 1)):
                self.assert_matches_reference(other, chain)
                for pairs in (refine_tuples(other, chain).pairs, refine_tuples(chain, other).pairs):
                    assert len(pairs) == pieces
                    assert pairs["weight"][-1] == r

    def test_fresh_weight_equal_to_the_residual(self):
        point = hyp({"01": 1.0})
        for mixture in (hyp({"00": 0.25, "10": 0.75}), hyp({"00": 0.5, "01": 0.25, "11": 0.25})):
            self.assert_matches_reference(point, mixture)
            assert len(refine_tuples(point, mixture).pairs) == len(mixture)

    def test_presets(self):
        for k in range(1, 13):
            for p0 in presets(k):
                for p1 in presets(k):
                    self.assert_matches_reference(p0, p1)
        # Each pair of distinct presets once; the helper checks both orders.
        for p0, p1 in itertools.combinations(presets(16), 2):
            self.assert_matches_reference(p0, p1)

    def test_uniform_all_against_uniform_nonzero_keeps_every_residual(self):
        # 2^(k+1) - 2 pieces at every k; from k = 20 on the residuals fall
        # below 1e-12, and a walk that pruned them kept 2^k - 1.
        k = 20
        pairs = refine_tuples(Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k)).pairs
        assert len(pairs) == 2 ** (k + 1) - 2
        assert np.all(pairs["weight"] > 0.0)

    def test_ulp_apart_atoms(self):
        # Each side-1 atom weighs one ulp more than its side-0 twin, so the
        # residual changes side at every piece and the two sides' cumulative
        # sums, rounded far above an ulp of a weight, cannot order the entries:
        # the walk steps nearly every piece one at a time.
        rng = np.random.default_rng(1021)
        weights = rng.dirichlet(np.ones(20000))
        sides = [mixture(rng, 18, ws) for ws in (weights, np.nextafter(weights, 1.0))]
        for a, b in (sides, sides[::-1]):
            assert refine_tuples(a, b).pairs.tobytes() == list_walk_pairs(a, b).tobytes()
        assert len(refine_tuples(*sides).pairs) > 39000
        assert best_time(refine_tuples, *sides) < 0.02

    def test_adjacent_atoms_swapped(self):
        # Side 1 holds side 0's weights with each adjacent pair swapped, so x
        # returns to rounding noise around 0 every two atoms and its sign often
        # differs from the cumulative sums' prediction: the walk steps most of
        # it one piece at a time, and windows that fail cost no more than those
        # steps. This draw is predicted wrong about 600 times in each order
        # and refines in 6-9 ms; a window per wrong prediction takes about
        # 0.09 s.
        rng = np.random.default_rng(1021)
        weights = rng.dirichlet(np.ones(20000))
        p0 = mixture(rng, 18, weights)
        p1 = mixture(rng, 18, weights.reshape(-1, 2)[:, ::-1].ravel())
        for a, b in ((p0, p1), (p1, p0)):
            assert refine_tuples(a, b).pairs.tobytes() == list_walk_pairs(a, b).tobytes()
            assert best_time(refine_tuples, a, b) < 0.06

    def test_equal_weight_ties(self):
        rng = np.random.default_rng(1022)
        uniform = [np.full(n, 1.0 / n) for n in (6000, 4000, 3000)]
        dyadic = rng.integers(1, 5, 5000).astype(float)
        shared = rng.dirichlet(np.ones(3000))
        for w0, w1 in ((uniform[0], uniform[1]), (uniform[1], uniform[2]), (uniform[0], uniform[0]),
                       (dyadic / dyadic.sum(), rng.permutation(dyadic) / dyadic.sum()),
                       (shared, shared), (shared, np.concatenate((shared[1500:], shared[:1500])))):
            p0, p1 = mixture(rng, 16, w0), mixture(rng, 16, w1)
            for a, b in ((p0, p1), (p1, p0)):
                assert refine_tuples(a, b).pairs.tobytes() == list_walk_pairs(a, b).tobytes()
        same = mixture(rng, 14, shared)
        self.assert_matches_reference(same, same)
        assert len(refine_tuples(same, same).pairs) == len(same)

    def test_point_mass_against_uniform_nonzero(self):
        # 2^20 - 1 pieces in both orders, entered by windows of the signed sum.
        k = 20
        point, nonzero = Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k)
        for a, b in ((point, nonzero), (nonzero, point)):
            pairs = refine_tuples(a, b).pairs
            assert pairs.tobytes() == list_walk_pairs(a, b).tobytes()
            assert len(pairs) == (1 << k) - 1
            assert best_time(refine_tuples, a, b) < 0.08

    def test_no_per_atom_view_is_built(self, monkeypatch):
        k = 8
        p0, p1 = Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k)

        def refuse(*_args):
            raise AssertionError("a per-atom view was built")

        monkeypatch.setattr(Hypothesis, "atoms", property(refuse))
        monkeypatch.setattr(Hypothesis, "support", refuse)
        refine_tuples(p0, p1)
        claimed = hdp_guarantee(p0, p1, MechanismSequence.homogeneous(math.log(3.0), 0.0, k),
                                Simple())
        assert verify_hdp([randomized_response(0.25)] * k, p0, p1, claimed).sound
