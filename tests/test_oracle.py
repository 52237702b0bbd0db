import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypodp import oracle
from hypodp.composition import Simple, simple_compose
from hypodp.core import BitVector, Hypothesis, MechanismSequence, PrivacyParams
from hypodp.errors import (
    InvalidRateError,
    MismatchedSupportError,
    MixedLengthError,
    ViewSpaceTooLargeError,
)
from hypodp.hypothesis_dp import hdp_guarantee, uniform_nonzero_closed_form
from hypodp.oracle import (
    DiscreteMechanism,
    ViewDistribution,
    leaky_rr,
    mixture_view_distribution,
    randomized_response,
    randomized_response_guarantee,
    required_delta,
    simulate_experiment,
    verify_hdp,
    view_distribution,
)


def bv(s):
    return BitVector.from_string(s)


def reference_mixture(mechs, h):
    """Per-view reference for mixture_view_distribution, in view order.

    Enumerates views with itertools.product, multiplies each view's
    probabilities left to right and accumulates over atoms in atom order.
    Each step is one elementwise numpy operation across all views, the
    same rounding as the scalar loop, from a fresh product per atom.
    """
    views = list(itertools.product(*(m.alphabet for m in mechs)))
    columns = list(zip(*views))  # column i: mechanism i's symbol in each view
    factors = [[np.array([dist[y] for y in column]) for dist in (mech.absent, mech.present)]
               for mech, column in zip(mechs, columns)]
    acc = np.zeros(len(views))
    for vec, w in h.atoms:
        p = np.ones(len(views))
        for factor, bit in zip(factors, map(int, str(vec))):
            p = p * factor[bit]
        acc += w * p
    return acc.tolist()


def contraction_reference(mechs, h):
    """Scalar reference for mixture_view_distribution in its contraction order.

    One list of view-prefix probabilities per distinct remaining suffix of
    the atoms' words, starting from the weights. Mechanism i turns rows 0s
    and 1s into row s: each prefix value x becomes x * t(y) for every symbol
    y in turn, and the two rows' values are added elementwise.
    """
    rows = dict(zip(h.words.tolist(), ([w] for w in h.weights.tolist())))
    for i, mech in enumerate(mechs):
        half = 1 << (h.k - 1 - i)
        merged = {}
        for suffix, row in sorted(rows.items()):
            dist = mech.present if suffix >= half else mech.absent
            widened = [x * dist[y] for x in row for y in mech.alphabet]
            rest = suffix % half
            merged[rest] = [a + b for a, b in zip(merged[rest], widened)] \
                if rest in merged else widened
        rows = merged
    return rows[0]


def exact_mixture(mechs, h):
    """Each view's probability as an exact Fraction, in view order."""
    rows = [[Fraction(w)] for w in h.weights.tolist()]
    for i, mech in enumerate(mechs):
        for row, word in zip(rows, h.words.tolist()):
            dist = mech.present if word >> (h.k - 1 - i) & 1 else mech.absent
            row[:] = [x * Fraction(dist[y]) for x in row for y in mech.alphabet]
    return [sum(view) for view in zip(*rows)]


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u = 2^-53: the relative error of n roundings."""
    return Fraction(n, 2**53 - n)


def reference_required_delta(q0s, q1s, eps):
    """Per-view reference for required_delta on two probability lists."""
    def gap(q0, q1):
        if q1 == 0.0:
            return q0
        if eps < 700.0:
            return q0 - math.exp(eps) * q1
        # e^eps alone would overflow; e^eps q1 exceeds 1 >= q0 once its log is positive.
        log_scaled = eps + math.log(q1)
        return q0 - math.exp(log_scaled) if log_scaled < 0.0 else -1.0

    return math.fsum(g for g in map(gap, q0s, q1s) if g > 0.0)


class TestRandomizedResponse:
    def test_quarter(self):
        m = randomized_response(0.25)
        assert m.absent == {1: 0.25, 0: 0.75}
        assert m.present == {1: 0.75, 0: 0.25}
        g = randomized_response_guarantee(0.25)
        assert g.epsilon == pytest.approx(math.log(3.0), rel=1e-15)
        assert g.delta == 0.0

    def test_epsilon_vanishes_near_half(self):
        assert randomized_response_guarantee(0.4999999).epsilon == pytest.approx(0.0, abs=1e-5)

    def test_q_tenth(self):
        assert randomized_response_guarantee(0.1).epsilon == pytest.approx(
            2.1972245773362196, abs=1e-15  # ln 9
        )

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.7, -0.1])
    def test_invalid_rate(self, q):
        with pytest.raises(InvalidRateError):
            randomized_response(q)

    def test_q_half_has_no_guarantee(self):
        with pytest.raises(InvalidRateError, match="q must be in"):
            randomized_response_guarantee(0.5)

    def test_mismatched_alphabets_rejected(self):
        with pytest.raises(MismatchedSupportError, match="share one alphabet"):
            DiscreteMechanism(absent={0: 0.5, 1: 0.5}, present={0: 0.5, 2: 0.5})

    def test_tables_built_once_and_read_only(self):
        m = leaky_rr(0.7, 0.05)
        assert m.alphabet is m.alphabet == ("a", "b", "r0", "r1")
        for bit, dist in enumerate((m.absent, m.present)):
            assert m._tables[bit] is m._tables[bit]
            assert m._tables[bit].tolist() == [dist[y] for y in m.alphabet]
            with pytest.raises(ValueError, match="read-only"):
                m._tables[bit][0] = 0.5

    def test_unnormalized_distribution_rejected(self):
        with pytest.raises(ValueError, match="present distribution sums to 0.9"):
            DiscreteMechanism(absent={0: 0.5, 1: 0.5}, present={0: 0.5, 1: 0.4})

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMechanism(absent={0: math.nan, 1: 1.0}, present={0: math.nan, 1: 1.0})


class TestLeakyRR:
    POINTS = (Hypothesis.point_mass(bv("0")), Hypothesis.point_mass(bv("1")))

    @pytest.mark.parametrize("delta", [0.0, 0.01])
    @pytest.mark.parametrize("eps", [0.0, 1.0, 50.0, 700.0, 708.0, 708.38])
    def test_tight_claim_verifies(self, eps, delta):
        mech = leaky_rr(eps, delta)
        assert verify_hdp([mech], *self.POINTS, PrivacyParams(eps, delta)).sound

    @pytest.mark.parametrize("delta", [0.0, 0.01, 0.5])
    def test_refused_once_lo_is_subnormal(self, delta):
        # lo = (1 - delta) e^-eps is the smallest normal double near 708.4 nats.
        edge = -math.log(np.finfo(float).tiny / (1.0 - delta))
        leaky_rr(edge - 1e-9, delta)
        for eps in (edge + 1e-9, 709.0, 710.0, 746.0, 1e308):
            with pytest.raises(ValueError, match="subnormal"):
                leaky_rr(eps, delta)

    def test_delta_one_at_any_epsilon(self):
        # a and b have probability 0 under both databases, so they are left out.
        mech = leaky_rr(1000.0, 1.0)
        assert mech.absent == {"r0": 1.0, "r1": 0.0}
        assert mech.present == {"r0": 0.0, "r1": 1.0}

    @pytest.mark.parametrize("eps", [0.0, 0.7, math.log(3.0), 50.0])
    def test_delta_zero_is_randomized_response(self, eps):
        mech, q = leaky_rr(eps, 0.0), math.exp(-eps) / (1.0 + math.exp(-eps))
        assert mech.alphabet == ("a", "b")
        assert mech.absent == pytest.approx({"a": 1.0 - q, "b": q}, rel=1e-15)
        assert mech.present == pytest.approx({"a": q, "b": 1.0 - q}, rel=1e-15)

    def test_subnormal_lo_is_not_eps_dp(self):
        # Why the refusal: at 718 nats the nearest-rounded subnormal lo
        # leaves hi > e^eps lo, so the claim (718, 0) needs more delta.
        r = math.exp(-718.0)
        hi, lo = 1.0 / (1.0 + r), r / (1.0 + r)
        mech = DiscreteMechanism(absent={"a": hi, "b": lo}, present={"a": lo, "b": hi})
        assert not verify_hdp([mech], *self.POINTS, PrivacyParams(718.0, 0.0)).sound


class TestViewDistribution:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="one probability per view"):
            ViewDistribution(np.array([0.5, 0.5]), ((0, 1), (0, 1)))

    def test_single_factor(self):
        d = view_distribution([randomized_response(0.25)], bv("0"))
        assert d.alphabets == ((0, 1),)
        assert d.probs.tolist() == [0.75, 0.25]

    def test_product_measure(self):
        mechs = [randomized_response(0.25)] * 2
        d = view_distribution(mechs, bv("01"))
        # Index order is itertools.product order: (0,0), (0,1), (1,0), (1,1).
        assert d.probs.tolist() == [
            0.75 * 0.25,
            0.75 * 0.75,
            0.25 * 0.25,
            0.25 * 0.75,
        ]

    def test_normalized_for_every_vector(self):
        mechs = [randomized_response(0.3)] * 3
        for word in range(8):
            d = view_distribution(mechs, BitVector(word, 3))
            assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)

    def test_nan_sum_rejected(self):
        with pytest.raises(ValueError):
            ViewDistribution(np.array([math.nan, 1.0]), ((0, 1),))

    def test_negative_probability_rejected(self):
        # The total is 1, but a hockey-stick sum over a signed measure means nothing.
        with pytest.raises(ValueError, match="non-negative"):
            ViewDistribution(np.array([1.5, -0.5]), ((0, 1),))

    def test_overflowing_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to inf, not 1"):
            ViewDistribution(np.array([1e308, 1e308]), ((0, 1),))

    def test_length_mismatch(self):
        with pytest.raises(MixedLengthError):
            view_distribution([randomized_response(0.25)] * 2, bv("0"))

    def test_view_space_guard(self):
        big = DiscreteMechanism(
            absent={i: 1.0 / 200 for i in range(200)},
            present={i: 1.0 / 200 for i in range(200)},
        )
        with pytest.raises(ViewSpaceTooLargeError):
            view_distribution([big] * 4, bv("0000"))


class TestMixture:
    def test_point_mass_degenerates(self):
        mechs = [randomized_response(0.25)] * 2
        h = Hypothesis.point_mass(bv("01"))
        mixed = mixture_view_distribution(mechs, h).probs
        assert np.array_equal(mixed, view_distribution(mechs, bv("01")).probs)

    def test_uniform_two_atoms(self):
        mechs = [randomized_response(0.25)]
        h = Hypothesis.uniform([bv("0"), bv("1")])
        d = mixture_view_distribution(mechs, h)
        assert d.probs[0] == pytest.approx(0.5, abs=1e-15)
        assert d.probs[1] == pytest.approx(0.5, abs=1e-15)

    def test_mixture_normalized(self):
        mechs = [randomized_response(0.2)] * 3
        h = Hypothesis.uniform_nonzero(3)
        d = mixture_view_distribution(mechs, h)
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-12)


class TestContractionSplit:
    """One-symbol mechanisms: the only plans whose steps can outgrow the view space."""

    ONE = DiscreteMechanism(absent={"y": 1.0}, present={"y": 1.0})
    EIGHT = DiscreteMechanism(absent={y: 0.125 for y in range(8)},
                              present={y: (y + 1) / 36 for y in range(8)})

    PLANS = [
        # The first step holds 32 suffixes x 8 symbols, against 16 views ...
        [EIGHT, ONE, ONE, ONE, randomized_response(0.3), ONE],
        # ... and the third 8 suffixes x 32 prefixes, against 32 views.
        [randomized_response(0.3), randomized_response(0.2), EIGHT, ONE, ONE, ONE],
    ]

    @pytest.mark.parametrize("mechs", PLANS)
    def test_one_symbol_plans_past_the_limit_are_refused(self, monkeypatch, mechs):
        h = Hypothesis.uniform_all(6)
        monkeypatch.setattr(oracle, "MAX_VIEW_SPACE", 256)
        assert mixture_view_distribution(mechs, h).probs.tolist() == \
            contraction_reference(mechs, h)

        def no_product(*args):
            raise AssertionError("a product before the refusal")

        monkeypatch.setattr(oracle, "MAX_VIEW_SPACE", 255)
        monkeypatch.setattr(oracle, "_contract", no_product)  # every view is a contraction
        with pytest.raises(ViewSpaceTooLargeError, match="step of 256 entries exceeds 255"):
            mixture_view_distribution(mechs, h)
        # The other side's plan fits: two atoms that differ only in bit 0.
        fits = Hypothesis.uniform([bv("000000"), bv("100000")])
        for p0, p1 in ((h, fits), (fits, h)):
            with pytest.raises(ViewSpaceTooLargeError, match="step of 256 entries"):
                verify_hdp(mechs, p0, p1, PrivacyParams(1.0, 0.0))

    def test_no_refusal_while_every_mechanism_has_two_symbols(self, monkeypatch):
        mechs = [leaky_rr(0.5, 0.01), randomized_response(0.3), leaky_rr(1.0, 0.0),
                 randomized_response(0.1), randomized_response(0.4)]
        monkeypatch.setattr(oracle, "MAX_VIEW_SPACE", 4 * 2 * 4 * 2 * 2)
        rng = np.random.default_rng(34)
        scattered = [Hypothesis([(BitVector(int(w), 5), 1.0 / n)
                                 for w in rng.choice(32, size=n, replace=False)])
                     for n in (2, 3, 7, 16, 31)]
        for h in [Hypothesis.uniform_all(5), Hypothesis.uniform_nonzero(5)] + scattered:
            assert mixture_view_distribution(mechs, h).probs.tolist() == \
                contraction_reference(mechs, h)


class TestWorkBudget:
    """One budget, ``MAX_VIEW_SPACE``, for the views and for every contraction step."""

    def test_boundary(self, monkeypatch):
        # uniform_all(3) under RR: 8 views, and each step 8 entries.
        rr = [randomized_response(0.25)] * 3
        # Eight symbols before two one-symbol mechanisms: the first step holds 4 x 8.
        one_symbol = [TestContractionSplit.EIGHT, TestContractionSplit.ONE, TestContractionSplit.ONE]
        for mechs, largest, message in ((rr, 8, "8 views exceeds 7"),
                                        (one_symbol, 32, "step of 32 entries exceeds 31")):
            monkeypatch.setattr(oracle, "MAX_VIEW_SPACE", largest)
            mixture_view_distribution(mechs, Hypothesis.uniform_all(3))
            monkeypatch.setattr(oracle, "MAX_VIEW_SPACE", largest - 1)
            with pytest.raises(ViewSpaceTooLargeError, match=message):
                mixture_view_distribution(mechs, Hypothesis.uniform_all(3))

    def test_over_the_view_space_refused_at_once(self):
        # 2^24 views under RR, and 8^7 views whose step 6 holds 8 suffixes x 8^7 prefixes.
        k = 24
        two = Hypothesis.uniform([BitVector.zeros(k), BitVector.ones(k)])
        one_symbol = [TestContractionSplit.EIGHT] * 7 + [TestContractionSplit.ONE] * 3
        cases = [([randomized_response(0.25)] * k, two, "16777216 views exceeds 10000000"),
                 (one_symbol, Hypothesis.uniform_all(10),
                  "step of 16777216 entries exceeds 10000000")]
        start = time.perf_counter()
        for mechs, h, message in cases:
            zero = Hypothesis.point_mass(BitVector.zeros(h.k))
            with pytest.raises(ViewSpaceTooLargeError, match=message):
                mixture_view_distribution(mechs, h)
            with pytest.raises(ViewSpaceTooLargeError, match=message):
                verify_hdp(mechs, zero, h, PrivacyParams(1.0, 0.0))
        assert time.perf_counter() - start < 1.0

    def test_k16_presets_within_two_seconds(self):
        # 2^16 - 1 atoms x 2^16 views: the k = 16 presets.
        k = 16
        mechs = [randomized_response(0.25)] * k
        claimed = uniform_nonzero_closed_form(math.log(3.0), 0.0, k)
        start = time.perf_counter()
        report = verify_hdp(mechs, Hypothesis.point_mass(BitVector.zeros(k)),
                            Hypothesis.uniform_nonzero(k), claimed)
        assert time.perf_counter() - start < 2.0
        assert report.sound and report.delta_needed <= 1e-12

    @pytest.mark.parametrize("k", [17, 20])
    def test_rr_presets_past_k16_within_two_seconds(self, k):
        # About 0.01 s at k = 17 and 0.11 s at k = 20 (2-core Xeon).
        mechs = [randomized_response(0.25)] * k
        claimed = uniform_nonzero_closed_form(math.log(3.0), 0.0, k)
        start = time.perf_counter()
        report = verify_hdp(mechs, Hypothesis.point_mass(BitVector.zeros(k)),
                            Hypothesis.uniform_nonzero(k), claimed)
        assert time.perf_counter() - start < 2.0
        assert report.sound and report.delta_needed <= 1e-12

    def test_leaky_presets_at_k11_within_two_seconds(self):
        # 4^11 views, the most under MAX_VIEW_SPACE; about 0.15 s (2-core Xeon).
        k = 11
        mechs = [leaky_rr(0.5, 1e-3)] * k
        p0, p1 = Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k)
        claimed = hdp_guarantee(p0, p1, MechanismSequence.homogeneous(0.5, 1e-3, k), Simple())
        start = time.perf_counter()
        report = verify_hdp(mechs, p0, p1, claimed)
        assert time.perf_counter() - start < 2.0
        assert report.sound and report.delta_needed > 0.0


class TestReference:
    """The array oracle equals a per-view reference bit for bit.

    A point mass multiplies each view left to right as ``reference_mixture``
    does. A mixture sums by suffix, as ``contraction_reference`` does; each
    view is a sum of non-negative terms of one weight and k factors, and each
    term meets at most k products and k sums, so it is within gamma(2k) of
    the exact value, relatively.
    """

    EPSILONS = (0.0, 0.1, 0.5, math.log(3.0), 2.0, 800.0)

    def cases(self):
        rng = np.random.default_rng(20240607)
        for _ in range(40):
            k = int(rng.integers(1, 7))
            if rng.integers(2):
                mechs = [randomized_response(float(rng.uniform(0.05, 0.45))) for _ in range(k)]
            else:
                mechs = [
                    leaky_rr(float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 0.1)))
                    for _ in range(k)
                ]
            hyps = []
            for _ in range(2):
                n = int(rng.integers(1, min(6, 1 << k) + 1))
                words = rng.choice(1 << k, size=n, replace=False)
                if n == 1:
                    hyps.append(Hypothesis.point_mass(BitVector(int(words[0]), k)))
                    continue
                weights = rng.dirichlet(np.ones(n))
                hyps.append(Hypothesis({
                    BitVector(int(w), k): float(p) for w, p in zip(words, weights)
                }))
            yield mechs, hyps[0], hyps[1]

    @staticmethod
    def reference(mechs, h):
        return (reference_mixture if len(h) == 1 else contraction_reference)(mechs, h)

    def test_views_and_required_delta_equal_reference(self):
        for mechs, h0, h1 in self.cases():
            d0 = mixture_view_distribution(mechs, h0)
            d1 = mixture_view_distribution(mechs, h1)
            for d, h in ((d0, h0), (d1, h1)):
                assert d.probs.tolist() == self.reference(mechs, h)
                bound = gamma(2 * h.k)
                for got, exact in zip(d.probs.tolist(), exact_mixture(mechs, h)):
                    assert abs(Fraction(got) - exact) <= bound * exact
            r0, r1 = d0.probs.tolist(), d1.probs.tolist()
            for eps in self.EPSILONS:
                assert required_delta(d0, d1, eps) == reference_required_delta(r0, r1, eps)
                assert required_delta(d1, d0, eps) == reference_required_delta(r1, r0, eps)

    def test_shared_prefixes_equal_reference(self):
        # Presets share all but their trailing bits; random mixtures share
        # prefixes and suffixes of every length.
        rng = np.random.default_rng(20261018)

        def families(k):
            """Heterogeneous RR and heterogeneous leaky RR, k mechanisms each."""
            return (
                [randomized_response(float(q)) for q in rng.uniform(0.05, 0.45, k)],
                [leaky_rr(float(e), float(d))
                 for e, d in zip(rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 0.1, k))],
            )

        for k in range(1, 9):
            for mechs in families(k):
                for h in (Hypothesis.point_mass(BitVector.ones(k)),
                          Hypothesis.uniform_all(k), Hypothesis.uniform_nonzero(k)):
                    got = mixture_view_distribution(mechs, h).probs.tolist()
                    assert got == self.reference(mechs, h)
        for mechs in families(8):
            # From 2 atoms to 200, each merge step runs through one stable _distinct.
            for n in (2, 3, 5, 20, 37, 60, 64, 65, 100, 200):
                words = rng.choice(256, size=n, replace=False)
                h = Hypothesis([(BitVector(int(w), 8), float(p))
                                for w, p in zip(words, rng.dirichlet(np.ones(n)))])
                assert mixture_view_distribution(mechs, h).probs.tolist() == \
                    contraction_reference(mechs, h)

    def test_point_masses_equal_reference(self):
        mechs = [leaky_rr(0.7, 0.05), randomized_response(0.2), leaky_rr(1.3, 0.0)]
        for word in range(8):
            b = BitVector(word, 3)
            got = view_distribution(mechs, b).probs.tolist()
            assert got == reference_mixture(mechs, Hypothesis.point_mass(b))


@st.composite
def one_atom_cases(draw):
    """k = 1-10 positions of RR, leaky RR at delta 0 or one symbol, at most 4096 views;
    one word, and one weight of 1 or 1 +- 5e-10 (within NORMALIZATION_TOLERANCE)."""
    k = draw(st.integers(1, 10))
    mechs, views = [], 1
    for _ in range(k):
        kind = draw(st.sampled_from(["rr", "leaky", "one"]))
        mech = (randomized_response(draw(st.floats(0.01, 0.49))) if kind == "rr"
                else leaky_rr(draw(st.floats(0.0, 3.0)), 0.0) if kind == "leaky"
                else TestContractionSplit.ONE)
        if views * len(mech.alphabet) > 4096:
            mech = TestContractionSplit.ONE
        mechs.append(mech)
        views *= len(mech.alphabet)
    b = BitVector(draw(st.integers(0, (1 << k) - 1)), k)
    return mechs, b, draw(st.sampled_from([1.0, 1.0 + 5e-10, 1.0 - 5e-10]))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(one_atom_cases())
def test_one_atom_views_equal_the_scalar_reference(case):
    # One atom multiplies its weight by each position's factor, left to right, as
    # the contraction does; a point mass's first product, 1 t_0, is exact.
    mechs, b, weight = case
    h = Hypothesis({b: weight})
    want = contraction_reference(mechs, h)
    assert mixture_view_distribution(mechs, h).probs.tolist() == want
    point = Hypothesis.point_mass(b)
    got = view_distribution(mechs, b).probs.tolist()
    assert got == mixture_view_distribution(mechs, point).probs.tolist()
    assert got == contraction_reference(mechs, point) == reference_mixture(mechs, point)


class TestDeclaredPresets:
    """A preset's closed-form plan is the merge of its atoms', so its views are too."""

    @pytest.mark.parametrize("make", [Hypothesis.uniform_all, Hypothesis.uniform_nonzero])
    def test_steps_and_views_equal_the_atoms(self, make):
        rng = np.random.default_rng(2602)
        for k in range(1, 13):
            group_of = rng.integers(0, int(rng.integers(1, 4)), size=k).tolist()
            rr = [randomized_response(q) for q in rng.uniform(0.05, 0.45, 3)]
            leaky = [leaky_rr(float(e), float(d))
                     for e, d in zip(rng.uniform(0.0, 2.0, 3), rng.uniform(0.0, 0.1, 3))]
            h = make(k)
            steps = oracle._steps(h)
            assert h._words is None
            atoms = Hypothesis(list(zip(h.support(), h.weights.tolist())))
            if len(h) > 1:  # one atom takes the one-row plan, held to the merge by TestOneRowPlan
                assert steps == oracle._steps(atoms), k
            zero = Hypothesis.point_mass(BitVector.zeros(k))
            # From k = 12, leaky RR's 4^k views exceed MAX_VIEW_SPACE.
            for family in [rr] + ([leaky] if k <= 11 else []):
                mechs = [family[g] for g in group_of]
                assert np.array_equal(mixture_view_distribution(mechs, make(k)).probs,
                                      mixture_view_distribution(mechs, atoms).probs), k
                claim = PrivacyParams(0.5, 0.0)
                assert verify_hdp(mechs, zero, make(k), claim) == \
                    verify_hdp(mechs, zero, atoms, claim), k


class TestOneRowPlan:
    """A point mass's closed-form plan is the merge of its one word, and its views are
    an independent outer-product chain's, bit for bit, past the sizes the
    ``hypothesis`` gate draws (at most 4,096 views)."""

    @staticmethod
    def outer_product_reference(mechs, b):
        """The flat views of b: one ``np.multiply.outer`` per position, from 1."""
        views = np.array([1.0])
        for i, mech in enumerate(mechs):
            views = np.multiply.outer(views, mech._tables[b.word >> (b.k - 1 - i) & 1]).ravel()
        return views

    def test_every_word_to_k8_plans_as_the_merge(self):
        for k in range(1, 9):
            for word in range(1 << k):
                one = oracle._one_row(word, k)
                assert oracle._steps(Hypothesis.point_mass(BitVector(word, k))) == one
                merged = oracle._merge(np.array([word], dtype=np.int64), k)
                assert len(merged) == len(one) == k
                # The merge leaves the other side an empty array; the contraction never reads it.
                for i, ((split, rows, low, high), (s, r, lo, hi)) in enumerate(zip(one, merged)):
                    assert (split, rows) == (s, r) == (1 - (word >> (k - 1 - i) & 1), 1), (k, word)
                    assert (low if split else high) == (lo if s else hi) == slice(0, 1)
                    assert len(hi if s else lo) == 0

    @pytest.mark.parametrize("family, k", [("rr", 14), ("leaky", 8), ("leaky", 10)])
    def test_views_equal_the_outer_products_past_the_hypothesis_gate(self, family, k):
        rng = np.random.default_rng(1400 + k)
        mechs = ([randomized_response(float(q)) for q in rng.uniform(0.05, 0.45, k)]
                 if family == "rr" else
                 [leaky_rr(float(e), float(d))
                  for e, d in zip(rng.uniform(0.0, 2.0, k), rng.uniform(0.0, 0.1, k))])
        for word in (0, (1 << k) - 1, int(rng.integers(1 << k))):
            b = BitVector(word, k)
            got = view_distribution(mechs, b).probs
            assert np.array_equal(got, self.outer_product_reference(mechs, b)), word
            assert np.array_equal(got, mixture_view_distribution(
                mechs, Hypothesis.point_mass(b)).probs), word


class TestRequiredDelta:
    def test_identical_distributions(self):
        mechs = [randomized_response(0.25)]
        d = view_distribution(mechs, bv("0"))
        for eps in (0.0, 0.5, 2.0):
            assert required_delta(d, d, eps) == 0.0

    def test_rr_tight_at_ln3(self):
        mechs = [randomized_response(0.25)]
        p0 = view_distribution(mechs, bv("0"))
        p1 = view_distribution(mechs, bv("1"))
        assert required_delta(p0, p1, math.log(3.0)) <= 1e-15

    def test_total_variation_at_zero(self):
        mechs = [randomized_response(0.25)]
        p0 = view_distribution(mechs, bv("0"))
        p1 = view_distribution(mechs, bv("1"))
        assert required_delta(p0, p1, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_non_increasing_in_epsilon(self):
        mechs = [randomized_response(0.3)] * 2
        p0 = view_distribution(mechs, bv("00"))
        p1 = view_distribution(mechs, bv("11"))
        values = [required_delta(p0, p1, eps) for eps in np.linspace(0.0, 3.0, 31)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_views_count_beyond_700_nats(self):
        # View 00 has P0 = 1 and P1 = q^2 = 1e-310, so 1 - e^eps 1e-310 is
        # needed until e^eps 1e-310 reaches 1 near 713.8 nats.
        mechs = [randomized_response(1e-155)] * 2
        p0, p1 = view_distribution(mechs, bv("00")), view_distribution(mechs, bv("11"))
        assert p0.probs[0] == 1.0
        values = [required_delta(p0, p1, eps) for eps in np.arange(690.0, 760.25, 0.25)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0
        for eps in (699.0, 700.0, 705.0, 710.0):
            exact = -math.expm1(eps + math.log(1e-310))
            for d0, d1 in ((p0, p1), (p1, p0)):
                assert required_delta(d0, d1, eps) == pytest.approx(exact, rel=1e-9)
                reference = reference_required_delta(d0.probs.tolist(), d1.probs.tolist(), eps)
                assert required_delta(d0, d1, eps) == pytest.approx(reference, rel=1e-12)
        for eps in (700.0, 705.0, 710.0):
            h0, h1 = Hypothesis.point_mass(bv("00")), Hypothesis.point_mass(bv("11"))
            report = verify_hdp(mechs, h0, h1, PrivacyParams(eps, 0.0))
            assert not report.sound
            assert report.delta_needed == pytest.approx(-math.expm1(eps + math.log(1e-310)),
                                                        rel=1e-9)

    def test_infinite_epsilon_counts_the_views_the_other_side_never_shows(self):
        # Only P1(v) = 0 escapes an infinite e^eps; inf + ln 0 must not make it NaN.
        mechs = [leaky_rr(0.7, 0.05), leaky_rr(1.3, 0.02)]
        mixture = mixture_view_distribution(
            mechs, Hypothesis({bv("00"): 0.25, bv("01"): 0.75}))
        for d0, d1 in ((mixture, view_distribution(mechs, bv("11"))),
                       (view_distribution(mechs, bv("00")), view_distribution(mechs, bv("10")))):
            for a, b in ((d0, d1), (d1, d0)):
                expected = math.fsum(a.probs[b.probs == 0.0].tolist())
                assert expected > 0.0
                assert required_delta(a, b, math.inf) == expected

    def test_mismatched_support(self):
        p0 = view_distribution([randomized_response(0.25)], bv("0"))
        other = DiscreteMechanism(absent={"a": 1.0}, present={"a": 1.0})
        p1 = view_distribution([other], bv("0"))
        with pytest.raises(MismatchedSupportError):
            required_delta(p0, p1, 1.0)

    def test_mismatched_alphabets_of_equal_size(self):
        p0 = view_distribution([randomized_response(0.25)], bv("0"))
        other = DiscreteMechanism(absent={"a": 0.5, "b": 0.5}, present={"a": 0.5, "b": 0.5})
        p1 = view_distribution([other], bv("0"))
        with pytest.raises(MismatchedSupportError):
            required_delta(p0, p1, 1.0)

    def test_nan_epsilon_rejected(self):
        p0 = view_distribution([randomized_response(0.25)], bv("0"))
        with pytest.raises(ValueError):
            required_delta(p0, p0, math.nan)


class TestVerifyHdp:
    mechs3 = [randomized_response(0.25)] * 3

    def test_equal_hypotheses_sound_at_zero(self):
        h = Hypothesis.uniform([bv("000"), bv("101")])
        report = verify_hdp(self.mechs3, h, h, PrivacyParams(0.0, 0.0))
        assert report.sound
        assert report.delta_needed == 0.0

    def test_simple_compose_tight_for_full_flip(self):
        seq = MechanismSequence.homogeneous(math.log(3.0), 0.0, 3)
        claimed = simple_compose(seq)
        report = verify_hdp(
            self.mechs3,
            Hypothesis.point_mass(bv("000")),
            Hypothesis.point_mass(bv("111")),
            claimed,
        )
        assert report.sound
        assert report.delta_needed <= 1e-12

    def test_uniform_nonzero_closed_form_sound(self):
        for k in (3, 12):
            claimed = uniform_nonzero_closed_form(math.log(3.0), 0.0, k)
            report = verify_hdp(
                [randomized_response(0.25)] * k,
                Hypothesis.point_mass(BitVector.zeros(k)),
                Hypothesis.uniform_nonzero(k),
                claimed,
            )
            assert report.sound
            assert report.delta_needed <= 1e-12

    def test_unsound_claim_detected(self):
        report = verify_hdp(
            [randomized_response(0.25)],
            Hypothesis.point_mass(bv("0")),
            Hypothesis.point_mass(bv("1")),
            PrivacyParams(0.0, 0.0),
        )
        assert not report.sound
        assert report.delta_needed == pytest.approx(0.5, abs=1e-15)

    def test_all_deterministic_pairs_sound(self):
        # The worst-case equivalence at desk scale: the classic bound
        # covers every deterministic hypothesis pair, not just the
        # all-zero/all-one pair.
        seq = MechanismSequence.homogeneous(math.log(3.0), 0.0, 3)
        claimed = simple_compose(seq)
        for w0, w1 in itertools.product(range(8), repeat=2):
            report = verify_hdp(
                self.mechs3,
                Hypothesis.point_mass(BitVector(w0, 3)),
                Hypothesis.point_mass(BitVector(w1, 3)),
                claimed,
            )
            assert report.sound
            assert report.delta_needed <= 1e-12

    def test_hypotheses_of_another_k_refused(self):
        three, four = Hypothesis.point_mass(bv("000")), Hypothesis.uniform_all(4)
        for p0, p1 in ((three, four), (four, three)):
            with pytest.raises(MixedLengthError, match="^3 mechanisms but vector of length 4$"):
                verify_hdp(self.mechs3, p0, p1, PrivacyParams(1.0, 0.0))

    def test_view_underflowing_to_zero_is_refused(self):
        # View 00 has P1 = q^2 = 1e-600, which rounds to 0; enumerated, the
        # claim that is exactly the composition looked UNSOUND (delta 1.0).
        q = 1e-300
        mechs = [randomized_response(q)] * 2
        claimed = simple_compose([randomized_response_guarantee(q)] * 2)
        assert claimed == PrivacyParams(1381.5510557964274, 0.0)
        p0, p1 = Hypothesis.point_mass(bv("00")), Hypothesis.point_mass(bv("11"))
        for a, b in ((p0, p1), (p1, p0)):
            with pytest.raises(ValueError, match="underflows"):
                verify_hdp(mechs, a, b, claimed)
        with pytest.raises(ValueError, match="underflows"):
            simulate_experiment(mechs, bv("00"), 10, seed=0)

    def test_subnormal_rounding_past_the_slack_is_refused(self):
        # Both claims are exactly tight. At 720 nats the rounding of the
        # subnormal view (b, b), about e^-720 under 00, showed as 3.9e-12 of delta.
        eps = math.nextafter(690.0, 0.0)
        params = [(30.0, 0.772865464008868), (eps, 0.0)]
        mechs = [leaky_rr(e, d) for e, d in params]
        p0, p1 = Hypothesis.point_mass(bv("00")), Hypothesis.point_mass(bv("11"))
        claimed = simple_compose(MechanismSequence.from_pairs(params))
        with pytest.raises(ValueError, match="subnormal"):
            verify_hdp(mechs, p0, p1, claimed)
        assert verify_hdp(mechs[1:], Hypothesis.point_mass(bv("0")),
                          Hypothesis.point_mass(bv("1")), PrivacyParams(eps, 0.0)).sound


    def test_mixture_roundings_are_counted_per_step(self):
        # Views of RR(1e-160) x 2 reach 1e-320, subnormal. uniform_all(2) has 4 atoms:
        # 4 + 2 (2 + 1) = 10 roundings per view, 40 over the 4 views, so e^eps 2^-1074 40
        # passes the 1e-12 slack from about 713.1 nats; at 714.5 one rounding per view would not.
        mechs = [randomized_response(1e-160)] * 2
        p0, p1 = Hypothesis.point_mass(bv("00")), Hypothesis.uniform_all(2)
        with pytest.raises(ValueError, match="subnormal"):
            verify_hdp(mechs, p0, p1, PrivacyParams(714.5, 0.0))
        verify_hdp(mechs, p0, p1, PrivacyParams(712.5, 0.0))

    def test_views_beyond_700_nats_are_counted_exactly(self):
        # View 0 has P0 = 1 - 1e-310 and P1 = 1e-310: the claim (705, 0) needs
        # delta 1 - e^705 1e-310 = 0.99985 in each direction.
        points = Hypothesis.point_mass(bv("0")), Hypothesis.point_mass(bv("1"))
        report = verify_hdp([randomized_response(1e-310)], *points, PrivacyParams(705.0, 0.0))
        assert not report.sound
        exact = -math.expm1(705.0 + math.log(1e-310))
        assert report.delta_needed_fwd == pytest.approx(exact, rel=1e-9)
        assert report.delta_needed_rev == pytest.approx(exact, rel=1e-9)


def random_mechanism(rng):
    """2-5 symbols, each side's law from a Dirichlet draw, one symbol of a side
    sometimes zeroed so that the other side's symbol reveals its database."""
    n = int(rng.integers(2, 6))
    dists = []
    for _ in range(2):
        p = rng.dirichlet(np.ones(n))
        if rng.random() < 0.3:
            p[rng.integers(n)] = 0.0
            p /= p.sum()
        dists.append(dict(enumerate(p.tolist())))
    return DiscreteMechanism(*dists)


def random_mixture(rng, k):
    """1-6 atoms on distinct random k-bit words, Dirichlet weights."""
    n = int(rng.integers(1, min(1 << k, 6) + 1))
    words = rng.choice(1 << k, size=n, replace=False)
    return Hypothesis([(BitVector(int(w), k), float(p))
                       for w, p in zip(words, rng.dirichlet(np.ones(n)))])


def test_leaky_rr_dominates_every_mechanism_with_its_guarantee():
    # verify judges a claim on leaky_rr(eps_i, delta_i) at each position. That is sound
    # for every (eps_i, delta_i)-DP mechanism on mixtures: each one is a post-processing
    # T_i of leaky RR (Kairouz, Oh and Viswanath 2015), the product of the T_i maps every
    # atom's views and so every mixture's, and no post-processing raises a hockey-stick
    # divergence. Each random mechanism gets a tight guarantee: at a drawn eps_i below its
    # largest finite privacy loss (or 1), the larger of its two one-position hockey-sticks. The
    # epsilons checked span the summed eps_i and sit just below each eps_i, where a
    # mechanism's delta starts to exceed its delta_i.
    rng = np.random.default_rng(43)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        mechs, leaky, eps_i = [], [], []
        for _ in range(k):
            mech = random_mechanism(rng)
            absent, present = mech._tables
            both = (absent > 0.0) & (present > 0.0)
            loss = np.abs(np.log(absent[both] / present[both])).max(initial=1.0)
            eps = float(rng.uniform(0.0, loss))
            d0, d1 = (view_distribution([mech], BitVector(bit, 1)) for bit in (0, 1))
            delta = max(required_delta(d0, d1, eps), required_delta(d1, d0, eps))
            mechs.append(mech)
            leaky.append(leaky_rr(eps, delta))
            eps_i.append(eps)
        p0, p1 = random_mixture(rng, k), random_mixture(rng, k)
        views = [[mixture_view_distribution(ms, h) for h in (p0, p1)] for ms in (mechs, leaky)]
        for eps in [*np.linspace(0.0, sum(eps_i), 9).tolist(), *(0.985 * e for e in eps_i)]:
            for a, b in ((0, 1), (1, 0)):
                assert (required_delta(views[0][a], views[0][b], eps)
                        <= required_delta(views[1][a], views[1][b], eps) + oracle.SOUNDNESS_SLACK)


class TestSimulate:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_experiment([randomized_response(0.25)], bv("1"), 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_must_fit_in_64_bits(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 bits"):
            simulate_experiment([randomized_response(0.25)], bv("1"), 10, seed=seed)

    def test_trials_budget(self, monkeypatch):
        mechs = [randomized_response(0.25)]
        with pytest.raises(ViewSpaceTooLargeError, match="trials exceeds"):
            simulate_experiment(mechs, bv("1"), oracle.MAX_TRIALS + 1, seed=1)
        monkeypatch.setattr(oracle, "MAX_TRIALS", 100)
        assert simulate_experiment(mechs, bv("1"), 100, seed=1).sum() == 100
        with pytest.raises(ViewSpaceTooLargeError):
            simulate_experiment(mechs, bv("1"), 101, seed=1)

    def test_deterministic_given_seed(self):
        mechs = [randomized_response(0.25)] * 2
        a = simulate_experiment(mechs, bv("10"), 5000, seed=42)
        b = simulate_experiment(mechs, bv("10"), 5000, seed=42)
        assert np.array_equal(a, b)
        c = simulate_experiment(mechs, bv("10"), 5000, seed=43)
        assert not np.array_equal(a, c)

    def test_counts_cover_the_view_space(self):
        mechs = [randomized_response(0.25)] * 2
        counts = simulate_experiment(mechs, bv("01"), 1000, seed=7)
        assert counts.shape == view_distribution(mechs, bv("01")).probs.shape
        assert counts.sum() == 1000

    def test_counts_equal_generator_choice(self):
        # Generator.choice on the same Philox streams, with zero-probability
        # symbols: leaky RR never shows r1 absent or r0 present.
        def choice_counts(mechs, b, trials, seed):
            total = math.prod(len(m.alphabet) for m in mechs)
            combined, stride = np.zeros(trials, dtype=np.int64), total
            for i, (mech, bit) in enumerate(zip(mechs, map(int, str(b)))):
                probs = mech._tables[bit] / mech._tables[bit].sum()
                rng = np.random.Generator(np.random.Philox(key=np.array([seed, i],
                                                                        dtype=np.uint64)))
                stride //= len(probs)
                combined += rng.choice(len(probs), size=trials, p=probs) * stride
            return np.bincount(combined, minlength=total)

        rng = np.random.default_rng(20261019)
        for _ in range(40):
            k = int(rng.integers(1, 6))
            mechs = [randomized_response(float(rng.uniform(0.05, 0.45))) if rng.integers(2)
                     else leaky_rr(float(rng.uniform(0.0, 2.0)), float(rng.choice([0.0, 0.05])))
                     for _ in range(k)]
            b = BitVector(int(rng.integers(1 << k)), k)
            trials, seed = int(rng.integers(1, 5000)), int(rng.integers(2**63))
            assert np.array_equal(simulate_experiment(mechs, b, trials, seed),
                                  choice_counts(mechs, b, trials, seed))

    @pytest.mark.parametrize("mech", [randomized_response(0.25), randomized_response(0.1),
                                      leaky_rr(0.7, 0.0), leaky_rr(1.3, 0.05),
                                      TestContractionSplit.ONE])
    def test_thresholds_are_the_first_raw_draws_past_each_cdf_entry(self, mech):
        # Generator.random maps a raw draw r to (r >> 11) 2^-53, so r passes the CDF
        # entry c from the threshold on, and the raw draw 2^11 below it does not.
        def uniform(raw):
            return (raw >> 11) * 2.0**-53

        for bit in (0, 1):
            probs = mech._tables[bit] / mech._tables[bit].sum()
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            inner = [c for c in cdf.tolist() if c < 1.0]
            thresholds = [int(t) for t in mech._thresholds[bit]]
            assert len(thresholds) == len(inner)
            for c, t in zip(inner, thresholds):
                assert uniform(t) >= c and (t < 2**11 or uniform(t - 2**11) < c)

    def test_frequencies_concentrate(self):
        mechs = [randomized_response(0.25)]
        trials = 1_000_000
        counts = simulate_experiment(mechs, bv("1"), trials, seed=2024)
        freq = counts[1] / trials  # view (1,)
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(freq - 0.75) <= 4.0 * sigma
