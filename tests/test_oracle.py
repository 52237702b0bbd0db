import itertools
import math

import numpy as np
import pytest

from hypodp.composition import Simple, simple_compose
from hypodp.core import BitVector, Hypothesis, MechanismSequence, PrivacyParams
from hypodp.errors import (
    InvalidRateError,
    MismatchedSupportError,
    MixedLengthError,
    ViewSpaceTooLargeError,
)
from hypodp.hypothesis_dp import uniform_nonzero_closed_form
from hypodp.oracle import (
    DiscreteMechanism,
    ViewDistribution,
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


def leaky_rr(eps, delta):
    """The canonical 4-symbol (eps, delta)-DP mechanism; ``r1`` has
    probability zero when the record is absent, ``r0`` when present."""
    hi = (1.0 - delta) * math.exp(eps) / (1.0 + math.exp(eps))
    lo = (1.0 - delta) / (1.0 + math.exp(eps))
    return DiscreteMechanism(
        absent={"a": hi, "b": lo, "r0": delta, "r1": 0.0},
        present={"a": lo, "b": hi, "r0": 0.0, "r1": delta},
    )


def reference_mixture(mechs, h):
    """Per-view reference for mixture_view_distribution, in view order.

    Enumerates views with itertools.product, multiplies each view's
    probabilities left to right and accumulates over atoms in atom order.
    """
    views = list(itertools.product(*(m.alphabet for m in mechs)))
    acc = dict.fromkeys(views, 0.0)
    for vec, w in h.atoms:
        for view in views:
            p = 1.0
            for mech, bit, y in zip(mechs, vec.bits(), view):
                p *= mech.dist_for(bit)[y]
            acc[view] += w * p
    return [acc[view] for view in views]


def reference_required_delta(q0s, q1s, eps):
    """Per-view reference for required_delta on two probability lists."""
    factor = math.exp(eps) if eps < 700.0 else math.inf
    gaps = (q0 if q1 == 0.0 else q0 - factor * q1 for q0, q1 in zip(q0s, q1s))
    return math.fsum(g for g in gaps if g > 0.0)


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

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMechanism(absent={0: math.nan, 1: 1.0}, present={0: math.nan, 1: 1.0})


class TestViewDistribution:
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


class TestReference:
    """The array oracle equals a per-view reference bit for bit."""

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

    def test_views_and_required_delta_equal_reference(self):
        for mechs, h0, h1 in self.cases():
            d0 = mixture_view_distribution(mechs, h0)
            d1 = mixture_view_distribution(mechs, h1)
            r0 = reference_mixture(mechs, h0)
            r1 = reference_mixture(mechs, h1)
            assert d0.probs.tolist() == r0
            assert d1.probs.tolist() == r1
            for eps in self.EPSILONS:
                assert required_delta(d0, d1, eps) == reference_required_delta(r0, r1, eps)
                assert required_delta(d1, d0, eps) == reference_required_delta(r1, r0, eps)

    def test_point_masses_equal_reference(self):
        mechs = [leaky_rr(0.7, 0.05), randomized_response(0.2), leaky_rr(1.3, 0.0)]
        for word in range(8):
            b = BitVector(word, 3)
            got = view_distribution(mechs, b).probs.tolist()
            assert got == reference_mixture(mechs, Hypothesis.point_mass(b))


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


class TestSimulate:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            simulate_experiment([randomized_response(0.25)], bv("1"), 0, seed=1)

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

    def test_frequencies_concentrate(self):
        mechs = [randomized_response(0.25)]
        trials = 1_000_000
        counts = simulate_experiment(mechs, bv("1"), trials, seed=2024)
        freq = counts[1] / trials  # view (1,)
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(freq - 0.75) <= 4.0 * sigma
