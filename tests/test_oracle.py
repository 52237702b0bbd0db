import itertools
import math
import time

import numpy as np
import pytest

from hypodp import oracle
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
    factors = [[np.array([mech.dist_for(bit)[y] for y in column]) for bit in (0, 1)]
               for mech, column in zip(mechs, columns)]
    acc = np.zeros(len(views))
    for vec, w in h.atoms:
        p = np.ones(len(views))
        for factor, bit in zip(factors, map(int, str(vec))):
            p = p * factor[bit]
        acc += w * p
    return acc.tolist()


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
        mech = leaky_rr(1000.0, 1.0)
        assert mech.absent == {"a": 0.0, "b": 0.0, "r0": 1.0, "r1": 0.0}

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


class TestWorkBudget:
    def test_boundary(self, monkeypatch):
        # uniform_all(3) costs 8 atoms x 8 views.
        mechs = [randomized_response(0.25)] * 3
        monkeypatch.setattr(oracle, "MAX_MIXTURE_WORK", 64)
        mixture_view_distribution(mechs, Hypothesis.uniform_all(3))
        monkeypatch.setattr(oracle, "MAX_MIXTURE_WORK", 63)
        with pytest.raises(ViewSpaceTooLargeError, match="8 atoms x 8 views"):
            mixture_view_distribution(mechs, Hypothesis.uniform_all(3))

    def test_k17_refused_at_once(self):
        # 2^17 - 1 atoms x 2^17 views; the flat oracle would need minutes.
        k = 17
        mechs = [randomized_response(0.25)] * k
        zero, nonzero = Hypothesis.point_mass(BitVector.zeros(k)), Hypothesis.uniform_nonzero(k)
        start = time.perf_counter()
        with pytest.raises(ViewSpaceTooLargeError):
            mixture_view_distribution(mechs, nonzero)
        with pytest.raises(ViewSpaceTooLargeError):
            verify_hdp(mechs, zero, nonzero, PrivacyParams(1.0, 0.0))
        assert time.perf_counter() - start < 1.0


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

    def test_shared_prefixes_equal_reference(self):
        # Consecutive atoms share leading bits: presets share all but the
        # trailing ones, random mixtures share prefixes of every length.
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
                    assert got == reference_mixture(mechs, h)
        for mechs in families(8):
            for n in (20, 37, 60):
                words = rng.choice(256, size=n, replace=False)
                h = Hypothesis([(BitVector(int(w), 8), float(p))
                                for w, p in zip(words, rng.dirichlet(np.ones(n)))])
                assert mixture_view_distribution(mechs, h).probs.tolist() == \
                    reference_mixture(mechs, h)

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

    def test_frequencies_concentrate(self):
        mechs = [randomized_response(0.25)]
        trials = 1_000_000
        counts = simulate_experiment(mechs, bv("1"), trials, seed=2024)
        freq = counts[1] / trials  # view (1,)
        sigma = math.sqrt(0.75 * 0.25 / trials)
        assert abs(freq - 0.75) <= 4.0 * sigma
