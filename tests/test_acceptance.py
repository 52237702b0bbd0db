"""Acceptance suite: one test per release criterion, timed, one line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS lines.
Expected values marked "frozen" were computed by direct 50-digit
evaluation of the corresponding formulas, independently of the library.
"""

import itertools
import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest

from hypodp.composition import Advanced, Simple, compose, simple_compose
from hypodp.constraints import MaxOnes, NeighborhoodMode, constrained_bound, parallel_bound
from hypodp.core import BitVector, Hypothesis, MechanismSequence, PrivacyParams
from hypodp.hypothesis_dp import hdp_guarantee, uniform_nonzero_closed_form
from hypodp.oracle import randomized_response, simulate_experiment, verify_hdp, view_distribution
from hypodp.refinement import refine_tuples
from hypodp.subsampling import uniform_prior_bound

GRID_K = range(1, 13)
GRID_EPS = (0.1, 0.5, 1.0, 2.0)
GRID_DELTA = (0.0, 1e-6)

# Frozen closed-form spot values (50-digit evaluation).
SPOT_K2_EPS1 = 1.4528324252639413
SPOT_K3_DELTA = 12.0 / 7.0 * 1e-6


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number: int, description: str, timer: _Timer, limit: float):
    print(f"PASS criterion {number}: {description} ({timer.elapsed:.3f}s < {limit}s)")
    assert timer.elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def test_criterion_1_pipeline_equals_closed_form():
    with _Timer() as t:
        for k, eps, delta in itertools.product(GRID_K, GRID_EPS, GRID_DELTA):
            seq = MechanismSequence.homogeneous(eps, delta, k)
            got = uniform_prior_bound(seq, Simple())
            want = uniform_nonzero_closed_form(eps, delta, k)
            assert abs(got.epsilon - want.epsilon) <= 1e-9, (k, eps, delta)
            assert abs(got.delta - want.delta) <= 1e-12, (k, eps, delta)
        spot = uniform_prior_bound(MechanismSequence.homogeneous(1.0, 0.0, 2), Simple())
        assert abs(spot.epsilon - SPOT_K2_EPS1) <= 1e-9
        spot = uniform_prior_bound(MechanismSequence.homogeneous(0.0, 1e-6, 3), Simple())
        assert abs(spot.delta - SPOT_K3_DELTA) <= 1e-12
    _report(1, "subsampling pipeline equals its closed form on the 96-point grid", t, 1.0)


def test_criterion_2_refinement_pipeline_equals_closed_form():
    with _Timer() as t:
        for k in GRID_K:
            p0 = Hypothesis.point_mass(BitVector.zeros(k))
            p1 = Hypothesis.uniform_nonzero(k)
            for eps, delta in itertools.product(GRID_EPS, GRID_DELTA):
                seq = MechanismSequence.homogeneous(eps, delta, k)
                got = hdp_guarantee(p0, p1, seq, Simple())
                want = uniform_nonzero_closed_form(eps, delta, k)
                assert abs(got.epsilon - want.epsilon) <= 1e-9, (k, eps, delta)
                assert abs(got.delta - want.delta) <= 1e-12, (k, eps, delta)
    _report(2, "refinement pipeline equals the closed form up to k=12 (4095 atoms)", t, 5.0)


def _closed_form_50_digits(eps: float, delta: float, k: int) -> tuple[Decimal, Decimal]:
    """ln(((1 + e^eps)^k - 1) / (2^k - 1)) and k 2^(k-1) / (2^k - 1) delta."""
    with localcontext() as ctx:
        ctx.prec = 50
        num = (1 + Decimal(eps).exp()) ** k - 1
        den = Decimal(2) ** k - 1
        return (num / den).ln(), k * Decimal(2) ** (k - 1) / den * Decimal(delta)


def test_criterion_3_closed_form_matches_50_digit_reference():
    with _Timer() as t:
        cases = itertools.chain(
            itertools.product(GRID_K, GRID_EPS, GRID_DELTA),
            itertools.product((1024, 4096), GRID_EPS, GRID_DELTA),
        )
        for k, eps, delta in cases:
            got = uniform_nonzero_closed_form(eps, delta, k)
            want_eps, want_delta = _closed_form_50_digits(eps, delta, k)
            # Relative past 1: at k = 4096 epsilon is near 5800, where one
            # float ulp is already 9e-13.
            tol = Decimal("1e-12")
            assert abs(Decimal(got.epsilon) - want_eps) <= tol * max(1, want_eps), (k, eps)
            assert abs(Decimal(got.delta) - want_delta) <= tol * want_delta, (k, eps, delta)
    _report(3, "the closed form matches a 50-digit evaluation to 1e-12", t, 1.0)


def test_criterion_4_desk_scale_equivalence_check():
    with _Timer() as t:
        mechs = [randomized_response(0.25)] * 3
        seq = MechanismSequence.homogeneous(math.log(3.0), 0.0, 3)
        claimed = simple_compose(seq)
        assert claimed.epsilon == pytest.approx(3.0 * math.log(3.0), rel=1e-15)
        for w0, w1 in itertools.product(range(8), repeat=2):
            report = verify_hdp(
                mechs,
                Hypothesis.point_mass(BitVector(w0, 3)),
                Hypothesis.point_mass(BitVector(w1, 3)),
                claimed,
            )
            assert report.delta_needed <= 1e-12, (w0, w1)
        rng = np.random.default_rng(271828)
        for _ in range(50):
            hyps = []
            for _side in range(2):
                n = int(rng.integers(1, 9))
                words = rng.choice(8, size=n, replace=False)
                weights = rng.dirichlet(np.ones(n))
                hyps.append(Hypothesis({
                    BitVector(int(w), 3): float(p) for w, p in zip(words, weights)
                }))
            report = verify_hdp(mechs, hyps[0], hyps[1], claimed)
            assert report.delta_needed <= 1e-12
    _report(4, "classic bound sound for all 64 deterministic + 50 mixture pairs", t, 1.0)


def test_criterion_5_constraint_improvement_at_k365():
    with _Timer() as t:
        seq = MechanismSequence.homogeneous(0.01, 0.0, 365)
        constrained = constrained_bound(
            seq, MaxOnes(365), NeighborhoodMode.UNBOUNDED, Advanced(1e-5)
        )
        parallel = parallel_bound(seq, 365, NeighborhoodMode.UNBOUNDED)
        assert abs(constrained.epsilon - 0.9535) <= 1e-3
        assert parallel.epsilon == 365 * 0.01
        assert constrained.epsilon < parallel.epsilon
    _report(5, "advanced constrained bound 0.953 beats parallel 3.65 at k=365", t, 0.1)


def test_criterion_6_constraint_soundness_and_necessity():
    with _Timer() as t:
        mechs = [randomized_response(0.25)] * 4
        seq = MechanismSequence.homogeneous(math.log(3.0), 0.0, 4)
        bound = constrained_bound(seq, MaxOnes(2), NeighborhoodMode.UNBOUNDED, Simple())
        assert bound.epsilon == pytest.approx(2.0 * math.log(3.0), rel=1e-15)
        zero = Hypothesis.point_mass(BitVector.zeros(4))
        for word in range(16):
            b = BitVector(word, 4)
            if b.ones_count() > 2:
                continue
            report = verify_hdp(mechs, zero, Hypothesis.point_mass(b), bound)
            assert report.sound, str(b)
            assert report.delta_needed <= 1e-12
        # The constraint is load-bearing: the disallowed all-ones vector
        # needs strictly more delta at the constrained epsilon.
        report = verify_hdp(mechs, zero, Hypothesis.point_mass(BitVector.ones(4)), bound)
        assert not report.sound
        assert report.delta_needed > 0.0
        assert report.delta_needed == pytest.approx(0.28125, abs=1e-12)
    _report(6, "constrained bound sound for all allowed pairs, violated by 1111", t, 0.1)


def test_criterion_7_refinement_property_suite():
    with _Timer() as t:
        rng = np.random.default_rng(20240817)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            hyps = []
            for _side in range(2):
                n = int(rng.integers(1, min(16, 1 << k) + 1))
                words = rng.choice(1 << k, size=n, replace=False)
                weights = rng.dirichlet(np.ones(n))
                hyps.append(Hypothesis({
                    BitVector(int(w), k): float(p) for w, p in zip(words, weights)
                }))
            p0, p1 = hyps
            r = refine_tuples(p0, p1)
            # One weight column: both sides of a pair carry it exactly.
            assert np.all(r.pairs["weight"] > 0.0)
            assert len(r.pairs) <= len(p0) + len(p1) - 1
            for side, p in ((0, p0), (1, p1)):
                masses = {}
                for w, *words in r.pairs.tolist():
                    vec = BitVector(words[side], k)
                    masses[vec] = masses.get(vec, 0.0) + w
                for vec, mass in masses.items():
                    assert abs(mass - p.weight(vec)) <= 1e-12
            swapped = refine_tuples(p1, p0).pairs
            assert np.array_equal(swapped["word0"], r.pairs["word1"])
            assert np.array_equal(swapped["word1"], r.pairs["word0"])
            assert np.array_equal(swapped["weight"], r.pairs["weight"])
    _report(7, "1000 random refinements conserve mass, match weights, stay small", t, 1.0)


def test_criterion_8_monotonicity_grid():
    with _Timer() as t:
        rng = np.random.default_rng(31337)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            seq = MechanismSequence.from_pairs([
                (float(rng.uniform(1e-6, 2.0)), float(rng.uniform(0.0, 1e-4)))
                for _ in range(k)
            ])
            classic = compose(seq, Simple())
            hyps = []
            for _side in range(2):
                n = int(rng.integers(1, (1 << k) + 1))
                words = rng.choice(1 << k, size=n, replace=False)
                weights = rng.dirichlet(np.ones(n))
                hyps.append(Hypothesis({
                    BitVector(int(w), k): float(p) for w, p in zip(words, weights)
                }))
            g = hdp_guarantee(hyps[0], hyps[1], seq, Simple())
            assert g.epsilon <= classic.epsilon + 1e-12
            assert g.delta <= classic.delta + 1e-15
            m = int(rng.integers(1, k + 1))
            mode = NeighborhoodMode.UNBOUNDED if rng.integers(2) else NeighborhoodMode.BOUNDED
            c = constrained_bound(seq, MaxOnes(m), mode, Simple())
            assert c.epsilon <= classic.epsilon + 1e-12
            assert c.delta <= classic.delta + 1e-15
    _report(8, "hdp and constrained bounds never exceed classic composition", t, 5.0)


def test_criterion_9_monte_carlo_consistency():
    with _Timer() as t:
        mechs = [randomized_response(0.25)] * 2
        trials = 1_000_000
        for word in range(4):
            b = BitVector(word, 2)
            counts = simulate_experiment(mechs, b, trials, seed=1000 + word)
            exact = view_distribution(mechs, b).probs
            for view, p in enumerate(exact.tolist()):
                freq = counts[view] / trials
                sigma = math.sqrt(p * (1.0 - p) / trials)
                assert abs(freq - p) <= 4.0 * sigma, (str(b), view)
    _report(9, "10^6-trial frequencies within 4 sigma for every vector and view", t, 5.0)
