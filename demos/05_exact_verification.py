"""
Exact verification on small instances
=====================================

Every bound in this library is an analytic claim. On small discrete
instances the claims can be checked outright: with finite output
alphabets the view distribution under any membership vector is an
enumerable product measure, and the smallest delta that makes a
guarantee hold at a given epsilon is a finite hockey-stick sum. This
script verifies the classic bound, the uniform-prior bound, and a
constraint-derived bound against randomized response, and shows that a
broken claim is caught.

Run:  python demos/05_exact_verification.py
"""

import itertools
import math

from hypodp import (
    BitVector,
    Hypothesis,
    MechanismSequence,
    PrivacyParams,
    SIMPLE,
    mixture_view_distribution,
    randomized_response,
    randomized_response_guarantee,
    required_delta,
    simple_compose,
    simulate_experiment,
    uniform_nonzero_closed_form,
    verify_hdp,
    view_distribution,
)

# %% Randomized response with q = 0.25 reports the truth with
# probability 0.75, which is exactly (ln 3)-DP.
q = 0.25
mech = randomized_response(q)
print(f"RR({q}): absent {mech.absent}, present {mech.present}")
print(f"guarantee: eps = ln 3 = {randomized_response_guarantee(q).epsilon:.5f}")

# %% The hockey-stick sum. At the claimed epsilon the required delta is
# zero; at smaller epsilons it grows, reaching total variation at 0.
p0 = view_distribution([mech], BitVector.from_string("0"))
p1 = view_distribution([mech], BitVector.from_string("1"))
print("\nrequired delta for one invocation:")
for eps in (math.log(3.0), 0.5, 0.0):
    print(f"  eps = {eps:.4f}: delta needed = {required_delta(p0, p1, eps):.4f}")

# %% Three invocations: the classic bound (3 ln 3, 0) is sound for
# every deterministic hypothesis pair, not only all-zero vs all-one.
k = 3
mechs = [randomized_response(q)] * k
seq = MechanismSequence.homogeneous(math.log(3.0), 0.0, k)
claimed = simple_compose(seq)
worst = 0.0
for w0 in range(1 << k):
    for w1 in range(1 << k):
        report = verify_hdp(
            mechs,
            Hypothesis.point_mass(BitVector(w0, k)),
            Hypothesis.point_mass(BitVector(w1, k)),
            claimed,
        )
        worst = max(worst, report.delta_needed)
        assert report.sound
print(f"\nclassic bound (3 ln 3, 0): sound for all 64 pairs, "
      f"worst delta needed = {worst:.2e}")

# %% The uniform-prior closed form is also sound, and visibly tighter.
cf = uniform_nonzero_closed_form(math.log(3.0), 0.0, k)
report = verify_hdp(
    mechs,
    Hypothesis.point_mass(BitVector.zeros(k)),
    Hypothesis.uniform_nonzero(k),
    cf,
)
print(f"uniform-prior bound eps = {cf.epsilon:.4f} (vs {claimed.epsilon:.4f} classic): "
      f"{'sound' if report.sound else 'UNSOUND'}, "
      f"delta needed = {report.delta_needed:.2e}")

# %% Constraints are load-bearing. Under "at most 2 of 4 databases" the
# bound (2 ln 3, 0) covers every allowed pair, but the disallowed
# all-ones vector would need extra delta at that epsilon.
mechs4 = [randomized_response(q)] * 4
bound = PrivacyParams(2.0 * math.log(3.0), 0.0)
zero = Hypothesis.point_mass(BitVector.zeros(4))
ok = all(
    verify_hdp(mechs4, zero, Hypothesis.point_mass(BitVector(w, 4)), bound).sound
    for w in range(16)
    if BitVector(w, 4).ones_count() <= 2
)
broken = verify_hdp(mechs4, zero, Hypothesis.point_mass(BitVector.ones(4)), bound)
print(f"\nconstrained bound (2 ln 3, 0) on k=4:")
print(f"  all pairs with at most 2 ones: {'sound' if ok else 'UNSOUND'}")
print(f"  disallowed 1111: delta needed = {broken.delta_needed:.5f} -> caught")

# %% Monte-Carlo cross-check: empirical view frequencies converge to the
# enumerated distribution. Counts and probabilities share one flat view
# index; itertools.product over the alphabets names its views in order.
b = BitVector.from_string("01")
mechs2 = [randomized_response(q)] * 2
trials = 200_000
counts = simulate_experiment(mechs2, b, trials, seed=11)
exact = view_distribution(mechs2, b)
views = itertools.product(*exact.alphabets)
print(f"\n{trials} simulated views under b={b}:")
for view, n, p in zip(views, counts.tolist(), exact.probs.tolist()):
    print(f"  {view}: frequency {n / trials:.4f}  exact {p:.4f}")

# %% Mixtures work the same way; here is the view distribution when the
# adversary's belief is uniform over 'exactly one contribution'.
h = Hypothesis.uniform([BitVector.from_string("01"), BitVector.from_string("10")])
d = mixture_view_distribution(mechs2, h)
print(f"\nmixture view distribution under {h!r}:")
for view, p in zip(itertools.product(*d.alphabets), d.probs.tolist()):
    print(f"  {view}: {p:.4f}")
