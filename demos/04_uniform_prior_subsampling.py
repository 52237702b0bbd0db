"""
Uniform priors and subsampling
==============================

An adversary who only knows "the target is in at least one database"
with no idea which ones is, per iteration, facing a coin flip over
which database was used. That is the same situation as running each
mechanism on an independent Bernoulli(1/2) sample of the differing
record, so amplification-by-subsampling machinery produces guarantees
against this adversary.

Run:  python demos/04_uniform_prior_subsampling.py
"""

from hypodp import (
    Advanced,
    MechanismSequence,
    PrivacyParams,
    SIMPLE,
    amplify,
    simple_compose,
    uniform_nonzero_closed_form,
    uniform_prior_bound,
)

# %% Amplification by subsampling on its own: running an (eps, delta)
# mechanism on a Bernoulli(p) sample gives (ln(1 + p(e^eps - 1)), p delta).
g = PrivacyParams(1.0, 1e-6)
print("amplify (1.0, 1e-6) at different sampling rates:")
for rate in (1.0, 0.5, 0.1, 0.01):
    a = amplify(g, rate)
    print(f"  p = {rate:4}: ({a.epsilon:.5f}, {a.delta:.1e})")

# %% The uniform-prior bound. Nonzero membership vectors are grouped by
# the position of their first 1: before it the mechanisms surely see
# the absent database, at it surely the present one, after it a fair
# coin, i.e. a rate-1/2 subsample. Each group composes accordingly and
# the groups combine with weights 2^(k-1-i).
print(f"\n{'k':>4} {'worst case':>12} {'uniform prior':>14} {'closed form':>12}")
for k in (1, 2, 4, 8, 12):
    seq = MechanismSequence.homogeneous(0.5, 0.0, k)
    worst = simple_compose(seq).epsilon
    uniform = uniform_prior_bound(seq, SIMPLE).epsilon
    closed = uniform_nonzero_closed_form(0.5, 0.0, k).epsilon
    print(f"{k:>4} {worst:>12.4f} {uniform:>14.4f} {closed:>12.4f}")

# %% The pipeline also handles heterogeneous sequences, where no closed
# form applies.
seq = MechanismSequence.from_pairs([(1.0, 0.0), (0.5, 0.0), (0.25, 1e-7)])
uniform = uniform_prior_bound(seq, SIMPLE)
print(f"\nheterogeneous [(1,0), (0.5,0), (0.25,1e-7)]:")
print(f"  uniform prior: ({uniform.epsilon:.5f}, {uniform.delta:.3e})")
print(f"  worst case:    ({simple_compose(seq).epsilon:.5f}, {simple_compose(seq).delta:.3e})")

# %% Only each group's subsampled tail goes through the composition
# theorem; the head mechanism is added on. A homogeneous sequence has
# homogeneous tails, so advanced composition applies for large k.
k = 200
seq = MechanismSequence.homogeneous(0.05, 0.0, k)
simple_tails = uniform_prior_bound(seq, SIMPLE)
adv_tails = uniform_prior_bound(seq, Advanced(1e-6))
print(f"\nk={k}, eps=0.05 each, uniform-prior bound:")
print(f"  simple tails:   ({simple_tails.epsilon:.4f}, {simple_tails.delta:.1e})")
print(f"  advanced tails: ({adv_tails.epsilon:.4f}, {adv_tails.delta:.1e})")
