"""
Composite hypotheses over database membership
==============================================

Classic composition assumes the adversary compares exactly two worlds:
"the target is in every database" versus "in none". Real adversaries
often hold weaker beliefs, e.g. "the target is in at least one of the
databases, I don't know which". Such beliefs are distributions over
bit vectors (one bit per iteration: which of the two neighboring
databases was used), and the guarantee against a pair of beliefs can be
much stronger than the classic worst case.

Run:  python demos/02_hypothesis_pairs.py
"""

from hypodp import (
    BitVector,
    Hypothesis,
    MechanismSequence,
    SIMPLE,
    hdp_guarantee,
    hdp_guarantee_over_set,
    refine_tuples,
    simple_compose,
    uniform_nonzero_closed_form,
)

# %% The refinement step: two distributions over vectors are split into
# matched pieces of equal weight, so each piece can be handled as a
# deterministic pair.
p0 = Hypothesis({BitVector.from_string("00"): 0.5, BitVector.from_string("01"): 0.5})
p1 = Hypothesis({BitVector.from_string("10"): 0.2, BitVector.from_string("11"): 0.8})
print("refining {00:.5, 01:.5} against {10:.2, 11:.8}:")
refined = refine_tuples(p0, p1)
for weight, word0, word1 in refined.pairs:
    v0, v1 = BitVector(int(word0), refined.k), BitVector(int(word1), refined.k)
    print(f"  ({v0}, {weight:.2f})  <->  ({v1}, {weight:.2f})")

# %% For each matched pair only the differing iterations leak anything,
# so the per-pair guarantee composes fewer mechanisms. The pieces are
# then aggregated group by group: against a point mass, epsilon is
# ln(sum w e^eps) and delta the weighted mean of the per-pair deltas
# (or a little more when those deltas differ).
k = 8
seq = MechanismSequence.homogeneous(0.5, 1e-6, k)
worst = simple_compose(seq)

absent = Hypothesis.point_mass(BitVector.zeros(k))
at_least_one = Hypothesis.uniform_nonzero(k)
g = hdp_guarantee(absent, at_least_one, seq, SIMPLE)

print(f"\nk={k}, each mechanism (0.5, 1e-6):")
print(f"  classic worst case:                ({worst.epsilon:.4f}, {worst.delta:.3e})")
print(f"  absent vs uniform 'at least one':  ({g.epsilon:.4f}, {g.delta:.3e})")

# %% That uniform-prior guarantee has a closed form; the refinement
# pipeline reproduces it exactly.
cf = uniform_nonzero_closed_form(0.5, 1e-6, k)
print(f"  closed form:                       ({cf.epsilon:.4f}, {cf.delta:.3e})")
print(f"  pipeline - closed form: eps diff = {abs(g.epsilon - cf.epsilon):.2e}")

# %% Guarantees over a *set* of hypothesis pairs take the componentwise
# maximum, e.g. "first-half member vs second-half member" alongside
# "absent vs present somewhere". When both sides are mixtures, the
# aggregate is only sure to stay within classic composition: here each
# vector is matched to exactly one other, so the aggregate is the largest
# per-pair epsilon, 8 * 0.5 for 11110000 against 00001111.
half = k // 2
first_half = Hypothesis.uniform(
    BitVector(w << half, k) for w in range(1, 1 << half)
)
second_half = Hypothesis.uniform(BitVector(w, k) for w in range(1, 1 << half))
g_set = hdp_guarantee_over_set(
    [(absent, at_least_one), (first_half, second_half)], seq, SIMPLE
)
print(f"\nmax over both pairs:                 ({g_set.epsilon:.4f}, {g_set.delta:.3e})")
