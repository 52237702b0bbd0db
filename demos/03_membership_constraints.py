"""
Better bounds from membership constraints
=========================================

When it is public knowledge that one person cannot have contributed to
all k databases, the adversary's hypotheses shrink and so does the
bound. The running example: k hospitals each release one DP statistic
about a year of overnight stays. Nobody can be a stationary patient in
more than 365 hospitals in one year, so at most 365 of the k mechanisms
ever see the target's data.

Run:  python demos/03_membership_constraints.py
"""

from hypodp import (
    Advanced,
    AT_MOST_ONE,
    MaxOnes,
    MechanismSequence,
    NeighborhoodMode,
    PatternSet,
    SIMPLE,
    BitVector,
    allowed_vectors,
    constrained_bound,
    exclusive_groups_bound,
    parallel_bound,
    simple_compose,
)

UNBOUNDED = NeighborhoodMode.UNBOUNDED
BOUNDED = NeighborhoodMode.BOUNDED

# %% The hospital setting: k = 1000 hospitals, each queried once with
# eps = 0.01, at most m = 365 contributions per person.
k, m = 1000, 365
seq = MechanismSequence.homogeneous(0.01, 0.0, k)

naive = simple_compose(seq)
constrained_simple = constrained_bound(seq, MaxOnes(m), UNBOUNDED, SIMPLE)
constrained_adv = constrained_bound(seq, MaxOnes(m), UNBOUNDED, Advanced(1e-5))
parallel = parallel_bound(seq, m, UNBOUNDED)

print(f"{k} hospitals, eps=0.01 each, at most {m} contributions:")
print(f"  naive composition over all k:      eps = {naive.epsilon:7.3f}")
print(f"  parallel composition baseline:     eps = {parallel.epsilon:7.3f}")
print(f"  constrained, simple composition:   eps = {constrained_simple.epsilon:7.3f}")
print(f"  constrained, advanced composition: eps = {constrained_adv.epsilon:7.3f}  (delta 1e-5)")

# %% Bounded neighborhoods (replace-one rather than add/remove-one)
# double the number of positions that can differ: the adversary may
# place the target's 365 contributions at two disjoint sets of
# hospitals.
bounded_adv = constrained_bound(seq, MaxOnes(m), BOUNDED, Advanced(1e-5))
bounded_parallel = parallel_bound(seq, m, BOUNDED)
print(f"\nbounded mode composes min(2m, k) = {min(2 * m, k)} mechanisms:")
print(f"  parallel baseline:                 eps = {bounded_parallel.epsilon:7.3f}")
print(f"  constrained, advanced composition: eps = {bounded_adv.epsilon:7.3f}")

# %% "Each employee works at exactly one subsidiary": at most one
# mechanism ever sees the record, so the unbounded bound is just the
# worst single mechanism.
subsidiaries = MechanismSequence.from_pairs([(0.1, 1e-8), (0.3, 2e-8), (0.2, 3e-8)])
g = constrained_bound(subsidiaries, AT_MOST_ONE, UNBOUNDED, SIMPLE)
print(f"\nsubsidiary databases (0.1/0.3/0.2): unbounded bound ({g.epsilon}, {g.delta})")
print(f"  allowed vectors at k=3: {sorted(str(v) for v in allowed_vectors(AT_MOST_ONE, 3))}")

# %% Column-level constraints. A usage database has columns for shared
# features, free-tier-only features, and paid-tier-only features; the
# free and paid column blocks can never both be non-null for one user.
# Possible membership patterns: the free pattern, the paid pattern, or
# absent. exclusive_groups_bound composes only over the columns where
# two patterns differ.
cols = MechanismSequence.homogeneous(0.2, 0.0, 6)
g_unbounded = exclusive_groups_bound(cols, 2, 4, 6, UNBOUNDED)
g_bounded = exclusive_groups_bound(cols, 2, 4, 6, BOUNDED)
print("\n6 feature columns: 2 shared, 2 free-only, 2 paid-only, eps=0.2 each:")
print(f"  naive composition:  eps = {simple_compose(cols).epsilon:.2f}")
print(f"  unbounded bound:    eps = {g_unbounded.epsilon:.2f}")
print(f"  bounded bound:      eps = {g_bounded.epsilon:.2f}")

# %% The same structure expressed as an explicit pattern set.
patterns = PatternSet.of([
    BitVector.from_string("111100"),  # free tier: shared + free columns
    BitVector.from_string("110011"),  # paid tier: shared + paid columns
    BitVector.from_string("000000"),  # not a user
])
g = constrained_bound(cols, patterns, BOUNDED, SIMPLE)
print(f"  explicit pattern set, bounded: eps = {g.epsilon:.2f}")
