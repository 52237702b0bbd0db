"""Bounds derived from public constraints on database membership.

When it is public knowledge that one individual can contribute to at
most m of the k databases (or only to databases matching one of a few
known patterns), the adversary's hypotheses are supported on a
restricted vector set and the worst case composes fewer mechanisms.
The neighborhood mode matters: under unbounded DP one hypothesis is
"contributed nowhere" (the zero vector), so at most m positions differ;
under bounded DP both hypotheses may place the contribution, so up to
min(2m, k) positions differ.

Every bound is the componentwise maximum over the candidate pairs, as
one claim must cover them all. For ``MaxOnes`` under simple composition
that is the sum of the top epsilons with the sum of the top deltas.
Pattern and group pairs reach ``hypothesis_dp._piece_keys`` as ``uint64``
XOR words and compose once per key, exactly: ``Simple``'s exactly rounded
sums are order-free, ``Advanced`` sees only homogeneous rows (a heterogeneous
row raises the same error from its key's representative), and a fixed
non-adaptive multiset of mechanisms leaks the same in any order.

``parallel_bound`` reproduces what classic parallel composition would
give for the same setting (the count times the worst per-mechanism
epsilon, for pure epsilon-DP mechanisms only). It serves as the
comparison baseline; the constraint-derived bounds never lose to it.
"""

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .composition import Advanced, CompositionTheorem, Simple, compose
from .core import (
    BitVector, MAX_ENUMERATION, MAX_K, PrivacyParams, bounded_params, word_of,
)
from .errors import (
    IncompatibleModeError,
    IncompatibleTheoremError,
    InvalidBoundariesError,
    KTooLargeError,
    MixedLengthError,
    NonzeroDeltaError,
)
# _pick is not called here: only the benchmark harness under perfbench/ still wraps it.
from .hypothesis_dp import _piece_keys, componentwise_max as _pick


@dataclass(frozen=True)
class MaxOnes:
    """At most ``m`` of the k databases may contain the contribution."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class PatternSet:
    """Membership is known to match one of finitely many fixed patterns."""

    patterns: frozenset[BitVector]

    def __post_init__(self):
        if not self.patterns:
            raise ValueError("pattern set must be non-empty")
        ks = {p.k for p in self.patterns}
        if len(ks) > 1:
            raise MixedLengthError(f"patterns mix lengths {sorted(ks)}")

    @classmethod
    def of(cls, patterns) -> "PatternSet":
        return cls(frozenset(patterns))

    @property
    def k(self) -> int:
        return next(iter(self.patterns)).k


MembershipConstraint = MaxOnes | PatternSet

# "Exactly one database at most" is the m=1 special case.
AT_MOST_ONE = MaxOnes(1)


class NeighborhoodMode(enum.Enum):
    UNBOUNDED = "unbounded"
    BOUNDED = "bounded"


def allowed_vectors(constraint: MembershipConstraint, k: int) -> set[BitVector]:
    """All membership vectors of length k satisfying the constraint."""
    if k > MAX_K:
        raise KTooLargeError(f"cannot enumerate vectors for k={k} > {MAX_K}")
    if isinstance(constraint, PatternSet):
        if constraint.k != k:
            raise MixedLengthError(f"patterns have k={constraint.k}, expected {k}")
        return set(constraint.patterns)
    m = min(constraint.m, k)
    count = sum(math.comb(k, j) for j in range(m + 1))
    if count > MAX_ENUMERATION:
        raise KTooLargeError(f"constraint admits {count} vectors; enumeration refused")
    subsets = (c for j in range(m + 1) for c in itertools.combinations(range(k), j))
    return {BitVector(word_of(positions, k), k) for positions in subsets}


def _max_over_subsets(
    seq: Sequence[PrivacyParams], size: int, theorem: CompositionTheorem
) -> PrivacyParams:
    """Worst composition over all index subsets of the given size.

    Composes the top-``size`` epsilons with the top-``size`` deltas. Under
    simple composition each sum is the exact maximum of its component over
    subsets; advanced composition sees equal guarantees in every subset.
    """
    if not seq:
        return PrivacyParams(0.0, 0.0)
    if not isinstance(theorem, (Simple, Advanced)):
        raise IncompatibleTheoremError("a max-ones constraint needs the simple or advanced theorem")
    # Advanced composition needs identical guarantees, so any subset of a
    # homogeneous sequence gives the same value; a heterogeneous sequence
    # makes some candidate subset incompatible, even where its top values tie.
    if isinstance(theorem, Advanced) and any(g != seq[0] for g in seq):
        raise IncompatibleTheoremError("the advanced theorem requires a homogeneous sequence")
    top_eps = sorted((g.epsilon for g in seq), reverse=True)[:size]
    top_delta = sorted((g.delta for g in seq), reverse=True)[:size]
    return compose([PrivacyParams(e, d) for e, d in zip(top_eps, top_delta)], theorem)


def _pattern_pairs(patterns: frozenset[BitVector], mode: NeighborhoodMode) -> np.ndarray:
    """The ``uint64`` XOR word of each compared pattern pair."""
    words = np.sort(np.array([p.word for p in patterns], dtype=np.uint64))
    if mode is NeighborhoodMode.BOUNDED:
        first, second = np.triu_indices(len(words), 1)
        return words[first] ^ words[second]
    if words[0] != 0:
        raise IncompatibleModeError("unbounded mode compares presence against absence, which "
                                    "needs the all-absent (zero) vector among the patterns")
    return words[1:]


def _max_over_pairs(
    seq: Sequence[PrivacyParams], differences: np.ndarray, theorem: CompositionTheorem
) -> PrivacyParams:
    _, table = _piece_keys(differences, seq, theorem, len(seq))
    return PrivacyParams(*table.max(axis=0, initial=0.0).tolist())  # no pair leaks nothing


def constrained_bound(
    seq: Sequence[PrivacyParams],
    constraint: MembershipConstraint,
    mode: NeighborhoodMode,
    theorem: CompositionTheorem,
) -> PrivacyParams:
    """Worst-case guarantee over all hypothesis pairs the constraint allows.

    For ``MaxOnes(m)`` the worst pair differs in at most m positions
    (unbounded) or min(2m, k) positions (bounded), so the bound is the
    worst composition over index subsets of that size: the sums of the
    top epsilons and of the top deltas under simple composition, and
    the homogeneous value under advanced composition. Other theorems
    raise ``IncompatibleTheoremError``. For a ``PatternSet`` the
    candidate pairs are the allowed pattern pairs, each pair composes
    over its symmetric-difference positions, and the bound is the
    componentwise maximum over the pairs.
    """
    if isinstance(constraint, MaxOnes):
        size = constraint.m if mode is NeighborhoodMode.UNBOUNDED else 2 * constraint.m
        return _max_over_subsets(seq, size, theorem)
    if constraint.k != len(seq):
        raise MixedLengthError(
            f"patterns have k={constraint.k}, sequence has k={len(seq)}"
        )
    return _max_over_pairs(seq, _pattern_pairs(constraint.patterns, mode), theorem)


def exclusive_groups_bound(
    seq: Sequence[PrivacyParams],
    shared_end: int,
    first_only_end: int,
    total: int,
    mode: NeighborhoodMode,
    theorem: CompositionTheorem = Simple(),
) -> PrivacyParams:
    """Bound for two user groups with shared and mutually exclusive columns.

    Positions [0, shared_end) are populated by both groups, positions
    [shared_end, first_only_end) only by the first group, and positions
    [first_only_end, total) only by the second group. The possible
    membership vectors are therefore the first-group pattern, the
    second-group pattern, and the zero vector. Unbounded mode compares
    the first-group pattern against the other two; bounded mode compares
    all three pairwise. Every pair composes over the exact positions
    where its two patterns differ.
    """
    if not (0 <= shared_end < first_only_end < total == len(seq)):
        raise InvalidBoundariesError(
            f"need 0 <= {shared_end} < {first_only_end} < {total} == len(seq)={len(seq)}"
        )
    if total > MAX_K:
        raise KTooLargeError(f"k must be in [1, {MAX_K}], got {total}")
    first = word_of(range(first_only_end), total)
    second = word_of([*range(shared_end), *range(first_only_end, total)], total)
    differences = [first ^ second, first]
    if mode is NeighborhoodMode.BOUNDED:
        differences.append(second)
    return _max_over_pairs(seq, np.array(differences, dtype=np.uint64), theorem)


def parallel_bound(
    seq: Sequence[PrivacyParams], m: int, mode: NeighborhoodMode
) -> PrivacyParams:
    """What parallel composition gives for the same contribution limit.

    Parallel composition covers pure epsilon-DP only and charges the
    worst per-mechanism epsilon once per position in which neighboring
    merged databases can differ: m positions unbounded, 2m bounded, and
    never more than the k positions there are.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    guarantees = list(seq)
    if any(g.delta != 0.0 for g in guarantees):
        raise NonzeroDeltaError("parallel composition applies to delta=0 mechanisms only")
    count = min(m if mode is NeighborhoodMode.UNBOUNDED else 2 * m, len(guarantees))
    return bounded_params(count * max(g.epsilon for g in guarantees), 0.0)
