"""Guarantees against adversaries holding composite membership hypotheses.

A pair of hypotheses (distributions over bit vectors) is handled in two
steps: refine the pair into a table of equal-weight matched vector
pairs, then compose, for each matched pair, only the iterations where
its two vectors differ; iterations where they agree contribute no
evidence either way. The per-pair guarantees are then aggregated
group-wise.

Pieces compose once per key, through ``composition._piece_keys``.

Aggregation rule, for one direction ``P_X(S) <= e^eps P_Y(S) + delta``.
Matched piece ``i`` has weight ``w_i``, vectors ``x_i`` and ``y_i`` and
per-pair guarantee ``(eps_i, delta_i)``; ``p(v)`` is the total piece
weight of vector ``v`` on its side, so ``P_Y = sum_y p(y) P_y``.

* Bound G, grouped by the Y vector:
  ``eps_G = ln max_y [sum_{y_i=y} w_i e^eps_i / p(y)]`` with
  ``delta_G = sum_i w_i delta_i``. Proof:
  ``P_X(S) <= sum_i w_i (e^eps_i P_{y_i}(S) + delta_i)
  <= e^eps_G P_Y(S) + delta_G``.
* Bound J, grouped by the X vector:
  ``eps_J = -ln min_x [sum_{x_i=x} (w_i / p(x)) e^-eps_i]`` and, at any
  eps, ``delta_J(eps) = sum_x p(x) max_t [t - e^eps sum_{x_i=x}
  (w_i / p(x)) e^-eps_i (t - delta_i)_+]`` with ``t`` in
  ``{0, 1} U {delta_i : x_i = x}``. Proof: ``P_X - e^eps P_Y`` splits
  into one term per X vector (joint convexity of the hockey-stick
  divergence), each piece's guarantee gives
  ``P_{y_i}(S) >= e^-eps_i (P_x(S) - delta_i)_+``, and the resulting
  bound is concave and piecewise linear in ``t = P_x(S)``, so its
  maximum over ``[0, 1]`` sits at a breakpoint or an end.

Each direction takes ``eps_D = min(eps_G, eps_J)``; the reported epsilon
is the larger of 0 and both directions' ``eps_D``, and the reported
delta the larger of the two directions' deltas at that epsilon:
``delta_G`` where the epsilon reaches ``eps_G``, else ``delta_J``.
Both bounds hold for every valid matching, not only the one refinement
chooses. When one side is a point mass the epsilon equals ``ln(sum_i w_i e^eps_i)``,
and no result exceeds ``(max_i eps_i, max_i delta_i)``.
"""

import math
from typing import Iterable, Sequence

import numpy as np

from .composition import CompositionTheorem, _piece_keys, compose_selections
from .core import (
    BitVector,
    Hypothesis,
    PrivacyParams,
    bit_rows,
    bounded_params,
    exact_sum,
)
from .errors import EmptySetError, MixedLengthError
from .refinement import refine_tuples


def differing_indices(b0: BitVector, b1: BitVector) -> tuple[int, ...]:
    """0-based positions where the two vectors disagree, ascending."""
    if b0.k != b1.k:
        raise MixedLengthError(f"vectors have k={b0.k} and k={b1.k}")
    diff = b0.word ^ b1.word
    k = b0.k
    return tuple(i for i in range(k) if (diff >> (k - 1 - i)) & 1)


def pair_guarantee(
    b0: BitVector,
    b1: BitVector,
    seq: Sequence[PrivacyParams],
    theorem: CompositionTheorem,
) -> PrivacyParams:
    """Guarantee for distinguishing two deterministic vectors.

    Only the mechanisms at differing positions are composed; identical
    vectors compose the empty sequence and yield (0, 0).
    """
    if len(seq) != b0.k:
        raise MixedLengthError(f"sequence has {len(seq)} mechanisms, vectors have k={b0.k}")
    if b0.k != b1.k:
        raise MixedLengthError(f"vectors have k={b0.k} and k={b1.k}")
    (eps, delta), = compose_selections(seq, bit_rows([b0.word ^ b1.word], b0.k), theorem).tolist()
    return PrivacyParams(eps, delta)


def _aggregate(pairs: np.ndarray, key: np.ndarray, table: np.ndarray) -> PrivacyParams:
    """Combine matched pieces with the group-wise rule of the module docstring.

    Row i of the ``refinement.PAIR_DTYPE`` table ``pairs`` has the
    guarantee ``table[key[i]]``, a row ``(eps, delta)`` of the
    ``(keys, 2)`` per-key table. ``pairs`` must be non-empty, with positive
    weights (a zero-mass group would divide 0 by 0) and non-decreasing word
    columns, as ``refine_tuples`` and ``uniform_prior_bound`` emit them.
    Exponents are relative to each group's extreme epsilon, so epsilons far
    beyond 700 nats cannot overflow. delta_G is an exactly rounded sum.
    """
    eps, delta = table.T
    side0 = _Groups(pairs["word0"], pairs["weight"], key, eps, delta)
    side1 = _Groups(pairs["word1"], pairs["weight"], key, eps, delta)
    # P0 <= e^eps P1 + delta is bounded by (g1, j0); the reverse by (g0, j1).
    epsilon = max(0.0, min(side1.eps_g, side0.eps_j), min(side0.eps_g, side1.eps_j))
    delta_g = exact_sum(side1.weight * side1.delta)  # an exact sum of the pieces in any order
    return bounded_params(epsilon, max(
        delta_g if epsilon >= side1.eps_g else side0.delta_j(epsilon),
        delta_g if epsilon >= side0.eps_g else side1.delta_j(epsilon),
    ))


class _Groups:
    """Matched pieces grouped by their vector on one side: runs of equal words.

    Piece i reads its ``eps`` and ``delta`` at index ``key[i]`` of the
    per-key columns. The words are non-decreasing, so each vector is one
    run; runs not ascending by delta are sorted so, ties in row order, and
    ``delta_j`` walks each run by ascending delta. The sort is one stable
    integer argsort of ``run * len(delta) + rank``: ``run`` numbers the
    runs, and ``rank`` is the position of the piece's key delta among the
    sorted key deltas, equal for equal deltas. The result is the
    permutation ``np.lexsort((delta, words))`` gives, without its float
    sort of every piece ahead of the word sort.
    ``eps_g`` is the largest ``ln(sum w e^eps / p)`` over the groups and
    ``eps_j`` the largest ``-ln(sum w e^-eps / p)``.
    """

    def __init__(self, words, weight, key, eps, delta):
        self.weight, self.eps, self.delta = weight, eps[key], delta[key]
        new = np.concatenate(([True], words[1:] != words[:-1], [True]))  # run starts, then the end
        if ((self.delta[1:] < self.delta[:-1]) & ~new[1:-1]).any():
            sort_key = new[:-1].astype(np.intp).cumsum()  # run number, then the rank of the key's delta
            sort_key *= len(delta)
            sort_key += np.sort(delta).searchsorted(delta)[key]
            order = sort_key.argsort(kind="stable")  # within runs, so each run stays in place
            self.weight, self.eps, self.delta = (a[order] for a in (self.weight, self.eps, self.delta))
        edges = new.nonzero()[0]
        self.starts, self.sizes = edges[:-1], edges[1:] - edges[:-1]
        self.mass = np.add.reduceat(self.weight, self.starts)
        hi = np.maximum.reduceat(self.eps, self.starts)
        lo = np.minimum.reduceat(self.eps, self.starts)
        rel_hi = np.exp(self.eps - hi.repeat(self.sizes))
        rel_lo = np.exp(lo.repeat(self.sizes) - self.eps)
        up = np.add.reduceat(self.weight * rel_hi, self.starts) / self.mass
        down = np.add.reduceat(self.weight * rel_lo, self.starts) / self.mass
        self.eps_g = max(0.0, float((hi + np.log(up)).max()))
        self.eps_j = max(0.0, float((lo - np.log(down)).max()))

    def delta_j(self, eps: float) -> float:
        """delta_J(eps) for the direction whose source side is this one.

        Valid for eps >= eps_J, where a group without a positive delta
        adds nothing. Each group's bound is evaluated at its deltas and
        at t = 1. Capping ``a_i = (w_i / p) e^(eps - eps_i)`` at 1 leaves
        the maximum unchanged, since past the first breakpoint where
        ``sum a_i`` reaches 1 the bound only falls, and it keeps the sums
        finite. Groups of equal size m form one ``(m, groups)`` block;
        prefix sums and maxima run down its columns, one group each.
        """
        mass = self.mass.repeat(self.sizes)
        a = np.minimum(1.0, self.weight / mass * np.exp(np.minimum(eps - self.eps, 700.0)))
        best = np.zeros(len(self.starts))
        for m in np.bincount(self.sizes).nonzero()[0]:  # each group size present
            rows = (self.sizes == m).nonzero()[0]
            idx = self.starts[rows] + np.arange(m)[:, None]
            d, ad = self.delta[idx], a[idx]
            sa, sad = np.add.accumulate(ad), np.add.accumulate(ad * d)
            # At breakpoint t = d_j only the pieces sorted before j count.
            at_breaks = np.maximum.reduce(d * (1.0 - (sa - ad)) + (sad - ad * d))
            at_one = 1.0 - sa[-1] + sad[-1]
            group_best = np.maximum(0.0, np.maximum(at_breaks, at_one))
            best[rows] = np.where(d[-1] > 0.0, group_best, 0.0)
        return float((self.mass * best).sum())


def hdp_guarantee(
    p0: Hypothesis,
    p1: Hypothesis,
    seq: Sequence[PrivacyParams],
    theorem: CompositionTheorem,
) -> PrivacyParams:
    """Guarantee for distinguishing two composite hypotheses.

    Refines the pair into matched equal-weight vector pairs, composes
    each pair's differing iterations, and aggregates the per-pair
    guarantees group-wise. Per direction, epsilon is the smaller of
    ``eps_G = ln max_y [sum_{y_i=y} w_i e^eps_i / p(y)]``, grouped by
    the target vector, and ``eps_J = -ln min_x [sum_{x_i=x} w_i
    e^-eps_i / p(x)]``, grouped by the source vector; the reported
    epsilon is the larger direction's. Delta is ``sum_i w_i delta_i``
    where that epsilon reaches a direction's ``eps_G``, else that
    direction's ``delta_J``. The module docstring gives ``delta_J`` and
    the proofs. Aggregation never sees unmatched weights: refinement
    always runs first.
    """
    k = p0.k
    if len(seq) != k:
        raise MixedLengthError(f"sequence has {len(seq)} mechanisms, hypotheses have k={k}")
    pairs = refine_tuples(p0, p1).pairs
    return _aggregate(pairs, *_piece_keys(pairs["word0"] ^ pairs["word1"], seq, theorem, k))


def componentwise_max(guarantees: Sequence[PrivacyParams]) -> PrivacyParams:
    """The largest epsilon with the largest delta: one claim covering every guarantee."""
    return PrivacyParams(max(g.epsilon for g in guarantees), max(g.delta for g in guarantees))


def hdp_guarantee_over_set(
    pairs: Iterable[tuple[Hypothesis, Hypothesis]],
    seq: Sequence[PrivacyParams],
    theorem: CompositionTheorem,
) -> PrivacyParams:
    """Componentwise maximum of the pair guarantees over a set of pairs."""
    pairs = list(pairs)
    if not pairs:
        raise EmptySetError("need at least one hypothesis pair")
    return componentwise_max([hdp_guarantee(p0, p1, seq, theorem) for p0, p1 in pairs])


def uniform_nonzero_closed_form(eps: float, delta: float, k: int) -> PrivacyParams:
    """Closed form for the all-absent vs uniform-nonzero hypothesis pair.

    For k mechanisms each (eps, delta)-DP, composed per pair with simple
    composition, the aggregation collapses to

        epsilon = ln[((1 + e^eps)^k - 1) / (2^k - 1)]
        delta   = k 2^(k-1) / (2^k - 1) * delta

    The epsilon part is evaluated in log space so large k cannot
    overflow; it is non-negative, so its rounding dust below 0 (to about
    -1.8e-15 at eps = 0) is taken as 0. The delta part costs O(1) at any k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    log_num = _log_expm1(k * _softplus(eps))
    # 2^k - 1 is exact in a double up to k = 50.
    log_den = math.log((1 << k) - 1) if k <= 50 else _log_expm1(k * math.log(2.0))
    # 2^(k-1) / (2^k - 1) correctly rounded: the denominator is exact to k = 53, then rounds to 2.
    delta_out = k * (1.0 / (2.0 - 2.0 ** (1 - k))) * delta
    return bounded_params(max(0.0, log_num - log_den), delta_out)


def _softplus(x: float) -> float:
    """ln(1 + e^x), overflow-safe."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _log_expm1(a: float) -> float:
    """ln(e^a - 1) for a > 0, overflow-safe: a + ln(1 - e^-a)."""
    return a + math.log(-math.expm1(-a))
