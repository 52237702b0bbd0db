"""Guarantees against adversaries holding composite membership hypotheses.

A pair of hypotheses (distributions over bit vectors) is handled in two
steps: refine the pair into a table of equal-weight matched vector
pairs, then compose, for each matched pair, only the iterations where
its two vectors differ; iterations where they agree contribute no
evidence either way. The per-pair guarantees are then aggregated
group-wise.

Refinement splits atoms until each piece on side 0 is matched with an
equal-weight piece on side 1; each piece is one row ``(weight, word0,
word1)`` of a ``PAIR_DTYPE`` table. Both sides consume their
lexicographically smallest remaining vector first, which makes results
reproducible and gives the side-swap symmetry the tests exploit; any
other order gives a different, equally valid matching. The walk is one
signed running sum x of the atoms, side 1's added and side 0's
subtracted, side 0's next atom entering while x > 0: |x| is the residual
the step-by-step walk keeps, bit for bit, since IEEE subtraction is
sign-symmetric. Its one record is its signed entries. One loop orders
them: while few atoms are left, one at a time by the sign of x, else in a
window, where cumulative sums of the two sides predict which side each
atom enters from. One pass turns either's entries into pieces: one
``np.cumsum`` adds them left to right, as the running sum does, the
entries up to the first whose side disagrees with the sign of x before
it are kept (a window's wrong prediction, past which the walk orders a
window's atoms one at a time), and each weighs min(|entry|, |x| before
it). The prediction orders the entries but makes no weight, so the table
is the step-by-step walk's, per-atom mass and end included.

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

Exchangeable pairs refine by class: a vector's class is its count of
ones m_g in each group g of positions sharing one guarantee. Where both
sides weigh all vectors of a class alike, with one group or one side a
single class, the class laws are coupled; piece ``(c0, c1)`` is ``U_c0``
against ``U_c1``, the outputs averaged over each class. Pairing x in c0
with a uniform superset or subset y in c1, group by group, keeps both
marginals uniform and x, y ``|m1_g - m0_g|`` positions apart per group, so
joint convexity (Balle, Barthe and Gaboardi 2018) gives the piece their
composition; as ``P_X = sum_c P_X(c) U_c``, the G/J proofs hold for classes.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .composition import (
    CompositionTheorem,
    _compose_words,
    _guarantee_masks,
    _pack_counts,
    _piece_keys,
)
from .core import (
    BitVector,
    Hypothesis,
    PrivacyParams,
    _distinct,
    _fixed_point,
    bounded_params,
    exact_sum,
)
from .errors import EmptySetError, MixedLengthError

# One matched piece: its weight and the word of its vector on each side.
PAIR_DTYPE = np.dtype([("weight", "f8"), ("word0", "u8"), ("word1", "u8")])


@dataclass(frozen=True, eq=False)
class MatchedRefinement:
    """Equal-weight matched pieces of two refined distributions.

    ``pairs`` is a ``PAIR_DTYPE`` array, one row per piece, so
    ``len(pairs)`` is the piece count. Every weight is positive. Each
    side's pieces sum back to its input distribution only approximately,
    in two ways. Per atom, the sum holds up to the rounding of the
    residual subtractions: at most 1.6 ulps of an atom, 4e-17 over all
    atoms, on a seeded 12,000 x 9,000-atom Dirichlet pair. And when the
    two totals differ, the walk stops once one side runs out, so their
    gap stays unmatched: 5.6e-15 on that pair. ``Hypothesis`` rescales
    totals off 1 by more than min(n 2^-53, 2^-43) for n atoms, so the gap
    is at most about 2^-42 (2.3e-13), below ``oracle.SOUNDNESS_SLACK`` at any n.
    """

    k: int
    pairs: np.ndarray


def refine_tuples(p0: Hypothesis, p1: Hypothesis) -> MatchedRefinement:
    """Refine two hypotheses into equal-weight matched pairs.

    Both sides are walked in lexicographic vector order; at each step the
    smaller of the two front weights is emitted as a matched pair and
    subtracted from the larger side. A side advances only when its front
    atom is used up, so every residual, however small, becomes a piece,
    and weights are compared only with each other. The pair count is at
    most ``len(p0) + len(p1) - 1``; a point mass is one side like any
    other.

    The same walk is one signed running sum x of the atoms, each entering
    it once: side 1's weight is added and side 0's subtracted, side 0's
    next atom enters while x > 0 and side 1's otherwise. An entry's piece
    weighs min(|entry|, |x| before it), and pairs the atoms last entered
    on each side; side 1 entering x = 0 makes none. IEEE subtraction is
    sign-symmetric, so |x| is exactly the residual the step-by-step walk
    keeps. The walk records only its entries, ``[x, +-w, ...]`` from a
    state of atoms entered per side and x, and one loop orders them.
    While at most ``_SCALAR_ATOMS`` atoms are left, ``_order`` takes the
    rest one at a time by the sign of x. Otherwise the loop takes a
    window: merging the two sides' cumulative sums predicts which side
    each atom enters from. Both hand their entries to ``_pieces``, whose
    one ``np.cumsum``, adding left to right, gives x before every entry;
    it keeps the entries up to the first whose side disagrees with the
    sign of x before it, writes their pieces and returns the next state.
    After a window's wrong prediction ``_order`` takes, as Python floats,
    up to ``_WINDOW`` atoms a side. The cumulative sums order the entries
    but never make a weight, so the table is the step-by-step walk's bit for bit.
    """
    if p0.k != p1.k:
        raise MixedLengthError(f"hypotheses have k={p0.k} and k={p1.k}")
    weights0, weights1, words0, words1 = p0.weights, p1.weights, p0.words, p1.words
    n0, n1 = len(weights0), len(weights1)
    pairs = np.empty(n0 + n1 - 1, dtype=PAIR_DTYPE)
    n = i0 = i1 = 0  # pieces written, atoms entered per side
    x = 0.0
    # The walk ends where a side it needs is out: side 0 while x > 0, side 1
    # while x < 0, and either at x = 0, as side 1 enters there without a piece.
    while (i0 < n0 or x < 0.0) and (i1 < n1 or x > 0.0):
        if n0 - i0 + n1 - i1 > _SCALAR_ATOMS:
            a, b = weights0[i0:i0 + _WINDOW], weights1[i1:i1 + _WINDOW]
            # Predicted order: side 0's atom j enters before side 1's atom i iff
            # its start, the sum of the atoms before it, is below x plus side 1's.
            # A stable sort of side 1's starts, then side 0's, merges the two
            # runs, side 1 first on a tie, so the first entry is always the walk's.
            starts = np.empty(len(b) + len(a))
            for part, first, w in ((starts[:len(b)], x, b), (starts[len(b):], 0.0, a)):
                part[:1], part[1:] = first, w[:-1]
                part.cumsum(out=part)
            order = starts.argsort(kind="stable")  # index i < len(b): side 1's atom i
            entries = starts  # reused for each atom's entry: + for side 1, - for side 0
            entries[:len(b)] = b
            np.negative(a, out=entries[len(b):])
            signed = np.empty(len(order) + 1)  # x, then the entries in the predicted order
            signed[0] = x
            entries.take(order, out=signed[1:])
            del starts, entries, order
            start0, start1 = i0, i1
            n, i0, i1, x = _pieces(pairs, n, i0, i1, signed, words0, words1)
            if i0 - start0 == len(a) if x > 0.0 else i1 - start1 == len(b):  # the window's end
                continue
        # The rest of the walk, or past a wrong prediction a window's atoms, one at a time.
        n, i0, i1, x = _pieces(pairs, n, i0, i1, _order(weights0, weights1, i0, i1, x), words0, words1)
    return MatchedRefinement(p0.k, pairs[:n])


# While at most this many atoms are left, the walk orders its entries one at a
# time: below it the fixed cost of a numpy window exceeds the work it saves. On
# random mixtures, measured cold with a walk that stepped piece by piece, the
# steps were faster up to 384 atoms and the windows from 512 on (2-core Xeon).
_SCALAR_ATOMS = 512
# Atoms per side in a window, and in one call of the scalar order (``_order``):
# a failed window's numpy work is followed by about as many scalar steps, so a walk
# whose predictions keep failing stays within about 1.2x of the scalar order.
_WINDOW = 1 << 13


def _order(weights0, weights1, i0, i1, x):
    """The walk's entries from state ``(i0, i1, x)``, one at a time: ``[x, +-w, ...]``.

    ``i0`` and ``i1`` count the atoms that have entered x on each side. Side
    0's next atom enters, negated, while x > 0, and side 1's otherwise; at
    most ``_WINDOW`` further atoms of each side enter, so only those become
    Python floats. The walk must not have ended. Words are already sorted, so
    walking each side in order is the smallest-first consumption order.
    """
    it0, it1 = iter(weights0[i0:i0 + _WINDOW].tolist()), iter(weights1[i1:i1 + _WINDOW].tolist())
    signed = [x]
    try:
        while True:
            w = -next(it0) if x > 0.0 else next(it1)
            x += w
            signed.append(w)
    except StopIteration:  # a side ran out: of atoms, or of this call's window
        return signed


def _pieces(pairs, n, i0, i1, signed, words0, words1):
    """Write the pieces of the walk's entries into ``pairs`` from row n; the next ``(n, i0, i1, x)``.

    ``signed`` is x at state ``(i0, i1, x)``, then one or more entries, each
    its atom's weight, + for side 1 and - for side 0, the first of them the
    walk's. The running sum adds them left to right, and the entries up to
    the first whose side is not the one x asks for are the walk's. An entry's
    piece weighs min(|entry|, |x| before it) and pairs the atoms last
    entered on each side; an entry at x = 0, always side 1's, makes none.
    """
    signed = np.asarray(signed)
    xs = signed.cumsum()  # x before each entry, then after the last
    side1 = signed[1:] > 0.0
    # Entries up to the first whose side is not the one x before it asks for:
    # side 0's while x > 0, side 1's otherwise. The first is the walk's.
    f = int(((xs[:-1] > 0.0) == side1).argmax()) or len(side1)
    entries, before = signed[1:f + 1], xs[:f]
    atom1 = np.add.accumulate(side1[:f].astype(np.intp))  # side 1's entries so far
    m1 = int(atom1[-1])
    atom1 += i1 - 1
    atom0 = np.arange(i0 + i1 - 1, i0 + i1 - 1 + f)  # entries so far, less side 1's
    atom0 -= atom1
    weight = np.abs(entries)
    np.minimum(weight, np.abs(before), out=weight)
    if np.count_nonzero(before) < f:  # side 1 entered x = 0
        piece = before != 0.0
        weight, atom0, atom1 = weight[piece], atom0[piece], atom1[piece]
    rows = pairs[n:n + len(weight)]
    rows["weight"] = weight
    rows["word0"] = words0[atom0]
    rows["word1"] = words1[atom1]
    return n + len(rows), i0 + f - m1, i1 + m1, float(xs[f])


# Not exported from the package: only the benchmark harness under perfbench/ still wraps it.
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
    word = np.array([b0.word ^ b1.word], dtype=np.uint64)
    (eps, delta), = _compose_words(list(seq), word, theorem).tolist()
    return PrivacyParams(eps, delta)


def _aggregate(pairs: np.ndarray, key: np.ndarray, table: np.ndarray) -> PrivacyParams:
    """Combine matched pieces with the group-wise rule of the module docstring.

    Row i of the ``PAIR_DTYPE`` table ``pairs`` has the
    guarantee ``table[key[i]]``, a row ``(eps, delta)`` of the
    ``(keys, 2)`` per-key table. ``pairs`` must be non-empty, with positive
    weights (a zero-mass group would divide 0 by 0) and non-decreasing word
    columns, as ``refine_tuples`` and ``uniform_prior_bound`` emit them.
    Exponents are relative to each group's extreme epsilon, so epsilons far
    beyond 700 nats cannot overflow. delta_G is an exactly rounded sum, taken
    over the pieces in row order. One side is reduced at a time, both
    through one reused full-length buffer.
    """
    weight, buffer = pairs["weight"], np.empty(len(pairs))
    eps = table[:, 0].take(key)
    ranks = cache(lambda: _distinct(table[:, 1])[1])  # the key deltas' ranks, if a side sorts
    side0, side1 = (_Groups(pairs[column], weight, eps, key, table, ranks, buffer)
                    for column in ("word0", "word1"))
    del eps, ranks
    # P0 <= e^eps P1 + delta is bounded by (g1, j0); the reverse by (g0, j1).
    epsilon = max(0.0, min(side1.eps_g, side0.eps_j), min(side0.eps_g, side1.eps_j))
    delta_g = None  # taken only where a direction's epsilon reaches its eps_G
    if epsilon >= min(side0.eps_g, side1.eps_g):
        delta_g = exact_sum(np.multiply(weight, table[:, 1].take(key, out=buffer), out=buffer))
    del buffer  # delta_j gathers its own side's arrays
    return bounded_params(epsilon, max(
        delta_g if epsilon >= side1.eps_g else side0.delta_j(epsilon),
        delta_g if epsilon >= side0.eps_g else side1.delta_j(epsilon),
    ))


class _Groups:
    """Matched pieces grouped by their vector on one side: runs of equal words.

    Piece i has the weight at index i and the guarantee ``table[key[i]]``,
    whose epsilon ``eps`` holds at index i while the side is built. The
    words are non-decreasing, so each vector is one run, numbered in order
    by ``run``; where runs are not ascending by delta,
    ``order`` sorts them so, ties in row order, and ``delta_j`` walks each
    run by ascending delta. The sort is one stable integer argsort of
    ``run * keys + rank``, ``rank`` being the position of the piece's key
    delta among the distinct key deltas, ascending (``ranks()``), so equal for
    equal deltas. The result is the permutation ``np.lexsort((delta, words))``
    gives, without its float sort of every piece ahead of the word sort. A
    side of one group, a point mass's, has no ``run``: its extremes broadcast.
    A side keeps its group ``starts``, ``sizes``, ``mass`` and ``order``
    (None when the rows are in order), never a permuted copy of the pieces;
    the deltas it checks and the epsilons it sorts go through the caller's ``buffer``.
    ``eps_g`` is the largest ``ln(sum w e^eps / p)`` over the groups and
    ``eps_j`` the largest ``-ln(sum w e^-eps / p)``. Sums run in sorted
    order through ``np.add.reduceat``, whose rounding the pinned results
    hold; group extremes, where order cannot matter, through one
    ``np.maximum.at`` and one ``np.minimum.at`` pass. A side whose
    pieces are all alone in their groups has ``eps_g = eps_j = max eps``,
    as those sums give it: each group's mass is its piece's weight and
    each relative exponent 0.
    """

    def __init__(self, words, weight, eps, key, table, ranks, buffer):
        self.weight, self.key, self.table = weight, key, table
        self.order = None
        new = np.empty(len(words) + 1, dtype=bool)  # run starts, then the end
        new[0] = new[-1] = True
        np.not_equal(words[1:], words[:-1], out=new[1:-1])
        edges = new.nonzero()[0]
        self.starts, self.sizes = edges[:-1], edges[1:] - edges[:-1]
        groups = len(self.starts)
        if groups == len(weight):
            self.mass = weight
            self.eps_g = self.eps_j = max(0.0, float(eps.max()))
            return
        one = groups == 1
        run = None if one else np.arange(groups).repeat(self.sizes)
        delta = table[:, 1].take(key, out=buffer)
        if ((delta[1:] < delta[:-1]) & ~new[1:-1]).any():
            sort_key = ranks().take(key)
            if not one:
                sort_key += run * len(table)
            self.order = sort_key.argsort(kind="stable")  # within runs, so each run stays in place
            del sort_key
            weight, eps = weight.take(self.order), eps.take(self.order, out=buffer)
        self.mass = np.add.reduceat(weight, self.starts)
        if one:
            hi, lo = eps.max(keepdims=True), eps.min(keepdims=True)
            rel = np.subtract(eps, hi)  # e^(eps - hi) w, then e^(lo - eps) w
        else:
            hi, lo = eps[self.starts], eps[self.starts]  # each group's first, then the rest
            np.maximum.at(hi, run, eps)
            np.minimum.at(lo, run, eps)
            rel = hi.take(run)
            np.subtract(eps, rel, out=rel)
        np.exp(rel, out=rel)
        up = np.add.reduceat(np.multiply(weight, rel, out=rel), self.starts) / self.mass
        np.subtract(lo if one else lo.take(run, out=rel), eps, out=rel)
        np.exp(rel, out=rel)
        down = np.add.reduceat(np.multiply(weight, rel, out=rel), self.starts) / self.mass
        self.eps_g = max(0.0, float((hi + np.log(up)).max()))
        self.eps_j = max(0.0, float((lo - np.log(down)).max()))

    def delta_j(self, eps: float) -> float:
        """delta_J(eps) for the direction whose source side is this one.

        Valid for eps >= eps_J, where a group without a positive delta
        adds nothing. Each group's bound is evaluated at its deltas and
        at t = 1. Capping ``a_i = (w_i / p) e^(eps - eps_i)`` at 1 leaves
        the maximum unchanged, since past the first breakpoint where
        ``sum a_i`` reaches 1 the bound only falls, and it keeps the sums
        finite. ``a`` and the deltas are gathered in this side's order;
        groups of equal size m form one ``(m, groups)`` block, and prefix
        sums and maxima run down its columns, one group each. A side of one
        group, or of single pieces, is one block: a reshape, not a copy.
        """
        order = self.order
        key = self.key if order is None else self.key.take(order)
        d, a = self.table[:, 1].take(key), self.table[:, 0].take(key)
        del key
        np.exp(np.minimum(np.subtract(eps, a, out=a), 700.0, out=a), out=a)
        weight = self.weight if order is None else self.weight.take(order)
        mass = self.mass.repeat(self.sizes)
        np.minimum(np.multiply(np.divide(weight, mass, out=mass), a, out=a), 1.0, out=a)
        del weight, mass
        groups = len(self.starts)
        block = groups in (1, len(d))  # one group, or all alone
        best = np.zeros(groups)
        for m in [len(d) // groups] if block else np.bincount(self.sizes).nonzero()[0]:
            if block:
                rows, db, ab = slice(None), d.reshape(m, -1), a.reshape(m, -1)
            else:
                rows = (self.sizes == m).nonzero()[0]
                idx = self.starts[rows] + np.arange(m)[:, None]
                db, ab = d[idx], a[idx]
            ad = ab * db
            sa, sad = np.add.accumulate(ab), np.add.accumulate(ad)
            at_one = 1.0 - sa[-1] + sad[-1]
            # At breakpoint t = d_j only the pieces sorted before j count.
            breaks = np.multiply(db, np.subtract(1.0, np.subtract(sa, ab, out=sa), out=sa), out=sa)
            breaks += np.subtract(sad, ad, out=sad)
            group_best = np.maximum(0.0, np.maximum(np.maximum.reduce(breaks), at_one))
            best[rows] = np.where(db[-1] > 0.0, group_best, 0.0)
        return float((self.mass * best).sum())


def hdp_guarantee(
    p0: Hypothesis,
    p1: Hypothesis,
    seq: Sequence[PrivacyParams],
    theorem: CompositionTheorem,
) -> PrivacyParams:
    """Guarantee for distinguishing two composite hypotheses.

    Refines the pair into matched equal-weight vector pairs, or class
    pairs where both sides are exchangeable, composes each pair's
    differing iterations, and aggregates the per-pair guarantees
    group-wise. Per direction, epsilon is the smaller of
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
    if p1.k != k:
        raise MixedLengthError(f"hypotheses have k={k} and k={p1.k}")
    masks = _guarantee_masks(seq, k)
    pairs, xor_words = _class_refinement(p0, p1, masks) or (None, None)
    if pairs is None:
        pairs = refine_tuples(p0, p1).pairs
        xor_words = pairs["word0"] ^ pairs["word1"]
    key, table = _piece_keys(xor_words, seq, theorem, k, masks)
    del xor_words  # not held through the aggregation
    return _aggregate(pairs, key, table)


def _class_refinement(p0: Hypothesis, p1: Hypothesis, masks: list[int]) -> tuple | None:
    """``(pairs, xor_words)`` refined by class (module docstring), or None for the flat walk.

    Words are packed class ids. The pair needs each side's classes complete
    at one weight, a class with two atoms and at most ``len(p0) + len(p1)``
    classes. A uniform preset declares its law (``Hypothesis._first``): every
    class at ``1.0 / len``, but for class 0, the zero vector alone, when it
    starts at word 1. Other hypotheses take an O(atoms) check. Exact class
    masses couple as ``refine_tuples`` couples atoms.
    """
    radices = tuple(mask.bit_count() + 1 for mask in masks)
    if len(masks) == p0.k or math.prod(radices) > len(p0) + len(p1):
        return None
    sizes = _class_sizes(radices)
    laws = []
    for p in (p0, p1):
        if p._first is not None:
            present = np.arange(p._first, len(sizes))
            laws.append((present, [1.0 / len(p)] * len(present), sizes[p._first:].tolist()))
            continue
        if len(p) == 1:  # a point mass: its word's class, which must hold that vector alone
            c, word = 0, int(p.words[0])
            for mask, r in zip(masks, radices):
                c = c * r + (word & mask).bit_count()
            if sizes[c] != 1:
                return None
            laws.append((np.array([c]), p.weights.tolist(), [1]))
            continue
        ids = _pack_counts(p.words, masks).astype(np.intp)
        count = np.bincount(ids, minlength=len(sizes))
        present = count.nonzero()[0]
        class_weight = np.zeros(len(sizes))
        class_weight[ids] = p.weights  # one atom's weight per class: all are equal if any is
        if (count[present] != sizes[present]).any() or (class_weight[ids] != p.weights).any():
            return None
        laws.append((present, class_weight[present].tolist(), sizes[present].tolist()))
    (ids0, w0, n0), (ids1, w1, n1) = laws
    if (len(ids0) + len(ids1) == len(p0) + len(p1)  # no class holds two atoms
            or len(masks) > 1 and min(len(ids0), len(ids1)) > 1):  # may be looser than flat
        return None
    ints, scale = _fixed_point(w0 + w1)
    cum0 = list(accumulate(w * n for w, n in zip(ints, n0)))
    cum1 = list(accumulate(w * n for w, n in zip(ints[len(w0):], n1)))
    # The walk's pieces end at each side's cumulative masses, up to the smaller total.
    ends = sorted({e for e in (*cum0, *cum1) if e <= min(cum0[-1], cum1[-1])})
    pairs = np.empty(len(ends), dtype=PAIR_DTYPE)
    pairs["weight"] = [(b - a) / scale for a, b in zip([0, *ends], ends)]
    c0 = ids0[[bisect_left(cum0, e) for e in ends]]
    c1 = ids1[[bisect_left(cum1, e) for e in ends]]
    pairs["word0"], pairs["word1"] = c0, c1
    # Per group, the lowest |m1 - m0| bits of its mask; the last mask is the lowest digit.
    xor_words = np.uint64(0)
    for mask, r in zip(masks[::-1], radices[::-1]):
        bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
        (c0, m0), (c1, m1) = np.divmod(c0, r), np.divmod(c1, r)
        lowest = np.array(list(accumulate(bits, initial=0)), dtype=np.uint64)
        xor_words = xor_words | lowest[np.abs(m0 - m1)]
    return pairs, xor_words


@lru_cache(maxsize=64)
def _class_sizes(radices: tuple[int, ...]) -> np.ndarray:
    """Class sizes prod_g C(n_g, m_g) by class id, each below 2^k; read-only, built once per radices.

    ``_class_refinement`` asks only for ``prod(radices)`` at most the two sides' atoms.
    """
    sizes = math.prod(np.ix_(*[[math.comb(r - 1, m) for m in range(r)] for r in radices])).ravel()
    sizes.flags.writeable = False
    return sizes


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
    PrivacyParams(eps, delta)  # rejects an invalid pair
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    log_num = _log_expm1(k * _softplus(eps))
    # 2^k - 1 is exact in a double up to k = 50.
    log_den = math.log((1 << k) - 1) if k <= 50 else _log_expm1(k * math.log(2.0))
    # 2^(k-1) / (2^k - 1) correctly rounded: the denominator is exact to k = 53, then rounds to 2.
    delta_out = k * (1.0 / (2.0 - 2.0 ** (1 - k))) * delta
    return bounded_params(max(0.0, log_num - log_den), delta_out)


def _softplus(x: float) -> float:
    """ln(1 + e^x) for x >= 0, overflow-safe."""
    return x + math.log1p(math.exp(-x))


def _log_expm1(a: float) -> float:
    """ln(e^a - 1) for a > 0, overflow-safe: a + ln(1 - e^-a)."""
    return a + math.log(-math.expm1(-a))
