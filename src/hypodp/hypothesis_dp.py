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
sign-symmetric. One loop takes the walk: while few atoms are left it
steps to the end, else it takes x in a window, where cumulative sums of
the two sides predict which side each atom enters from, one
``np.cumsum`` adds the entries left to right as the steps do, and
entries are kept up to the first whose side disagrees with the sign of x
before it, where the walk steps for a burst. The prediction orders the
entries but makes no weight, so the table is the step-by-step walk's,
per-atom mass and end included.

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
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .composition import (
    CompositionTheorem,
    _guarantee_masks,
    _pack_counts,
    _piece_keys,
    compose_selections,
)
from .core import (
    BitVector,
    Hypothesis,
    PrivacyParams,
    _fixed_point,
    bit_rows,
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
    two totals differ, the walk stops once one side runs out, so up to
    their gap (at most 2e-9 under ``NORMALIZATION_TOLERANCE``; 5.6e-15 on
    that pair) stays unmatched.
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
    weighs min(entering atom, |x| before it), and pairs the atoms last
    entered on each side; side 1 entering x = 0 makes none. IEEE
    subtraction is sign-symmetric, so |x| is exactly the residual the
    step-by-step walk keeps. The walk is one loop over its state: atoms
    entered per side and x. While at most ``_SCALAR_ATOMS`` atoms are
    left, it steps to its end one piece at a time. Otherwise it takes x in
    a window: merging the two sides' cumulative sums predicts which side
    each atom enters from, one ``np.cumsum`` adding left to right gives x
    before every entry, and the entries up to the first whose side
    disagrees with the sign of x before it are the walk's own; after such
    a wrong prediction it steps for a burst. The cumulative sums order the
    entries but never make a weight, so the table is the step-by-step
    walk's bit for bit.
    """
    if p0.k != p1.k:
        raise MixedLengthError(f"hypotheses have k={p0.k} and k={p1.k}")
    weights0, weights1, words0, words1 = p0.weights, p1.weights, p0.words, p1.words
    n0, n1 = len(weights0), len(weights1)
    pairs = np.empty(n0 + n1 - 1, dtype=PAIR_DTYPE)
    lists = None  # the float lists the steps read, built on first use
    n = i0 = i1 = 0  # pieces written, atoms entered per side
    x = 0.0
    window, burst = _WINDOW, _BURST
    # The walk ends where a side it needs is out: side 0 while x > 0, side 1
    # while x < 0, and either at x = 0, as side 1 enters there without a piece.
    while (i0 < n0 or x < 0.0) and (i1 < n1 or x > 0.0):
        if n0 - i0 + n1 - i1 <= _SCALAR_ATOMS:
            count = _SCALAR_ATOMS  # the rest of the walk
        else:
            a, b = weights0[i0:i0 + window], weights1[i1:i1 + window]
            # Predicted order: side 0's atom j enters before side 1's atom i iff
            # its start, the sum of the atoms before it, is below x plus side 1's.
            # A stable sort of side 1's starts, then side 0's, merges the two
            # runs, side 1 first on a tie.
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
            xs = signed.cumsum()
            from1 = order < len(b)
            wrong = (xs[:-1] > 0.0) == from1  # the entry's side is not the one x asks for
            f = int(wrong.argmax()) if wrong.any() else len(order)
            # An entry's piece pairs the atoms last entered on each side.
            atom1 = from1[:f].cumsum(dtype=np.intp)  # side 1's entries so far
            m1 = int(atom1[-1]) if f else 0
            atom0 = np.arange(i0, i0 + f)
            atom0 -= atom1
            atom1 += i1 - 1
            weight = np.abs(signed[1:f + 1])
            np.minimum(weight, np.abs(xs[:f]), out=weight)
            piece = xs[:f] != 0.0  # no piece where side 1 entered x = 0
            if not piece.all():
                weight, atom0, atom1 = weight[piece], atom0[piece], atom1[piece]
            n = _fill(pairs, n, weight, atom0, atom1, words0, words1)
            i0, i1, x = i0 + f - m1, i1 + m1, float(xs[f])
            if f - m1 == len(a) if x > 0.0 else m1 == len(b):  # the window's end
                window = min(4 * window, _WINDOW)
                continue
            # A wrong prediction: step past it, for longer if it came soon after the last.
            burst = _BURST if f >= burst else 2 * burst
            count = window = burst  # a window that fails again costs about as much as the steps
        if lists is None:
            lists = weights0.tolist(), weights1.tolist()
        weight, codes = [], bytearray()
        x_next = _steps(*lists, i0, i1, x, count, weight, codes)
        # Piece n sits where the first n codes advanced each side to.
        steps = np.frombuffer(codes, dtype=np.uint8)[:-1]
        atom0 = np.cumsum(np.concatenate(([i0 - (x < 0.0)], steps & 1)))
        atom1 = np.cumsum(np.concatenate(([i1 - (x > 0.0)], steps >> 1)))
        n = _fill(pairs, n, weight, atom0, atom1, words0, words1)
        i0, i1, x = int(atom0[-1]) + 1, int(atom1[-1]) + 1, x_next
    return MatchedRefinement(p0.k, pairs[:n])


# While at most this many atoms are left, the walk steps one piece at a time:
# below it the fixed cost of a numpy window exceeds the steps it saves. On
# random mixtures the steps were faster up to 384 atoms and the windows from
# 512 on (2-core Xeon, cold).
_SCALAR_ATOMS = 512
# Atoms per side in a window, at most: this bounds its temporaries.
_WINDOW = 1 << 16
# Atoms per side of the first steps after a wrong prediction; doubled while
# predictions keep failing soon after.
_BURST = 64


def _steps(list0, list1, i0, i1, x, count, weight, codes):
    """The walk one piece at a time from state ``(i0, i1, x)``; x after its last piece.

    ``i0`` and ``i1`` count the atoms that have entered x on each side; the
    side x points at holds its last atom's residual |x|. The walk must not
    have ended. At most ``count`` further atoms of each side enter. Pieces
    go to ``weight`` and their codes to ``codes``: 1 where side 0's atom
    was used up, 2 where side 1's was, 3 where both were.
    """
    # Words are already sorted; a residual left at a front position stays
    # the smallest vector on its side, so walking each side in order is
    # exactly the smallest-first consumption order. A difference of
    # unequal doubles is never 0, so a residual left behind is positive.
    it0, it1 = iter(list0[i0:i0 + count]), iter(list1[i1:i1 + count])
    w0 = -x if x < 0.0 else next(it0)
    w1 = x if x > 0.0 else next(it1)
    try:
        while True:
            if w0 < w1:
                weight.append(w0)
                codes.append(1)
                w1 -= w0
                w0 = next(it0)
            elif w1 < w0:
                weight.append(w1)
                codes.append(2)
                w0 -= w1
                w1 = next(it1)
            else:
                weight.append(w0)
                codes.append(3)
                w0, w1 = next(it0), next(it1)
    except StopIteration:  # a side ran out: of atoms, or of this call's count
        pass
    last = codes[-1]
    return w1 if last == 1 else -w0 if last == 2 else 0.0


def _fill(pairs, n, weight, atom0, atom1, words0, words1):
    """Write pieces into the ``PAIR_DTYPE`` table ``pairs`` from row ``n``; the next free row.

    Their words are gathered by atom index.
    """
    rows = pairs[n:n + len(weight)]
    rows["weight"] = weight
    rows["word0"] = words0[atom0]
    rows["word1"] = words1[atom1]
    return n + len(rows)


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

    Row i of the ``PAIR_DTYPE`` table ``pairs`` has the
    guarantee ``table[key[i]]``, a row ``(eps, delta)`` of the
    ``(keys, 2)`` per-key table. ``pairs`` must be non-empty, with positive
    weights (a zero-mass group would divide 0 by 0) and non-decreasing word
    columns, as ``refine_tuples`` and ``uniform_prior_bound`` emit them.
    Exponents are relative to each group's extreme epsilon, so epsilons far
    beyond 700 nats cannot overflow. delta_G is an exactly rounded sum.
    """
    eps, delta = table.T
    pieces = pairs["weight"], eps[key], delta[key]
    ranks = []  # each piece's key delta ranked, built once for the sides that sort

    def rank():
        if not ranks:
            ranks.append(_delta_ranks(delta)[key])
        return ranks[0]

    side0 = _Groups(pairs["word0"], *pieces, rank, len(delta))
    side1 = _Groups(pairs["word1"], *pieces, rank, len(delta))
    # P0 <= e^eps P1 + delta is bounded by (g1, j0); the reverse by (g0, j1).
    epsilon = max(0.0, min(side1.eps_g, side0.eps_j), min(side0.eps_g, side1.eps_j))
    delta_g = exact_sum(side1.weight * side1.delta)  # an exact sum of the pieces in any order
    return bounded_params(epsilon, max(
        delta_g if epsilon >= side1.eps_g else side0.delta_j(epsilon),
        delta_g if epsilon >= side0.eps_g else side1.delta_j(epsilon),
    ))


def _delta_ranks(delta: np.ndarray) -> np.ndarray:
    """Each delta's position among the sorted deltas, the first of its equals."""
    order = delta.argsort()
    ranked = delta[order]
    ranks = np.empty(len(delta), dtype=np.intp)
    ranks[order] = ranked.searchsorted(ranked)
    return ranks


class _Groups:
    """Matched pieces grouped by their vector on one side: runs of equal words.

    Piece i has the weight, ``eps`` and ``delta`` at index i. The words are
    non-decreasing, so each vector is one run, numbered in order by ``run``;
    runs not ascending by delta are sorted so, ties in row order, and
    ``delta_j`` walks each run by ascending delta. The sort is one stable
    integer argsort of ``run * keys + rank``, ``rank`` being the position
    of the piece's key delta among the ``keys`` sorted key deltas, equal
    for equal deltas. The result is the permutation
    ``np.lexsort((delta, words))`` gives, without its float sort of every
    piece ahead of the word sort.
    ``eps_g`` is the largest ``ln(sum w e^eps / p)`` over the groups and
    ``eps_j`` the largest ``-ln(sum w e^-eps / p)``. Sums run in row order
    through ``np.add.reduceat``, whose rounding the pinned results hold;
    group extremes, where order cannot matter, through one
    ``np.maximum.at`` and one ``np.minimum.at`` pass. A side whose
    pieces are all alone in their groups has ``eps_g = eps_j = max eps``,
    as those sums give it: each group's mass is its piece's weight and
    each relative exponent 0.
    """

    def __init__(self, words, weight, eps, delta, rank, keys):
        self.weight, self.eps, self.delta = weight, eps, delta
        new = np.concatenate(([True], words[1:] != words[:-1], [True]))  # run starts, then the end
        edges = new.nonzero()[0]
        self.starts, self.sizes = edges[:-1], edges[1:] - edges[:-1]
        groups = len(self.starts)
        if groups == len(weight):
            self.mass = weight
            self.eps_g = self.eps_j = max(0.0, float(eps.max()))
            return
        run = np.arange(groups).repeat(self.sizes)
        if ((delta[1:] < delta[:-1]) & ~new[1:-1]).any():
            sort_key = run * keys
            sort_key += rank()
            order = sort_key.argsort(kind="stable")  # within runs, so each run stays in place
            self.weight, self.eps, self.delta = (a[order] for a in (weight, eps, delta))
        self.mass = np.add.reduceat(self.weight, self.starts)
        hi, lo = self.eps[self.starts], self.eps[self.starts]  # each group's first, then the rest
        np.maximum.at(hi, run, self.eps)
        np.minimum.at(lo, run, self.eps)
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
    masks = _guarantee_masks(seq, k)
    pairs, xor_words = _class_refinement(p0, p1, masks) or (None, None)
    if pairs is None:
        pairs = refine_tuples(p0, p1).pairs
        xor_words = pairs["word0"] ^ pairs["word1"]
    return _aggregate(pairs, *_piece_keys(xor_words, seq, theorem, k, masks))


def _class_refinement(p0: Hypothesis, p1: Hypothesis, masks: list[int]) -> tuple | None:
    """``(pairs, xor_words)`` refined by class (module docstring), or None for the flat walk.

    Words are packed class ids. The pair needs each side's classes complete
    at one weight, a class with two atoms and at most ``len(p0) + len(p1)``
    classes. A uniform preset declares its law (``Hypothesis._first``): every
    class at ``1.0 / len``, but for class 0, the zero vector alone, when it
    starts at word 1. Other hypotheses take an O(atoms) check. Exact class
    masses couple as ``refine_tuples`` couples atoms.
    """
    radices = [mask.bit_count() + 1 for mask in masks]
    if len(masks) == p0.k or math.prod(radices) > len(p0) + len(p1):
        return None
    # Class sizes prod_g C(n_g, m_g) by class id, each below 2^k.
    sizes = math.prod(np.ix_(*[[math.comb(r - 1, m) for m in range(r)] for r in radices])).ravel()
    laws = []
    for p in (p0, p1):
        if p._first is not None:
            present = np.arange(p._first, len(sizes))
            laws.append((present, [1.0 / len(p)] * len(present), sizes[present].tolist()))
            continue
        ids = _pack_counts(p.words, masks).astype(np.intp)
        count = np.bincount(ids, minlength=len(sizes))
        present = count.nonzero()[0]
        class_weight = np.zeros(len(sizes))
        class_weight[ids] = p.weights  # one atom's weight per class: all are equal if any is
        if not (np.array_equal(count[present], sizes[present])
                and np.array_equal(class_weight[ids], p.weights)):
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
    pairs["word0"] = ids0[[bisect_left(cum0, e) for e in ends]]
    pairs["word1"] = ids1[[bisect_left(cum1, e) for e in ends]]
    # Per group, the lowest |m1 - m0| bits of its mask; the last mask is the lowest digit.
    c0, c1 = pairs["word0"].astype(np.intp), pairs["word1"].astype(np.intp)
    xor_words = np.zeros(len(ends), dtype=np.uint64)
    for mask, r in zip(masks[::-1], radices[::-1]):
        bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
        xor_words |= np.cumsum([0, *bits], dtype=np.uint64)[np.abs(c0 % r - c1 % r)]
        c0, c1 = c0 // r, c1 // r
    return pairs, xor_words


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
    """ln(1 + e^x), overflow-safe."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _log_expm1(a: float) -> float:
    """ln(e^a - 1) for a > 0, overflow-safe: a + ln(1 - e^-a)."""
    return a + math.log(-math.expm1(-a))
