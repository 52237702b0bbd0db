"""Splitting two weighted atom sets into equal-weight matched pairs.

Two distributions over bit vectors rarely place identical masses on
their atoms, so atoms are split until each piece on side 0 can be
matched with an equal-weight piece on side 1. Each piece is one row
``(weight, word0, word1)`` of a ``PAIR_DTYPE`` table. The selection
order is deterministic: both sides always consume their
lexicographically smallest remaining vector, which makes results
reproducible and gives the side-swap symmetry exploited by the tests.
Any other consumption order would produce a different but equally
valid matching.
"""

from dataclasses import dataclass

import numpy as np

from .core import Hypothesis
from .errors import MixedLengthError

# One matched piece: its weight and the word of its vector on each side.
PAIR_DTYPE = np.dtype([("weight", "f8"), ("word0", "u8"), ("word1", "u8")])


@dataclass(frozen=True, eq=False)
class MatchedRefinement:
    """Equal-weight matched pieces of two refined distributions.

    ``pairs`` is a ``PAIR_DTYPE`` array, one row per piece, so
    ``len(pairs)`` is the piece count. Every weight is positive, and each
    side's pieces sum back to its input distribution.
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
    most ``len(p0) + len(p1) - 1``. When either side is a point mass the
    walk is ``_point_mass_run``, one vectorized pass. Otherwise it runs
    over plain float lists and records per piece its weight and one
    advance code: 1 when side 0 moves to its next atom, 2 for side 1, 3
    for both. Running sums of the code bits index the word columns,
    gathered in one numpy step.
    """
    if p0.k != p1.k:
        raise MixedLengthError(f"hypotheses have k={p0.k} and k={p1.k}")
    if len(p0) == 1 or len(p1) == 1:
        return MatchedRefinement(p0.k, _point_mass_run(p0, p1))

    # Words are already sorted; a residual left at a front position stays
    # the smallest vector on its side, so walking each side in order is
    # exactly the smallest-first consumption order. A difference of
    # unequal doubles is never 0, so a residual left behind is positive.
    weights0, weights1 = iter(p0.weights.tolist()), iter(p1.weights.tolist())
    w0, w1 = next(weights0), next(weights1)
    weight, codes = [], bytearray()
    try:
        while True:
            if w0 < w1:
                weight.append(w0)
                codes.append(1)
                w1 -= w0
                w0 = next(weights0)
            elif w1 < w0:
                weight.append(w1)
                codes.append(2)
                w0 -= w1
                w1 = next(weights1)
            else:
                weight.append(w0)
                codes.append(3)
                w0, w1 = next(weights0), next(weights1)
    except StopIteration:  # the walk ends when either side runs out
        pass
    # Piece n sits at the atoms the first n codes advanced to.
    steps = np.frombuffer(codes, dtype=np.uint8)[:-1]
    pairs = np.empty(len(weight), dtype=PAIR_DTYPE)
    pairs["weight"] = weight
    pairs["word0"] = p0.words[np.concatenate(([0], np.cumsum(steps & 1, dtype=np.intp)))]
    pairs["word1"] = p1.words[np.concatenate(([0], np.cumsum(steps >> 1, dtype=np.intp)))]
    return MatchedRefinement(p0.k, pairs)


def _point_mass_run(p0: Hypothesis, p1: Hypothesis) -> np.ndarray:
    """The walk's table when one side has a single atom: one run down the other side.

    The single atom's residual before step t is its weight minus the
    first t weights of the other side, subtracted one at a time;
    ``np.subtract.accumulate`` performs those IEEE subtractions in the
    walk's order. Step t continues the run iff the next residual is
    positive, which is the walk's strict comparison: a weight at or
    above the residual leaves a residual of 0 or below, since a
    difference of doubles is 0 only for equal ones. Every piece weighs
    the smaller of its weight and its residual.
    """
    point, other = (p0, p1) if len(p0) == 1 else (p1, p0)
    weights = other.weights
    residual = np.subtract.accumulate(np.concatenate((point.weights, weights)))
    go_on = residual[1:] > 0.0
    n = len(weights) if go_on.all() else int(np.argmin(go_on)) + 1
    pairs = np.empty(n, dtype=PAIR_DTYPE)
    np.minimum(weights[:n], residual[:n], out=pairs["weight"])
    point_side, other_side = ("word0", "word1") if point is p0 else ("word1", "word0")
    pairs[point_side] = point.words[0]
    pairs[other_side] = other.words[:n]
    return pairs
