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

from .core import Hypothesis, WEIGHT_PRUNE_TOLERANCE
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
    subtracted from the larger side. Residuals below
    ``WEIGHT_PRUNE_TOLERANCE`` are floating-point dust from subtracting
    near-equal weights and are dropped. The pair count is at most
    ``len(p0) + len(p1) - 1``. The walk keeps two atom indices over plain
    float lists; the word columns are then gathered from ``words`` by
    index in one numpy step.
    """
    if p0.k != p1.k:
        raise MixedLengthError(f"hypotheses have k={p0.k} and k={p1.k}")

    # Words are already sorted; a residual left at a front position stays
    # the smallest vector on its side, so walking two atom indices is
    # exactly the smallest-first consumption order.
    weights0, weights1 = p0.weights.tolist(), p1.weights.tolist()
    i = j = 0
    w0, w1 = weights0[0], weights1[0]
    weight, at0, at1 = [], [], []
    try:
        while True:
            w = w1 if w1 < w0 else w0
            weight.append(w)
            at0.append(i)
            at1.append(j)
            w0 -= w
            w1 -= w
            if w0 <= WEIGHT_PRUNE_TOLERANCE:
                i += 1
                w0 = weights0[i]
            if w1 <= WEIGHT_PRUNE_TOLERANCE:
                j += 1
                w1 = weights1[j]
    except IndexError:  # the walk ends when either side runs out
        pass
    pairs = np.empty(len(weight), dtype=PAIR_DTYPE)
    pairs["weight"] = weight
    pairs["word0"] = p0.words[at0]
    pairs["word1"] = p1.words[at1]
    return MatchedRefinement(p0.k, pairs)
