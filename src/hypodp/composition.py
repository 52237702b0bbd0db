"""Classic composition theorems behind a pluggable dispatch.

Two theorems are provided: simple composition (sum the epsilons and the
deltas) and advanced composition for k identical (epsilon, delta)
mechanisms, which trades a small additive delta slack for a much smaller
epsilon. Every theorem, these two included, is an object exposing a
``compose_guarantees(guarantees)`` method, so tighter theorems can be
plugged in without touching callers.

Epsilons stay in plain double precision throughout; anything that needs
``exp`` of a composed epsilon is expected to work in log space on the
caller's side.

Batches compose here, each member bit-identical to its own ``compose``:
``compose_suffixes`` every suffix, and ``_compose_words`` the position subsets
that ``uint64`` words select, which ``_piece_keys`` calls on XOR words once per
key: a word's count of differing positions per distinct guarantee. Words with
one key select one multiset of guarantees, so the key's representative is
exact for all: ``Simple``'s sums are exact and rounded once (Shewchuk 1997),
``Advanced`` composes only identical guarantees (a heterogeneous row raises
from its representative), and a fixed non-adaptive multiset of mechanisms
leaks the same in any order.
"""

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence, Union

import numpy as np

from .core import PrivacyParams, _exact_suffix_sums, _exact_word_sums, bit_rows, bounded_params
from .errors import HeterogeneousInputError, IncompatibleTheoremError, InvalidSlackError

# Fewer rows sum faster by math.fsum per row (the two cross at 48-64 rows for k 5-30).
_FSUM_ROWS = 64


@dataclass(frozen=True)
class Simple:
    """Simple composition: epsilons and deltas add up."""

    def compose_guarantees(self, guarantees: list[PrivacyParams]) -> PrivacyParams:
        return simple_compose(guarantees)


@dataclass(frozen=True)
class Advanced:
    """Advanced composition for homogeneous sequences.

    ``delta_slack`` is the additional additive delta spent to shrink
    epsilon; it must lie strictly inside (0, 1).
    """

    delta_slack: float

    def __post_init__(self):
        if not 0.0 < self.delta_slack < 1.0:
            raise InvalidSlackError(f"delta_slack must be in (0, 1), got {self.delta_slack}")

    def compose_guarantees(self, guarantees: list[PrivacyParams]) -> PrivacyParams:
        return advanced_compose(guarantees, self.delta_slack)


CompositionTheorem = Union[Simple, Advanced]

SIMPLE = Simple()


def simple_compose(guarantees: Iterable[PrivacyParams]) -> PrivacyParams:
    """Sum of per-mechanism guarantees; the empty sequence composes to (0, 0)."""
    guarantees = list(guarantees)
    eps = math.fsum(g.epsilon for g in guarantees)
    delta = math.fsum(g.delta for g in guarantees)
    return bounded_params(eps, delta)


def advanced_compose(guarantees: Iterable[PrivacyParams], delta_slack: float) -> PrivacyParams:
    """Advanced composition of k identical (epsilon, delta) mechanisms.

    Returns ``(sqrt(2 k ln(1/delta_slack)) eps + k eps (e^eps - 1),
    k delta + delta_slack)`` with the delta clamped to 1.

    Raises:
        HeterogeneousInputError: if the guarantees are not all identical.
        InvalidSlackError: if ``delta_slack`` is outside (0, 1).
    """
    if not 0.0 < delta_slack < 1.0:
        raise InvalidSlackError(f"delta_slack must be in (0, 1), got {delta_slack}")
    guarantees = list(guarantees)
    if not guarantees:
        raise HeterogeneousInputError("advanced composition needs at least one mechanism")
    first = guarantees[0]
    if any(g != first for g in guarantees):
        raise HeterogeneousInputError("the advanced theorem requires a homogeneous sequence")
    eps, delta = _advanced_closed_form(first, len(guarantees), delta_slack)
    return bounded_params(float(eps), delta)


def _advanced_closed_form(
    g: PrivacyParams, lengths: Union[int, np.ndarray], delta_slack: float
) -> tuple:
    """``advanced_compose`` of n copies of ``g``, unchecked, for an int n or an integer array.

    Returns ``sqrt(2 n ln(1/delta_slack)) eps + n eps (e^eps - 1)`` and the
    uncapped ``n delta + delta_slack``, evaluated left to right. ``math.expm1``
    raises ``OverflowError`` past about 709.78 nats, before any product. Below
    that an int n may still give an infinite epsilon; an array must not, since
    numpy warns on the overflow.
    """
    eps = g.epsilon
    growth = math.expm1(eps)
    eps_total = np.sqrt(2.0 * lengths * math.log(1.0 / delta_slack)) * eps + lengths * eps * growth
    return eps_total, lengths * g.delta + delta_slack


def compose(guarantees: Iterable[PrivacyParams], theorem: CompositionTheorem) -> PrivacyParams:
    """Compose a sequence under the chosen theorem's ``compose_guarantees``.

    The empty sequence composes to (0, 0) under every theorem.

    Raises:
        IncompatibleTheoremError: if the theorem cannot handle the sequence
            (e.g. the advanced theorem on a heterogeneous sequence).
    """
    guarantees = list(guarantees)
    if not guarantees:
        return PrivacyParams(0.0, 0.0)
    if not hasattr(theorem, "compose_guarantees"):
        raise IncompatibleTheoremError(f"unknown composition theorem: {theorem!r}")
    return theorem.compose_guarantees(guarantees)


def _compose_words(
    guarantees: list[PrivacyParams], words: np.ndarray, theorem: CompositionTheorem
) -> np.ndarray:
    """``compose`` of the guarantees each ``uint64`` word selects (``bit_rows`` layout).

    Row r of the ``(n, 2)`` float64 result is ``compose(selected,
    theorem).as_tuple()`` bit for bit, ``selected`` listing the guarantees at
    the positions ``words[r]`` sets, in sequence order. Under ``Simple`` each
    column is an exact sum, the delta capped at 1: below ``_FSUM_ROWS`` rows
    one ``bit_rows`` serves both columns' ``math.fsum`` per row, and larger
    calls take ``core._exact_word_sums`` per column; other theorems call
    ``compose`` per word.
    """
    simple = isinstance(theorem, Simple)
    if simple and len(words) >= _FSUM_ROWS:
        out = np.empty((len(words), 2))
        out[:, 0] = _exact_word_sums(words, [g.epsilon for g in guarantees])
        out[:, 1] = _exact_word_sums(words, [g.delta for g in guarantees])
    else:
        rows = bit_rows(words, len(guarantees)).tolist()
        if simple:
            eps, delta = [g.epsilon for g in guarantees], [g.delta for g in guarantees]
            out = [(math.fsum(compress(eps, row)), math.fsum(compress(delta, row))) for row in rows]
        else:
            out = [compose(list(compress(guarantees, row)), theorem).as_tuple() for row in rows]
        out = np.array(out, dtype=np.float64).reshape(len(rows), 2)
    if simple:
        np.minimum(out[:, 1], 1.0, out=out[:, 1])
    return out


def compose_suffixes(eps: list[float], delta: list[float], theorem: CompositionTheorem) -> np.ndarray:
    """Row i of the ``(n + 1, 2)`` result is ``compose(guarantees[i:], theorem).as_tuple()``.

    The guarantees come as two columns, ``guarantees[i]`` being the valid
    pair ``(eps[i], delta[i])``. ``Simple`` takes two exact suffix-sum passes
    over the columns. ``Advanced`` composes the whole list once (row 0 and
    the homogeneity check), then every shorter suffix in one closed-form pass
    over the lengths n - 1 .. 1; the closed form grows with the length, so
    once row 0 is finite no later row overflows. Other theorems compose each
    suffix.
    """
    if isinstance(theorem, Simple):
        out = np.empty((len(eps) + 1, 2))
        out[:, 0], out[:, 1] = _exact_suffix_sums(eps), _exact_suffix_sums(delta)
        np.minimum(out[:, 1], 1.0, out=out[:, 1])
        return out
    guarantees = [PrivacyParams(e, d) for e, d in zip(eps, delta)]
    n = len(guarantees)
    if isinstance(theorem, Advanced) and n:
        whole = compose(guarantees, theorem).as_tuple()
        eps, delta = _advanced_closed_form(guarantees[0], np.arange(n - 1, 0, -1), theorem.delta_slack)
        return np.vstack(([whole], np.stack((eps, np.minimum(delta, 1.0)), 1), [(0.0, 0.0)]))
    rows = [compose(guarantees[i:], theorem).as_tuple() for i in range(n + 1)]
    return np.array(rows, dtype=np.float64)


def _guarantee_masks(seq: Sequence[PrivacyParams], k: int) -> list[int]:
    """One position mask per distinct guarantee, in order of its first position.

    Keyed by ``(epsilon, delta)`` tuples, which group as equal guarantees do and hash faster.
    """
    masks: dict[tuple[float, float], int] = {}
    for i, g in enumerate(seq):
        key = g.epsilon, g.delta
        masks[key] = masks.get(key, 0) | 1 << (k - 1 - i)
    return list(masks.values())


def _pack_counts(words: np.ndarray, masks: Sequence[int]) -> np.ndarray:
    """Each ``uint64`` word's count of ones per mask, in radix popcount + 1 (2^k in all)."""
    keys = np.uint64(0)  # a scalar start: a zeroed array would cost a pass and fresh pages
    for mask in masks:
        keys = keys * np.uint64(mask.bit_count() + 1) + np.bitwise_count(words & np.uint64(mask))
    return keys


def _piece_keys(
    xor_words: np.ndarray, seq: Sequence[PrivacyParams], theorem: CompositionTheorem, k: int,
    masks: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each ``uint64`` XOR word's key index and the ``(keys, 2)`` table of composed keys.

    ``masks`` is ``_guarantee_masks(seq, k)``, built here unless the caller has it.
    A key's representative is its smallest XOR word: the words are deduplicated
    ascending, and the keys by a stable sort, which keeps each key's first word.
    """
    if masks is None:
        masks = _guarantee_masks(seq, k)
    first, piece_diff = _distinct(xor_words)
    diffs = xor_words[first]
    if len(masks) < k:  # else each position is its own mask and every key is its word
        first, key_of_diff = _distinct(_pack_counts(diffs, masks), "stable")
        piece_diff, diffs = key_of_diff[piece_diff], diffs[first]
    return piece_diff, _compose_words(list(seq), diffs, theorem)


def _distinct(values: np.ndarray, kind: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_index=True, return_inverse=True)[1:]`` for a 1-d array.

    Returns the index of each distinct value, ascending by value, and each
    value's rank among them; with ``kind="stable"`` the index is each value's
    first, as ``np.unique`` gives it. The same argsort, mask and cumulative
    sum, without its wrapper's fixed cost.
    """
    order = values.argsort(kind=kind)
    ordered = values[order]
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    rank = np.empty(len(values), dtype=np.intp)
    rank[order] = new.cumsum() - 1
    return order[new], rank


def best_classic_bound(guarantees: Iterable[PrivacyParams], delta_slack: float) -> PrivacyParams:
    """The epsilon-smaller of simple and (when applicable) advanced composition.

    Ties on epsilon break toward the smaller delta. Advanced composition
    is skipped where its epsilon overflows, since simple composition's is
    finite and smaller.
    """
    guarantees = list(guarantees)
    candidates = [simple_compose(guarantees)]
    try:
        candidates.append(advanced_compose(guarantees, delta_slack))
    except (HeterogeneousInputError, OverflowError):
        pass
    return min(candidates, key=lambda g: (g.epsilon, g.delta))
