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
``compose_selections`` boolean-row subsets, ``compose_suffixes`` every suffix
and ``_piece_keys`` XOR words, once per key: a word's count of differing
positions per distinct guarantee. Words with one key select one multiset of
guarantees, so the key's representative is exact for all: ``Simple``'s sums
are exact and rounded once (Shewchuk 1997), ``Advanced`` composes only
identical guarantees (a heterogeneous row raises from its representative),
and a fixed non-adaptive multiset of mechanisms leaks the same in any order.
"""

import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence, Union

import numpy as np

from .core import PrivacyParams, _exact_row_sums, _exact_suffix_sums, bit_rows, bounded_params
from .errors import (
    HeterogeneousInputError,
    IncompatibleTheoremError,
    InvalidSlackError,
    MixedLengthError,
)


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
    return _advanced_closed_form(first, len(guarantees), delta_slack)


def _advanced_closed_form(g: PrivacyParams, k: int, delta_slack: float) -> PrivacyParams:
    """``advanced_compose`` of k copies of ``g``, unchecked."""
    eps = g.epsilon
    eps_total = math.sqrt(2.0 * k * math.log(1.0 / delta_slack)) * eps + k * eps * math.expm1(eps)
    return bounded_params(eps_total, k * g.delta + delta_slack)


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


def compose_selections(
    guarantees: Sequence[PrivacyParams], rows: np.ndarray, theorem: CompositionTheorem
) -> np.ndarray:
    """Compose the guarantees each boolean row selects; an ``(n, 2)`` float64 array.

    Row r of the result is ``compose(selected, theorem).as_tuple()`` bit
    for bit, where ``selected`` lists the guarantees at the positions
    ``rows[r]`` marks, in sequence order. Under ``Simple`` each column is an
    exact sum, ``core._exact_row_sums``, the delta capped at 1; other theorems
    call ``compose``.

    Raises:
        MixedLengthError: if the rows are not as long as the sequence.
    """
    guarantees = list(guarantees)
    rows = np.asarray(rows, dtype=bool)
    if rows.ndim != 2 or rows.shape[1] != len(guarantees):
        raise MixedLengthError(
            f"selections of shape {rows.shape} for {len(guarantees)} mechanisms"
        )
    eps, delta = [g.epsilon for g in guarantees], [g.delta for g in guarantees]
    if not isinstance(theorem, Simple):
        out = [compose(list(compress(guarantees, row)), theorem).as_tuple()
               for row in rows.tolist()]
    else:
        out = np.stack((_exact_row_sums(rows, eps), _exact_row_sums(rows, delta).clip(max=1.0)), 1)
    return np.asarray(out, dtype=np.float64).reshape(len(rows), 2)


def compose_suffixes(guarantees: Sequence[PrivacyParams], theorem: CompositionTheorem) -> np.ndarray:
    """Row i of the ``(n + 1, 2)`` result is ``compose(guarantees[i:], theorem).as_tuple()``.

    ``Simple`` takes two exact suffix-sum passes; ``Advanced`` composes the whole
    list once (row 0 and the homogeneity check), then each shorter suffix in closed form.
    """
    guarantees = list(guarantees)
    if isinstance(theorem, Simple):
        eps = _exact_suffix_sums([g.epsilon for g in guarantees])
        delta = _exact_suffix_sums([g.delta for g in guarantees])
        return np.stack((eps, np.minimum(delta, 1.0)), 1)
    n = len(guarantees)
    if isinstance(theorem, Advanced) and n:
        rows = [compose(guarantees, theorem).as_tuple()]
        rows += [_advanced_closed_form(guarantees[0], n - i, theorem.delta_slack).as_tuple()
                 for i in range(1, n)] + [(0.0, 0.0)]
    else:
        rows = [compose(guarantees[i:], theorem).as_tuple() for i in range(n + 1)]
    return np.array(rows, dtype=np.float64)


def _piece_keys(
    xor_words: np.ndarray, seq: Sequence[PrivacyParams], theorem: CompositionTheorem, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each ``uint64`` XOR word's key index and the ``(keys, 2)`` table of composed keys."""
    # One position mask per distinct guarantee, in position order.
    masks: dict[PrivacyParams, int] = {}
    for i, g in enumerate(seq):
        masks[g] = masks.get(g, 0) | 1 << (k - 1 - i)
    diffs, piece_diff = np.unique(xor_words, return_inverse=True)
    # A key packs its per-mask counts in mixed radix, each count below
    # popcount(mask) + 1; the radices multiply to at most 2^k < 2^64.
    keys = np.zeros(len(diffs), dtype=np.uint64)
    for mask in masks.values():
        keys = keys * np.uint64(mask.bit_count() + 1) + np.bitwise_count(diffs & np.uint64(mask))
    _, first, key_of_diff = np.unique(keys, return_index=True, return_inverse=True)
    return key_of_diff[piece_diff], compose_selections(seq, bit_rows(diffs[first], k), theorem)


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
