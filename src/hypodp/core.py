"""Domain types shared by every accounting module.

All types here are immutable after construction and validate their
invariants eagerly, so downstream code never has to re-check them.

Conventions:

* A guarantee is a :class:`PrivacyParams` pair ``(epsilon, delta)`` with
  epsilon in nats.
* A :class:`BitVector` of length ``k`` selects, per iteration, which of
  the two neighboring databases a mechanism is invoked on. Vectors are
  stored as machine words, which caps ``k`` at 63; position 0 is the
  first iteration (the leftmost character of the string form) and the
  most significant of the word's k bits. ``word_of`` and ``bit_rows``
  convert between positions and words for every module.
* A :class:`Hypothesis` is a finite probability distribution over bit
  vectors, a composite belief about database membership, held as two
  read-only arrays: ascending ``uint64`` ``words`` and ``float64`` ``weights``.
"""

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateAtomError,
    KTooLargeError,
    MixedLengthError,
    NonNormalizedError,
    NonPositiveWeightError,
)

MAX_K = 63

# User-facing normalization tolerance; internal refinement prunes at the
# much finer WEIGHT_PRUNE_TOLERANCE so input noise and arithmetic dust
# stay two orders of magnitude apart.
NORMALIZATION_TOLERANCE = 1e-9
WEIGHT_PRUNE_TOLERANCE = 1e-12

# Enumerating all of {0,1}^k is refused beyond this many vectors.
MAX_ENUMERATION = 10_000_000

_set_field = object.__setattr__  # how a frozen dataclass sets its own fields


@dataclass(frozen=True)
class PrivacyParams:
    """An (epsilon, delta) differential-privacy guarantee."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        # An infinite epsilon would turn the log-space aggregation's
        # inf - inf into NaN, so a vacuous guarantee is refused outright.
        if not 0.0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must be in [0, 1], got {self.delta}")

    def as_tuple(self) -> tuple[float, float]:
        return (self.epsilon, self.delta)


def bounded_params(epsilon: float, delta: float) -> PrivacyParams:
    """Build a guarantee, clamping delta to 1 and epsilon rounding dust to 0.

    A statement with delta >= 1 is vacuous but well formed; clamping keeps
    comparisons total. Tiny negative epsilon can only arise from rounding
    in log-space aggregation and is mathematically zero. An epsilon that
    overflowed to infinity raises ``OverflowError``, as ``math.fsum`` does.
    """
    if epsilon == math.inf:
        raise OverflowError("composed epsilon overflows a double")
    if -1e-9 < epsilon < 0.0:
        epsilon = 0.0
    return PrivacyParams(epsilon, min(1.0, delta))


@dataclass(frozen=True, init=False, slots=True)
class BitVector:
    """A fixed-length binary vector stored as a machine word.

    ``word`` holds the bits with position 0 (iteration 1) as the most
    significant bit, so numeric order on words equals lexicographic
    order on the string form.
    """

    word: int
    k: int

    def __init__(self, word: int, k: int):
        if not 1 <= k <= MAX_K:
            raise KTooLargeError(f"k must be in [1, {MAX_K}], got {k}")
        if not 0 <= word < (1 << k):
            raise ValueError(f"word {word} out of range for k={k}")
        _set_field(self, "word", word)
        _set_field(self, "k", k)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        bits = list(bits)
        word = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bits must be 0 or 1, got {b!r}")
            word = (word << 1) | b
        return cls(word, len(bits))

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        if not s or set(s) - {"0", "1"}:
            raise ValueError(f"expected a nonempty string of 0/1, got {s!r}")
        return cls(int(s, 2), len(s))

    @classmethod
    def zeros(cls, k: int) -> "BitVector":
        return cls(0, k)

    @classmethod
    def ones(cls, k: int) -> "BitVector":
        return cls((1 << k) - 1, k)

    def bit(self, i: int) -> int:
        """Bit at 0-based position ``i`` (position 0 = first iteration)."""
        if not 0 <= i < self.k:
            raise IndexError(f"position {i} out of range for k={self.k}")
        return (self.word >> (self.k - 1 - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(self.bit(i) for i in range(self.k))

    def flip(self) -> "BitVector":
        """Invert every bit; an involution."""
        return BitVector(self.word ^ ((1 << self.k) - 1), self.k)

    def ones_count(self) -> int:
        return self.word.bit_count()

    def __str__(self) -> str:
        return format(self.word, f"0{self.k}b")


def word_of(positions: Iterable[int], k: int) -> int:
    """The length-k word whose set bits are the given distinct 0-based positions."""
    return sum(1 << (k - 1 - p) for p in positions)


def bit_rows(words: Sequence[int] | np.ndarray, k: int) -> np.ndarray:
    """The words' bits as a boolean ``(n, k)`` array, position 0 (the top bit of k) first."""
    octets = np.asarray(words, dtype=">u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1)[:, 64 - k:].view(bool)


def _enumeration_size(k: int) -> int:
    """The size 2^k of {0,1}^k; refuses any k whose vectors cannot be enumerated."""
    if not 1 <= k <= MAX_K or (1 << k) > MAX_ENUMERATION:
        raise KTooLargeError(f"enumerating 2^{k} vectors is not supported")
    return 1 << k


def all_vectors(k: int) -> list[BitVector]:
    """Every vector in {0,1}^k in lexicographic order."""
    return [BitVector(w, k) for w in range(_enumeration_size(k))]


class Hypothesis:
    """A finite probability distribution over bit vectors of equal length.

    Validated on every construction path: weights strictly positive,
    summing to 1 within ``NORMALIZATION_TOLERANCE``, all atoms sharing
    one length, no vector listed twice. Instances are immutable.
    """

    def __init__(self, atoms: Mapping[BitVector, float] | Iterable[tuple[BitVector, float]]):
        items = list(atoms.items()) if isinstance(atoms, Mapping) else list(atoms)
        if not items:
            raise NonNormalizedError("a hypothesis needs at least one atom")
        k = items[0][0].k
        words = [vec.word for vec, _ in items if vec.k == k]
        if len(words) < len(items):
            vec = next(vec for vec, _ in items if vec.k != k)
            raise MixedLengthError(f"atom {vec} has k={vec.k}, expected {k}")
        self._set(k, np.array(words, dtype=np.uint64),
                  np.array([w for _, w in items], dtype=np.float64))

    def _set(self, k: int, words: np.ndarray, weights: np.ndarray) -> "Hypothesis":
        """Validate, sort by word and freeze: the one path every constructor takes."""
        if not np.all(weights > 0.0):
            i = int(np.argmin(weights > 0.0))
            vec = BitVector(int(words[i]), k)
            raise NonPositiveWeightError(f"atom {vec} has non-positive weight {weights[i]}")
        order = np.argsort(words)  # distinct words have one sorted order
        words, weights = words[order], weights[order]
        if np.any(words[1:] == words[:-1]):
            raise DuplicateAtomError("a vector is listed more than once")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
            raise NonNormalizedError(f"weights sum to {total!r}, not 1")
        words.flags.writeable = weights.flags.writeable = False
        self._k, self._words, self._weights = k, words, weights
        return self

    k = property(lambda self: self._k)
    words = property(lambda self: self._words, doc="The atoms' words, ascending; read-only.")
    weights = property(lambda self: self._weights, doc="Their weights, aligned; read-only.")
    _key = property(lambda self: (self._k, self._words.tobytes(), self._weights.tobytes()))

    @property
    def atoms(self) -> tuple[tuple[BitVector, float], ...]:
        """(vector, weight) per atom, sorted lexicographically; built on each read."""
        return tuple(zip(self.support(), self._weights.tolist()))

    def weight(self, vec: BitVector) -> float:
        i = np.searchsorted(self._words, vec.word)
        hit = vec.k == self._k and i < len(self) and self._words[i] == vec.word
        return self._weights[i].item() if hit else 0.0

    def support(self) -> tuple[BitVector, ...]:
        return tuple(BitVector(w, self._k) for w in self._words.tolist())

    def __len__(self) -> int:
        return len(self._words)

    def __eq__(self, other) -> bool:
        return isinstance(other, Hypothesis) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {w!r}" for v, w in self.atoms)
        return f"Hypothesis({{{inner}}})"

    @classmethod
    def point_mass(cls, vec: BitVector) -> "Hypothesis":
        return cls({vec: 1.0})

    @classmethod
    def uniform(cls, vectors: Iterable[BitVector]) -> "Hypothesis":
        vectors = list(vectors)
        if not vectors:
            raise NonNormalizedError("cannot build a uniform hypothesis over nothing")
        return cls([(v, 1.0 / len(vectors)) for v in vectors])

    @classmethod
    def uniform_all(cls, k: int) -> "Hypothesis":
        """Uniform over all of {0,1}^k."""
        return cls._uniform_from(0, k)

    @classmethod
    def uniform_nonzero(cls, k: int) -> "Hypothesis":
        """Uniform over {0,1}^k minus the zero vector."""
        return cls._uniform_from(1, k)

    @classmethod
    def _uniform_from(cls, first: int, k: int) -> "Hypothesis":
        """Uniform over the words first, ..., 2^k - 1, built without per-atom objects."""
        words = np.arange(first, _enumeration_size(k), dtype=np.uint64)
        return cls.__new__(cls)._set(k, words, np.full(len(words), 1.0 / len(words)))


@dataclass(frozen=True)
class MechanismSequence:
    """Per-iteration DP guarantees for a sequence of mechanisms.

    The sequence itself may be longer than 63; only operations that
    enumerate bit vectors are capped at ``MAX_K``.
    """

    guarantees: tuple[PrivacyParams, ...]

    def __post_init__(self):
        if not self.guarantees:
            raise ValueError("a mechanism sequence must be non-empty")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "MechanismSequence":
        return cls(tuple(PrivacyParams(e, d) for e, d in pairs))

    @classmethod
    def homogeneous(cls, epsilon: float, delta: float, k: int) -> "MechanismSequence":
        return cls(tuple(PrivacyParams(epsilon, delta) for _ in range(k)))

    @property
    def k(self) -> int:
        return len(self.guarantees)

    def is_homogeneous(self) -> bool:
        return all(g == self.guarantees[0] for g in self.guarantees)

    def __iter__(self) -> Iterator[PrivacyParams]:
        return iter(self.guarantees)

    def __len__(self) -> int:
        return len(self.guarantees)

    def __getitem__(self, i):
        return self.guarantees[i]
