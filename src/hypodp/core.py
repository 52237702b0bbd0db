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
  most significant of the word's k bits. ``word_of`` builds a word from
  positions and ``bit_rows`` unpacks words into rows of bits; ``oracle``
  and ``composition._guarantee_masks`` shift bits themselves, and
  ``_exact_word_sums`` reads them a byte at a time, in the same layout.
* A :class:`Hypothesis` is a finite probability distribution over bit
  vectors, a composite belief about database membership, held as two
  read-only arrays: ascending ``uint64`` ``words`` and ``float64`` ``weights``.
  The uniform presets declare their law and build their arrays on first read.
* Returned sums of doubles are exact, rounded once as by ``math.fsum``:
  ``exact_sum`` for an array, ``_exact_word_sums`` for the subsets ``uint64``
  words select, summed from the words by byte tables with no selection
  matrix, and ``_exact_suffix_sums`` for every suffix, the last two's wide
  integer totals through one division, ``_divide``; tolerance checks use
  numpy's sum.
"""

import math
from collections.abc import Mapping
from itertools import accumulate
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

# How far from 1 a hypothesis's total may be. Weights whose total is off 1 by
# more than min(n 2^-53, 2^-43) for n atoms are divided by their exact sum, so the
# mass a refinement walk leaves unmatched at its end is at most about that much a
# side, whatever n.
NORMALIZATION_TOLERANCE = 1e-9

# Enumerating all of {0,1}^k is refused beyond this many vectors.
MAX_ENUMERATION = 10_000_000


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
    """Build a guarantee, clamping delta to 1.

    A statement with delta >= 1 is vacuous but well formed; clamping keeps
    comparisons total. An epsilon that overflowed to infinity raises
    ``OverflowError``, as ``math.fsum`` does.
    """
    if epsilon == math.inf:
        raise OverflowError("composed epsilon overflows a double")
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
        _set_word(self, word)
        _set_k(self, k)

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

    def ones_count(self) -> int:
        return self.word.bit_count()

    def __str__(self) -> str:
        return format(self.word, f"0{self.k}b")


# The slot descriptors set the fields past the frozen dataclass's refusing __setattr__.
_set_word, _set_k = BitVector.word.__set__, BitVector.k.__set__


def word_of(positions: Iterable[int], k: int) -> int:
    """The length-k word whose set bits are the given distinct 0-based positions."""
    return sum(1 << (k - 1 - p) for p in positions)


def bit_rows(words: Sequence[int] | np.ndarray, k: int) -> np.ndarray:
    """The words' bits as a boolean ``(n, k)`` array, position 0 (the top bit of k) first."""
    octets = np.asarray(words, dtype=">u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1)[:, 64 - k:].view(bool)


# From this many values on exact_sum beats math.fsum over a list: fsum is faster at
# 1024 values, exact_sum at 2048 (2-core Xeon, Python 3.11.7, numpy 2.4.6).
EXACT_SUM_MIN = 1536
# Chunk length: bounds the temporaries of exact_sum and _exact_word_sums, the Python
# integers of a multi-limb chunk included, and keeps exact_sum's per-exponent float sums
# of 27-bit integers below 2^53, so exact.
_SUM_CHUNK = 1 << 16
# Beyond this magnitude fsum's own partial sums could overflow, so it takes over.
_SUM_LIMIT = 2.0**960
# np.frexp exponents of finite doubles run from -1073 to 1024.
_SUM_BINS = 2098


def exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values.tolist())`` for a float64 array, without building the list.

    ``np.frexp`` writes each double as an integer mantissa of at most 53
    bits times a power of two. The mantissas split into 27- and 26-bit
    halves that ``np.bincount`` adds per exponent, exactly, in float64.
    Python integers then assemble the exact total, and one int true
    division rounds it once, as fsum does, subnormals included; a zero
    sum is +0.0, as fsum returns it. Arrays shorter than
    ``EXACT_SUM_MIN`` and values beyond ``_SUM_LIMIT`` or not finite
    take ``math.fsum`` itself.
    """
    if len(values) < EXACT_SUM_MIN:
        return math.fsum(values.tolist())
    high = np.zeros(_SUM_BINS, dtype=np.int64)
    low = np.zeros(_SUM_BINS, dtype=np.int64)
    for start in range(0, len(values), _SUM_CHUNK):
        chunk = values[start:start + _SUM_CHUNK]
        if not np.abs(chunk).max() <= _SUM_LIMIT:  # also true for a NaN
            return math.fsum(values.tolist())
        mant, exp = np.frexp(chunk)
        mant *= 2.0**53  # |mant| is now an integer below 2^53
        exp += 1073
        half = np.trunc(mant * 2.0**-26)
        mant -= half * 2.0**26
        high += np.bincount(exp, half, _SUM_BINS).astype(np.int64)
        low += np.bincount(exp, mant, _SUM_BINS).astype(np.int64)
    bins = np.flatnonzero(high | low)
    total = sum(((h << 26) + lo) << b
                for h, lo, b in zip(high[bins].tolist(), low[bins].tolist(), bins.tolist()))
    return total / (1 << 1126)  # mantissa 2^53, exponent offset 1073


def _fixed_point(values: Sequence[float]) -> tuple[list[int], int]:
    """``(ints, scale)``: the doubles as integers over their largest power-of-two denominator."""
    ratios = [float(x).as_integer_ratio() for x in values]  # as math.fsum reads each value
    scale = max((d for _, d in ratios), default=1)
    return [n * (scale // d) for n, d in ratios], scale


def _divide(totals: Iterable[int], scale: int) -> list[float]:
    """Each exact total over ``scale`` by int true division: rounded and overflowing as in fsum."""
    try:
        return [t / scale for t in totals]
    except OverflowError as exc:
        raise OverflowError("intermediate overflow in fsum") from exc


def _exact_word_sums(words: np.ndarray, values: list[float]) -> np.ndarray:
    """The correctly rounded sum of the non-negative values each ``uint64`` word selects.

    Bit ``k - 1 - p`` of a word selects ``values[p]``, k = ``len(values)`` <= 64:
    the layout of ``bit_rows``. The ``_fixed_point`` integers, unless they
    all sum below 2^63, split into limbs of ``62 - bits(k)`` bits. One int64
    product with ``_BYTE_BITS`` gives each byte of the words a 256-entry table
    per limb, entry v summing the limbs of the bits set in v, so one gather per
    byte sums every limb of ``_SUM_CHUNK`` words exactly. One limb's sums
    convert to float64 and ``np.ldexp`` scales them exactly, subnormals
    included; several limbs make each word's exact total a Python integer,
    which ``_divide`` rounds once.
    """
    k = len(values)
    ints, scale = _fixed_point(values)
    # One limb when every sum fits an int64; else each limb's sums stay below 2^62.
    width = 63 if sum(ints) < 1 << 63 else 62 - k.bit_length()
    count = max(1, -(-max(ints, default=0).bit_length() // width))
    # Row i holds the limbs of bit i, position k - 1 - i; zero rows fill the top byte.
    limbs = np.zeros((-(-k // 8) * 8, count), dtype=np.int64)
    limbs[:k] = np.array([ints[::-1]] if count == 1 else [
        [n >> width * j & (1 << width) - 1 for n in ints[::-1]] for j in range(count)],
        dtype=np.int64).T
    tables = _byte_tables(limbs)
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8).reshape(-1, 8)  # low first
    out = np.empty(len(words))
    for start in range(0, len(words), _SUM_CHUNK):
        chunk = octets[start:start + _SUM_CHUNK]
        sums = np.zeros((count, len(chunk)), dtype=np.int64)  # limb j of each word's sum
        for b, table in enumerate(tables):
            sums += table.take(chunk[:, b], axis=1)
        if count == 1:
            out[start:start + len(chunk)] = np.ldexp(sums[0].astype(np.float64),
                                                     1 - scale.bit_length())
            continue
        totals, *lower = sums[::-1].tolist()
        for column in lower:
            totals = [(t << width) + s for t, s in zip(totals, column)]
        out[start:start + len(chunk)] = _divide(totals, scale)
    return out


# Column v holds the bits of the byte value v, bit 0 first.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[None], axis=0,
                           bitorder="little").astype(np.int64)


def _byte_tables(limbs: np.ndarray) -> np.ndarray:
    """``tables[b, j, v]``: the sum of limb j over the bits set in the value v of byte b.

    ``limbs`` has one row per bit, 8 per byte, and one column per limb.
    """
    count = limbs.shape[1]
    per_byte = limbs.reshape(-1, 8, count).transpose(0, 2, 1).reshape(-1, 8)
    return (per_byte @ _BYTE_BITS).reshape(-1, count, 256)


def _exact_suffix_sums(values: Sequence[float]) -> list[float]:
    """``[math.fsum(values[i:]) for i in range(len(values) + 1)]`` in O(n).

    ``_divide`` rounds each exact ``_fixed_point`` suffix sum once, as fsum does.
    """
    ints, scale = _fixed_point(values)
    return _divide(accumulate(reversed(ints), initial=0), scale)[::-1]


def _enumeration_size(k: int) -> int:
    """The size 2^k of {0,1}^k; refuses any k whose vectors cannot be enumerated."""
    if not 1 <= k <= MAX_K or (1 << k) > MAX_ENUMERATION:
        raise KTooLargeError(f"enumerating 2^{k} vectors is not supported")
    return 1 << k


class Hypothesis:
    """A finite probability distribution over bit vectors of equal length.

    Validated on every construction path: weights strictly positive,
    summing to 1 within ``NORMALIZATION_TOLERANCE``, all atoms sharing
    one length, no vector listed twice. Weights whose total is off 1 by
    more than min(n 2^-53, 2^-43) for n atoms are divided by their exact sum.
    Instances are immutable.

    ``_first`` is None for a hypothesis built from atoms. The uniform
    presets set it to the first of the words ``_first, ..., 2^k - 1``
    they weigh alike, so callers can take their structure from it
    without reading their 2^k atoms, which are built on first read.
    """

    _first: int | None = None
    _words: np.ndarray | None = None

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
        if not (weights > 0.0).all():
            i = int(np.argmin(weights > 0.0))
            vec = BitVector(int(words[i]), k)
            raise NonPositiveWeightError(f"atom {vec} has non-positive weight {weights[i]}")
        if not (words[1:] > words[:-1]).all():  # strictly ascending: sorted, no duplicates
            order = np.argsort(words)  # distinct words have one sorted order
            words, weights = words[order], weights[order]
            if np.any(words[1:] == words[:-1]):
                raise DuplicateAtomError("a vector is listed more than once")
        with np.errstate(over="ignore"):  # a sum beyond the double range is inf, not 1
            total = float(weights.sum())  # pairwise: off by far less than the tolerance
        if abs(total - 1.0) > NORMALIZATION_TOLERANCE:
            raise NonNormalizedError(f"weights sum to {total!r}, not 1")
        # Presets are within (log2 n + 1) 2^-53 of 1, weights divided by their sum about 1e-15.
        if abs(total - 1.0) > min(len(weights) * 2.0**-53, 2.0**-43):
            weights = weights / exact_sum(weights)
        words.flags.writeable = weights.flags.writeable = False
        self._k, self._words, self._weights = k, words, weights
        return self

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(words, weights)``; a declared preset builds and validates them on first read."""
        if self._words is None:
            n = len(self)
            self._set(self._k, np.arange(self._first, self._first + n, dtype=np.uint64),
                      np.full(n, 1.0 / n))
        return self._words, self._weights

    k = property(lambda self: self._k)
    words = property(lambda self: self._arrays()[0], doc="The atoms' words, ascending; read-only.")
    weights = property(lambda self: self._arrays()[1], doc="Their weights, aligned; read-only.")
    _key = property(lambda self: (self._k, *(a.tobytes() for a in self._arrays())))

    @property
    def atoms(self) -> tuple[tuple[BitVector, float], ...]:
        """(vector, weight) per atom, sorted lexicographically; built on each read."""
        return tuple(zip(self.support(), self.weights.tolist()))

    def support(self) -> tuple[BitVector, ...]:
        return tuple(BitVector(w, self._k) for w in self.words.tolist())

    def __len__(self) -> int:
        return len(self._words) if self._first is None else (1 << self._k) - self._first

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
        """Uniform over the words first, ..., 2^k - 1, declared as such (``_first``).

        k is checked here, so a k too large to enumerate fails before any
        allocation; the words and weights ``1.0 / len`` wait for their first read.
        """
        _enumeration_size(k)
        h = cls.__new__(cls)
        h._k, h._first = k, first
        return h


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
