"""Exact brute-force verification of claimed guarantees on small instances.

For finite-alphabet mechanisms whose two behaviors (record absent /
record present) are given explicitly, the distribution of the full view
under any membership vector is a product measure that can be enumerated
exactly. The minimal delta making the guarantee inequality hold at a
given epsilon for *every* output set is then a finite sum: the maximal
violation is always attained by the set of views where one distribution
exceeds e^eps times the other. This gives a ground-truth soundness
check for every analytic bound in the library on desk-scale instances.

The oracle covers nonadaptive, fixed-mechanism adversaries only, so the
adversary's coin tosses carry no information and views are plain output
tuples. Continuous mechanisms are out of scope: exactness requires a
finite view space.

A view is a tuple of k output symbols, one per mechanism. Every view
distribution and every simulated count is one flat array on a single
view index: row-major over each mechanism's sorted ``alphabet``, with
mechanism 0 as the most significant digit. Entry ``i`` belongs to the
i-th view that ``itertools.product(*alphabets)`` yields.
"""

import math
import sys
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from .core import BitVector, Hypothesis, PrivacyParams, bit_rows, exact_sum
from .errors import (
    InvalidRateError,
    MismatchedSupportError,
    MixedLengthError,
    ViewSpaceTooLargeError,
)

MAX_VIEW_SPACE = 10_000_000

# Trials one simulation may draw: about 32 bytes each, so at most about 0.5 GB.
MAX_TRIALS = 2**24

# Atoms x views one mixture may cost: about 7 s for the k = 16 presets (2-core x86 VM).
MAX_MIXTURE_WORK = 2**32

# Absolute slack on delta comparisons; covers accumulated rounding in
# product measures over up to MAX_VIEW_SPACE entries.
SOUNDNESS_SLACK = 1e-12

Symbol = Hashable


@dataclass(frozen=True)
class DiscreteMechanism:
    """A mechanism given by its two output distributions on a finite alphabet.

    ``absent`` is the output distribution when the target record is not
    in the database, ``present`` when it is.
    """

    absent: Mapping[Symbol, float]
    present: Mapping[Symbol, float]

    def __post_init__(self):
        if set(self.absent) != set(self.present):
            raise MismatchedSupportError("absent and present must share one alphabet")
        for name, dist in (("absent", self.absent), ("present", self.present)):
            if not all(p >= 0.0 for p in dist.values()):
                raise ValueError(f"{name} distribution has a negative or NaN probability")
            total = math.fsum(dist.values())
            if not abs(total - 1.0) <= 1e-12:
                raise ValueError(f"{name} distribution sums to {total!r}, not 1")

    def dist_for(self, bit: int) -> Mapping[Symbol, float]:
        return self.present if bit else self.absent

    @property
    def alphabet(self) -> tuple[Symbol, ...]:
        return tuple(sorted(self.absent))

    def probs_for(self, bit: int) -> np.ndarray:
        """The output probabilities for ``bit`` in ``alphabet`` order."""
        dist = self.dist_for(bit)
        return np.array([dist[y] for y in self.alphabet], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class ViewDistribution:
    """Exact probability of every view on the flat view index.

    ``probs[i]`` is the probability of the i-th view of ``itertools.product(*alphabets)``
    and ``len(probs)`` the view count; their numpy sum must be 1 within 1e-9.
    """

    probs: np.ndarray
    alphabets: tuple[tuple[Symbol, ...], ...]

    def __post_init__(self):
        if len(self.probs) != math.prod(len(a) for a in self.alphabets):
            raise ValueError("need one probability per view of the alphabets")
        with np.errstate(over="ignore"):  # a sum beyond the double range is inf, not 1
            total = float(self.probs.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"view probabilities sum to {total!r}, not 1")


def randomized_response(q: float) -> DiscreteMechanism:
    """The canonical binary test mechanism.

    Reports the true bit with probability 1-q and lies with probability
    q, giving a pure DP guarantee of epsilon = ln((1-q)/q).
    """
    if not 0.0 < q < 0.5:
        raise InvalidRateError(f"q must be in (0, 0.5), got {q}")
    return DiscreteMechanism(absent={1: q, 0: 1.0 - q}, present={1: 1.0 - q, 0: q})


def leaky_rr(eps: float, delta: float) -> DiscreteMechanism:
    """The canonical (eps, delta)-DP mechanism on four symbols.

    Symbols ``a`` and ``b`` answer as randomized response at ``eps``;
    ``r0`` and ``r1`` reveal the absent and present database with
    probability ``delta``. Every (eps, delta)-DP mechanism is a
    post-processing of this one (Kairouz, Oh, Viswanath 2015), so a
    claim the oracle accepts on it holds for every mechanism with those
    guarantees. Built from ``e^-eps``, so nothing overflows. From about
    708 nats ``(1 - delta) e^-eps`` is subnormal, too coarse to keep
    ``hi <= e^eps lo``, and it raises ``ValueError`` unless delta is 1.
    """
    PrivacyParams(eps, delta)  # rejects an invalid pair
    r = math.exp(-eps)
    hi = (1.0 - delta) / (1.0 + r)
    lo = (1.0 - delta) * r / (1.0 + r)
    if lo < sys.float_info.min and delta < 1.0:
        raise ValueError(f"leaky_rr: (1 - delta) e^-eps is subnormal at eps={eps!r}")
    return DiscreteMechanism(
        absent={"a": hi, "b": lo, "r0": delta, "r1": 0.0},
        present={"a": lo, "b": hi, "r0": 0.0, "r1": delta},
    )


def randomized_response_guarantee(q: float) -> PrivacyParams:
    """The (ln((1-q)/q), 0) guarantee of :func:`randomized_response`."""
    if not 0.0 < q < 0.5:
        raise InvalidRateError(f"q must be in (0, 0.5), got {q}")
    return PrivacyParams(math.log((1.0 - q) / q), 0.0)


def _check_view_space(mechs: Sequence[DiscreteMechanism], k: int, atoms: int = 1) -> int:
    """Check one mechanism per position and a bounded view space; return its size."""
    if len(mechs) != k:
        raise MixedLengthError(f"{len(mechs)} mechanisms but vector of length {k}")
    total = math.prod(len(m.absent) for m in mechs)
    if total > MAX_VIEW_SPACE:
        raise ViewSpaceTooLargeError(f"view space exceeds {MAX_VIEW_SPACE} entries")
    if atoms * total > MAX_MIXTURE_WORK:
        raise ViewSpaceTooLargeError(f"{atoms} atoms x {total} views exceeds {MAX_MIXTURE_WORK}")
    return total


def view_distribution(mechs: Sequence[DiscreteMechanism], b: BitVector) -> ViewDistribution:
    """Product distribution of the k outputs when vector b picks the databases."""
    return mixture_view_distribution(mechs, Hypothesis.point_mass(b))


def mixture_view_distribution(
    mechs: Sequence[DiscreteMechanism], h: Hypothesis
) -> ViewDistribution:
    """View distribution under a composite hypothesis: the atom-weighted mixture.

    Each atom's product measure is built left to right, one outer
    product per mechanism, and added with its weight in the
    hypothesis's ascending word order, so results are deterministic.
    Mechanism 0 is a word's top bit, so consecutive atoms share the
    products over their common leading bits: a stack keeps the previous
    atom's prefix products and only the differing tail is rebuilt, from
    the same operands in the same order. The stack holds at most twice
    the view space, even for thousands of atoms. Work beyond
    ``MAX_MIXTURE_WORK`` is refused up front.
    """
    mixture = np.zeros(_check_view_space(mechs, h.k, len(h)))
    tables = [(m.probs_for(0), m.probs_for(1)) for m in mechs]
    # prefix[m]: product over mechanisms 0..m-1 of the previous atom (none before the first).
    prefix, previous = [np.ones(1)], 0
    for word, bits, w in zip(h.words.tolist(), bit_rows(h.words, h.k).tolist(),
                             h.weights.tolist()):
        shared = min(len(prefix) - 1, h.k - (word ^ previous).bit_length())
        del prefix[shared + 1:]
        for table, bit in zip(tables[shared:], bits[shared:]):
            prefix.append(np.multiply.outer(table[bit], prefix[-1]).ravel())
        mixture += w * prefix[-1]
        previous = word
    # Each view's product is taken left to right, but the new axis goes
    # first so numpy's inner loop runs over the long axis; one transpose
    # then makes mechanism 0 the most significant digit again.
    alphabets = tuple(m.alphabet for m in mechs)
    mixture = mixture.reshape([len(a) for a in reversed(alphabets)]).transpose().ravel()
    return ViewDistribution(mixture, alphabets)


def required_delta(p0: ViewDistribution, p1: ViewDistribution, eps: float) -> float:
    """Minimal delta making Pr0(S) <= e^eps Pr1(S) + delta hold for all S.

    Equals the hockey-stick divergence sum_v max(0, P0(v) - e^eps P1(v)):
    the worst output set is exactly the set of views where P0 exceeds
    e^eps P1. At eps = 0 this is the total variation distance.
    """
    if p0.alphabets != p1.alphabets:
        raise MismatchedSupportError("view distributions cover different view spaces")
    if not eps >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {eps}")
    # Where P1(v) = 0 the gap is P0(v). From 700 nats on, e^eps would
    # overflow, so e^eps P1 is exp(eps + ln P1), capped at e^700 > P0(v).
    gaps = p0.probs.copy()
    scaled = p1.probs != 0.0
    if eps < 700.0:
        gaps[scaled] -= math.exp(eps) * p1.probs[scaled]
    else:
        gaps[scaled] -= np.exp(np.minimum(eps + np.log(p1.probs[scaled]), 700.0))
    return exact_sum(gaps[gaps > 0.0])


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of checking a claimed guarantee against exact enumeration."""

    delta_needed_fwd: float
    delta_needed_rev: float
    sound: bool

    @property
    def delta_needed(self) -> float:
        return max(self.delta_needed_fwd, self.delta_needed_rev)


def verify_hdp(
    mechs: Sequence[DiscreteMechanism],
    p0: Hypothesis,
    p1: Hypothesis,
    claimed: PrivacyParams,
) -> VerifyReport:
    """Check a claimed guarantee for a hypothesis pair by exact enumeration.

    Both directed inequalities are evaluated at the claimed epsilon; the
    claim is sound iff the larger of the two required deltas stays
    within the claimed delta plus ``SOUNDNESS_SLACK``.
    """
    d0 = mixture_view_distribution(mechs, p0)
    d1 = mixture_view_distribution(mechs, p1)
    fwd = required_delta(d0, d1, claimed.epsilon)
    rev = required_delta(d1, d0, claimed.epsilon)
    return VerifyReport(
        delta_needed_fwd=fwd,
        delta_needed_rev=rev,
        sound=max(fwd, rev) <= claimed.delta + SOUNDNESS_SLACK,
    )


def simulate_experiment(
    mechs: Sequence[DiscreteMechanism],
    b: BitVector,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Sample i.i.d. views under vector b and count them on the flat view index.

    Uses the counter-based Philox generator with one stream per
    iteration derived from (seed, iteration index), so counts are
    bit-reproducible across platforms for a given seed. Every view in
    the space has an entry, including zero counts. More than
    ``MAX_TRIALS`` trials raise ``ViewSpaceTooLargeError`` before any
    allocation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ViewSpaceTooLargeError(f"{trials} trials exceeds {MAX_TRIALS}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    total = _check_view_space(mechs, b.k)

    combined = np.zeros(trials, dtype=np.int64)
    stride = total
    for i, (mech, bit) in enumerate(zip(mechs, bit_rows([b.word], b.k)[0].tolist())):
        probs = mech.probs_for(bit)
        probs /= probs.sum()
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        draws = rng.choice(len(probs), size=trials, p=probs)
        stride //= len(probs)
        combined += draws * stride
    return np.bincount(combined, minlength=total)
