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
import operator
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from typing import Hashable, Mapping, Sequence

import numpy as np

from .core import BitVector, Hypothesis, PrivacyParams, _distinct, exact_sum
from .errors import (
    InvalidRateError,
    MismatchedSupportError,
    MixedLengthError,
    ViewSpaceTooLargeError,
)

# Views one distribution may hold; also the entries one contraction step may hold.
MAX_VIEW_SPACE = 10_000_000

# Trials one simulation may draw: about 32 bytes each, so at most about 0.5 GB.
MAX_TRIALS = 2**24

# Draws one simulate run may make, vectors x positions x trials, refused before the
# first draw: at about 10 ns a draw, some 40 s. hospitals.yaml makes 1024 x 10 x 100,000.
MAX_DRAWS = 2**32

# Absolute slack on delta comparisons; covers accumulated rounding in
# product measures over up to MAX_VIEW_SPACE entries.
SOUNDNESS_SLACK = 1e-12

# ln 2^-1074 and ln 2^-1022: the smallest positive double and the smallest normal one.
LOG_SMALLEST_DOUBLE = math.log(math.ulp(0.0))
LOG_SMALLEST_NORMAL = math.log(sys.float_info.min)

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

    @cached_property
    def alphabet(self) -> tuple[Symbol, ...]:
        return tuple(sorted(self.absent))

    @cached_property
    def _log_min_probability(self) -> float:
        """ln of the smallest positive probability; the oracle reads it on every call."""
        return math.log(min(p for d in (self.absent, self.present) for p in d.values() if p > 0))

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The absent and present probabilities in ``alphabet`` order, built once, read-only."""
        tables = tuple(np.array([d[y] for y in self.alphabet], dtype=np.float64)
                       for d in (self.absent, self.present))
        for table in tables:
            table.flags.writeable = False
        return tables

    @cached_property
    def _thresholds(self) -> tuple[tuple[np.uint64, ...], tuple[np.uint64, ...]]:
        """Per bit, the raw 64-bit draws at which ``simulate_experiment`` passes each CDF entry.

        ``Generator.choice`` draws a symbol as the number of entries of the
        normalized CDF at or below ``u = (raw >> 11) 2^-53``, and ``c 2^53`` is
        exact, so ``u >= c`` holds exactly when ``raw >= ceil(c 2^53) 2^11``.
        No ``u`` reaches 1, so entries equal to 1 are left out.
        """
        thresholds = []
        for probs in self._tables:
            cdf = (probs / probs.sum()).cumsum()
            cdf /= cdf[-1]
            thresholds.append(tuple(np.uint64(math.ceil(c * 2.0**53) << 11)
                                    for c in cdf.tolist() if c < 1.0))
        return tuple(thresholds)


@dataclass(frozen=True, eq=False)
class ViewDistribution:
    """Exact probability of every view on the flat view index.

    ``probs[i]`` is the probability of the i-th view of ``itertools.product(*alphabets)``
    and ``len(probs)`` the view count; each is >= 0, and their numpy sum is 1 within 1e-9.
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
        if self.probs.min() < 0.0:
            raise ValueError("view probabilities must be non-negative")


def randomized_response(q: float) -> DiscreteMechanism:
    """The canonical binary test mechanism.

    Reports the true bit with probability 1-q and lies with probability
    q, giving a pure DP guarantee of epsilon = ln((1-q)/q).
    """
    if not 0.0 < q < 0.5:
        raise InvalidRateError(f"q must be in (0, 0.5), got {q}")
    return DiscreteMechanism(absent={1: q, 0: 1.0 - q}, present={1: 1.0 - q, 0: q})


def leaky_rr(eps: float, delta: float) -> DiscreteMechanism:
    """The canonical (eps, delta)-DP mechanism, on at most four symbols.

    Symbols ``a`` and ``b`` answer as randomized response at ``eps``;
    ``r0`` and ``r1`` reveal the absent and present database with
    probability ``delta``. Symbols of probability 0 under both databases
    are left out, so delta 0 gives randomized response at
    ``q = e^-eps / (1 + e^-eps)`` and delta 1 keeps ``r0`` and ``r1``.
    Every (eps, delta)-DP mechanism is a post-processing of this one
    (Kairouz, Oh, Viswanath 2015), so a claim the oracle accepts on it
    holds for every mechanism with those guarantees. Built from
    ``e^-eps``, so nothing overflows. From about 708 nats
    ``(1 - delta) e^-eps`` is subnormal, too coarse to keep
    ``hi <= e^eps lo``, and it raises ``ValueError`` unless delta is 1.
    """
    PrivacyParams(eps, delta)  # rejects an invalid pair
    r = math.exp(-eps)
    hi = (1.0 - delta) / (1.0 + r)
    lo = (1.0 - delta) * r / (1.0 + r)
    if lo < sys.float_info.min and delta < 1.0:
        raise ValueError(f"leaky_rr: (1 - delta) e^-eps is subnormal at eps={eps!r}")
    table = {"a": (hi, lo), "b": (lo, hi), "r0": (delta, 0.0), "r1": (0.0, delta)}
    kept = [y for y, probs in table.items() if max(probs) > 0.0]
    return DiscreteMechanism(*({y: table[y][bit] for y in kept} for bit in (0, 1)))


def randomized_response_guarantee(q: float) -> PrivacyParams:
    """The (ln((1-q)/q), 0) guarantee of :func:`randomized_response`."""
    if not 0.0 < q < 0.5:
        raise InvalidRateError(f"q must be in (0, 0.5), got {q}")
    return PrivacyParams(math.log((1.0 - q) / q), 0.0)


def _log_rarest_view(mechs: Sequence[DiscreteMechanism]) -> float:
    """ln of the smallest positive view probability: each mechanism's smallest, multiplied."""
    return math.fsum(m._log_min_probability for m in mechs)


def _check_view_space(mechs: Sequence[DiscreteMechanism], k: int) -> tuple[int, float]:
    """Check one mechanism per position, a bounded view space and no view below 2^-1074.

    Returns the view count, which bounds every contraction step unless a
    mechanism has one symbol (``_plan``), and ``_log_rarest_view``. A view
    rounded to 0 would count the other side's whole mass in ``required_delta``
    at every epsilon.
    """
    if len(mechs) != k:
        raise MixedLengthError(f"{len(mechs)} mechanisms but vector of length {k}")
    total = math.prod(len(m.absent) for m in mechs)
    if total > MAX_VIEW_SPACE:
        raise ViewSpaceTooLargeError(f"{total} views exceeds {MAX_VIEW_SPACE}")
    log_rarest = _log_rarest_view(mechs)
    if log_rarest < LOG_SMALLEST_DOUBLE:
        raise ValueError(f"the rarest view has probability e^{log_rarest:.6g}, "
                         f"which underflows a double (below e^{LOG_SMALLEST_DOUBLE:.6g})")
    return total, log_rarest


def view_distribution(mechs: Sequence[DiscreteMechanism], b: BitVector) -> ViewDistribution:
    """Product distribution of the k outputs when vector b picks the databases.

    The one-row plan of b (``_one_row``) contracted from weight 1, with no
    ``Hypothesis`` built: the views ``mixture_view_distribution`` gives the
    point mass on b, bit for bit.
    """
    _check_view_space(mechs, b.k)
    views = _contract(np.ones((1, 1)), _one_row(b.word, b.k), [m._tables for m in mechs])
    return ViewDistribution(views, tuple(m.alphabet for m in mechs))


def mixture_view_distribution(
    mechs: Sequence[DiscreteMechanism], h: Hypothesis
) -> ViewDistribution:
    """View distribution under a composite hypothesis: the atom-weighted mixture.

    A product-measure contraction, one step per mechanism (``_contract``).
    The state starts as the weights, one row per atom's word. Step i folds
    in mechanism i: the rows ``x[0 s]`` and ``x[1 s]``, whose words agree
    past bit i, become the row ``s`` of ``t_i(0) x[0 s] + t_i(1) x[1 s]``,
    widened by mechanism i's symbols. So the rows are the atoms' distinct
    remaining suffixes and the columns the views' prefixes, mechanism 0 the
    most significant digit; the last step leaves the flat view index.
    Products and sums are separate elementwise numpy operations, so the
    rounding is the same on every platform. One atom keeps one row and no sum:
    its weight's products, left to right, ``((w t_0) t_1) ...``. A plan with a
    step of more than ``MAX_VIEW_SPACE`` entries is refused before any product
    (``_plan``), so the work is at most k such steps.
    """
    _check_view_space(mechs, h.k)
    return ViewDistribution(_plan(mechs, h)(), tuple(m.alphabet for m in mechs))


def _plan(mechs: Sequence[DiscreteMechanism], h: Hypothesis) -> partial:
    """The call that yields the flat views of ``h``, once every step fits ``MAX_VIEW_SPACE``.

    The caller has run ``_check_view_space`` for ``h.k``. Step i holds the suffixes
    left after it, at most 2^(k-1-i), times |A_0| ... |A_i| prefixes: more than the
    views, and so more than ``_check_view_space`` allows, only where a later
    mechanism has one symbol and keeps two suffixes apart.
    """
    steps = _steps(h)
    prefixes = accumulate((len(m.alphabet) for m in mechs), operator.mul)
    largest = max(rows * width for (_, rows, _, _), width in zip(steps, prefixes))
    if largest > MAX_VIEW_SPACE:
        raise ViewSpaceTooLargeError(f"contraction step of {largest} entries "
                                     f"exceeds {MAX_VIEW_SPACE}")
    return partial(_contract, h.weights[:, None], steps, [m._tables for m in mechs])


def _steps(h: Hypothesis) -> list[tuple[int, int, slice | np.ndarray, slice | np.ndarray]]:
    """Each contraction step's ``(split, rows, low, high)`` for the atoms of ``h``.

    Before step i the rows are the atoms' distinct suffixes of bits i to k - 1,
    ascending, so the first ``split`` have bit i clear. They go to the rows ``low``
    of the step's output and the others to the rows ``high``: a slice where consecutive.
    The suffixes come from merging the atoms' (``_merge``), or in closed form: one
    atom keeps one row throughout (``_one_row``), and a uniform preset on the words
    ``first, ..., 2^k - 1`` (``Hypothesis._first``) has, without reading them, every
    word below 2^(k-i) before step i, word 0 excepted before step 0 when ``first`` is 1.
    """
    if h._first is not None:
        top, first = 1 << (h.k - 1), h._first
        return [(top - first, top, slice(first, top), slice(0, top))] + [
            (half, half, slice(0, half), slice(0, half)) for half in (top >> i for i in range(1, h.k))]
    if len(h) == 1:
        return _one_row(int(h.words[0]), h.k)
    return _merge(h.words.astype(np.int64), h.k)


def _one_row(word: int, k: int) -> list[tuple[int, int, slice, slice]]:
    """One vector's plan: at step i its one row is on the side of its bit i, ``1 - bit_i``."""
    return [(1 - (word >> (k - 1 - i) & 1), 1, slice(0, 1), slice(0, 1)) for i in range(k)]


# Suffixes up to which a merge step runs on Python ints: the whole plan of 5-30 random
# atoms at k = 7-9 took 0.3-0.6x numpy's time, 60 atoms 0.7x, 100 atoms 0.9x and 200
# atoms 1.4x (2-core Xeon, numpy 2.4.6). Suffixes only merge, so a plan switches once.
_LIST_MERGE = 64


def _merge(suffixes: np.ndarray, k: int) -> list:
    """The plan of the atoms' ascending int64 words, merging each step's two halves.

    A step of at most ``_LIST_MERGE`` suffixes merges them as a sorted list of
    Python ints, larger steps as numpy arrays: the same integers either way.
    """
    steps = []
    for i in range(k):
        half = 1 << (k - 1 - i)
        if len(suffixes) <= _LIST_MERGE and not isinstance(suffixes, list):
            suffixes = suffixes.tolist()
        split = bisect_left(suffixes, half)
        low, high = suffixes[:split], suffixes[split:]
        if isinstance(suffixes, list):
            high = [s - half for s in high]
            suffixes = sorted({*low, *high})
            row = {s: j for j, s in enumerate(suffixes)}
            positions = [row[s] for s in low], [row[s] for s in high]
        else:
            merged = np.concatenate((low, high - half))
            first, rank = _distinct(merged, "stable")  # two ascending runs
            suffixes, positions = merged[first], (rank[:split], rank[split:])
        steps.append((split, len(suffixes), *map(_as_slice, positions)))
    return steps


def _as_slice(positions: list[int] | np.ndarray) -> slice | np.ndarray:
    """Ascending distinct positions, as a slice where they are consecutive, else an intp array."""
    if len(positions) and positions[-1] - positions[0] == len(positions) - 1:
        return slice(int(positions[0]), int(positions[-1]) + 1)
    return np.asarray(positions, dtype=np.intp)


# Entries of a contraction step up to which one broadcast product per side beats one
# product per symbol: 0.42-0.90x its time at 512 entries, 1.2-1.8x from 2048 on
# (2 and 4 symbols; 2-core Xeon, numpy 2.4.6).
_BROADCAST_ENTRIES = 512


def _contract(x: np.ndarray, steps: list, tables: list) -> np.ndarray:
    """Fold ``tables`` into the state ``x``, one row per remaining suffix and one column
    per view prefix, by steps that fit (``_plan``; one row fits the views); the flat views.

    A step of at most ``_BROADCAST_ENTRIES`` entries takes one broadcast product per
    side, a larger one a product per symbol: the same products and sums either way."""
    for (split, rows, low, high), (t0, t1) in zip(steps, tables):
        sides = [(x[:split], t0, low), (x[split:], t1, high)]
        if split < len(x) - split:  # addition commutes: the larger side is written first
            sides.reverse()
        (xa, ta, to_a), (xb, tb, to_b) = sides
        y = (np.empty if len(xa) == rows else np.zeros)((rows, x.shape[1], len(t0)))
        if y.size <= _BROADCAST_ENTRIES:
            if isinstance(to_a, slice):
                np.multiply(xa[:, :, None], ta, out=y[to_a])
            else:
                y[to_a] = xa[:, :, None] * ta
            if len(xb):
                y[to_b] += xb[:, :, None] * tb
            x = y.reshape(rows, -1)
            continue
        for v in range(len(t0)):  # a symbol at a time keeps numpy's inner loop long
            if isinstance(to_a, slice):
                np.multiply(xa, ta[v], out=y[to_a, :, v])
            else:
                y[to_a, :, v] = xa * ta[v]
            if len(xb):
                y[to_b, :, v] += xb * tb[v]
        x = y.reshape(rows, -1)
    return x[0]


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
    # Where P1(v) = 0 the gap is P0(v): below 700 nats e^eps is finite, so
    # e^eps * 0 is +0.0. From 700 nats on, e^eps would overflow (and at
    # eps = inf, inf + ln 0 is NaN), so only views with P1 > 0 are scaled,
    # by exp(eps + ln P1) capped at e^700 > P0(v).
    if eps < 700.0:
        gaps = math.exp(eps) * p1.probs
        np.subtract(p0.probs, gaps, out=gaps)
    else:
        gaps = p0.probs.copy()
        scaled = p1.probs != 0.0
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
    within the claimed delta plus ``SOUNDNESS_SLACK``. A claim the views
    cannot resolve raises ``ValueError`` (``_check_resolution``), and a
    plan over the view space ``ViewSpaceTooLargeError`` (``_plan``),
    both before either side is enumerated.
    """
    _check_resolution(mechs, p0, p1, claimed.epsilon)
    plans = [_plan(mechs, h) for h in (p0, p1)]
    d0, d1 = (ViewDistribution(plan(), tuple(m.alphabet for m in mechs)) for plan in plans)
    fwd = required_delta(d0, d1, claimed.epsilon)
    rev = required_delta(d1, d0, claimed.epsilon)
    return VerifyReport(
        delta_needed_fwd=fwd,
        delta_needed_rev=rev,
        sound=max(fwd, rev) <= claimed.delta + SOUNDNESS_SLACK,
    )


def _check_resolution(
    mechs: Sequence[DiscreteMechanism], p0: Hypothesis, p1: Hypothesis, eps: float
) -> None:
    """Refuse a claimed epsilon at which view rounding could exceed ``SOUNDNESS_SLACK``.

    First ``_check_view_space`` for both sides, which must share its k.

    Each view of ``mixture_view_distribution`` is a tree of sums over
    products of one weight and one table entry per mechanism. Step i
    rounds, in each view's one column, a product per input row and a sum
    per output row with two parents: at most ``min(n, 2^(k-i))`` and
    ``min(n, 2^(k-1-i))``, the input rows of step 0 being the n atoms.
    So a view takes at most ``n + 2 sum_{i<k} min(n, 2^(k-1-i))``
    roundings; a point mass takes k - 1, as its one row (``_one_row``) is
    never summed and its first product, 1 times t_0, is exact. A subnormal result
    keeps an absolute precision of 2^-1074 per rounding; later factors
    are at most 1 and sums only add errors, so no error grows, and the
    hockey-stick scales the total by e^eps. Where no product or weight
    can be subnormal, rounding is relative and ``SOUNDNESS_SLACK`` covers it.
    """
    views, log_rarest = _check_view_space(mechs, p0.k)
    if p1.k != p0.k:
        raise MixedLengthError(f"{len(mechs)} mechanisms but vector of length {p1.k}")
    k = len(mechs)

    def per_view(h: Hypothesis) -> int:
        n = len(h)
        if n == 1 and h.weights[0] == 1.0:
            return k - 1
        return n + 2 * sum(min(n, 1 << (k - 1 - i)) for i in range(k))

    roundings = views * max(per_view(p0), per_view(p1))
    lightest = min(float(p0.weights.min()), float(p1.weights.min()))
    if (roundings and log_rarest + math.log(lightest) < LOG_SMALLEST_NORMAL
            and eps + LOG_SMALLEST_DOUBLE + math.log(roundings) > math.log(SOUNDNESS_SLACK)):
        raise ValueError(f"epsilon {eps!r} scales the rounding of subnormal view "
                         f"probabilities past the oracle's slack of {SOUNDNESS_SLACK!r}")


def simulate_experiment(
    mechs: Sequence[DiscreteMechanism],
    b: BitVector,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Sample i.i.d. views under vector b and count them on the flat view index.

    Uses the counter-based Philox generator with one stream per
    iteration derived from (seed, iteration index), so counts are
    bit-reproducible across platforms for a given seed. One Philox bit
    generator, built from a fixed ``SeedSequence`` so that no OS entropy
    is read, is re-keyed to ``(seed, i)`` through its ``state`` before
    position i: counter 0 and an empty buffer, the state
    ``Philox(key=[seed, i])`` starts in. Each symbol is drawn by the
    inverse CDF, as ``Generator.choice`` draws it from the same stream,
    but on the raw 64-bit outputs against the mechanism's cached integer
    thresholds (``DiscreteMechanism._thresholds``), with the same counts.
    Every view in the space has an entry, including zero counts. More than
    ``MAX_TRIALS`` trials raise ``ViewSpaceTooLargeError`` before any
    allocation.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ViewSpaceTooLargeError(f"{trials} trials exceeds {MAX_TRIALS}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")
    total, _ = _check_view_space(mechs, b.k)

    bitgen = np.random.Philox(np.random.SeedSequence(0))
    # Philox(key=[seed, i])'s first state: counter 0 and an empty buffer (buffer_pos 4).
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    combined = np.zeros(trials, dtype=np.int64)
    stride = total
    for i, mech in enumerate(mechs):
        state["state"]["key"] = (seed, i)
        bitgen.state = state
        raw = bitgen.random_raw(trials)
        stride //= len(mech.alphabet)
        for threshold in mech._thresholds[b.word >> (b.k - 1 - i) & 1]:
            combined += stride * (raw >= threshold)
    return np.bincount(combined, minlength=total)
