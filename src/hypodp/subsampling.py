"""Privacy amplification by subsampling and the uniform-prior bounds.

An adversary with a uniform prior over which databases contain the
target (versus the all-absent hypothesis) is exactly as powerful as one
facing mechanisms run on an independent rate-1/2 record sample: picking
each iteration's database uniformly is Bernoulli(1/2) subsampling of
the single differing record. That identity turns amplification-by-
subsampling theorems into guarantees against the uniform-prior
adversary.

``uniform_prior_bound`` partitions the nonzero vectors by the position
of their first one-entry. Within the block whose first one is at
position i, the mechanisms before i see the absent database for sure,
mechanism i sees the present one for sure, and the rest are uniform,
i.e. subsampled at rate 1/2. Block i holds 2^(k-i) of the 2^k - 1
nonzero vectors, which is where the weights come from. The pipeline
hard-codes rate 1/2 because those weights are specific to the uniform
prior; ``amplify`` itself accepts any rate for standalone use.

The blocks combine by the group-wise rule of ``hypothesis_dp``, each
block one row of a ``refinement.PAIR_DTYPE`` table of the all-absent
vs uniform-nonzero pair: a block mixes the vectors it holds, so by
joint convexity of the hockey-stick divergence its guarantee is a valid
per-piece guarantee.
Averaging the block deltas alone is unsound once they differ.

Only add/remove-one-record (unbounded) neighborhoods apply here: the
reduction to subsampling needs the differing record to be the only
record that varies.
"""

import math
from itertools import accumulate
from typing import Sequence

import numpy as np

from .composition import CompositionTheorem, Simple, compose
from .core import PrivacyParams, bounded_params
from .errors import InvalidRateError
from .hypothesis_dp import _aggregate, uniform_nonzero_closed_form
from .refinement import PAIR_DTYPE

LN2 = math.log(2.0)


def amplify(g: PrivacyParams, rate: float) -> PrivacyParams:
    """Guarantee after running the mechanism on a Bernoulli(rate) sample.

    Returns ``(ln(1 + rate * (e^eps - 1)), rate * delta)``. Rate 1 is
    the identity and rate 0 yields the perfectly private (0, 0).
    """
    if not 0.0 <= rate <= 1.0:
        raise InvalidRateError(f"sampling rate must be in [0, 1], got {rate}")
    if rate == 1.0:
        return g
    if rate == 0.0:
        return PrivacyParams(0.0, 0.0)
    if g.epsilon > 700.0:
        # e^eps overflows; ln(1 + rate*(e^eps - 1)) = eps + ln(rate) + o(1).
        eps = g.epsilon + math.log(rate) + math.log1p((1.0 - rate) / rate * math.exp(-g.epsilon))
    else:
        eps = math.log1p(rate * math.expm1(g.epsilon))
    return bounded_params(eps, rate * g.delta)


def uniform_prior_bound(
    seq: Sequence[PrivacyParams], theorem: CompositionTheorem
) -> PrivacyParams:
    """Uniform-prior guarantee, one block per position of the first one.

    Block i (counted from 0) weighs w_i = 2^-(i+1) / (1 - 2^-k) and
    composes its head at full strength plus its rate-1/2 tail, only the
    tail under ``theorem`` (so homogeneous sequences allow Advanced):

        eps_hat_i, delta_hat_i = g_i + compose(amplify(g_j, 1/2) for j > i)

    Block i is the table row (w_i, 0, i + 1) with the guarantee
    (eps_hat_i, delta_hat_i), combined by ``hypothesis_dp._aggregate``:
    epsilon is ln(sum_i w_i e^eps_hat_i) and delta is at least
    sum_i w_i delta_hat_i. Weights that underflow to 0 drop out, so any
    k works.

    Under ``Simple`` all k tails come from one backward pass in O(k):
    each is the exact suffix sum rounded once, which is the double
    ``math.fsum`` returns for that slice. Other theorems compose each
    tail on its own. A block epsilon that overflows raises
    ``OverflowError``.
    """
    guarantees = list(seq)
    k = len(guarantees)
    if k == 0:
        raise ValueError("sequence must be non-empty")
    halved = [amplify(g, 0.5) for g in guarantees]
    norm = -math.expm1(-k * LN2)
    if isinstance(theorem, Simple):
        tail_eps = _exact_suffix_sums([g.epsilon for g in halved])[1:]
        tail_delta = [min(1.0, d) for d in _exact_suffix_sums([g.delta for g in halved])[1:]]
    else:
        tails = [compose(halved[i + 1 :], theorem) for i in range(k)]
        tail_eps, tail_delta = [t.epsilon for t in tails], [t.delta for t in tails]
    eps = [g.epsilon + t for g, t in zip(guarantees, tail_eps)]
    if math.inf in eps:
        raise OverflowError("a uniform-prior block epsilon overflows a double")
    delta = [g.delta + t for g, t in zip(guarantees, tail_delta)]
    rows = [(math.ldexp(1.0, -(i + 1)) / norm, 0, i + 1) for i in range(k)]
    return _aggregate(np.array(rows, dtype=PAIR_DTYPE), np.array(eps), np.array(delta))


def _exact_suffix_sums(values: Sequence[float]) -> list[float]:
    """``[math.fsum(values[i:]) for i in range(len(values) + 1)]`` in O(n).

    Each double is ``n / d`` with ``d`` a power of two, so scaled by the
    largest ``d`` every value and every suffix sum is an exact integer.
    One int true division rounds each suffix correctly, half to even, to
    the double ``math.fsum`` returns. A sum too large for a double raises
    ``OverflowError``, as ``math.fsum`` does.
    """
    ratios = [x.as_integer_ratio() for x in values]
    scale = max((d for _, d in ratios), default=1)
    sums = accumulate(reversed([n * (scale // d) for n, d in ratios]), initial=0)
    try:
        return [s / scale for s in sums][::-1]
    except OverflowError as exc:
        raise OverflowError("intermediate overflow in fsum") from exc


# Module-level aliases, not exported from the package: only the benchmark
# harness under perfbench/ still reads them.
uniform_prior_split_bound = uniform_prior_bound
uniform_prior_closed_form = uniform_nonzero_closed_form
