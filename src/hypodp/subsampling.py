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
block one row of a ``PAIR_DTYPE`` table of the all-absent
vs uniform-nonzero pair: a block mixes the vectors it holds, so by
joint convexity of the hockey-stick divergence its guarantee is a valid
per-piece guarantee.
Averaging the block deltas alone is unsound once they differ.

Only add/remove-one-record (unbounded) neighborhoods apply here: the
reduction to subsampling needs the differing record to be the only
record that varies.
"""

import math
from typing import Sequence

import numpy as np

from .composition import CompositionTheorem, compose_suffixes
from .core import PrivacyParams, bounded_params
from .errors import InvalidRateError
from .hypothesis_dp import PAIR_DTYPE, _aggregate, uniform_nonzero_closed_form

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
    return bounded_params(_amplified_epsilon(g.epsilon, rate), rate * g.delta)


def _amplified_epsilon(eps: float, rate: float) -> float:
    """``ln(1 + rate * (e^eps - 1))`` for a finite eps >= 0 and 0 < rate < 1."""
    if eps > 700.0:
        # e^eps overflows; ln(1 + rate*(e^eps - 1)) = eps + ln(rate) + o(1).
        return eps + math.log(rate) + math.log1p((1.0 - rate) / rate * math.exp(-eps))
    return math.log1p(rate * math.expm1(eps))


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
    sum_i w_i delta_hat_i. Blocks whose weight underflows to 0 (i >= 1074)
    are left out of the table, so any k works.

    The k tails, the suffixes of the halved guarantees from position 1 on, are
    one ``compose_suffixes`` call on their two columns, halved by ``amplify``'s
    formula. A block epsilon that overflows raises ``OverflowError``.
    """
    guarantees = list(seq)
    k = len(guarantees)
    if k == 0:
        raise ValueError("sequence must be non-empty")
    norm = -math.expm1(-k * LN2)
    halved = [_amplified_epsilon(g.epsilon, 0.5) for g in guarantees[1:]]
    tails = compose_suffixes(halved, [0.5 * g.delta for g in guarantees[1:]], theorem)
    tail_eps, tail_delta = tails.T.tolist()
    eps = [g.epsilon + t for g, t in zip(guarantees, tail_eps)]
    if math.inf in eps:
        raise OverflowError("a uniform-prior block epsilon overflows a double")
    delta = [g.delta + t for g, t in zip(guarantees, tail_delta)]
    n = min(k, 1074)  # block i weighs at most 2^-(i+1) / norm, which is 0 from i = 1074 on
    rows = [(math.ldexp(1.0, -(i + 1)) / norm, 0, i + 1) for i in range(n)]
    return _aggregate(np.array(rows, dtype=PAIR_DTYPE), np.arange(n), np.array([eps, delta]).T[:n])


# Module-level aliases, not exported from the package: only the benchmark
# harness under perfbench/ still reads them.
uniform_prior_split_bound = uniform_prior_bound
uniform_prior_closed_form = uniform_nonzero_closed_form
