"""Privacy accounting for DP composition under composite membership hypotheses.

The library computes (epsilon, delta) guarantees for sequences of
differentially private mechanisms when the adversary's knowledge about
which databases contain a target record is a distribution over bit
vectors rather than a single bit: constraint-derived bounds, uniform-
prior bounds via subsampling, and exact brute-force verification of
every bound on small discrete instances.
"""

from .composition import (
    Advanced,
    CompositionTheorem,
    SIMPLE,
    Simple,
    advanced_compose,
    best_classic_bound,
    compose,
    simple_compose,
)
from .constraints import (
    AT_MOST_ONE,
    MaxOnes,
    MembershipConstraint,
    NeighborhoodMode,
    PatternSet,
    allowed_vectors,
    constrained_bound,
    exclusive_groups_bound,
    parallel_bound,
)
from .core import (
    BitVector,
    Hypothesis,
    MechanismSequence,
    PrivacyParams,
)
from .errors import AccountingError
from .hypothesis_dp import (
    MatchedRefinement,
    hdp_guarantee,
    hdp_guarantee_over_set,
    refine_tuples,
    uniform_nonzero_closed_form,
)
from .oracle import (
    DiscreteMechanism,
    VerifyReport,
    ViewDistribution,
    leaky_rr,
    mixture_view_distribution,
    randomized_response,
    randomized_response_guarantee,
    required_delta,
    simulate_experiment,
    verify_hdp,
    view_distribution,
)
from .subsampling import amplify, uniform_prior_bound

__version__ = "0.1.0"

__all__ = [
    "AccountingError",
    "Advanced",
    "AT_MOST_ONE",
    "BitVector",
    "CompositionTheorem",
    "DiscreteMechanism",
    "Hypothesis",
    "MatchedRefinement",
    "MaxOnes",
    "MechanismSequence",
    "MembershipConstraint",
    "NeighborhoodMode",
    "PatternSet",
    "PrivacyParams",
    "SIMPLE",
    "Simple",
    "VerifyReport",
    "ViewDistribution",
    "advanced_compose",
    "allowed_vectors",
    "amplify",
    "best_classic_bound",
    "compose",
    "constrained_bound",
    "exclusive_groups_bound",
    "hdp_guarantee",
    "hdp_guarantee_over_set",
    "leaky_rr",
    "mixture_view_distribution",
    "parallel_bound",
    "randomized_response",
    "randomized_response_guarantee",
    "refine_tuples",
    "required_delta",
    "simple_compose",
    "simulate_experiment",
    "uniform_nonzero_closed_form",
    "uniform_prior_bound",
    "verify_hdp",
    "view_distribution",
]
