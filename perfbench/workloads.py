"""Seeded workloads for the hypodp benchmark.

Each workload is a fixed schedule of query *kinds* (what is asked and at
which size) that repeats in rounds; the seed shuffles the order inside
every round and draws each query's contents (mechanism parameters,
mixture atoms and weights, patterns, scenario files).  Keeping the mix
of sizes fixed and randomising only contents is what keeps the latency
quantiles of two seeds comparable.  Kinds listed in ``ONCE`` run in the
first round only: they are the documented heavy cases, too slow to
repeat inside a run.

Every query has three parts:

* ``op``: the library calls a user would make, timed.  Ops reach the
  library through module attributes (``hypothesis_dp.hdp_guarantee``,
  not a name bound at import), so the traced run can wrap them.
* ``check``: validates the output and returns ``None`` or a failure
  cause.  Checks call the reference functions bound in ``REF`` at
  import time, which a traced run leaves unwrapped.
* ``known``: failure causes that are documented defects of the library
  at the time this benchmark was written (see ``README.md``).  They are
  counted as failed queries like any other; a failure outside this set
  additionally marks the whole run as not correct.
"""

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import yaml

from hypodp import cli, composition, constraints, core, hypothesis_dp, oracle, subsampling

REF = {
    "uniform_nonzero_closed_form": hypothesis_dp.uniform_nonzero_closed_form,
    "uniform_prior_closed_form": subsampling.uniform_prior_closed_form,
}

SIMPLE = composition.Simple()
ADVANCED = composition.Advanced(1e-6)
UNBOUNDED = constraints.NeighborhoodMode.UNBOUNDED
BOUNDED = constraints.NeighborhoodMode.BOUNDED

# Known defects: failure cause -> label.  The labels name the defect so a
# traced run can report failures by cause.
MIXTURE_UNSOUND = {"unsound": "hdp_guarantee log-sum-exp aggregation of two mixtures"}
PICK_UNSOUND = {"unsound": "constrained_bound _pick keeps the epsilon-max candidate's delta"}
OVERFLOW = {"raised:OverflowError": "uniform-prior pipelines overflow at k >= 1024"}
CLI_EAGER = {"exit:1": "CLI builds the default uniform_nonzero hypothesis for every command"}


@dataclass
class Query:
    index: int
    kind: str
    k: int
    op: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    known: dict = field(default_factory=dict)
    judged_by_oracle: bool = False


def result_repr(result) -> str:
    """Bit-exact text of a result, used for the repeat checks."""
    if isinstance(result, core.PrivacyParams):
        return f"{result.epsilon.hex()} {result.delta.hex()}"
    return repr(result)


def delta_floor(deltas) -> float:
    """Smallest delta any sound claim can state for these mechanisms.

    With the leaky randomized-response mechanism built by ``leaky_rr``
    each position whose bit differs reveals the database with its
    probability delta_i, and the revealing views have probability zero
    under the other vector.  Their total mass 1 - prod(1 - delta_i) must
    therefore be covered by the claimed delta at every epsilon.
    """
    return -math.expm1(math.fsum(math.log1p(-d) for d in deltas))


def leaky_rr(q: float, delta: float) -> oracle.DiscreteMechanism:
    """Randomized response that reveals membership with probability delta.

    Exactly (ln((1-q)/q), delta)-DP: symbol ``r0`` can only occur when
    the record is absent and ``r1`` only when it is present.
    """
    return oracle.DiscreteMechanism(
        absent={"a": (1 - delta) * (1 - q), "b": (1 - delta) * q, "r0": delta, "r1": 0.0},
        present={"a": (1 - delta) * q, "b": (1 - delta) * (1 - q), "r0": 0.0, "r1": delta},
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _draw(rng: random.Random, value):
    """A size from the schedule: fixed, or drawn uniformly from a (lo, hi) range."""
    return rng.randint(*value) if isinstance(value, tuple) else value


def _words(rng: random.Random, k: int, n: int) -> list[int]:
    return rng.sample(range(1 << k), min(n, (1 << k) - 1))


def _weights(rng: random.Random, n: int) -> list[float]:
    raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
    total = math.fsum(raw)
    return [w / total for w in raw]


def _hypothesis(k: int, words, weights) -> core.Hypothesis:
    return core.Hypothesis([(core.BitVector(w, k), p) for w, p in zip(words, weights)])


def _preset(name: str, k: int) -> core.Hypothesis:
    if name == "zero":
        return core.Hypothesis.point_mass(core.BitVector.zeros(k))
    if name == "uniform_all":
        return core.Hypothesis.uniform_all(k)
    return core.Hypothesis.uniform_nonzero(k)


class Workload:
    """A seeded, endless sequence of queries built from a round schedule."""

    name = ""
    ROUND: list = []
    ONCE: list = []
    # Seconds one round of ROUND, and the ONCE kinds, take at the commit
    # that introduced this benchmark (2-core Xeon VM, 2.1 GHz).  They turn
    # ``--seconds`` into a whole number of rounds, so every run of a commit
    # does the same work.
    ROUND_SECONDS = 1.0
    ONCE_SECONDS = 0.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.seen: dict = {}  # repeat key -> result text of its first run
        self._order: list = []
        self._rounds = 0
        self.setup()

    def setup(self) -> None:
        """Inputs shared by many queries; runs before the first timed query."""

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, self.seed) + parts))

    def spec(self, index: int):
        while index >= len(self._order):
            specs = list(self.ROUND) + (list(self.ONCE) if not self._order else [])
            self.rng("round", self._rounds).shuffle(specs)
            self._rounds += 1
            self._order.extend(specs)
        return self._order[index]

    def rounds_for(self, seconds: float) -> int:
        return max(1, round((seconds - self.ONCE_SECONDS) / self.ROUND_SECONDS))

    def queries_for(self, rounds: int) -> int:
        return len(self.ONCE) + rounds * len(self.ROUND)

    def query(self, index: int) -> Query:
        return self.build(index, self.spec(index), self.rng("query", index))

    def build(self, index: int, spec, rng: random.Random) -> Query:
        raise NotImplementedError


def _repeat_check(seen: dict, key, check):
    """Wrap ``check`` so that repeated inputs must give bit-identical results."""

    def checked(result):
        text = result_repr(result)
        if seen.setdefault(key, text) != text:
            return "mismatch:repeat"
        return check(result)

    return checked


def _valid(_result) -> None:
    return None


# --------------------------------------------------------------- hdp_pairs


class HdpPairs(Workload):
    """hdp_guarantee on enumerated hypothesis pairs, k from 10 to 18.

    Half the kinds are presets whose inputs repeat across queries at the
    same k (a preset cache would hit them); the other half are fresh
    mixture-vs-mixture pairs with thousands of atoms that share nothing.
    """

    name = "hdp_pairs"
    # Presets: (shape, k, theorem).  Mixtures: ("mix", k, theorem, atoms),
    # k and the atom count of each side drawn per query from the ranges.
    ROUND = [
        ("zu", 10, "simple"), ("zu", 10, "advanced"), ("zu", 11, "simple"),
        ("zu", 12, "simple"), ("zu", 12, "advanced"), ("zu", 13, "simple"),
        ("zu", 14, "simple"), ("au", 10, "simple"), ("au", 11, "advanced"), ("au", 11, "simple"),
        ("au", 12, "simple"), ("au", 13, "simple"), ("au", 14, "simple"),
        ("mix", (12, 18), "simple", (500, 2000)), ("mix", (12, 18), "advanced", (500, 2000)),
        ("mix", (12, 18), "simple", (500, 2000)), ("mix", (12, 18), "simple", (500, 2000)),
        ("mix", (13, 18), "simple", (2000, 5000)), ("mix", (13, 18), "advanced", (2000, 5000)),
        ("mix", (13, 18), "simple", (2000, 5000)), ("mix", (13, 18), "simple", (2000, 5000)),
        ("mix", (15, 18), "simple", (5000, 12000)), ("mix", (15, 18), "advanced", (5000, 12000)),
        ("mix", (15, 18), "simple", (5000, 12000)), ("mix", (15, 18), "simple", (5000, 12000)),
    ]
    ONCE = [("zu", 16, "simple"), ("zu", 18, "simple")]
    ROUND_SECONDS = 3.5
    ONCE_SECONDS = 6.7

    def _homogeneous(self, rng, k):
        eps = rng.uniform(0.05, 0.5)
        delta = rng.choice([0.0, rng.uniform(1e-7, 1e-5)])
        return eps, delta, core.MechanismSequence.homogeneous(eps, delta, k)

    def build(self, index, spec, rng):
        shape, k, theorem_name = spec[:3]
        theorem = ADVANCED if theorem_name == "advanced" else SIMPLE
        if shape in ("zu", "au"):
            eps, delta, seq = self._homogeneous(self.rng("seq", k), k)
            p0_name = "zero" if shape == "zu" else "uniform_all"

            def op():
                p0 = _preset(p0_name, k)
                p1 = _preset("uniform_nonzero", k)
                return hypothesis_dp.hdp_guarantee(p0, p1, seq, theorem)

            check = _valid
            if shape == "zu" and theorem is SIMPLE:
                def check(result):
                    want = REF["uniform_nonzero_closed_form"](eps, delta, k)
                    if _close(result.epsilon, want.epsilon) and _close(result.delta, want.delta):
                        return None
                    return "mismatch:closed_form"

            key = (shape, k, theorem_name)
            return Query(index, f"{shape}_{theorem_name}", k, op,
                         _repeat_check(self.seen, key, check))

        k, atoms = _draw(rng, k), spec[3]
        n0, n1 = _draw(rng, atoms), _draw(rng, atoms)
        w0, w1 = _words(rng, k, n0), _words(rng, k, n1)
        p0_w, p1_w = _weights(rng, len(w0)), _weights(rng, len(w1))
        if theorem is SIMPLE:
            seq = core.MechanismSequence.from_pairs(
                (rng.uniform(0.05, 0.8), rng.choice([0.0, rng.uniform(1e-7, 1e-5)]))
                for _ in range(k)
            )
        else:
            seq = self._homogeneous(rng, k)[2]

        def op():
            return hypothesis_dp.hdp_guarantee(
                _hypothesis(k, w0, p0_w), _hypothesis(k, w1, p1_w), seq, theorem
            )

        key = ("mix", index)
        return Query(index, f"mix_{theorem_name}", k, op,
                     _repeat_check(self.seen, key, _valid))


# ------------------------------------------------------------ oracle_verify


class OracleVerify(Workload):
    """Claimed bounds checked by exact enumeration in the oracle.

    Randomized response (RR) with q in [0.2, 0.3] at k <= 10, and a
    4-symbol leaky RR with delta > 0 at k <= 7.  A query fails when the
    oracle refutes its claim.
    """

    name = "oracle_verify"
    ROUND = [
        # ("hdp", k, mech, p0, p1, theorem, homogeneous); p0/p1 are preset
        # names or ("mix", (lo, hi)) with the atom count drawn per query.
        ("hdp", 8, "rr", "zero", "uniform_nonzero", "simple", False),
        ("hdp", 9, "rr", "zero", "uniform_nonzero", "advanced", True),
        ("hdp", 7, "rr", "uniform_all", "uniform_nonzero", "simple", True),
        ("hdp", 8, "rr", "uniform_all", "uniform_nonzero", "simple", False),
        ("hdp", 5, "leaky", "zero", "uniform_nonzero", "simple", False),
        ("hdp", 6, "leaky", "zero", "uniform_nonzero", "simple", True),
        ("hdp", 5, "leaky", "uniform_all", "uniform_nonzero", "simple", False),
        ("hdp", 9, "rr", ("mix", (25, 60)), ("mix", (25, 60)), "simple", False),
        ("hdp", 10, "rr", ("mix", (30, 90)), ("mix", (30, 90)), "simple", False),
        ("hdp", 9, "rr", "zero", ("mix", (30, 100)), "simple", False),
        ("hdp", 5, "leaky", ("mix", (4, 16)), ("mix", (4, 16)), "simple", False),
        ("hdp", 6, "leaky", ("mix", (6, 20)), ("mix", (6, 20)), "simple", False),
        # ("maxones", k, m, mode) and ("patterns", k, count, mode), leaky RR.
        ("maxones", 7, 2, "bounded"), ("maxones", 7, 3, "unbounded"),
        ("patterns", 7, 6, "bounded"),
        # ("uniform_prior", k, mech, pipeline, homogeneous)
        ("uniform_prior", 8, "rr", "block", False), ("uniform_prior", 8, "rr", "split", False),
        ("uniform_prior", 6, "leaky", "split", True),
        # ("closed_form", k, mech, which)
        ("closed_form", 8, "rr", "uniform_nonzero"), ("closed_form", 8, "rr", "uniform_prior"),
        ("closed_form", 6, "leaky", "uniform_nonzero"), ("closed_form", 5, "leaky", "uniform_prior"),
        # ("bisect", k, mech, p0, p1): tight epsilon by bisection on required_delta.
        ("bisect", 7, "leaky", "zero", ("mix", (3, 8))),
        ("bisect", 10, "rr", "zero", ("mix", (20, 60))),
        ("bisect", 6, "leaky", ("mix", (4, 10)), ("mix", (4, 10))),
    ]
    ONCE = [
        ("hdp", 10, "rr", "zero", "uniform_nonzero", "simple", True),
        ("hdp", 7, "leaky", "zero", "uniform_nonzero", "simple", True),
    ]

    ROUND_SECONDS = 4.0
    ONCE_SECONDS = 4.4
    BISECT_STEPS = 30

    def build(self, index, spec, rng):
        kind, k = spec[0], spec[1]
        mech_name = spec[2] if kind not in ("maxones", "patterns") else "leaky"
        homogeneous = spec[-1] is True or kind == "closed_form"
        mechs, seq = self._mechanisms(rng, k, mech_name, homogeneous)
        known: dict = {}
        if kind == "hdp":
            _, _, _, s0, s1, theorem_name, _ = spec
            theorem = ADVANCED if theorem_name == "advanced" else SIMPLE
            h0, h1 = self._side(rng, k, s0), self._side(rng, k, s1)
            if s0 != "zero" and s1 != "zero":
                known = MIXTURE_UNSOUND

            def op():
                p0, p1 = h0(), h1()
                claim = hypothesis_dp.hdp_guarantee(p0, p1, seq, theorem)
                return oracle.verify_hdp(mechs, p0, p1, claim).sound

            label = f"hdp_{mech_name}_{_shape(s0)}{_shape(s1)}_{theorem_name}"
        elif kind in ("maxones", "patterns"):
            op, label = self._constrained(rng, spec, mechs, seq)
            known = PICK_UNSOUND
        elif kind == "uniform_prior":
            fn_name = "uniform_prior_bound" if spec[3] == "block" else "uniform_prior_split_bound"

            def op():
                claim = getattr(subsampling, fn_name)(seq, SIMPLE)
                return oracle.verify_hdp(mechs, _preset("zero", k),
                                         _preset("uniform_nonzero", k), claim).sound

            label = f"uniform_prior_{spec[3]}_{mech_name}"
        elif kind == "closed_form":
            which = spec[3]
            eps, delta = seq[0].epsilon, seq[0].delta

            def op():
                form = (hypothesis_dp.uniform_nonzero_closed_form if which == "uniform_nonzero"
                        else subsampling.uniform_prior_closed_form)
                claim = form(eps, delta, k)
                return oracle.verify_hdp(mechs, _preset("zero", k),
                                         _preset("uniform_nonzero", k), claim).sound

            label = f"closed_form_{which}_{mech_name}"
        else:
            s0, s1 = spec[3], spec[4]
            h0, h1 = self._side(rng, k, s0), self._side(rng, k, s1)
            if s0 != "zero" and s1 != "zero":
                known = MIXTURE_UNSOUND
            op = self._bisect_op(mechs, seq, h0, h1)
            label = f"bisect_{mech_name}_{_shape(s0)}{_shape(s1)}"

        def check(sound):
            return None if sound else "unsound"

        return Query(index, label, k, op, check, known, judged_by_oracle=True)

    def _mechanisms(self, rng, k, mech_name, homogeneous):
        count = 1 if homogeneous else k
        qs = [rng.uniform(0.2, 0.3) for _ in range(count)]
        if mech_name == "rr":
            deltas = [0.0] * count
            mechs = [oracle.randomized_response(q) for q in qs]
        else:
            deltas = [rng.uniform(1e-3, 2e-2) for _ in range(count)]
            mechs = [leaky_rr(q, d) for q, d in zip(qs, deltas)]
        seq = [core.PrivacyParams(math.log((1 - q) / q), d) for q, d in zip(qs, deltas)]
        if homogeneous:
            mechs, seq = mechs * k, seq * k
        return mechs, core.MechanismSequence(tuple(seq))

    @staticmethod
    def _side(rng, k, shape):
        if isinstance(shape, tuple):
            words = _words(rng, k, _draw(rng, shape[1]))
            weights = _weights(rng, len(words))
            return lambda: _hypothesis(k, words, weights)
        return lambda: _preset(shape, k)

    def _constrained(self, rng, spec, mechs, seq):
        kind, k, size, mode_name = spec
        mode = BOUNDED if mode_name == "bounded" else UNBOUNDED
        if kind == "maxones":
            constraint = constraints.MaxOnes(size)
            pairs = _maxones_witnesses(seq, size, mode)
        else:
            constraint, pairs = _random_patterns(rng, k, size, mode)
            pairs = _pattern_witnesses(seq, pairs)

        def op():
            claim = constraints.constrained_bound(seq, constraint, mode, SIMPLE)
            return all([
                oracle.verify_hdp(mechs, core.Hypothesis.point_mass(a),
                                  core.Hypothesis.point_mass(b), claim).sound
                for a, b in pairs
            ])

        return op, f"{kind}_{mode_name}"

    def _bisect_op(self, mechs, seq, h0, h1):
        steps = self.BISECT_STEPS

        def op():
            p0, p1 = h0(), h1()
            claim = hypothesis_dp.hdp_guarantee(p0, p1, seq, SIMPLE)
            d0 = oracle.mixture_view_distribution(mechs, p0)
            d1 = oracle.mixture_view_distribution(mechs, p1)

            def needed(eps):
                return max(oracle.required_delta(d0, d1, eps), oracle.required_delta(d1, d0, eps))

            limit = claim.delta + oracle.SOUNDNESS_SLACK
            if needed(claim.epsilon) > limit:
                return False
            lo, hi = 0.0, claim.epsilon
            for _ in range(steps):
                mid = 0.5 * (lo + hi)
                if needed(mid) > limit:
                    lo = mid
                else:
                    hi = mid
            return hi <= claim.epsilon

        return op


def _shape(side) -> str:
    if isinstance(side, tuple):
        return "m"
    return {"zero": "z", "uniform_all": "a", "uniform_nonzero": "u"}[side]


def _vector(k: int, positions) -> core.BitVector:
    word = 0
    for p in positions:
        word |= 1 << (k - 1 - p)
    return core.BitVector(word, k)


def _maxones_witnesses(seq, m, mode):
    """Point-mass pairs on which a MaxOnes(m) claim is most likely refuted.

    The pair whose differing positions carry the largest epsilons and
    the pair carrying the largest deltas; in bounded mode the 2m chosen
    positions are split between the two vectors.
    """
    k = len(seq)
    size = min(m if mode is UNBOUNDED else 2 * m, k)
    pairs = []
    for attr in ("epsilon", "delta"):
        top = sorted(range(k), key=lambda i: (-getattr(seq[i], attr), i))[:size]
        if mode is UNBOUNDED:
            pairs.append((core.BitVector.zeros(k), _vector(k, top)))
        else:
            half = (len(top) + 1) // 2
            pairs.append((_vector(k, top[:half]), _vector(k, top[half:])))
    return pairs


def _random_patterns(rng, k, count, mode):
    words = set(rng.sample(range(1, 1 << k), count))
    if mode is UNBOUNDED:
        words.add(0)
    patterns = [core.BitVector(w, k) for w in sorted(words)]
    constraint = constraints.PatternSet.of(patterns)
    if mode is UNBOUNDED:
        compared = [(patterns[0], p) for p in patterns[1:]]
    else:
        compared = [(a, b) for i, a in enumerate(patterns) for b in patterns[i + 1:]]
    return constraint, compared


def _differing(a: core.BitVector, b: core.BitVector) -> list[int]:
    diff = a.word ^ b.word
    return [i for i in range(a.k) if (diff >> (a.k - 1 - i)) & 1]


def _pattern_witnesses(seq, compared):
    """The compared pairs with the largest epsilon sum and the largest delta floor."""
    def eps_sum(pair):
        return math.fsum(seq[i].epsilon for i in _differing(*pair))

    def floor(pair):
        return delta_floor(seq[i].delta for i in _differing(*pair))

    return list(dict.fromkeys([max(compared, key=eps_sum), max(compared, key=floor)]))


# ------------------------------------------------------------- bounds_sweep


class BoundsSweep(Workload):
    """Constraint, classic and uniform-prior bounds with no enumeration.

    Every bound here is checked against a floor that any sound claim
    must meet: for the pair of vectors it covers, 1 - prod(1 - delta_i)
    over the differing positions (see ``delta_floor``).  Homogeneous
    Simple uniform-prior bounds must equal the closed form.
    """

    name = "bounds_sweep"
    ROUND = [
        # A k or count given as (lo, hi) is drawn per query, which keeps the
        # latency distribution continuous around its median and 90th
        # percentile.  ("maxones", k, m, mode, delta_spread): "hetero"
        # spreads deltas over four decades, "homo" repeats one delta.
        ("maxones", (18, 26), 3, "unbounded", "hetero"),
        ("maxones", (18, 26), 3, "unbounded", "hetero"),
        ("maxones", (18, 26), 3, "unbounded", "hetero"),
        ("maxones", (24, 34), 3, "unbounded", "hetero"),
        ("maxones", (24, 34), 3, "unbounded", "hetero"),
        ("maxones", (36, 40), 3, "unbounded", "hetero"),
        ("maxones", (24, 30), 4, "unbounded", "hetero"),
        ("maxones", (24, 32), 4, "unbounded", "homo"),
        ("maxones", (16, 22), 2, "bounded", "hetero"),
        ("maxones", (16, 22), 2, "bounded", "hetero"),
        ("maxones", (18, 22), 3, "bounded", "homo"),
        # Past the 1M-subset limit: the componentwise top-m fallback.
        ("maxones", 30, 4, "bounded", "hetero"), ("maxones", 40, 5, "bounded", "homo"),
        # ("maxones_advanced", k, m, mode): homogeneous, Advanced theorem.
        ("maxones_advanced", 365, 3, "unbounded"), ("maxones_advanced", 200, 2, "bounded"),
        # ("patterns", k, count, mode) and ("groups", k, mode).
        ("patterns", 40, 12, "unbounded"),
        ("patterns", (28, 36), (20, 40), "bounded"), ("patterns", (28, 36), (20, 40), "bounded"),
        ("groups", 30, "unbounded"), ("groups", 40, "bounded"),
        # ("parallel", k, m, mode), ("classic", k, homogeneous), ("advanced", k).
        ("parallel", 25, 3, "unbounded"), ("parallel", 40, 5, "bounded"),
        ("classic", 365, True), ("classic", 120, False), ("advanced", 365),
        # ("uniform_prior", k, pipeline, homogeneous); k >= 1024 is inside the
        # documented "any k".
        ("uniform_prior", (80, 200), "block", True), ("uniform_prior", (80, 200), "split", False),
        ("uniform_prior", (250, 450), "block", False), ("uniform_prior", (250, 450), "split", True),
        ("uniform_prior", (250, 450), "split", False),
        ("uniform_prior", (450, 750), "split", True), ("uniform_prior", (450, 750), "block", True),
        ("uniform_prior", (700, 900), "split", True), ("uniform_prior", (700, 900), "block", False),
        ("uniform_prior", (1024, 1100), "block", True),
    ]
    # Near the exhaustive-search limit: C(40, 5) = 658,008 subsets.
    ONCE = [("maxones", 40, 5, "unbounded", "hetero")]
    ROUND_SECONDS = 3.6
    ONCE_SECONDS = 3.5

    @staticmethod
    def _sequence(rng, k, spread):
        if spread == "homo":
            eps, delta = rng.uniform(0.05, 0.5), rng.uniform(1e-7, 1e-5)
            return core.MechanismSequence.homogeneous(eps, delta, k)
        return core.MechanismSequence.from_pairs(
            (rng.uniform(0.05, 0.8), 10 ** rng.uniform(-8, -4)) for _ in range(k)
        )

    def build(self, index, spec, rng):
        kind, k = spec[0], _draw(rng, spec[1])
        known: dict = {}
        if kind == "maxones":
            _, _, m, mode_name, spread = spec
            mode = BOUNDED if mode_name == "bounded" else UNBOUNDED
            seq = self._sequence(rng, k, spread)
            size = m if mode is UNBOUNDED else 2 * m

            def op():
                return constraints.constrained_bound(seq, constraints.MaxOnes(m), mode, SIMPLE)

            floor = delta_floor(sorted((g.delta for g in seq), reverse=True)[:size])
            known = PICK_UNSOUND
            label = f"maxones_{mode_name}_{spread}"
        elif kind == "maxones_advanced":
            _, _, m, mode_name = spec
            mode = BOUNDED if mode_name == "bounded" else UNBOUNDED
            seq = self._sequence(rng, k, "homo")

            def op():
                return constraints.constrained_bound(seq, constraints.MaxOnes(m), mode, ADVANCED)

            floor = delta_floor([seq[0].delta] * (m if mode is UNBOUNDED else 2 * m))
            label = f"maxones_advanced_{mode_name}"
        elif kind in ("patterns", "groups"):
            mode = BOUNDED if spec[-1] == "bounded" else UNBOUNDED
            seq = self._sequence(rng, k, "hetero")
            if kind == "patterns":
                constraint, compared = _random_patterns(rng, k, _draw(rng, spec[2]), mode)

                def op():
                    return constraints.constrained_bound(seq, constraint, mode, SIMPLE)
            else:
                shared = rng.randrange(1, k // 2)
                first_only = rng.randrange(shared + 1, k - 1)
                compared = _group_pairs(k, shared, first_only, mode)

                def op():
                    return constraints.exclusive_groups_bound(seq, shared, first_only, k, mode)

            floor = max(delta_floor(seq[i].delta for i in _differing(a, b)) for a, b in compared)
            known = PICK_UNSOUND
            label = f"{kind}_{spec[-1]}"
        elif kind == "parallel":
            _, _, m, mode_name = spec
            mode = BOUNDED if mode_name == "bounded" else UNBOUNDED
            seq = core.MechanismSequence.from_pairs((rng.uniform(0.05, 0.8), 0.0) for _ in range(k))
            count = m if mode is UNBOUNDED else min(2 * m, k)
            want = count * max(g.epsilon for g in seq)

            def op():
                return constraints.parallel_bound(seq, m, mode)

            def check(result):
                return None if result.epsilon == want and result.delta == 0.0 else "mismatch:parallel"

            return Query(index, f"parallel_{mode_name}", k, op,
                         _repeat_check(self.seen, ("q", index), check))
        elif kind in ("classic", "advanced"):
            homogeneous = kind == "advanced" or spec[2]
            seq = self._sequence(rng, k, "homo" if homogeneous else "hetero")
            if kind == "classic":
                def op():
                    return composition.best_classic_bound(seq, 1e-6)
            else:
                def op():
                    return composition.compose(seq, ADVANCED)
            floor = delta_floor(g.delta for g in seq)
            label = f"{kind}_{'homo' if homogeneous else 'hetero'}"
        else:
            _, _, pipeline, homogeneous = spec
            seq = self._sequence(rng, k, "homo" if homogeneous else "hetero")
            fn_name = "uniform_prior_bound" if pipeline == "block" else "uniform_prior_split_bound"

            def op():
                return getattr(subsampling, fn_name)(seq, SIMPLE)

            check = _valid
            if homogeneous:
                eps, delta = seq[0].epsilon, seq[0].delta

                def check(result):
                    want = REF["uniform_prior_closed_form"](eps, delta, k)
                    if _close(result.epsilon, want.epsilon) and _close(result.delta, want.delta):
                        return None
                    return "mismatch:closed_form"

            key = ("q", index)
            return Query(index, f"uniform_prior_{pipeline}", k, op,
                         _repeat_check(self.seen, key, check), OVERFLOW if k >= 1024 else {})

        def check(result):
            return None if result.delta >= floor - 1e-15 else "unsound"

        key = ("q", index)
        return Query(index, label, k, op, _repeat_check(self.seen, key, check), known)


def _group_pairs(k, shared, first_only, mode):
    first = _vector(k, range(first_only))
    second = _vector(k, list(range(shared)) + list(range(first_only, k)))
    zero = core.BitVector.zeros(k)
    pairs = [(first, second), (first, zero)]
    if mode is BOUNDED:
        pairs.append((second, zero))
    return pairs


# ------------------------------------------------------------ cli_scenarios

# Monte Carlo trials per simulate scenario.  Fixed rather than drawn, so
# the seed does not move the cost of the simulate kinds, which sit next to
# the median latency.
SIMULATE_TRIALS = 5000


class CliScenarios(Workload):
    """In-process ``hypodp.cli.main`` over generated scenario files.

    The scenario files are written once per run and reused by every
    round, so each report must come out byte-identical to the first one
    for the same scenario, command and seed.
    """

    name = "cli_scenarios"
    # (command, k, variant)
    ROUND = [
        ("compose", 4, "simple"), ("compose", 8, "advanced"), ("compose", 12, "simple"),
        ("compose", 14, "simple"), ("compose", 16, "advanced"),
        ("hdp", 8, "au"), ("hdp", 10, "explicit"),
        ("hdp", 12, "zu_advanced"), ("hdp", 14, "zu"),
        ("constrain", 10, "max_ones"), ("constrain", 12, "patterns"),
        ("constrain", 16, "max_ones_bounded"),
        ("subsample", 4, "simple"), ("subsample", 12, "hetero"), ("subsample", 16, "simple"),
        ("verify", 3, "zu"), ("verify", 4, "au"), ("verify", 6, "zu"), ("verify", 8, "zu"),
        ("simulate", 2, "zu"), ("simulate", 3, "explicit"), ("simulate", 4, "au"),
        # Beyond the default hypothesis' enumeration limit.
        ("compose", 24, "simple"), ("constrain", 32, "max_ones"), ("subsample", 40, "simple"),
    ]
    ONCE = [("compose", 18, "simple"), ("subsample", 20, "simple")]
    ROUND_SECONDS = 1.6
    ONCE_SECONDS = 5.5

    def setup(self):
        self.paths = {}
        for spec in dict.fromkeys(self.ROUND + self.ONCE):
            path = os.path.join(self.workdir, "{}-{}-{}.yaml".format(*spec))
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(self._scenario(self.rng("scenario", *spec), *spec), fh,
                               sort_keys=False)
            self.paths[spec] = path

    @staticmethod
    def _scenario(rng, command, k, variant) -> dict:
        if variant in ("hetero", "explicit", "patterns") or command in ("constrain",):
            mechanisms = [{"epsilon": rng.uniform(0.05, 0.8), "delta": 10 ** rng.uniform(-8, -5)}
                          for _ in range(k)]
        else:
            eps, delta = rng.uniform(0.05, 0.8), rng.choice([0.0, 1e-6])
            mechanisms = [{"epsilon": eps, "delta": delta} for _ in range(k)]
        if command in ("verify", "simulate"):
            q = rng.uniform(0.2, 0.3)
            eps = math.log((1 - q) / q)
            mechanisms = [{"epsilon": eps, "delta": 0.0} for _ in range(k)]
        scenario: dict = {"mechanisms": mechanisms}
        scenario["theorem"] = ({"advanced": {"delta_slack": 1e-6}}
                               if "advanced" in variant else "simple")
        if command == "constrain":
            if variant == "patterns":
                words = sorted({0, *rng.sample(range(1, 1 << k), 6)})
                scenario["mode"] = "bounded"
                scenario["constraint"] = {"patterns": [format(w, f"0{k}b") for w in words]}
            else:
                scenario["mode"] = "bounded" if variant.endswith("bounded") else "unbounded"
                scenario["constraint"] = {"max_ones": rng.randint(2, 3)}
        if command in ("hdp", "verify", "simulate"):
            if variant == "explicit":
                p0 = {format(0, f"0{k}b"): 1.0}
                words = rng.sample(range(1, 1 << k), 3)
                weights = _weights(rng, 3)
                p1 = {format(w, f"0{k}b"): p for w, p in zip(words, weights)}
                scenario["hypotheses"] = {"p0": p0, "p1": p1}
            else:
                p0 = "uniform_all" if variant == "au" else "zero"
                scenario["hypotheses"] = {"p0": p0, "p1": "uniform_nonzero"}
        if command == "subsample":
            scenario["subsample_rate"] = rng.uniform(0.1, 0.9)
        if command in ("verify", "simulate"):
            scenario["oracle"] = {"rr_q": q, "trials": SIMULATE_TRIALS,
                                  "seed": rng.randrange(1 << 32)}
        return scenario

    def build(self, index, spec, rng):
        command, k, _ = spec
        path = self.paths[spec]
        out = os.path.join(self.workdir, f"report-{index}.yaml")
        argv = [command, "--scenario", path, "--out", out, "--quiet"]
        seed = None
        if command == "simulate" and rng.random() < 0.5:
            seed = self.rng("cli-seed", *spec).randrange(1 << 32)
            argv += ["--seed", str(seed)]

        def op():
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)

        key = (spec, seed)

        def check(code):
            if code != 0:
                return f"exit:{code}"
            try:
                with open(out, "rb") as fh:
                    text = fh.read()
            finally:
                if os.path.exists(out):
                    os.remove(out)
            try:
                report = yaml.load(text, Loader=_LOADER)
            except yaml.YAMLError:
                return "report:unparseable"
            if not isinstance(report, dict) or report.get("command") != command:
                return "report:unparseable"
            if self.seen.setdefault(key, text) != text:
                return "mismatch:repeat"
            return None

        known = CLI_EAGER if k >= 24 else {}
        if spec[2] == "au":
            known = {"exit:3": MIXTURE_UNSOUND["unsound"]}
        return Query(index, f"cli_{command}", k, op, check, known)


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# ------------------------------------------------------------------ library


class Library(Workload):
    """Every library-level query family in one closed loop.

    The rounds of ``hdp_pairs``, ``oracle_verify`` and ``bounds_sweep``
    are shuffled together, so one run is long enough to average out the
    slow and fast phases of a shared machine.  Each query's kind is
    prefixed with its family.
    """

    name = "library"
    FAMILIES = (HdpPairs, OracleVerify, BoundsSweep)
    ROUND = [(f.name, spec) for f in FAMILIES for spec in f.ROUND]
    ONCE = [(f.name, spec) for f in FAMILIES for spec in f.ONCE]
    ROUND_SECONDS = sum(f.ROUND_SECONDS for f in FAMILIES)
    ONCE_SECONDS = sum(f.ONCE_SECONDS for f in FAMILIES)

    def setup(self):
        self.families = {f.name: f(self.seed, self.workdir) for f in self.FAMILIES}

    def build(self, index, spec, rng):
        family, inner = spec
        query = self.families[family].build(index, inner, rng)
        query.kind = f"{family}/{query.kind}"
        return query


WORKLOADS = {w.name: w for w in (Library, CliScenarios, HdpPairs, OracleVerify, BoundsSweep)}
