"""Scenario-driven command line front end.

A scenario is a single YAML (or JSON) file describing the mechanism
sequence and, depending on the subcommand, the composition theorem,
neighborhood mode, membership constraint, hypothesis pair, and oracle
settings:

    mechanisms:                      # required; one entry per iteration
      - {epsilon: 0.1, delta: 1.0e-6}
    theorem: simple                  # or {advanced: {delta_slack: 1.0e-5}}
    mode: unbounded                  # or bounded
    constraint: {max_ones: 3}        # or at_most_one, or {patterns: [...]}
    hypotheses: {p0: zero, p1: uniform_nonzero}   # presets or explicit maps
    subsample_rate: 0.5
    oracle: {rr_q: 0.25, trials: 100000, seed: 0}

Bit strings are ASCII '0'/'1' with the leftmost character naming the
first iteration. Explicit hypotheses map bit strings to weights; the
presets are "zero" (point mass on the all-absent vector),
"uniform_nonzero" and "uniform_all". A preset is built only when
``hdp``, ``verify`` or ``simulate`` reads it, so the other commands
accept any k; a preset too large to enumerate fails those with exit 1.
Every key but ``mechanisms`` may be absent or null, which takes the value
shown (no constraint for ``constraint``); ``max_ones``, ``trials`` and
``seed`` must be integers, so a fraction is refused, not truncated.

Exit codes: 0 success, 1 bad scenario file, 2 computation error,
3 verification found the claim unsound (verify only). The machine
report goes to --out (default stdout) with round-trip-exact numbers;
the human summary goes to stderr unless --quiet is given.
"""

import argparse
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import yaml

from . import constraints as con
from . import hypothesis_dp as hdp
from . import oracle as orc
from . import subsampling as sub
from .composition import Advanced, CompositionTheorem, Simple, compose
from .core import BitVector, Hypothesis, MechanismSequence, PrivacyParams
from .errors import ScenarioError, ScenarioParseError, ScenarioValidationError

EXIT_OK = 0
EXIT_BAD_SCENARIO = 1
EXIT_COMPUTATION = 2
EXIT_UNSOUND = 3


# The README's defaults, one table per section; an absent or null key
# takes its default, and ``mechanisms`` has none.
DEFAULTS = {
    "mechanisms": None,
    "theorem": "simple",
    "mode": "unbounded",
    "constraint": None,
    "hypotheses": {"p0": "zero", "p1": "uniform_nonzero"},
    "subsample_rate": 0.5,
    "oracle": {"rr_q": 0.25, "trials": 100_000, "seed": 0},
}


@dataclass(frozen=True)
class Scenario:
    """A fully validated in-memory scenario; a preset named in a spec is built on first read."""

    mechanisms: MechanismSequence
    theorem: CompositionTheorem
    mode: con.NeighborhoodMode
    constraint: con.MembershipConstraint | None
    p0_spec: "str | Hypothesis"
    p1_spec: "str | Hypothesis"
    subsample_rate: float
    rr_q: float
    trials: int
    seed: int

    @property
    def k(self) -> int:
        return self.mechanisms.k

    @cached_property
    def p0(self) -> Hypothesis:
        return _hypothesis(self.p0_spec, self.k, "hypotheses.p0")

    @cached_property
    def p1(self) -> Hypothesis:
        return _hypothesis(self.p1_spec, self.k, "hypotheses.p1")


def _fail(field: str, message: str) -> ScenarioValidationError:
    return ScenarioValidationError(f"{field}: {message}")


def _checked(field: str, build, *args):
    """``build(*args)``, with a domain error (a ValueError) reported against ``field``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _fail(field, str(exc)) from exc


def _section(raw, defaults: dict, field: str) -> dict:
    """``raw`` with each absent or null key set to its default; refuses unknown keys."""
    if not isinstance(raw, dict):
        raise _fail(field, f"expected a mapping, got {raw!r}")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise _fail(field, f"unknown keys {sorted(map(str, unknown))}")
    return {k: default if raw.get(k) is None else raw[k] for k, default in defaults.items()}


def _number(raw, field: str, integer: bool = False):
    """The one reader of scenario numbers.

    Refuses booleans. An integer field keeps an integer as written and
    refuses a fraction instead of truncating it; ``1.0e+5`` is 100000.
    """
    try:
        if isinstance(raw, bool):
            raise TypeError(f"expected a number, got {raw!r}")
        if integer and isinstance(raw, int):
            return raw
        value = float(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _fail(field, str(exc)) from exc
    if integer and not value.is_integer():
        raise _fail(field, f"expected an integer, got {raw!r}")
    return int(value) if integer else value


def _parse_mechanisms(raw) -> MechanismSequence:
    if not isinstance(raw, list) or not raw:
        raise _fail("mechanisms", "expected a non-empty list of {epsilon, delta} entries")
    guarantees = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise _fail(f"mechanisms[{i}]", "expected a mapping with epsilon/delta")
        unknown = set(entry) - {"epsilon", "delta"}
        if unknown:
            raise _fail(f"mechanisms[{i}]", f"unknown keys {sorted(map(str, unknown))}")
        eps = _number(entry.get("epsilon", 0.0), f"mechanisms[{i}].epsilon")
        delta = _number(entry.get("delta", 0.0), f"mechanisms[{i}].delta")
        guarantees.append(_checked(f"mechanisms[{i}]", PrivacyParams, eps, delta))
    return MechanismSequence(tuple(guarantees))


def _parse_theorem(raw) -> CompositionTheorem:
    if raw == "simple":
        return Simple()
    if isinstance(raw, dict) and set(raw) == {"advanced"}:
        body = raw["advanced"]
        if not isinstance(body, dict) or "delta_slack" not in body:
            raise _fail("theorem.advanced", "expected {delta_slack: <float>}")
        unknown = set(body) - {"delta_slack"}
        if unknown:
            raise _fail("theorem.advanced", f"unknown keys {sorted(map(str, unknown))}")
        field = "theorem.advanced.delta_slack"
        return _checked(field, Advanced, _number(body["delta_slack"], field))
    raise _fail("theorem", f"expected 'simple' or {{advanced: ...}}, got {raw!r}")


def _parse_constraint(raw, k: int) -> con.MembershipConstraint:
    if raw == "at_most_one":
        return con.AT_MOST_ONE
    if isinstance(raw, dict) and set(raw) == {"max_ones"}:
        field = "constraint.max_ones"
        return _checked(field, con.MaxOnes, _number(raw["max_ones"], field, integer=True))
    if isinstance(raw, dict) and set(raw) == {"patterns"}:
        patterns = raw["patterns"]
        if not isinstance(patterns, list) or not patterns:
            raise _fail("constraint.patterns", "expected a non-empty list of bit strings")
        vectors = [
            _parse_bitvector(p, k, f"constraint.patterns[{i}]")
            for i, p in enumerate(patterns)
        ]
        return con.PatternSet.of(vectors)
    raise _fail("constraint", f"unrecognized constraint {raw!r}")


def _parse_bitvector(raw, k: int, field: str) -> BitVector:
    if not isinstance(raw, str):
        raise _fail(field, f"expected a bit string, got {raw!r}")
    vec = _checked(field, BitVector.from_string, raw)
    if vec.k != k:
        raise _fail(field, f"bit string has length {vec.k}, expected {k}")
    return vec


# Constructors are looked up per call, so wrappers on Hypothesis (such as
# the benchmark tracer's) see preset builds.
HYPOTHESIS_PRESETS = {
    "zero": lambda k: Hypothesis.point_mass(BitVector.zeros(k)),
    "uniform_nonzero": lambda k: Hypothesis.uniform_nonzero(k),
    "uniform_all": lambda k: Hypothesis.uniform_all(k),
}


def _parse_hypothesis(raw, k: int, field: str) -> "str | Hypothesis":
    """A preset's name, unbuilt (a preset can take 2^k atoms), or a map's built hypothesis."""
    if isinstance(raw, str):
        if raw not in HYPOTHESIS_PRESETS:
            raise _fail(field, f"unknown preset {raw!r}; options: {', '.join(HYPOTHESIS_PRESETS)}")
        return raw
    if isinstance(raw, dict):
        atoms = {
            _parse_bitvector(s, k, f"{field}[{s!r}]"): _number(w, f"{field}[{s!r}]")
            for s, w in raw.items()
        }
        return _checked(field, Hypothesis, atoms)
    raise _fail(field, f"expected a preset name or a {{bitstring: weight}} map, got {raw!r}")


def _hypothesis(spec: "str | Hypothesis", k: int, field: str) -> Hypothesis:
    if isinstance(spec, Hypothesis):
        return spec
    return _checked(field, HYPOTHESIS_PRESETS[spec], k)


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    """Read and validate a scenario file.

    Raises:
        ScenarioParseError: unreadable or syntactically invalid file.
        ScenarioValidationError: well-formed file violating an invariant.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioParseError(f"cannot parse scenario file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioParseError("scenario must be a mapping at the top level")

    top = _section(raw, DEFAULTS, "scenario")
    mechanisms = _parse_mechanisms(top["mechanisms"])
    k = mechanisms.k
    theorem = _parse_theorem(top["theorem"])
    mode = _checked("mode", con.NeighborhoodMode, top["mode"])
    constraint = None if top["constraint"] is None else _parse_constraint(top["constraint"], k)

    hyp = _section(top["hypotheses"], DEFAULTS["hypotheses"], "hypotheses")
    p0_spec = _parse_hypothesis(hyp["p0"], k, "hypotheses.p0")
    p1_spec = _parse_hypothesis(hyp["p1"], k, "hypotheses.p1")

    rate = _number(top["subsample_rate"], "subsample_rate")
    if not 0.0 <= rate <= 1.0:
        raise _fail("subsample_rate", f"must be in [0, 1], got {rate}")

    oracle = _section(top["oracle"], DEFAULTS["oracle"], "oracle")
    rr_q = _number(oracle["rr_q"], "oracle.rr_q")
    if not 0.0 < rr_q < 0.5:
        raise _fail("oracle.rr_q", f"must be in (0, 0.5), got {rr_q}")
    trials = _number(oracle["trials"], "oracle.trials", integer=True)
    if trials < 1:
        raise _fail("oracle.trials", f"must be >= 1, got {trials}")
    seed = _number(oracle["seed"], "oracle.seed", integer=True)
    if seed_override is not None:
        seed = seed_override
    if not 0 <= seed < 2**63:
        raise _fail("oracle.seed", f"must be in [0, 2^63), got {seed}")

    return Scenario(
        mechanisms=mechanisms,
        theorem=theorem,
        mode=mode,
        constraint=constraint,
        p0_spec=p0_spec,
        p1_spec=p1_spec,
        subsample_rate=rate,
        rr_q=rr_q,
        trials=trials,
        seed=seed,
    )


# ---------------------------------------------------------------- reporting


def _float_representer(dumper, value):
    if value != value or value in (float("inf"), float("-inf")):
        return yaml.SafeDumper.represent_float(dumper, value)
    # repr is round-trip exact; add the decimal point the YAML implicit
    # float resolver insists on (repr(1e-06) == '1e-06').
    text = repr(value)
    if "e" in text and "." not in text:
        mantissa, _, exponent = text.partition("e")
        text = f"{mantissa}.0e{exponent}"
    return dumper.represent_scalar("tag:yaml.org,2002:float", text)


class _ReportDumper(yaml.SafeDumper):
    pass


_ReportDumper.add_representer(float, _float_representer)


def _params_dict(g: PrivacyParams) -> dict:
    return {"epsilon": g.epsilon, "delta": g.delta}


def _params_line(label: str, g: PrivacyParams) -> str:
    """A summary line: ``label`` followed by the guarantee to six significant digits."""
    return f"  {label}epsilon = {g.epsilon:.6g}   delta = {g.delta:.6g}"


def _theorem_name(theorem: CompositionTheorem) -> str:
    if isinstance(theorem, Advanced):
        return f"advanced(delta_slack={theorem.delta_slack!r})"
    return "simple"


def _scenario_echo(s: Scenario) -> dict:
    echo = {
        "mechanisms": [_params_dict(g) for g in s.mechanisms],
        "theorem": _theorem_name(s.theorem),
        "mode": s.mode.value,
    }
    if s.constraint is not None:
        if isinstance(s.constraint, con.MaxOnes):
            echo["constraint"] = {"max_ones": s.constraint.m}
        else:
            echo["constraint"] = {
                "patterns": sorted(str(p) for p in s.constraint.patterns)
            }
    echo["hypotheses"] = {
        name: spec if isinstance(spec, str) else {str(v): w for v, w in spec.atoms}
        for name, spec in (("p0", s.p0_spec), ("p1", s.p1_spec))
    }
    echo["subsample_rate"] = s.subsample_rate
    echo["oracle"] = {"rr_q": s.rr_q, "trials": s.trials, "seed": s.seed}
    return echo


def _emit(report: dict, out_path: str | None, human_lines: list[str], quiet: bool) -> None:
    text = yaml.dump(report, Dumper=_ReportDumper, sort_keys=False, default_flow_style=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if not quiet:
        for line in human_lines:
            print(line, file=sys.stderr)


# ---------------------------------------------------------------- commands


def _single_result(method: str, g: PrivacyParams, header: str) -> tuple[dict, list[str], int]:
    """Report, summary and exit code of a command that computes one guarantee."""
    return {"method": method, "result": _params_dict(g)}, [header, _params_line("", g)], EXIT_OK


def _cmd_compose(s: Scenario) -> tuple[dict, list[str], int]:
    """Classic composition of the mechanisms, ignoring membership."""
    method = _theorem_name(s.theorem)
    g = compose(s.mechanisms, s.theorem)
    return _single_result(method, g, f"classic composition of k={s.k} mechanisms via {method}:")


def _cmd_hdp(s: Scenario) -> tuple[dict, list[str], int]:
    """Guarantee against the hypothesis pair p0 vs p1."""
    result = hdp.hdp_guarantee(s.p0, s.p1, s.mechanisms, s.theorem)
    method = f"hypothesis pair refinement + {_theorem_name(s.theorem)}"
    header = (f"hypothesis-pair guarantee over k={s.k} mechanisms "
              f"({len(s.p0)} vs {len(s.p1)} atoms):")
    return _single_result(method, result, header)


def _cmd_constrain(s: Scenario) -> tuple[dict, list[str], int]:
    """Worst case over the membership vectors the constraint allows."""
    if s.constraint is None:
        raise ScenarioValidationError("constraint: required for the constrain command")
    bound = con.constrained_bound(s.mechanisms, s.constraint, s.mode, s.theorem)
    method = f"constraint-restricted worst case + {_theorem_name(s.theorem)}"
    report, human, _ = _single_result(method, bound, f"constraint-derived bound ({s.mode.value}):")
    if isinstance(s.constraint, con.MaxOnes):
        # Parallel composition covers pure epsilon-DP only, so the
        # comparison is made on the epsilon parts with deltas zeroed.
        eps_only = [PrivacyParams(g.epsilon, 0.0) for g in s.mechanisms]
        parallel = con.parallel_bound(eps_only, s.constraint.m, s.mode)
        report["parallel_comparison"] = {
            "epsilon": parallel.epsilon,
            "note": "parallel composition baseline on the epsilon parts (delta ignored)",
        }
        human.append(
            f"  parallel composition baseline: epsilon = {parallel.epsilon:.6g} (delta ignored)"
        )
    return report, human, EXIT_OK


def _cmd_subsample(s: Scenario) -> tuple[dict, list[str], int]:
    """Uniform-prior bounds, and each mechanism amplified by subsampling."""
    results = {"block_bound": sub.uniform_prior_bound(s.mechanisms, s.theorem)}
    if s.mechanisms.is_homogeneous():
        g0 = s.mechanisms[0]
        results["closed_form"] = hdp.uniform_nonzero_closed_form(g0.epsilon, g0.delta, s.k)
    amplified = [sub.amplify(g, s.subsample_rate) for g in s.mechanisms]
    report = {
        "method": f"uniform-prior subsampling bounds + {_theorem_name(s.theorem)}",
        "results": {name: _params_dict(g) for name, g in results.items()},
        "amplified_mechanisms": {
            "rate": s.subsample_rate,
            "guarantees": [_params_dict(g) for g in amplified],
        },
    }
    human = [f"uniform-prior bounds for k={s.k} mechanisms:"] + [
        _params_line(f"{name:12s} ", g) for name, g in results.items()
    ]
    return report, human, EXIT_OK


def _rr_mechs(s: Scenario) -> list[orc.DiscreteMechanism]:
    return [orc.randomized_response(s.rr_q) for _ in range(s.k)]


def _cmd_verify(s: Scenario) -> tuple[dict, list[str], int]:
    """Check the hdp claim by exact enumeration against randomized response."""
    claimed = hdp.hdp_guarantee(s.p0, s.p1, s.mechanisms, s.theorem)
    outcome = orc.verify_hdp(_rr_mechs(s), s.p0, s.p1, claimed)
    report = {
        "method": f"exact enumeration against randomized response q={s.rr_q!r}",
        "claimed": _params_dict(claimed),
        "delta_needed_fwd": outcome.delta_needed_fwd,
        "delta_needed_rev": outcome.delta_needed_rev,
        "sound": outcome.sound,
    }
    verdict = "SOUND" if outcome.sound else "UNSOUND"
    human = [
        f"claimed (epsilon={claimed.epsilon:.6g}, delta={claimed.delta:.6g}) "
        f"for RR({s.rr_q}) x {s.k}: {verdict}",
        f"  delta needed: fwd = {outcome.delta_needed_fwd:.6g}, "
        f"rev = {outcome.delta_needed_rev:.6g}",
    ]
    return report, human, EXIT_OK if outcome.sound else EXIT_UNSOUND


def _cmd_simulate(s: Scenario) -> tuple[dict, list[str], int]:
    """Monte-Carlo check of randomized response's views for each hypothesis vector."""
    mechs = _rr_mechs(s)
    rows = []
    human = [f"Monte-Carlo check, {s.trials} trials per vector, seed {s.seed}:"]
    for idx, word in enumerate(np.union1d(s.p0.words, s.p1.words).tolist()):
        vec = BitVector(word, s.k)
        counts = orc.simulate_experiment(mechs, vec, s.trials, s.seed + idx)
        exact = orc.view_distribution(mechs, vec).probs
        devs = abs(counts / s.trials - exact).tolist()
        # Python's float ** 0.5 (C pow) can differ from numpy's sqrt in
        # the last bit; the reported bounds keep the scalar form.
        bounds = [4.0 * (p * (1.0 - p) / s.trials) ** 0.5 for p in exact.tolist()]
        worst_dev = max(devs)
        worst_bound = bounds[devs.index(worst_dev)] if worst_dev > 0.0 else 0.0
        within = all(dev <= bound for dev, bound in zip(devs, bounds))
        rows.append({
            "vector": str(vec),
            "trials": s.trials,
            "max_abs_deviation": worst_dev,
            "four_sigma_at_max": worst_bound,
            "within_four_sigma": within,
        })
        human.append(
            f"  b={vec}: max |freq - prob| = {worst_dev:.3e} "
            f"({'ok' if within else 'OUTSIDE'} 4-sigma)"
        )
    report = {
        "method": f"Philox Monte-Carlo of randomized response q={s.rr_q!r}",
        "results": rows,
    }
    return report, human, EXIT_OK


COMMANDS = {
    "compose": _cmd_compose,
    "hdp": _cmd_hdp,
    "constrain": _cmd_constrain,
    "subsample": _cmd_subsample,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypodp",
        description="Privacy accounting under composite membership hypotheses.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = subparsers.add_parser(name, help=fn.__doc__)
        p.add_argument("--scenario", required=True, help="path to the scenario file")
        p.add_argument("--out", default=None, help="machine report path (default stdout)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--quiet", action="store_true", help="suppress the human summary")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, seed_override=args.seed)
        report, human, code = COMMANDS[args.command](scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    except (ValueError, OverflowError) as exc:  # AccountingError, validation, overflow
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    report = {"command": args.command, "scenario": _scenario_echo(scenario), **report}
    _emit(report, args.out, human, args.quiet)
    return code


if __name__ == "__main__":
    sys.exit(main())
