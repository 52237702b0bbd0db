"""Scenario-driven command line front end.

A scenario is a single YAML (or JSON) file describing the mechanism
sequence and, depending on the command, the composition theorem,
neighborhood mode, membership constraint, hypothesis pair, and oracle
settings:

    mechanisms:                      # required; one entry per iteration
      - {epsilon: 0.1, delta: 1.0e-6}
    theorem: simple                  # or {advanced: {delta_slack: 1.0e-5}}
    mode: unbounded                  # or bounded
    constraint: {max_ones: 3}        # or at_most_one, or {patterns: [...]}
    hypotheses: {p0: zero, p1: uniform_nonzero}   # presets or explicit maps
    subsample_rate: 0.5
    oracle: {rr_q: 0.25, trials: 100000, seed: 0}  # read by simulate only

Bit strings are ASCII '0'/'1' with the leftmost character naming the
first iteration. Explicit hypotheses map bit strings to weights; the
presets are "zero" (point mass on the all-absent vector),
"uniform_nonzero" and "uniform_all". A preset is built only when
``hdp``, ``verify`` or ``simulate`` reads it, so the other commands
accept any k; a preset too large to enumerate fails those with exit 1.
Every key but ``mechanisms`` may be absent or null, which takes the value
shown (no constraint for ``constraint``); ``max_ones``, ``trials`` and
``seed`` must be integers, so a fraction is refused, not truncated.
``verify`` enumerates each mechanism's ``leaky_rr``, which dominates every
mechanism with its (epsilon, delta); ``simulate`` samples RR at ``rr_q``.
The file is one document of collections nested at most 64 deep, scalar keys, and
plain or quoted scalars; an anchor, alias, explicit tag, merge (``<<``) or value (``=``)
key, collection as a key, duplicate key or second document exits 1, naming the feature
and its line.

Exit codes: 0 success, 1 bad scenario file (a scalar PyYAML's safe
constructor cannot build, such as ``0b_`` or ``2001-02-30``, included),
2 a bad command line (argparse's usage error, a ``--seed`` outside
[0, 2^63) included), 3 verification found the claim unsound (verify only),
4 computation error or a report that cannot be written.
The machine report goes to --out (default stdout) with
round-trip-exact numbers; the human summary goes to stderr unless
--quiet is given.
"""

import argparse
import io
import math
import re
import reprlib
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import islice

import numpy as np
import yaml

from . import constraints as con
from . import hypothesis_dp as hdp
from . import oracle as orc
from . import subsampling as sub
from .composition import Advanced, CompositionTheorem, Simple, compose
from .core import BitVector, Hypothesis, MechanismSequence, PrivacyParams, _distinct
from .errors import (
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    ViewSpaceTooLargeError,
)

EXIT_OK = 0
EXIT_BAD_SCENARIO = 1
EXIT_UNSOUND = 3
EXIT_COMPUTATION = 4

# A correct simulator fails simulate's check of a vector with probability at most this.
SIMULATE_ALPHA = 1e-6

# libyaml where PyYAML has it; the same constructor and resolver read either way.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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


class _Quote(reprlib.Repr):
    """``repr`` within reprlib's default caps on depth and length; a mapping keeps its order."""

    def repr_dict(self, x, level):
        if not x or level <= 0:
            return "{...}" if x else "{}"
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}"
                  for k, v in islice(x.items(), self.maxdict)]
        return "{" + ", ".join(pieces + ["..."] * (len(x) > self.maxdict)) + "}"


# A scenario value as messages quote it: a list nested 60 deep prints as [[[[[[[...]]]]]]].
_quote = _Quote().repr


def _checked(field: str, build, *args):
    """``build(*args)``, with a domain error (a ValueError) reported against ``field``."""
    try:
        return build(*args)
    except ValueError as exc:
        raise _fail(field, str(exc)) from exc


def _section(raw, defaults: dict, field: str) -> dict:
    """``raw`` with each absent or null key set to its default; refuses unknown keys."""
    if not isinstance(raw, dict):
        raise _fail(field, f"expected a mapping, got {_quote(raw)}")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise _fail(field, f"unknown keys {sorted(map(str, unknown))}")
    return {k: default if raw.get(k) is None else raw[k] for k, default in defaults.items()}


def _number(raw, field: str, integer: bool = False):
    """The one reader of scenario numbers.

    Refuses null, booleans and whatever ``float()`` refuses, quoting the value
    within ``_quote``'s caps (``float()``'s own message quotes a string whole).
    An integer field keeps an integer as written and refuses a fraction instead
    of truncating it; ``1.0e+5`` is 100000.
    """
    try:
        if raw is None or isinstance(raw, bool):
            raise TypeError
        if integer and isinstance(raw, int):
            return raw
        value = float(raw)
    except (TypeError, ValueError) as exc:
        raise _fail(field, f"expected a number, got {_quote(raw)}") from exc
    except OverflowError as exc:
        raise _fail(field, str(exc)) from exc
    if integer and not value.is_integer():
        raise _fail(field, f"expected an integer, got {_quote(raw)}")
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
        body = _section(raw["advanced"], {"delta_slack": None}, "theorem.advanced")
        field = "theorem.advanced.delta_slack"
        return _checked(field, Advanced, _number(body["delta_slack"], field))
    raise _fail("theorem", f"expected 'simple' or {{advanced: ...}}, got {_quote(raw)}")


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
    raise _fail("constraint", f"unrecognized constraint {_quote(raw)}")


def _parse_bitvector(raw, k: int, field: str) -> BitVector:
    if not isinstance(raw, str):
        raise _fail(field, f"expected a bit string, got {_quote(raw)}")
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
            options = ", ".join(HYPOTHESIS_PRESETS)
            raise _fail(field, f"unknown preset {_quote(raw)}; options: {options}")
        return raw
    if isinstance(raw, dict):
        atoms = {
            _parse_bitvector(s, k, f"{field}[{s!r}]"): _number(w, f"{field}[{s!r}]")
            for s, w in raw.items()
        }
        return _checked(field, Hypothesis, atoms)
    raise _fail(field, f"expected a preset name or a {{bitstring: weight}} map, got {_quote(raw)}")


def _hypothesis(spec: "str | Hypothesis", k: int, field: str) -> Hypothesis:
    if isinstance(spec, Hypothesis):
        return spec
    return _checked(field, HYPOTHESIS_PRESETS[spec], k)


# An open sequence's state; an open mapping's is _KEY before each key and the key after it.
_ITEM, _KEY = object(), object()
# Open collections a file may nest (a scenario needs 4): libyaml's scanner takes time
# quadratic in the depth, so a deeper file is refused where the depth is passed.
_MAX_DEPTH = 64


def _refused(event, feature: str | None = None) -> ScenarioParseError:
    """The error for ``feature`` at ``event``, by default the event's anchor, else its tag."""
    feature = feature or ("an anchor" if event.anchor is not None else "an explicit tag")
    mark = event.start_mark
    return ScenarioParseError(f'a scenario may not use {feature} (in "{mark.name}", '
                              f"line {mark.line + 1}, column {mark.column + 1})")


def _build(loader):
    """The tree ``SafeConstructor`` builds from the one document in ``loader``'s events,
    in one pass without PyYAML's composer, its node tree and its second pass over it.

    Each open container waits on one stack with its state, so nesting costs no
    recursion; past ``_MAX_DEPTH`` the file is refused. A quoted scalar is its text. A
    plain one is resolved and built by the loader's constructor for its tag once per
    text, since keys such as ``epsilon`` repeat k times; SafeConstructor builds equal
    values from one text, and one NaN. What no scenario needs is refused at its mark
    (``_refused``): anchors, aliases, explicit tags, a plain scalar whose tag has no
    constructor (merge ``<<`` and value ``=``), a collection as a key, a key equal to
    an earlier one of its mapping, a second document.
    """
    get_event, resolve = loader.get_event, loader.resolve
    constructors = loader.yaml_constructors
    built = {}
    get_event()  # StreamStartEvent
    if type(get_event()) is yaml.StreamEndEvent:  # no document; else DocumentStartEvent
        return None
    document, stack = [], []
    top, key = document, _ITEM
    while True:
        event = get_event()
        kind = type(event)
        if kind is yaml.ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                raise _refused(event)
            value = text = event.value
            if event.implicit[0]:
                if text not in built:
                    tag = resolve(yaml.ScalarNode, text, (True, False))
                    if tag not in constructors:
                        raise _refused(event, f"a {tag.rpartition(':')[2]} key {text!r}")
                    built[text] = constructors[tag](loader, yaml.ScalarNode(tag, text))
                value = built[text]
        elif kind is yaml.MappingStartEvent or kind is yaml.SequenceStartEvent:
            if event.anchor is not None or event.tag is not None:
                raise _refused(event)
            if key is _KEY:
                raise _refused(event, "a collection as a key")
            if len(stack) == _MAX_DEPTH:
                raise ScenarioParseError(f"collections nested deeper than {_MAX_DEPTH}")
            value = {} if kind is yaml.MappingStartEvent else []
        elif kind is yaml.MappingEndEvent or kind is yaml.SequenceEndEvent:
            top, key = stack.pop()
            continue
        elif kind is yaml.DocumentEndEvent:
            break
        else:  # AliasEvent
            raise _refused(event, "an alias")
        if key is _ITEM:
            top.append(value)
        elif key is _KEY:
            if value in top:  # YAML keys are unique: no later one silently wins
                raise _refused(event, f"a duplicate key {event.value!r}")
            key = value
            continue
        else:
            top[key] = value
            key = _KEY
        if kind is not yaml.ScalarEvent:
            stack.append((top, key))
            top, key = value, _ITEM if type(value) is list else _KEY
    if type(event := get_event()) is not yaml.StreamEndEvent:
        raise _refused(event, "a second document")
    return document[0]


def _read(fh):
    """``_build``'s tree of the scenario in ``fh``, under ``_LOADER``. The text is read in
    one call (libyaml's reads of ``fh`` itself, chunk by chunk, load about 2 % slower) into
    a stream named as ``fh`` is, so every mark names the file."""
    text = io.StringIO(fh.read())
    text.name = getattr(fh, "name", "<file>")  # both loaders' name for a nameless stream
    loader = _LOADER(text)
    try:
        return _build(loader)
    finally:
        loader.dispose()


def load_scenario(path: str, seed_override: int | None = None) -> Scenario:
    """Read and validate a scenario file; the raw tree is ``_read``'s.

    Raises:
        ScenarioParseError: unreadable or syntactically invalid file, a scalar PyYAML's
            safe constructor cannot build (``0b_``, ``2001-02-30``), or YAML ``_build``
            refuses, collections nested deeper than ``_MAX_DEPTH`` included.
        ScenarioValidationError: well-formed file violating an invariant.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = _read(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario file: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:
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
        name: spec if isinstance(spec, str) else {
            format(w, f"0{s.k}b"): p for w, p in zip(spec.words.tolist(), spec.weights.tolist())
        }
        for name, spec in (("p0", s.p0_spec), ("p1", s.p1_spec))
    }
    echo["subsample_rate"] = s.subsample_rate
    echo["oracle"] = {"rr_q": s.rr_q, "trials": s.trials, "seed": s.seed}
    return echo


_STR = "tag:yaml.org,2002:str"
_RESOLVER = yaml.resolver.Resolver()  # SafeDumper's and CSafeDumper's resolver
_FLOAT_WORDS = {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}
# Printable ASCII starting alphanumeric, without ':' or '#', spaces single and between words:
# both emitters write it plain if it resolves as a string, else single-quoted; with a space
# it always resolves as a string (a timestamp's time holds ':'), so it never breaks quoted.
_PLAIN_SAFE = re.compile(r"[0-9A-Za-z](?: ?[!-\"$-9;-~])*").fullmatch
_WIDTH = 80  # the emitters' best_width


def _float_text(x: float) -> str:
    """The round-trip-exact repr, with the point YAML's float resolver needs
    before a bare exponent (1e+17 -> 1.0e+17)."""
    text = repr(x)
    if "e" in text and "." not in text:
        return text.replace("e", ".0e")
    return _FLOAT_WORDS.get(text, text)


def _fold(text: str, column: int, indent: int) -> str:
    """A plain string written from ``column``, as both emitters write it: each row ends
    at its first space past column ``_WIDTH``, and the next row starts at ``indent``."""
    rows = []
    while (cut := text.find(" ", max(_WIDTH + 1 - column, 0))) >= 0:
        rows.append(text[:cut])
        text, column = text[cut + 1:], indent
    return ("\n" + " " * indent).join(rows + [text])


# The safe representer's text of each scalar type but str.
_TEXTS = {float: _float_text, int: str, bool: lambda b: "true" if b else "false",
          type(None): lambda _: "null"}


def _report_text(report: dict) -> str:
    """PyYAML's safe dump of ``report`` (``sort_keys=False``, either back end), written in
    one pass over a report tree: a non-empty dict of ``_PLAIN_SAFE`` string keys, each under
    123 characters (SafeDumper writes a longer one as ``? key``), whose values are non-empty
    dicts or lists, floats, ints, bools, None or ``_PLAIN_SAFE`` strings; a list holds the
    same but lists. Anything else raises ``TypeError``. Each distinct string is resolved
    once; one the resolver reads as another type (``'0101'``) is quoted."""
    lines, strings = [], {}

    def string(value: str) -> str:
        text = strings.get(value)
        if text is None:
            if type(value) is not str or not _PLAIN_SAFE(value):
                raise TypeError(f"a report cannot hold {_quote(value)}")
            plain = _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == _STR
            text = strings[value] = value if plain else f"'{value}'"
        return text

    def scalar(value, column: int, indent: int) -> str:
        kind = type(value)
        if kind in _TEXTS:
            return _TEXTS[kind](value)
        if kind is not str:
            raise TypeError(f"a report cannot hold {_quote(value)}")
        text = string(value)
        return text if column + len(text) <= _WIDTH else _fold(text, column, indent)

    def block(node, lead: str, indent: int) -> None:
        """A dict's keys, its first after ``lead``, or a list's dashes, at ``indent``."""
        pad = " " * indent
        if type(node) is list:
            for item in node:
                if type(item) is dict and item:
                    block(item, pad + "- ", indent + 2)
                else:
                    lines.append(f"{pad}- {scalar(item, indent + 2, indent + 2)}\n")
            return
        for key, value in node.items():
            text, kind = string(key), type(value)
            if (kind is dict or kind is list) and value:
                lines.append(f"{lead}{text}:\n")
                block(value, pad + "  ", indent + 2) if kind is dict else block(value, "", indent)
            else:
                lines.append(f"{lead}{text}: {scalar(value, indent + len(text) + 2, indent + 2)}\n")
            lead = pad

    if type(report) is not dict or not report:
        raise TypeError(f"a report cannot be {_quote(report)}")
    block(report, "", 0)
    return "".join(lines)


def _emit(report: dict, out_path: str | None, human_lines: list[str], quiet: bool) -> None:
    """Write ``report`` to ``out_path`` (stdout if None), and unless ``quiet`` the summary to stderr.

    The text is ``_report_text``'s, PyYAML's safe dump with keys in insertion order (a
    report is a tree, so it needs no anchors); a tree it cannot write raises its
    ``TypeError`` before anything is written. The file gets the text's UTF-8 bytes."""
    text = _report_text(report)
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(text.encode("utf-8"))
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
    """Uniform-prior bounds, and each mechanism amplified by subsampling.

    ``closed_form`` is ``uniform_nonzero_closed_form``, simple composition
    whatever ``theorem`` says; only ``block_bound`` composes its tails under
    ``theorem``, though the one ``method`` line names it for both.
    """
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


def _cmd_verify(s: Scenario) -> tuple[dict, list[str], int]:
    """Check the hdp claim by exact enumeration against the scenario's mechanisms."""
    claimed = hdp.hdp_guarantee(s.p0, s.p1, s.mechanisms, s.theorem)
    # leaky_rr(eps, delta) dominates every (eps, delta)-DP mechanism; one object per distinct
    # guarantee, so its validation and cached tables run once per query.
    leaky = {g: orc.leaky_rr(g.epsilon, g.delta) for g in dict.fromkeys(s.mechanisms)}
    outcome = orc.verify_hdp([leaky[g] for g in s.mechanisms], s.p0, s.p1, claimed)
    report = {
        "method": "exact enumeration against each mechanism's leaky randomized response",
        "claimed": _params_dict(claimed),
        "delta_needed_fwd": outcome.delta_needed_fwd,
        "delta_needed_rev": outcome.delta_needed_rev,
        "sound": outcome.sound,
    }
    verdict = "SOUND" if outcome.sound else "UNSOUND"
    human = [
        f"claimed (epsilon={claimed.epsilon:.6g}, delta={claimed.delta:.6g}) "
        f"against each mechanism's leaky RR, k={s.k}: {verdict}",
        f"  delta needed: fwd = {outcome.delta_needed_fwd:.6g}, "
        f"rev = {outcome.delta_needed_rev:.6g}",
    ]
    return report, human, EXIT_OK if outcome.sound else EXIT_UNSOUND


def _cmd_simulate(s: Scenario) -> tuple[dict, list[str], int]:
    """Monte-Carlo check of randomized response's views for each hypothesis vector."""
    # One mechanism per position, all one object: its validation and its cached
    # tables and thresholds run once per query.
    mechs = [orc.randomized_response(s.rr_q)] * s.k
    # Each side's words ascend, so a stable sort merges the two runs; np.union1d
    # hashes instead, about 0.9 s for the 2^20 + 1 words of zero vs uniform_nonzero(20).
    words = np.concatenate((s.p0.words, s.p1.words))
    words = words[_distinct(words, "stable")[0]]
    if len(words) * s.k * s.trials > orc.MAX_DRAWS:
        raise ViewSpaceTooLargeError(f"{len(words)} vectors x {s.k} positions x {s.trials} "
                                     f"trials exceeds {orc.MAX_DRAWS} draws")
    # Every vector's exact views, held to the work of verify's k contraction steps.
    views = math.prod(len(m.alphabet) for m in mechs)
    if len(words) * views > s.k * orc.MAX_VIEW_SPACE:
        raise ViewSpaceTooLargeError(f"{len(words)} vectors x {views} views exceeds "
                                     f"{s.k} x {orc.MAX_VIEW_SPACE} entries")
    rows = []
    human = [f"Monte-Carlo check, {s.trials} trials per vector, seed {s.seed}:"]
    for idx, word in enumerate(words.tolist()):
        vec = BitVector(word, s.k)
        counts = orc.simulate_experiment(mechs, vec, s.trials, s.seed + idx)
        exact = orc.view_distribution(mechs, vec).probs
        devs = np.abs(counts / s.trials - exact)
        # Bernstein's bound on each of the V views' frequencies over n trials, union-bounded
        # over the views: t = L/(3n) + sqrt((L/(3n))^2 + 2 L p(1-p)/n), L = ln(2V / SIMULATE_ALPHA).
        log_term = math.log(2 * len(exact) / SIMULATE_ALPHA)
        lin = log_term / (3 * s.trials)
        bounds = lin + np.sqrt(lin * lin + 2.0 * log_term / s.trials * exact * (1.0 - exact))
        worst, within = int(devs.argmax()), bool((devs <= bounds).all())
        rows.append({
            "vector": str(vec),
            "trials": s.trials,
            "max_abs_deviation": float(devs[worst]),
            "bound_at_max": float(bounds[worst]),
            "within_bound": within,
        })
        human.append(
            f"  b={vec}: max |freq - prob| = {devs[worst]:.3e} "
            f"({'within' if within else 'OUTSIDE'} bound)"
        )
    report = {
        "method": f"Philox Monte-Carlo of randomized response q={s.rr_q!r}; a Bernstein bound "
                  f"per view, union-bounded over each vector's views; false-alarm rate at most "
                  f"{SIMULATE_ALPHA:g} per vector and {SIMULATE_ALPHA * len(rows):g} per run",
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


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer in [0, 2^63), as ``oracle.seed`` must be."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 0 <= seed < 2**63:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^63), got {seed}")
    return seed


@cache
def _build_parser() -> argparse.ArgumentParser:
    commands = "".join(f"\n  {name:<10} {fn.__doc__.splitlines()[0]}"
                       for name, fn in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="hypodp",
        description="Privacy accounting under composite membership hypotheses.",
        epilog=f"commands:{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands below")
    parser.add_argument("--scenario", required=True, help="path to the scenario file")
    parser.add_argument("--out", default=None, help="machine report path (default stdout)")
    parser.add_argument("--seed", type=_seed, default=None, help="override the scenario seed")
    parser.add_argument("--quiet", action="store_true", help="suppress the human summary")
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
    try:
        _emit(report, args.out, human, args.quiet)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    return code
