import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from hypodp import cli, oracle
from hypodp.cli import (
    COMMANDS,
    EXIT_BAD_SCENARIO,
    EXIT_COMPUTATION,
    EXIT_OK,
    EXIT_UNSOUND,
    load_scenario,
    main,
)
from hypodp.composition import Advanced, Simple
from hypodp.constraints import MaxOnes, NeighborhoodMode
from hypodp.core import MechanismSequence
from hypodp.errors import ScenarioParseError, ScenarioValidationError
from hypodp.subsampling import uniform_prior_bound


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = ROOT / "demos" / "scenarios"
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture
def pure_python_yaml(monkeypatch):
    """The CLI on PyYAML's pure-Python parser and emitter, its path where libyaml is missing."""
    monkeypatch.setattr(cli, "_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(cli, "_DUMPER", yaml.SafeDumper)


def test_libyaml_runs_where_pyyaml_has_it():
    prefix = "C" if yaml.__with_libyaml__ else ""
    assert cli._LOADER is getattr(yaml, f"{prefix}SafeLoader")
    assert cli._DUMPER is getattr(yaml, f"{prefix}SafeDumper")


def write(tmp_path, name, content):
    path = tmp_path / name
    path.write_text(content)
    return str(path)


MINIMAL = """\
mechanisms:
  - {epsilon: 0.1, delta: 1.0e-6}
"""

TRIPLE = """\
mechanisms:
  - {epsilon: 0.1, delta: 1.0e-6}
  - {epsilon: 0.1, delta: 1.0e-6}
  - {epsilon: 0.1, delta: 1.0e-6}
theorem: simple
"""

EXAMPLE1 = """\
mechanisms:
""" + "".join("  - {epsilon: 0.1, delta: 1.0e-6}\n" for _ in range(10)) + """\
theorem: simple
mode: unbounded
constraint: {max_ones: 3}
"""

UNSOUND_VERIFY = """\
mechanisms:
  - {epsilon: 0.0, delta: 0.0}
hypotheses:
  p0: {"0": 1.0}
  p1: {"1": 1.0}
oracle: {rr_q: 0.25}
"""


class TestLoadScenario:
    def test_minimal_defaults(self, tmp_path):
        s = load_scenario(write(tmp_path, "s.yaml", MINIMAL))
        assert isinstance(s.theorem, Simple)
        assert s.mode is NeighborhoodMode.UNBOUNDED
        assert s.subsample_rate == 0.5
        assert s.rr_q == 0.25
        assert str(s.p0.support()[0]) == "0"
        assert len(s.p1) == 1  # uniform_nonzero at k=1 is the single vector "1"

    def test_negative_epsilon_rejected(self, tmp_path):
        path = write(tmp_path, "s.yaml", "mechanisms:\n  - {epsilon: -0.5}\n")
        with pytest.raises(ScenarioValidationError, match="epsilon"):
            load_scenario(path)

    def test_non_normalized_hypothesis_rejected(self, tmp_path):
        path = write(tmp_path, "s.yaml", MINIMAL + 'hypotheses:\n  p0: {"0": 0.9}\n')
        with pytest.raises(ScenarioValidationError, match="sum"):
            load_scenario(path)

    def test_non_numeric_weight_rejected(self, tmp_path):
        path = write(tmp_path, "s.yaml", MINIMAL + 'hypotheses:\n  p0: {"0": abc}\n')
        with pytest.raises(ScenarioValidationError, match="hypotheses.p0"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(str(tmp_path / "nope.yaml"))

    def test_broken_yaml(self, tmp_path):
        path = write(tmp_path, "s.yaml", "mechanisms: [}{")
        with pytest.raises(ScenarioParseError):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write(tmp_path, "s.yaml", MINIMAL + "mystery: 1\n")
        with pytest.raises(ScenarioValidationError, match="mystery"):
            load_scenario(path)

    def test_advanced_theorem(self, tmp_path):
        path = write(tmp_path, "s.yaml", MINIMAL + "theorem: {advanced: {delta_slack: 1.0e-5}}\n")
        s = load_scenario(path)
        assert s.theorem == Advanced(1e-5)

    def test_constraint_forms(self, tmp_path):
        path = write(tmp_path, "s.yaml", MINIMAL + "constraint: at_most_one\n")
        assert load_scenario(path).constraint == MaxOnes(1)

    def test_seed_override(self, tmp_path):
        path = write(tmp_path, "s.yaml", MINIMAL + "oracle: {seed: 5}\n")
        assert load_scenario(path).seed == 5
        assert load_scenario(path, seed_override=11).seed == 11


class TestCommands:
    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_compose_triple(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", TRIPLE)
        code, out, err = self.run(capsys, "compose", "--scenario", path)
        assert code == EXIT_OK
        report = yaml.safe_load(out)
        assert report["result"]["epsilon"] == pytest.approx(0.3, rel=1e-15)
        assert report["result"]["delta"] == pytest.approx(3e-6, rel=1e-15)
        assert "classic composition" in err

    def test_constrain_with_parallel_comparison(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", EXAMPLE1)
        code, out, _ = self.run(capsys, "constrain", "--scenario", path)
        assert code == EXIT_OK
        report = yaml.safe_load(out)
        assert report["result"]["epsilon"] == pytest.approx(0.3, rel=1e-15)
        assert report["parallel_comparison"]["epsilon"] == pytest.approx(0.3, rel=1e-15)

    def test_constrain_requires_constraint(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", MINIMAL)
        code, _, err = self.run(capsys, "constrain", "--scenario", path)
        assert code == EXIT_BAD_SCENARIO
        assert "constraint" in err

    def test_verify_unsound_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", UNSOUND_VERIFY)
        code, out, _ = self.run(capsys, "verify", "--scenario", path)
        assert code == EXIT_UNSOUND
        report = yaml.safe_load(out)
        assert report["sound"] is False
        assert report["delta_needed_fwd"] == pytest.approx(0.5, abs=1e-15)

    def test_verify_sound_exits_0(self, tmp_path, capsys):
        scenario = """\
mechanisms:
  - {epsilon: 1.0986122886681098, delta: 0.0}
hypotheses:
  p0: {"0": 1.0}
  p1: {"1": 1.0}
oracle: {rr_q: 0.25}
"""
        path = write(tmp_path, "s.yaml", scenario)
        code, out, _ = self.run(capsys, "verify", "--scenario", path)
        assert code == EXIT_OK
        assert yaml.safe_load(out)["sound"] is True

    def test_hdp_matches_closed_form(self, tmp_path, capsys):
        scenario = """\
mechanisms:
  - {epsilon: 1.0, delta: 0.0}
  - {epsilon: 1.0, delta: 0.0}
hypotheses: {p0: zero, p1: uniform_nonzero}
"""
        path = write(tmp_path, "s.yaml", scenario)
        code, out, _ = self.run(capsys, "hdp", "--scenario", path)
        assert code == EXIT_OK
        report = yaml.safe_load(out)
        assert report["result"]["epsilon"] == pytest.approx(1.4528324252639413, abs=1e-9)

    def test_subsample_reports_all_pipelines(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", TRIPLE)
        code, out, _ = self.run(capsys, "subsample", "--scenario", path)
        assert code == EXIT_OK
        report = yaml.safe_load(out)
        assert set(report["results"]) == {"block_bound", "closed_form"}
        assert report["results"]["block_bound"]["epsilon"] == pytest.approx(
            report["results"]["closed_form"]["epsilon"], abs=1e-9
        )

    def test_simulate_within_bound(self, tmp_path, capsys):
        scenario = MINIMAL + 'hypotheses:\n  p0: {"0": 1.0}\n  p1: {"1": 1.0}\noracle: {trials: 20000, seed: 3}\n'
        path = write(tmp_path, "s.yaml", scenario)
        code, out, _ = self.run(capsys, "simulate", "--scenario", path)
        assert code == EXIT_OK
        report = yaml.safe_load(out)
        assert all(row["within_bound"] for row in report["results"])

    def test_computation_error_exits_4(self, tmp_path, capsys):
        scenario = """\
mechanisms:
  - {epsilon: 0.1, delta: 0.0}
  - {epsilon: 0.2, delta: 0.0}
theorem: {advanced: {delta_slack: 1.0e-5}}
"""
        path = write(tmp_path, "s.yaml", scenario)
        code, _, err = self.run(capsys, "compose", "--scenario", path)
        assert code == EXIT_COMPUTATION
        assert "homogeneous" in err

    @pytest.mark.parametrize("command", ["hdp", "subsample", "compose"])
    def test_infinite_epsilon_exits_1(self, tmp_path, capsys, command):
        scenario = "mechanisms:\n  - {epsilon: .inf, delta: 0.0}\n  - {epsilon: 0.5}\n"
        path = write(tmp_path, "s.yaml", scenario)
        code, out, err = self.run(capsys, command, "--scenario", path)
        assert code == EXIT_BAD_SCENARIO
        assert "mechanisms[0]" in err and "epsilon" in err
        assert out == ""

    def test_overflow_exits_4(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", "mechanisms:\n" + "  - {epsilon: 1.0e+308}\n" * 3)
        for command in ("compose", "hdp", "subsample"):
            code, _, err = self.run(capsys, command, "--scenario", path)
            assert code == EXIT_COMPUTATION
            assert "overflow" in err

    def test_verify_counts_views_beyond_700_nats(self, tmp_path, capsys):
        # The claim (705, 0) needs delta 1 - e^705 1e-310 = 0.99985.
        path = write(tmp_path, "s.yaml",
                      "mechanisms:\n  - {epsilon: 705.0}\noracle: {rr_q: 1.0e-310}\n")
        code, out, err = self.run(capsys, "verify", "--scenario", path)
        assert code == EXIT_UNSOUND
        assert "UNSOUND" in err
        report = yaml.safe_load(out)
        assert report["delta_needed_fwd"] == pytest.approx(-math.expm1(705.0 + math.log(1e-310)),
                                                           rel=1e-9)

    def test_bad_scenario_exits_1(self, tmp_path, capsys):
        for text, field in [("mechanisms: []\n", "mechanisms"),
                            ("mechanisms: [5]\n", "mechanisms[0]"),
                            ("- 1\n- 2\n", "top level")]:
            path = write(tmp_path, "s.yaml", text)
            code, out, err = self.run(capsys, "compose", "--scenario", path)
            assert code == EXIT_BAD_SCENARIO and out == "" and field in err


def homogeneous(k, extra=""):
    return "mechanisms:\n" + "  - {epsilon: 0.1, delta: 1.0e-6}\n" * k + extra


class TestLargeK:
    # Presets are built only by the commands that read hypotheses.
    @pytest.mark.parametrize("k", [24, 64])
    @pytest.mark.parametrize("command", ["compose", "constrain", "subsample"])
    def test_commands_without_hypotheses_accept_any_k(self, tmp_path, capsys, command, k):
        path = write(tmp_path, "s.yaml", homogeneous(k, "constraint: {max_ones: 3}\n"))
        assert main([command, "--scenario", path, "--quiet"]) == EXIT_OK
        assert yaml.safe_load(capsys.readouterr().out)["command"] == command

    def test_hdp_with_default_preset_too_large(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", homogeneous(24))
        assert main(["hdp", "--scenario", path]) == EXIT_BAD_SCENARIO
        assert "hypotheses.p1" in capsys.readouterr().err

    def test_verify_beyond_the_oracle_budget_exits_4(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", homogeneous(17))
        start = time.perf_counter()
        assert main(["verify", "--scenario", path]) == EXIT_COMPUTATION
        assert time.perf_counter() - start < 5.0
        assert "atoms x" in capsys.readouterr().err

    def test_subsample_under_advanced(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", homogeneous(8, "theorem: {advanced: {delta_slack: 1.0e-6}}\n"))
        assert main(["subsample", "--scenario", path, "--quiet"]) == EXIT_OK
        results = yaml.safe_load(capsys.readouterr().out)["results"]
        want = uniform_prior_bound(MechanismSequence.homogeneous(0.1, 1.0e-6, 8), Advanced(1e-6))
        assert results["block_bound"] == {"epsilon": want.epsilon, "delta": want.delta}


class TestReports:
    def test_deterministic_byte_for_byte(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", EXAMPLE1)
        main(["constrain", "--scenario", path, "--quiet"])
        first = capsys.readouterr().out
        main(["constrain", "--scenario", path, "--quiet"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file_and_roundtrip_precision(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", TRIPLE)
        out_path = tmp_path / "report.yaml"
        code = main(["compose", "--scenario", path, "--out", str(out_path), "--quiet"])
        assert code == EXIT_OK
        report = yaml.safe_load(out_path.read_text())
        # Round-trip exact: the parsed float is the exact computed value.
        assert report["result"]["epsilon"] == 0.1 + 0.1 + 0.1
        assert report["scenario"]["mechanisms"][0]["delta"] == 1e-6

    def test_quiet_suppresses_human_summary(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", TRIPLE)
        main(["compose", "--scenario", path, "--quiet"])
        captured = capsys.readouterr()
        assert captured.err == ""

    FLOATS = pytest.mark.parametrize("value, text", [
        (1e17, "1.0e+17"),
        (5e-324, "5.0e-324"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
        (0.1 + 0.2, "0.30000000000000004"),
    ])

    @FLOATS
    def test_float_written_as_its_repr(self, tmp_path, capsys, value, text):
        # repr gives '1e+17' and '5e-324'; YAML reads a float only with a point.
        path = write(tmp_path, "s.yaml", f"mechanisms:\n  - {{epsilon: {text}}}\n")
        assert main(["compose", "--scenario", path, "--quiet"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count(f" epsilon: {text}\n") == 2  # the echoed mechanism and the result
        assert yaml.safe_load(out)["result"]["epsilon"] == value

    @FLOATS
    def test_float_written_as_its_repr_by_pure_python_yaml(
            self, tmp_path, capsys, pure_python_yaml, value, text):
        self.test_float_written_as_its_repr(tmp_path, capsys, value, text)

    @pytest.mark.parametrize("out", ["missing/report.yaml", "."],
                             ids=["no_directory", "directory"])
    def test_unwritable_out_exits_4(self, tmp_path, capsys, out):
        path = write(tmp_path, "s.yaml", TRIPLE)
        code = main(["compose", "--scenario", path, "--out", str(tmp_path / out)])
        assert code == EXIT_COMPUTATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write the report: ")

    def test_options_before_the_command(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", TRIPLE)
        assert main(["compose", "--scenario", path, "--quiet"]) == EXIT_OK
        expected = capsys.readouterr().out
        assert main(["--quiet", "--scenario", path, "compose"]) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_every_number_at_full_precision(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", EXAMPLE1)
        main(["constrain", "--scenario", path, "--quiet"])
        report = yaml.safe_load(capsys.readouterr().out)
        eps = report["result"]["epsilon"]
        # 0.1+0.1+0.1 is not representable as 0.3; full precision must survive.
        assert eps != 0.3
        assert eps == pytest.approx(0.3, rel=1e-15)


def run_module(*argv):
    """``python -m hypodp`` in a child process that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "hypodp", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(tmp_path):
    path = write(tmp_path, "s.yaml", TRIPLE)
    proc = run_module("compose", "--scenario", path, "--quiet")
    assert proc.returncode == 0
    assert yaml.safe_load(proc.stdout)["result"]["epsilon"] == pytest.approx(0.3, rel=1e-15)


def test_non_utf8_scenario_exits_1_without_traceback(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_bytes(b"mechanisms:\n  - {epsilon: 0.5}\n# \xff\xfe not UTF-8\n")
    with pytest.raises(ScenarioParseError, match="cannot read scenario file"):
        load_scenario(str(path))
    proc = run_module("compose", "--scenario", str(path))
    assert proc.returncode == EXIT_BAD_SCENARIO
    assert proc.stderr.startswith("error: cannot read scenario file")
    assert "Traceback" not in proc.stderr


def test_mixed_type_mechanism_keys_exit_1_without_traceback(tmp_path):
    path = write(tmp_path, "s.yaml", "mechanisms:\n  - {epsilon: 1.0, 2: 3, x: 4}\n")
    proc = run_module("compose", "--scenario", path)
    assert proc.returncode == EXIT_BAD_SCENARIO
    assert proc.stderr.startswith("error: mechanisms[0]: unknown keys ['2', 'x']")
    assert "Traceback" not in proc.stderr


def test_simulate_refuses_too_many_trials_at_once(tmp_path, capsys):
    path = write(tmp_path, "s.yaml", MINIMAL + "oracle: {trials: 1.0e+9}\n")
    start = time.perf_counter()
    assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_COMPUTATION
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "1000000000 trials exceeds" in captured.err


def test_simulate_flags_a_wrong_simulator_only(tmp_path, capsys, monkeypatch):
    # A correct simulator fails a vector with probability at most SIMULATE_ALPHA,
    # also where many of the 1024 views have expected counts below 100, which
    # per-view normal bands misjudge; one whose randomized response lies with
    # probability 0.26, not 0.25, fails every vector.
    p1 = ", ".join(f'"{w:010b}": {1 / 15!r}' for w in range(1, 16))
    extra = f"hypotheses: {{p0: zero, p1: {{{p1}}}}}\noracle: {{trials: 100000, seed: 17}}\n"
    path = write(tmp_path, "s.yaml", homogeneous(10, extra))

    def flagged():
        assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_OK
        rows = yaml.safe_load(capsys.readouterr().out)["results"]
        assert len(rows) == 16
        return sum(not row["within_bound"] for row in rows)

    assert flagged() == 0
    simulate, wrong = oracle.simulate_experiment, [oracle.randomized_response(0.26)] * 10
    monkeypatch.setattr(oracle, "simulate_experiment",
                        lambda mechs, b, trials, seed: simulate(wrong, b, trials, seed))
    assert flagged() == 16


def test_help_describes_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in COMMANDS:
        assert re.search(rf"^ +{name} +\S", out, re.MULTILINE), f"{name} has no description"


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_is_the_same_help(capsys, command):
    for argv in (["--help"], [command, "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    first, second = capsys.readouterr().out.split("usage:")[1:]
    assert first == second


def test_parser_built_once_keeps_no_state_between_calls(tmp_path, capsys):
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    first_help = capsys.readouterr().out
    path = write(tmp_path, "s.yaml", MINIMAL + "oracle: {trials: 100, seed: 11}\n")
    assert main(["simulate", "--scenario", path, "--seed", "5", "--quiet"]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["scenario"]["oracle"]["seed"] == 5
    # The parser is built once per process; an option left out must take its default again.
    assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["scenario"]["oracle"]["seed"] == 11
    with pytest.raises(SystemExit):
        main(["--help"])
    assert capsys.readouterr().out == first_help
    assert cli._build_parser.cache_info().misses == 1


def test_unknown_command_exits_2(tmp_path, capsys):
    path = write(tmp_path, "s.yaml", TRIPLE)
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--scenario", path])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice" in captured.err


GOLDEN_COMMANDS = pytest.mark.parametrize("command", ["compose", "hdp", "constrain", "subsample"])
DEMO_SCENARIOS = pytest.mark.parametrize(
    "scenario", sorted(p.stem for p in SCENARIOS.glob("*.yaml")))


@GOLDEN_COMMANDS
@DEMO_SCENARIOS
def test_demo_scenario_reports_match_golden(scenario, command, capsys):
    # tests/golden holds the report (.yaml) and human summary (.txt) of
    # every pair that exits 0; a pair without them must exit 1.
    code = main([command, "--scenario", str(SCENARIOS / f"{scenario}.yaml")])
    captured = capsys.readouterr()
    report, summary = (GOLDEN / f"{scenario}.{command}.{ext}" for ext in ("yaml", "txt"))
    if not report.exists():
        assert code == EXIT_BAD_SCENARIO and captured.out == ""
        return
    assert code == EXIT_OK
    assert captured.out == report.read_text()
    assert captured.err == summary.read_text()


@GOLDEN_COMMANDS
@DEMO_SCENARIOS
def test_pure_python_yaml_reports_match_golden(scenario, command, capsys, pure_python_yaml):
    test_demo_scenario_reports_match_golden(scenario, command, capsys)


PAIR = "mechanisms:\n  - {epsilon: 0.5, delta: 1.0e-6}\n  - {epsilon: 0.25, delta: 0.0}\n"


class TestPatternConstraint:
    def run(self, tmp_path, capsys, scenario):
        code = main(["constrain", "--scenario", write(tmp_path, "s.yaml", scenario), "--quiet"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_bounded(self, tmp_path, capsys):
        code, out, _ = self.run(tmp_path, capsys,
                                PAIR + 'mode: bounded\nconstraint: {patterns: ["10", "01"]}\n')
        assert code == EXIT_OK
        report = yaml.safe_load(out)
        assert report["scenario"]["constraint"] == {"patterns": ["01", "10"]}
        # "10" against "01" differs in both positions.
        assert report["result"] == {"epsilon": 0.75, "delta": 1e-6}
        assert "parallel_comparison" not in report

    def test_unbounded_with_the_zero_pattern(self, tmp_path, capsys):
        code, out, _ = self.run(tmp_path, capsys, PAIR + 'constraint: {patterns: ["01", "00"]}\n')
        assert code == EXIT_OK
        assert yaml.safe_load(out)["result"] == {"epsilon": 0.25, "delta": 0.0}

    def test_unbounded_without_the_zero_pattern_exits_4(self, tmp_path, capsys):
        code, out, err = self.run(tmp_path, capsys, PAIR + 'constraint: {patterns: ["01", "10"]}\n')
        assert code == EXIT_COMPUTATION
        assert out == "" and "zero" in err

    def test_wrong_length_exits_1(self, tmp_path, capsys):
        code, out, err = self.run(tmp_path, capsys, PAIR + 'constraint: {patterns: ["1", "00"]}\n')
        assert code == EXIT_BAD_SCENARIO
        assert out == "" and "constraint.patterns[0]" in err


class TestDefaults:
    def report(self, tmp_path, capsys, scenario):
        path = write(tmp_path, "s.yaml", scenario)
        assert main(["hdp", "--scenario", path, "--quiet"]) == EXIT_OK
        return capsys.readouterr().out

    @pytest.mark.parametrize("null", [
        "theorem:\n", "mode:\n", "constraint:\n", "subsample_rate:\n",
        "hypotheses:\n", "hypotheses: {p0: }\n", "hypotheses: {p0: zero, p1: }\n",
        "oracle:\n", "oracle: {rr_q: }\n", "oracle: {trials: }\n", "oracle: {seed: }\n",
    ])
    def test_null_takes_the_default(self, tmp_path, capsys, null):
        assert self.report(tmp_path, capsys, PAIR + null) == self.report(tmp_path, capsys, PAIR)

    def test_defaults_as_written(self, tmp_path, capsys):
        written = PAIR + """\
theorem: simple
mode: unbounded
hypotheses: {p0: zero, p1: uniform_nonzero}
subsample_rate: 0.5
oracle: {rr_q: 0.25, trials: 100000, seed: 0}
"""
        assert self.report(tmp_path, capsys, written) == self.report(tmp_path, capsys, PAIR)

    def test_float_integer_accepted(self, tmp_path, capsys):
        s = load_scenario(write(tmp_path, "s.yaml", PAIR + "oracle: {trials: 1.0e+5, seed: 3.0}\n"))
        assert (s.trials, s.seed) == (100_000, 3)
        assert type(s.trials) is int and type(s.seed) is int
        written = self.report(tmp_path, capsys, PAIR + "oracle: {trials: 1.0e+5}\n")
        assert written == self.report(tmp_path, capsys, PAIR)


class TestRefusals:
    @pytest.mark.parametrize("extra, field", [
        ("constraint: {max_ones: 1.9}\n", "constraint.max_ones"),
        ("oracle: {trials: 2.5}\n", "oracle.trials"),
        ("oracle: {seed: 3.9}\n", "oracle.seed"),
        ("oracle: {trials: .inf}\n", "oracle.trials"),
        ("constraint: {max_ones: true}\n", "constraint.max_ones"),
        ("oracle: {trials: true}\n", "oracle.trials"),
        ("oracle: {seed: false}\n", "oracle.seed"),
        ("oracle: {rr_q: true}\n", "oracle.rr_q"),
        ("subsample_rate: true\n", "subsample_rate"),
        ("theorem: {advanced: {delta_slack: false}}\n", "theorem.advanced.delta_slack"),
        ("theorem: {advanced: {delta_slack: 1.0e-5, slak: 3}}\n",
         "theorem.advanced: unknown keys ['slak']"),
        ("theorem: {advanced: {delta_slack: 1.0e-5, 2: 3, x: 4}}\n",
         "theorem.advanced: unknown keys ['2', 'x']"),
        ("theorem: {advanced: 5}\n", "theorem.advanced: expected a mapping"),
        ("theorem: {advanced: {}}\n", "theorem.advanced.delta_slack: expected a number"),
        ("theorem: {advanced: {delta_slack: null}}\n",
         "theorem.advanced.delta_slack: expected a number"),
        ('hypotheses: {p0: {"00": true}}\n', "hypotheses.p0['00']"),
        ("hypotheses: {p0: zero, p2: zero}\n", "p2"),
        ("oracle: {rr_q: 0.25, tries: 3}\n", "tries"),
        ("hypotheses: []\n", "hypotheses"),
        ("hypotheses: 0\n", "hypotheses"),
        ("oracle: []\n", "oracle"),
        ("oracle: 0\n", "oracle"),
        ("1: 2\nzz: 3\n", "'1', 'zz'"),
        ('hypotheses: {p1: {"1": 1.0e+308, "0": 1.5e+308}}\n', "hypotheses.p1"),
        ("theorem: fancy\n", "theorem: expected 'simple' or {advanced: ...}"),
        ("constraint: {patterns: []}\n", "constraint.patterns"),
        ("constraint: {patterns: '01'}\n", "constraint.patterns"),
        ("constraint: {min_ones: 1}\n", "constraint: unrecognized"),
        ("constraint: {patterns: [10]}\n", "constraint.patterns[0]"),
        ("hypotheses: {p1: everything}\n", "hypotheses.p1: unknown preset"),
        ("hypotheses: {p0: [1]}\n", "hypotheses.p0"),
        ("subsample_rate: 1.5\n", "subsample_rate"),
        ("oracle: {rr_q: 0.5}\n", "oracle.rr_q"),
        ("oracle: {trials: 0}\n", "oracle.trials"),
        ("oracle: {seed: -1}\n", "oracle.seed"),
        ("oracle: {seed: 9223372036854775808}\n", "oracle.seed"),
    ])
    def test_exits_1_naming_the_field(self, tmp_path, capsys, extra, field):
        path = write(tmp_path, "s.yaml", PAIR + extra)
        with pytest.raises(ScenarioValidationError, match=re.escape(field)):
            load_scenario(path)
        assert main(["compose", "--scenario", path]) == EXIT_BAD_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == "" and field in captured.err

    def test_unknown_mechanism_key(self, tmp_path, capsys):
        path = write(tmp_path, "s.yaml", "mechanisms:\n  - {epsilon: 0.1, epsilom: 0.2}\n")
        message = "mechanisms[0]: unknown keys ['epsilom']"
        with pytest.raises(ScenarioValidationError, match=re.escape(message)):
            load_scenario(path)
        assert main(["compose", "--scenario", path]) == EXIT_BAD_SCENARIO
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["{epsilon: true}", "{epsilon: 1" + "0" * 400 + "}",
                                       "{epsilon: null}"],
                             ids=["boolean", "beyond_float", "null"])
    def test_mechanism_numbers(self, tmp_path, capsys, entry):
        path = write(tmp_path, "s.yaml", f"mechanisms:\n  - {entry}\n")
        assert main(["compose", "--scenario", path]) == EXIT_BAD_SCENARIO
        assert "mechanisms[0].epsilon" in capsys.readouterr().err
