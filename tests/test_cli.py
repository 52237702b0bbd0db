import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

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
from hypodp.core import MechanismSequence, PrivacyParams
from hypodp.errors import ScenarioParseError, ScenarioValidationError
from hypodp.subsampling import uniform_prior_bound
from test_bench_contract import _load as load_perfbench


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = ROOT / "demos" / "scenarios"
GOLDEN = ROOT / "tests" / "golden"


@pytest.fixture
def pure_python_yaml(monkeypatch):
    """The CLI on PyYAML's pure-Python parser, its path where libyaml is missing."""
    monkeypatch.setattr(cli, "_LOADER", yaml.SafeLoader)


def test_libyaml_runs_where_pyyaml_has_it():
    prefix = "C" if yaml.__with_libyaml__ else ""
    assert cli._LOADER is getattr(yaml, f"{prefix}SafeLoader")


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

ONE_RR_PAIR = """\
mechanisms:
  - {epsilon: 1.0986122886681098, delta: 0.0}
hypotheses:
  p0: {"0": 1.0}
  p1: {"1": 1.0}
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

    def test_verify_unsound_exits_3(self, tmp_path, capsys, monkeypatch):
        # The scenario's own mechanism makes a correct claim sound, so the claim is
        # shaved to epsilon 0, where RR(0.25) needs its total variation, 0.5.
        real = cli.hdp.hdp_guarantee
        monkeypatch.setattr(cli.hdp, "hdp_guarantee",
                            lambda *args: PrivacyParams(0.0, real(*args).delta))
        path = write(tmp_path, "s.yaml", ONE_RR_PAIR)
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
        # The claim (705, 0) is exact for the scenario's own mechanism, RR at
        # q = 1 / (1 + e^705), whose views are scaled past 700 nats; that such
        # views are counted exactly is TestVerifyHdp's RR(1e-310) case.
        path = write(tmp_path, "s.yaml", "mechanisms:\n  - {epsilon: 705.0}\n")
        code, out, err = self.run(capsys, "verify", "--scenario", path)
        assert code == EXIT_OK
        assert "SOUND" in err
        report = yaml.safe_load(out)
        assert report["claimed"] == {"epsilon": 705.0, "delta": 0.0}
        assert max(report["delta_needed_fwd"], report["delta_needed_rev"]) <= 1e-12

    def test_verify_refuses_a_view_that_underflows(self, tmp_path, capsys):
        # View 00 has P1 = q^2 = 1e-600, a 0 in doubles, which made the exact
        # composition (1381.55, 0) look UNSOUND.
        path = write(tmp_path, "s.yaml", "mechanisms:\n" + "  - {epsilon: 690.7755278982137}\n" * 2
                     + 'hypotheses:\n  p0: {"00": 1.0}\n  p1: {"11": 1.0}\n'
                     + "oracle: {rr_q: 1.0e-300}\n")
        start = time.perf_counter()
        code, out, err = self.run(capsys, "verify", "--scenario", path)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_COMPUTATION and out == ""
        assert "underflows" in err

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
        # Two atoms at k = 24, each position (0.1, 1e-6)-DP: leaky RR's 4^24 views,
        # over MAX_VIEW_SPACE.
        p1 = f'{{"{"0" * 24}": 0.5, "{"1" * 24}": 0.5}}'
        path = write(tmp_path, "s.yaml", homogeneous(24, f"hypotheses: {{p1: {p1}}}\n"))
        start = time.perf_counter()
        assert main(["verify", "--scenario", path]) == EXIT_COMPUTATION
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == ("", "error: 281474976710656 views exceeds 10000000\n")

    def test_verify_presets_at_k16_exit_0(self, tmp_path, capsys):
        # zero vs uniform_nonzero: 2^16 - 1 atoms x 2^16 views, within the oracle budget.
        path = write(tmp_path, "s.yaml",
                     "mechanisms:\n" + "  - {epsilon: 1.0986122886681098, delta: 0.0}\n" * 16)
        assert main(["verify", "--scenario", path, "--quiet"]) == EXIT_OK
        assert yaml.safe_load(capsys.readouterr().out)["sound"] is True

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


@pytest.mark.parametrize("scalar, message", [
    ("0b_", "invalid literal for int() with base 2: ''"),
    ("0x_", "invalid literal for int() with base 16: ''"),
    ("2001-02-30", "day is out of range for month"),
])
def test_scalar_pyyaml_cannot_build_exits_1(tmp_path, capsys, scalar, message):
    # SafeConstructor raises a bare ValueError for these, once taken for a computation error.
    path = write(tmp_path, "s.yaml", MINIMAL + f"oracle: {{seed: {scalar}}}\n")
    with pytest.raises(ScenarioParseError, match=re.escape(message)):
        load_scenario(path)
    assert main(["compose", "--scenario", path]) == EXIT_BAD_SCENARIO
    assert capsys.readouterr() == ("", f"error: cannot parse scenario file: {message}\n")


# YAML no scenario needs, after the two lines of MINIMAL: (text, feature, column).
REFUSALS = {
    "anchor": ("oracle: &o {seed: 1}\n", "an anchor", 9),
    "alias": ("oracle: *o\n", "an alias", 9),
    "tag": ("oracle: {seed: !!int 3}\n", "an explicit tag", 16),
    "merge-key": ("<<: {mode: bounded}\n", "a merge key '<<'", 1),
    "value-key": ("=: 1\n", "a value key '='", 1),
    "collection-key": ("? [a]\n: 1\n", "a collection as a key", 3),
    "duplicate-key": ("mechanisms: []\n", "a duplicate key 'mechanisms'", 1),
    "duplicate-inner-key": ("oracle: {seed: 1, seed: 2}\n", "a duplicate key 'seed'", 19),
    "second-document": ("---\nmode: bounded\n", "a second document", 1),
}


@pytest.mark.parametrize("text, feature, column", REFUSALS.values(), ids=REFUSALS)
def test_yaml_no_scenario_needs_exits_1_naming_it(tmp_path, capsys, text, feature, column):
    path = write(tmp_path, "s.yaml", MINIMAL + text)
    assert main(["compose", "--scenario", path]) == EXIT_BAD_SCENARIO
    assert capsys.readouterr() == ("", "error: cannot parse scenario file: a scenario may not use "
                                       f'{feature} (in "{path}", line 3, column {column})\n')


def pipe(text):
    """The read end of a pipe that holds ``text`` and is closed for writing."""
    read_end, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    return read_end


def test_a_pipe_reads_like_a_file_and_an_anchor_in_it_exits_1(capsys):
    with open(pipe("mechanisms: [{epsilon: 0.1}, {epsilon: 0.1}]\n"), encoding="utf-8") as fh:
        assert not fh.seekable()
        assert cli._read(fh) == {"mechanisms": [{"epsilon": 0.1}, {"epsilon": 0.1}]}
    read_end = pipe("mechanisms: [&m {epsilon: 0.1}, *m]\n")
    try:
        path = f"/dev/fd/{read_end}"  # the pipe itself, opened by name
        assert main(["compose", "--scenario", path]) == EXIT_BAD_SCENARIO
    finally:
        os.close(read_end)
    assert capsys.readouterr() == ("", "error: cannot parse scenario file: a scenario may not use "
                                       f'an anchor (in "{path}", line 1, column 14)\n')


# Lists nested 30,000 deep overflowed an 8 MB C stack in the recursion of PyYAML's
# compiled composer, and libyaml's scanner takes time quadratic in the depth: about 5 s
# at 30,000 and 70 s at 100,000 on a 2-core Xeon. Past cli._MAX_DEPTH a file is refused
# where the depth is passed, in about 0.2 s with start-up.
DEEP = "error: cannot parse scenario file: collections nested deeper than 64\n"


@pytest.mark.parametrize("prefix, depth", [
    ("mechanisms: ", 30_000),
    (MINIMAL + "hypotheses: ", 5_000),
    ("mechanisms: ", 100_000),
], ids=["mechanisms", "hypotheses", "mechanisms-100000"])
def test_deep_nesting_exits_1_without_a_crash(tmp_path, prefix, depth):
    path = write(tmp_path, "s.yaml", prefix + "[" * depth + "]" * depth + "\n")
    start = time.perf_counter()
    proc = run_module("compose", "--scenario", path, "--quiet")
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_BAD_SCENARIO, "", DEEP)


def test_nesting_within_the_cap_is_quoted_cut_short(tmp_path, capsys):
    path = write(tmp_path, "s.yaml", MINIMAL + "hypotheses: " + "[" * 60 + "]" * 60 + "\n")
    assert main(["compose", "--scenario", path, "--quiet"]) == EXIT_BAD_SCENARIO
    assert capsys.readouterr() == ("", "error: hypotheses: expected a mapping, "
                                       "got [[[[[[[...]]]]]]]\n")


@pytest.mark.parametrize("before", [True, False], ids=["anchor-before", "anchor-after"])
def test_deep_nesting_with_an_anchor_exits_1_without_a_crash(tmp_path, before):
    # Whichever comes first is refused where it is read: the anchor, or the 65th level.
    deep, anchor = "mechanisms: " + "[" * 30_000 + "]" * 30_000 + "\n", "x: &a 1\n"
    path = write(tmp_path, "s.yaml", anchor + deep if before else deep + anchor)
    start = time.perf_counter()
    proc = run_module("compose", "--scenario", path, "--quiet")
    assert time.perf_counter() - start < 10
    anchor_error = ("error: cannot parse scenario file: a scenario may not use an anchor "
                    f'(in "{path}", line 1, column 4)\n')
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (EXIT_BAD_SCENARIO, "", anchor_error if before else DEEP)


def test_simulate_refuses_too_many_trials_at_once(tmp_path, capsys):
    path = write(tmp_path, "s.yaml", MINIMAL + "oracle: {trials: 1.0e+9}\n")
    start = time.perf_counter()
    assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_COMPUTATION
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "1000000000 trials exceeds" in captured.err


def test_simulate_refuses_too_many_draws_at_once(tmp_path, capsys):
    # 2^20 vectors x 20 positions x 100,000 trials: about 2e12 draws, days of work,
    # refused on uniform_nonzero's 2^20 - 1 atoms before either side's words are read.
    path = write(tmp_path, "s.yaml", homogeneous(20, "oracle: {trials: 100000}\n"))
    start = time.perf_counter()
    assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_COMPUTATION
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: at least 1048575 vectors x 20 positions x 100000 trials "
                            f"exceeds {oracle.MAX_DRAWS} draws\n")


def test_simulate_refuses_too_many_views_at_once(tmp_path, capsys):
    # 2^16 vectors x 2^16 exact views, about 4.3e9 products, over 16 x MAX_VIEW_SPACE,
    # while 2^16 x 16 x 100 draws are far under MAX_DRAWS.
    path = write(tmp_path, "s.yaml", homogeneous(16, "oracle: {trials: 100}\n"))
    start = time.perf_counter()
    assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_COMPUTATION
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: at least 65535 vectors x 65536 views exceeds "
                                       f"16 x {oracle.MAX_VIEW_SPACE} entries\n")


@pytest.mark.parametrize("hypotheses, trials, vectors", [
    ("{p0: uniform_all, p1: uniform_nonzero}", 100_000, 1 << 23),
    ("{p0: zero, p1: uniform_nonzero}", 1000, (1 << 23) - 1),
])
def test_simulate_refuses_k23_presets_unread(tmp_path, capsys, hypotheses, trials, vectors):
    # Either side's 2^23 words alone would take 64 MB, and their union twice that.
    path = write(tmp_path, "s.yaml", homogeneous(
        23, f"hypotheses: {hypotheses}\noracle: {{trials: {trials}}}\n"))
    tracemalloc.start()
    try:
        assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_COMPUTATION
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert capsys.readouterr() == ("", f"error: at least {vectors} vectors x 23 positions x "
                                       f"{trials} trials exceeds {oracle.MAX_DRAWS} draws\n")


def test_simulate_refuses_the_union_past_the_draw_budget(tmp_path, capsys):
    # Each side's 16 vectors x 16 positions x 2^24 trials is 2^32 draws, within the budget;
    # the 32 vectors of their union are twice that.
    atoms = [", ".join(f'"{w:016b}": 0.0625' for w in range(first, first + 16))
             for first in (0, 16)]
    path = write(tmp_path, "s.yaml", homogeneous(
        16, f"hypotheses: {{p0: {{{atoms[0]}}}, p1: {{{atoms[1]}}}}}\n"
            f"oracle: {{trials: {1 << 24}}}\n"))
    assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_COMPUTATION
    assert capsys.readouterr() == ("", f"error: 32 vectors x 16 positions x 16777216 trials "
                                       f"exceeds {oracle.MAX_DRAWS} draws\n")


def test_simulate_within_the_view_budget(tmp_path, capsys):
    # 2^12 vectors x 2^12 views at k = 12, and hospitals.yaml's 1024 x 1024 at k = 10.
    hospitals = yaml.safe_load((SCENARIOS / "hospitals.yaml").read_text())
    hospitals["oracle"] = {"trials": 100}
    for text in (homogeneous(12, "oracle: {trials: 100}\n"), yaml.safe_dump(hospitals)):
        path = write(tmp_path, "s.yaml", text)
        assert main(["simulate", "--scenario", path, "--quiet"]) == EXIT_OK
        assert "within_bound: true" in capsys.readouterr().out


def test_hospitals_simulate_within_the_draw_budget():
    s = load_scenario(str(SCENARIOS / "hospitals.yaml"))
    vectors = len(np.union1d(s.p0.words, s.p1.words))
    assert (vectors, s.k, s.trials) == (1024, 10, 100_000)
    assert vectors * s.k * s.trials <= oracle.MAX_DRAWS


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


@pytest.mark.parametrize("seed", ["-1", str(2**63), "99999999999999999999"])
def test_seed_outside_the_range_is_a_bad_command_line(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(SCENARIOS / "verify_rr.yaml"), "--seed", seed])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: hypodp")
    assert f"argument --seed: must be in [0, 2^63), got {seed}\n" in captured.err


def test_largest_seed_accepted(tmp_path, capsys):
    path = write(tmp_path, "s.yaml", MINIMAL + "oracle: {trials: 100}\n")
    assert main(["simulate", "--scenario", path, "--seed", str(2**63 - 1), "--quiet"]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["scenario"]["oracle"]["seed"] == 2**63 - 1


def test_seed_not_an_integer_is_a_bad_command_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--scenario", str(SCENARIOS / "verify_rr.yaml"), "--seed", "0x1"])
    assert exc.value.code == 2
    assert "argument --seed: invalid int value: '0x1'\n" in capsys.readouterr().err


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


# The oracle commands' reports: booleans, quoted bit strings and a method line
# long enough to wrap. simulate on hospitals.yaml (13 s) is left out.
ORACLE_GOLDENS = pytest.mark.parametrize("scenario, command", [
    ("verify_rr", "verify"), ("uniform_prior", "simulate"), ("verify_rr", "simulate"),
])


@ORACLE_GOLDENS
def test_oracle_reports_match_golden(scenario, command, capsys):
    test_demo_scenario_reports_match_golden(scenario, command, capsys)


@ORACLE_GOLDENS
def test_pure_python_yaml_oracle_reports_match_golden(scenario, command, capsys, pure_python_yaml):
    test_demo_scenario_reports_match_golden(scenario, command, capsys)


@DEMO_SCENARIOS
def test_verify_holds_on_every_demo_scenario(scenario, capsys):
    assert main(["verify", "--scenario", str(SCENARIOS / f"{scenario}.yaml"), "--quiet"]) == EXIT_OK
    assert yaml.safe_load(capsys.readouterr().out)["sound"] is True


def test_verify_holds_on_heterogeneous_scenarios(tmp_path, capsys):
    # Each position's own (eps, delta), delta 0 or not, under presets and explicit
    # mixtures at k <= 6: a correct claim is SOUND against each mechanism's leaky RR.
    rng = random.Random(43)
    for i in range(40):
        k = rng.randint(1, 6)
        mechanisms = [{"epsilon": rng.uniform(0.05, 2.0),
                       "delta": rng.choice([0.0, 10 ** rng.uniform(-6, -1)])} for _ in range(k)]
        hypotheses = {}
        for side in ("p0", "p1"):
            if rng.random() < 0.5:
                hypotheses[side] = rng.choice(["zero", "uniform_nonzero", "uniform_all"])
                continue
            words = rng.sample(range(1 << k), rng.randint(1, min(1 << k, 6)))
            weights = [rng.random() + 0.01 for _ in words]
            hypotheses[side] = {format(w, f"0{k}b"): x / sum(weights)
                                for w, x in zip(words, weights)}
        scenario = {"mechanisms": mechanisms, "hypotheses": hypotheses}
        path = write(tmp_path, f"s{i}.yaml", json.dumps(scenario))
        assert main(["verify", "--scenario", path, "--quiet"]) == EXIT_OK, scenario
        assert yaml.safe_load(capsys.readouterr().out)["sound"] is True


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.yaml")), ids=lambda path: path.stem)
def test_out_file_holds_the_golden_bytes(golden, tmp_path):
    scenario, command = golden.stem.split(".")
    out = tmp_path / "report.yaml"
    argv = [command, "--scenario", str(SCENARIOS / f"{scenario}.yaml"), "--out", str(out)]
    assert main([*argv, "--quiet"]) == EXIT_OK
    assert out.read_bytes() == golden.read_bytes()


def test_explicit_hypotheses_echoed_in_word_order(tmp_path, capsys):
    hypotheses = 'hypotheses: {p0: {"00": 1.0}, p1: {"10": 0.25, "01": 0.75}}\n'
    assert main(["compose", "--scenario", write(tmp_path, "s.yaml", PAIR + hypotheses),
                 "--quiet"]) == EXIT_OK
    echo = "  hypotheses:\n    p0:\n      '00': 1.0\n    p1:\n      '01': 0.75\n      '10': 0.25\n"
    assert echo in capsys.readouterr().out


def test_main_emits_through_the_module_global(tmp_path, monkeypatch):
    # Wrappers on cli._emit, such as the benchmark tracer's, see every report.
    calls = []
    monkeypatch.setattr(cli, "_emit", lambda *args: calls.append(args))
    path, out = write(tmp_path, "s.yaml", TRIPLE), str(tmp_path / "report.yaml")
    assert main(["compose", "--scenario", path, "--out", out]) == EXIT_OK
    [(report, out_path, human, quiet)] = calls
    assert (report["command"], report["method"], report["result"]["epsilon"]) == \
        ("compose", "simple", 0.1 + 0.1 + 0.1)
    assert (out_path, quiet) == (out, False)
    assert human[0].startswith("classic composition of k=3")


def test_main_loads_through_the_module_global(tmp_path, monkeypatch):
    # Wrappers on cli.load_scenario, such as the benchmark tracer's, see every load.
    calls, load = [], cli.load_scenario
    monkeypatch.setattr(cli, "load_scenario",
                        lambda *args, **kwargs: calls.append((args, kwargs)) or load(*args, **kwargs))
    path = write(tmp_path, "s.yaml", TRIPLE)
    assert main(["compose", "--scenario", path, "--seed", "7", "--quiet"]) == EXIT_OK
    assert calls == [((path,), {"seed_override": 7})]


# Strings whose plain form reads back as another type, or that need quotes or wrap.
AWKWARD_STRINGS = [
    "0101", "1", "true", "yes", "null", "~", "1e5", ".inf", "2001-12-14", "0x1F", "1:30", "<<",
    "", " lead", "trail ", "a: b", "#x", "- x", "two\nlines", "tab\there", "naïve €",
    "wrapped " * 12, "x" * 100,
]
EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e16, 1e17, 5e-324, sys.float_info.max]
SCALARS = st.one_of(
    st.sampled_from(AWKWARD_STRINGS), st.text(),
    st.sampled_from(EDGE_FLOATS), st.floats(),
    st.sampled_from([2**64, -2**64 - 1, 2**100 + 1]), st.integers(),
    st.booleans(), st.none(),
)
KEYS = st.one_of(st.sampled_from(AWKWARD_STRINGS), st.text(), st.integers(), st.none())
REPORTS = st.dictionaries(KEYS, st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=20,
), max_size=6)
DUMPERS = [d for d in (getattr(yaml, "CSafeDumper", None), yaml.SafeDumper) if d is not None]


@pytest.mark.parametrize("dumper", DUMPERS, ids=lambda d: d.__name__)
def test_emit_refuses_what_the_safe_representer_refuses(dumper, capsys):
    report = {"result": {"epsilon": np.float64(0.5)}}
    with pytest.raises(yaml.representer.RepresenterError):
        yaml.dump(report, Dumper=dumper)
    with pytest.raises(TypeError, match=re.escape("a report cannot hold np.float64(0.5)")):
        cli._emit(report, None, ["summary"], quiet=False)
    assert capsys.readouterr() == ("", "")


# Plain texts of every family the resolver knows, and texts it leaves as strings.
PLAIN_TEXTS = ["~", "null", "Null", "yes", "On", "off", "true", "0101", "0o7", "0x1F", "0x_", "0b_",
               "0b101", "1_000", "-3", "1:30", "1e5", "1.0e-6", "0.1", ".5", ".inf", "-.NaN", "-0.0",
               "2001-12-14", "2001-02-30", "<<", "=", "epsilon", "a", "*a", ""]
SCALAR_TEXTS = st.one_of(
    st.sampled_from(PLAIN_TEXTS),
    st.sampled_from(PLAIN_TEXTS).map(lambda t: "'" + t.replace("'", "''") + "'"),
    st.sampled_from(PLAIN_TEXTS).map(json.dumps),
    st.sampled_from(["!!int '3'", "!!str 1", "!foo x", "&a 1", "&m {b: 2}", "*m"]),
)
KEY_TEXTS = st.one_of(SCALAR_TEXTS, st.sampled_from(["[a]", "{a: 1}", "<<"]))
# A node: ("scalar", text), or (kind, flow, children) with mapping children as (key, node).
NODES = st.recursive(
    SCALAR_TEXTS.map(lambda t: ("scalar", t)),
    lambda nodes: st.one_of(
        st.tuples(st.just("seq"), st.booleans(), st.lists(nodes, max_size=3)),
        st.tuples(st.just("map"), st.booleans(), st.lists(st.tuples(KEY_TEXTS, nodes), max_size=3)),
    ),
    max_leaves=10,
)


def yaml_text(node, indent=0):
    """``node`` as YAML: flow collections inline, a block collection on new lines."""
    if node[0] == "scalar":
        return node[1]
    kind, flow, children = node
    if flow or not children:
        if kind == "seq":
            return "[" + ", ".join(yaml_text(c) for c in children) + "]"
        return "{" + ", ".join(f"{k}: {yaml_text(v)}" for k, v in children) + "}"
    pad = "\n" + "  " * indent
    if kind == "seq":
        return "".join(f"{pad}- {yaml_text(c, indent + 1)}" for c in children)
    return "".join(f"{pad}? {k}{pad}: {yaml_text(v, indent + 1)}" if k.startswith(("[", "{"))
                   else f"{pad}{k}: {yaml_text(v, indent + 1)}" for k, v in children)


DOCUMENTS = st.one_of(
    st.builds(lambda head, node, tail: head + yaml_text(node).lstrip("\n") + tail,
              st.sampled_from(["", "\ufeff", "# c\n", "--- ", "m: &m {b: 2}\n"]),
              NODES,
              st.sampled_from(["\n", "", "\n...\n", "\n<<: *m\n", "\n---\nb: 2\n", "\n--- x\n"])),
    st.sampled_from(["", "# only a comment\n", "\ufeff", "---\n", "a: 1\n---\nb: 2\n",
                     "<<: *m\n", "m: &m {b: 2}\n<<: *m\nc: 3\n", "? [a]\n: 1\n", "=: 1\n"]),
)
# A text cut short, for the parser's errors.
TEXTS = st.one_of(DOCUMENTS, st.tuples(DOCUMENTS, st.integers(0, 60)).map(lambda tn: tn[0][:tn[1]]))
LOADERS = [d for d in (getattr(yaml, "CSafeLoader", None), yaml.SafeLoader) if d is not None]


def typed(tree) -> str:
    """``repr(tree)`` naming every scalar's type, so 1 and 1.0 or '1' and 1 differ."""
    if type(tree) is dict:
        return "{" + ", ".join(f"{typed(k)}: {typed(v)}" for k, v in tree.items()) + "}"
    if type(tree) is list:
        return "[" + ", ".join(map(typed, tree)) + "]"
    return f"{type(tree).__name__}:{tree!r}"


def outcome(read, text):
    """The typed tree ``read`` returns from ``text``, or the exception it raises."""
    try:
        return typed(read(io.StringIO(text)))
    except Exception as exc:  # any exception is an outcome
        return exc


# A generated document may repeat any key, so a duplicate key's refusal may name any.
REFUSED = re.compile("a scenario may not use ({}|a duplicate key .+) ".format(
    "|".join(re.escape(feature) for _, feature, _ in REFUSALS.values()))
    + r'\(in "<file>", line \d+, column \d+\)')


@pytest.mark.parametrize("loader", LOADERS, ids=lambda d: d.__name__)
@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=TEXTS)
def test_scenario_reader_returns_or_raises_what_yaml_load_does(loader, text):
    # _read returns yaml.load's tree or raises; where yaml.load raises, with any error
    # that exits 1; where only _read raises, it names YAML that no scenario needs.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_LOADER", loader)
        built = outcome(cli._read, text)
    loaded = outcome(lambda fh: yaml.load(fh, Loader=loader), text)
    if isinstance(loaded, Exception):
        assert isinstance(built, (yaml.YAMLError, ValueError)), (built, loaded)
    elif isinstance(built, Exception):
        assert type(built) is ScenarioParseError and REFUSED.fullmatch(str(built)), built
    else:
        assert built == loaded


@pytest.mark.parametrize("loader", LOADERS, ids=lambda d: d.__name__)
def test_nesting_to_the_cap_reads_as_yaml_load_does(monkeypatch, loader):
    # The top mapping and 63 lists are 64 open collections; one more list or mapping is refused.
    monkeypatch.setattr(cli, "_LOADER", loader)
    text = "a: " + "[" * 63 + "]" * 63 + "\n"
    assert cli._read(io.StringIO(text)) == yaml.load(io.StringIO(text), Loader=loader)
    for deeper in ("a: [" + "[" * 63 + "]" * 63 + "]\n", "a: {b: " + "[" * 63 + "]" * 63 + "}\n"):
        with pytest.raises(ScenarioParseError, match="nested deeper than 64"):
            cli._read(io.StringIO(deeper))


def no_dump(*args, **kwargs):
    raise AssertionError("the report went to yaml.dump")


def keys_of(tree):
    if type(tree) is dict:
        for key, value in tree.items():
            yield key
            yield from keys_of(value)
    elif type(tree) is list:
        for value in tree:
            yield from keys_of(value)


# Report-shaped trees, which cli._report_text writes without yaml.dump. The keys are the
# golden reports' and bit strings; the strings are resolver-typed texts, which are quoted,
# and prose of printable ASCII that starts alphanumeric, with no ':', '#' or run of spaces,
# long enough to cross column 80 wherever a tree puts it.
REPORT_KEYS = sorted({key for path in GOLDEN.glob("*.yaml")
                      for key in keys_of(yaml.safe_load(path.read_text()))})
TYPED_TEXTS = [t for t in PLAIN_TEXTS if t[:1].isalnum() and ":" not in t]
PROSE = st.builds(lambda head, words: head + " ".join(words),
                  st.sampled_from("abcxyzABZ019"),
                  st.lists(st.text([chr(c) for c in range(33, 127) if chr(c) not in ":#"],
                                   min_size=1, max_size=12), min_size=1, max_size=24))
REPORT_SCALARS = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(), st.sampled_from([2**64, -2**64 - 1, 2**100 + 1]),
    st.integers(), st.booleans(), st.none(), st.sampled_from(TYPED_TEXTS), PROSE,
)
REPORT_KEY = st.one_of(st.sampled_from(REPORT_KEYS), st.text("01", min_size=1, max_size=63))
TREES = st.dictionaries(REPORT_KEY, st.recursive(
    REPORT_SCALARS,
    lambda children: st.lists(children.filter(lambda c: type(c) is not list)
                              | st.dictionaries(REPORT_KEY, children, min_size=1, max_size=3),
                              min_size=1, max_size=3)
    | st.dictionaries(REPORT_KEY, children, min_size=1, max_size=4),
    max_leaves=12,
), min_size=1, max_size=5)


# Two draws in three are report trees, which are written; the third is any tree, which the
# writer mostly refuses (113 written and 37 refused of the 150 examples).
EMITTED = st.sampled_from([TREES, TREES, REPORTS]).flatmap(lambda trees: trees)


@pytest.mark.parametrize("dumper", DUMPERS, ids=lambda d: d.__name__)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(report=EMITTED)
def test_emit_writes_the_bytes_of_a_safe_dump(dumper, report):
    # Either the dumper's bytes, or a TypeError for a tree outside the reports' shapes
    # (test_report_shaped_trees_take_the_writer also holds the written ones to yaml.dump).
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            cli._emit(report, None, [], quiet=True)
    except TypeError:
        assert stdout.getvalue() == ""
    else:
        assert stdout.getvalue() == yaml.dump(report, Dumper=dumper, sort_keys=False)


def nested(value, path):
    """``value`` under ``path``'s keys, each key's value in a one-item list where marked."""
    for key, item in reversed(path):
        value = {key: [value] if item else value}
    return value


# Prose at indents 0 to 6, as a mapping's value or a list's item, with a tree beside it.
REPORT_SHAPED = st.builds(
    lambda deep, tree: {**deep, **tree},
    st.builds(nested, PROSE,
              st.lists(st.tuples(REPORT_KEY, st.booleans()), min_size=1, max_size=4)),
    TREES)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(report=REPORT_SHAPED)
def test_report_shaped_trees_take_the_writer(report):
    dumps = {yaml.dump(report, Dumper=dumper, sort_keys=False) for dumper in DUMPERS}
    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout):
        patch.setattr(yaml, "dump", no_dump)
        cli._emit(report, None, [], quiet=True)
    assert dumps == {stdout.getvalue()}


def test_every_report_takes_the_direct_writer(tmp_path, monkeypatch, capsys):
    # All six commands on each demo scenario, its trials cut to 100 so that simulate stays
    # quick, and each scenario cli_scenarios generates under its own command.
    runs = []
    for path in sorted(SCENARIOS.glob("*.yaml")):
        scenario = yaml.safe_load(path.read_text())
        scenario["oracle"] = {**(scenario.get("oracle") or {}), "trials": 100}
        runs += [(command, write(tmp_path, path.name, yaml.safe_dump(scenario)))
                 for command in COMMANDS]
    workload = load_perfbench("workloads").CliScenarios
    for spec in dict.fromkeys(workload.ROUND + workload.ONCE):
        scenario = workload._scenario(random.Random(0), *spec)
        path = write(tmp_path, "{}-{}-{}.yaml".format(*spec), yaml.safe_dump(scenario))
        runs.append((spec[0], path))
    monkeypatch.setattr(yaml, "dump", no_dump)
    written = set()
    for command, path in runs:
        code = main([command, "--scenario", path, "--quiet"])
        out = capsys.readouterr().out
        if code in (EXIT_OK, EXIT_UNSOUND):
            assert yaml.safe_load(out)["command"] == command
            written.add(path)
        else:
            assert code in (EXIT_BAD_SCENARIO, EXIT_COMPUTATION) and out == ""
    assert written == {path for _, path in runs}  # every file made at least one report


@pytest.mark.parametrize("value", [
    None, True, 2.5, 10**30, "fancy", "x" * 26, [], [1, "a"], {}, {"advanced": 5},
    {"b": [1, {"c": None}], "a": 2}, [[[[[0]]]]],
])
def test_small_values_quoted_as_repr(value):
    assert cli._quote(value) == repr(value)


def test_large_values_quoted_abbreviated():
    assert cli._quote(list(range(100))) == "[0, 1, 2, 3, 4, 5, ...]"
    assert cli._quote({str(i): i for i in range(100)}) == "{'0': 0, '1': 1, '2': 2, '3': 3, ...}"
    assert cli._quote("0" * 100) == "'000000000000...0000000000000'"


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

    def test_more_bounded_pairs_than_the_budget_exit_4_at_once(self, tmp_path, capsys):
        # 4,473 patterns at k = 63 make 10,001,628 pairs, past MAX_ENUMERATION = 10^7.
        rng = random.Random(4473)
        patterns = {format(rng.getrandbits(63), "063b") for _ in range(4473)}
        assert len(patterns) == 4473
        scenario = ("mechanisms: [" + ", ".join(["{epsilon: 0.1, delta: 1.0e-7}"] * 63)
                    + "]\nmode: bounded\nconstraint: {patterns: ["
                    + ", ".join(f'"{p}"' for p in sorted(patterns)) + "]}\n")
        start = time.perf_counter()
        code, out, err = self.run(tmp_path, capsys, scenario)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_COMPUTATION
        assert out == "" and "4473 patterns make 10001628 pairs" in err

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

    @pytest.mark.parametrize("field, template", [
        ("mechanisms[0].epsilon", 'mechanisms:\n  - {epsilon: "VALUE"}\n'),
        ("oracle.trials", PAIR + "oracle: {trials: VALUE}\n"),
    ], ids=["quoted", "plain"])
    def test_a_long_string_for_a_number_prints_one_short_line(self, tmp_path, capsys,
                                                              field, template):
        # float()'s own message would quote all 100,000 characters.
        path = write(tmp_path, "s.yaml", template.replace("VALUE", "x" * 100_000))
        assert main(["compose", "--scenario", path]) == EXIT_BAD_SCENARIO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field}: expected a number, got '{'x' * 12}...{'x' * 13}'\n"
