"""The names the benchmark harness under perfbench/ reads from hypodp.

The harness is loaded from its files, read-only, and never installed,
so these tests touch no hypodp module. A name listed here can only be
deleted together with the harness code that reads it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import hypodp
from hypodp import cli, constraints, hypothesis_dp, subsampling
from hypodp.core import Hypothesis
from hypodp.refinement import refine_tuples

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


@pytest.mark.parametrize("module, attr", sorted({**tracer.SPAN_TARGETS, **tracer.HOT_TARGETS}))
def test_traced_targets_are_callables(module, attr):
    assert callable(getattr(getattr(hypodp, module), attr))


def test_counted_pick():
    assert callable(constraints._pick)


def test_hypothesis_constructors_are_classmethods():
    for name in tracer.HYPOTHESIS_CONSTRUCTORS:
        assert isinstance(Hypothesis.__dict__[name], classmethod), name


def test_refinement_pairs_have_a_length():
    h = Hypothesis.uniform_nonzero(3)
    refined = refine_tuples(h, h)
    assert len(refined.pairs) > 0 and refined.k == 3


def test_cli_names_and_flags():
    assert set(cli.COMMANDS) == {"compose", "hdp", "constrain", "subsample", "verify", "simulate"}
    assert callable(cli._emit) and callable(cli.load_scenario)
    assert "rr_q" in cli.DEFAULTS["oracle"]
    argv = ["verify", "--scenario", "s.yaml", "--quiet", "--seed", "7"]
    args = cli._build_parser().parse_args(argv)
    assert args.quiet and args.seed == 7


def test_subsampling_aliases_stay_module_level():
    assert subsampling.uniform_prior_closed_form is hypothesis_dp.uniform_nonzero_closed_form
    assert subsampling.uniform_prior_split_bound is subsampling.uniform_prior_bound
    assert "uniform_prior_closed_form" not in hypodp.__all__
    assert "uniform_prior_split_bound" not in hypodp.__all__


def test_workloads_import_cleanly():
    workloads = _load("workloads")
    assert {"library", "cli_scenarios"} <= set(workloads.WORKLOADS)
    assert workloads.REF["uniform_prior_closed_form"] is hypothesis_dp.uniform_nonzero_closed_form
