"""Tests of the benchmark itself (not of hypodp).

    python3 -m pytest -q perfbench/tests

The end-to-end tests start the runner in subprocesses and take about
two minutes on two cores.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from hypodp import core, oracle  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
FAMILIES = sorted(workloads.WORKLOADS)


def _fingerprint(fn) -> str:
    """Text of every value a query's op closes over, following nested closures."""
    parts = []
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if callable(value) and getattr(value, "__closure__", None):
            parts.append(_fingerprint(value))
        elif not callable(value):
            parts.append(repr(value))
    return "|".join(parts)


def _queries(name, seed, workdir, count=60):
    wl = workloads.WORKLOADS[name](seed, str(workdir))
    return [wl.query(i) for i in range(count)]


def _describe(queries):
    return [(q.kind, q.k, _fingerprint(q.op)) for q in queries]


@pytest.mark.parametrize("name", FAMILIES)
def test_generators_are_deterministic_per_seed(name, tmp_path):
    first = _describe(_queries(name, 7, tmp_path))
    assert first == _describe(_queries(name, 7, tmp_path))
    assert first != _describe(_queries(name, 8, tmp_path))


def test_cli_scenario_files_are_deterministic(tmp_path):
    texts = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        workloads.WORKLOADS["cli_scenarios"](5, str(workdir))
        texts.append({p.name: p.read_bytes() for p in sorted(workdir.iterdir())})
    assert texts[0] == texts[1]
    assert len(texts[0]) == len(set(workloads.CliScenarios.ROUND + workloads.CliScenarios.ONCE))


@pytest.mark.parametrize("name", FAMILIES)
def test_schedule_repeats_every_kind_each_round(name, tmp_path):
    wl = workloads.WORKLOADS[name](3, str(tmp_path))
    first = len(wl.ONCE) + len(wl.ROUND)
    round0 = sorted(map(repr, (wl.spec(i) for i in range(first))))
    round1 = sorted(map(repr, (wl.spec(i) for i in range(first, first + len(wl.ROUND)))))
    assert round0 == sorted(map(repr, wl.ROUND + wl.ONCE))
    assert round1 == sorted(map(repr, wl.ROUND))


def test_delta_floor_is_what_the_oracle_needs_for_leaky_rr():
    deltas = [0.01, 0.002, 0.03]
    mechs = [workloads.leaky_rr(0.25, d) for d in deltas]
    p0 = core.Hypothesis.point_mass(core.BitVector.from_string("000"))
    p1 = core.Hypothesis.point_mass(core.BitVector.from_string("111"))
    d0 = oracle.mixture_view_distribution(mechs, p0)
    d1 = oracle.mixture_view_distribution(mechs, p1)
    needed = oracle.required_delta(d0, d1, 3 * math.log(3.0))
    assert needed == pytest.approx(workloads.delta_floor(deltas), rel=1e-12)


def test_latency_is_scaled_by_the_reference_speed_around_it():
    ref = run.REFERENCE_S
    record = {
        "reference": [(0.0, ref), (1.0, ref), (10.0, 2 * ref), (11.0, 2 * ref)],
        "starts": [0.2, 10.2, 5.0],
        "latencies": [0.1, 0.2, 0.3],
    }
    # The third query has no sample within the window: the nearest two decide.
    assert run.scaled_latencies(record) == pytest.approx([0.1, 0.1, 0.2])


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("name", NAMES)
def test_short_run_prints_every_end_to_end_metric(name):
    proc = _run(["--workload", name, "--seed", "4", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric, unit in want.items():
        assert metric in proc.stderr and unit in proc.stderr


def test_traced_run_reports_every_layer_and_accounts_for_wall_time():
    proc = _run(["--workload", "cli_scenarios", "--seed", "4", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == want
    assert metrics["trace.accounted_frac"]["value"] > 0.95
    assert metrics["cli.nonzero_exits"]["value"] > 0


def test_library_covers_every_family_once_per_round():
    kinds = [spec for _, spec in workloads.Library.ROUND]
    assert kinds == [s for f in workloads.Library.FAMILIES for s in f.ROUND]


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = _run(["--workload", "hdp_pairs", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
