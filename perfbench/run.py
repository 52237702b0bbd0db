"""Benchmark runner for hypodp.

    python3 perfbench/run.py --workload library --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0

Each workload runs in its own fresh ``worker.py`` process, so set-up time
and peak memory belong to that workload alone.  With ``--trace 0`` the
runner first starts ``SETUP_PROBES`` processes that only set up, then the
measuring process, and reports the end-to-end metrics of BENCHMARK.json,
with times scaled to the machine's reference speed (``scaled_latencies``).
With ``--trace 1`` it runs a fixed amount of work traced (``TRACED_ROUNDS``
rounds, the first with its one-off heavy queries, so per-layer totals
compare across commits), replays the same queries untraced in another
fresh process, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced wall time of the same queries).

``--workload`` also accepts the library's query families (``hdp_pairs``,
``oracle_verify``, ``bounds_sweep``) on their own, for diagnosis.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error, and the full record (latency samples,
failures by cause, provenance) to ``perfbench/out/``.
"""

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text()) if SPEC_PATH.exists() else None

SETUP_PROBES = 4
# Median duration of worker.reference_work on the reference machine (2-core
# Xeon VM, 2.1 GHz).  Latencies are reported at this reference speed.
REFERENCE_S = 0.0085
# Reference samples within this many seconds of a query set its speed.
REFERENCE_WINDOW_S = 0.5
TRACED_ROUNDS = 1
WORKER_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker; return its set-up time and its final JSON record."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True) as proc:
        try:
            line = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            if line.strip() != "READY":
                raise BenchmarkError(f"worker did not get ready: {line!r}")
            try:
                out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchmarkError("worker timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else {}


def scaled_latencies(record: dict) -> list[float]:
    """Each query's latency at the reference speed of the machine.

    The host's speed drifts by a third or more, over seconds to minutes,
    whatever runs on it.  The worker times ``reference_work``, which never calls
    hypodp, between queries; a query's latency is scaled by
    ``REFERENCE_S`` over the median of the reference times taken within
    ``REFERENCE_WINDOW_S`` of it.
    """
    times = [t for t, _ in record["reference"]]
    scaled = []
    for start, lat in zip(record["starts"], record["latencies"]):
        lo = bisect.bisect_left(times, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(times, start + lat + REFERENCE_WINDOW_S)
        if lo == hi:  # none in the window: the samples just before and after
            lo, hi = max(0, lo - 1), lo + 1
        near = [s for _, s in record["reference"][lo:hi]]
        scaled.append(lat * REFERENCE_S / statistics.median(near))
    return scaled


def latency_metrics(lat: list[float], ok: int) -> dict:
    return {
        "ops_per_s": ok / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[8]
        if len(lat) > 1 else lat[0],
    }


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    runs = [_worker(base + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    runs.append(_worker(base + ["--seconds", str(seconds)], deadline))
    record = runs[-1][1]
    setups = [setup * REFERENCE_S / probe["setup_reference_s"] for setup, probe in runs]
    lat = scaled_latencies(record)
    attempted = record["attempted"]
    metrics = latency_metrics(lat, record["ok"])
    metrics.update({
        "ok_frac": record["ok"] / attempted,
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    })
    unscaled = latency_metrics(record["latencies"], record["ok"])
    unscaled["setup_s"] = statistics.median(setup for setup, _ in runs)
    record.update(setup_samples=setups, failed_frac=record["failed"] / attempted,
                  scaled_latencies=lat, unscaled=unscaled,
                  samples_beyond_p90=sum(x > metrics["op_p90_s"] for x in lat))
    return _result(record, metrics, "end_to_end")


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    spans = OUT / f"{workload}-seed{seed}-spans.json"
    _, traced = _worker(base + ["--rounds", str(TRACED_ROUNDS), "--traced",
                                "--spans-out", str(spans)], deadline)
    _, plain = _worker(base + ["--queries", str(traced["attempted"])], deadline)
    metrics = dict(traced["trace"])
    wall = traced["loop_wall_s"]
    metrics.update({
        "trace.queries": traced["attempted"],
        "trace.wall_s": wall,
        "trace.untraced_wall_s": plain["loop_wall_s"],
        "trace.overhead_s": wall - plain["loop_wall_s"],
        "trace.accounted_frac": sum(traced["layer_self_s"].values()) / wall,
    })
    traced["untraced_replay"] = {k: plain[k] for k in ("attempted", "ok", "loop_wall_s")}
    traced["spans_file"] = str(spans.relative_to(ROOT))
    return _result(traced, metrics, "per_layer")


def _result(record: dict, metrics: dict, kind: str) -> dict:
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchmarkError(f"metrics not measured: {sorted(missing)}")
    record["metrics"] = {name: {"value": metrics[name], "unit": unit}
                         for name, unit in units.items()}
    return record


def summary(workload: str, record: dict) -> str:
    lines = [f"== {workload}: {record['attempted']} queries, {record['failed']} failed"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    if "failed_frac" in record:
        lines.append(f"  {'failed_frac':28s} {record['failed_frac']:>14.6g} "
                     f"(samples beyond p90: {record['samples_beyond_p90']})")
        lines.append("  unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, value in record["unscaled"].items()))
    for label, n in sorted(record["known_defects"].items()):
        lines.append(f"  known defect x{n}: {label}")
    for cause, n in sorted(record["unexpected"].items()):
        lines.append(f"  UNEXPECTED x{n}: {cause}")
    return "\n".join(lines)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    record = (measure_traced if trace else measure)(workload, seed, seconds, deadline)
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1))
    print(summary(workload, record), file=sys.stderr)
    return {
        "correct": not record["unexpected"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in SPEC["workloads"]] if SPEC else []
    parser.add_argument("--workload", default=None,
                        help="one workload or query family (default: all workloads)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"] if SPEC else 10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "hypodp" / "__init__.py").exists():
        print("error: run from a hypodp checkout (BENCHMARK.json and src/hypodp needed)",
              file=sys.stderr)
        return 2
    try:
        if args.workload:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            result = {w: run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
