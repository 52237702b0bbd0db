"""One workload in one fresh process: set up, run the closed loop, report.

Started by ``run.py``; not meant to be run by hand.  The process prints
``READY`` on stdout once set-up is done (``import hypodp`` plus the
workload's inputs), then times ``reference_work`` to record how fast the
machine ran during set-up, and prints one JSON line with its
measurements: with ``--setup-only`` that reference time alone, otherwise
everything the loop measured.

A single caller issues one query at a time (closed loop, no threads).
Each query's latency covers only its library calls; generating its
inputs and checking its output happen between timed regions.  A run is
a whole number of rounds of the workload's schedule: as many as take
``--seconds`` at the commit that introduced the benchmark, or exactly
``--rounds``; ``--queries`` replays the first N queries.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hypodp  # noqa: E402  (import time is part of set-up)
import numpy  # noqa: E402
from hypodp import cli, composition, constraints, core, hypothesis_dp, oracle, subsampling  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REPEAT_CHECKS = 3
# Ends a run early, after the current query, if the program got so slow
# that the fixed work would not finish in time.
MAX_LOOP_SECONDS = 120.0
# How often the loop times ``reference_work`` between queries.
REFERENCE_EVERY_S = 0.2


def reference_work() -> int:
    """A fixed piece of interpreter, allocation and numpy work that never
    calls hypodp.  Its duration tracks how fast the machine is running at
    that moment, independent of the commit under test."""
    pairs = [((i * 2654435761) % 1000003, i) for i in range(12000)]
    table = dict(pairs)
    pairs.sort()
    arr = numpy.log1p(numpy.arange(100000, dtype=float))
    return len(table) + int(arr[-1])


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def provenance() -> dict:
    import numpy
    import platform
    import yaml

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "hypodp": hypodp.__version__,
        "commit": _commit(),
    }


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_loop(workload, queries: int, tracer) -> dict:
    span = tracer.span if tracer else (lambda *_: nullcontext())
    latencies, log, failures, unexpected = [], [], Counter(), Counter()
    known_labels, completed = Counter(), {}
    starts, reference = [], []
    ok = 0
    loop_start = time.perf_counter()

    def sample_reference():
        with span("bench.reference", "bench.self_s"):
            start = time.perf_counter()
            reference_work()
            reference.append((start - loop_start, time.perf_counter() - start))

    sample_reference()
    for index in range(queries):
        with span("bench.generate", "bench.self_s"):
            gc.collect()
            query = workload.query(index)
        with span(f"query.{query.kind}", "bench.self_s"):
            start = time.perf_counter()
            starts.append(start - loop_start)
            try:
                result = query.op()
                cause = None
            except Exception as exc:  # a failed query is measured, not fatal
                cause = f"raised:{type(exc).__name__}"
            latencies.append(time.perf_counter() - start)
            if cause is None:
                cause = query.check(result)
        log.append((query.kind, query.k, latencies[-1], cause))
        if cause is None:
            ok += 1
            completed[index] = latencies[-1]
        else:
            _record_failure(query, cause, failures, unexpected, known_labels, tracer)
        if time.perf_counter() - loop_start - reference[-1][0] >= REFERENCE_EVERY_S:
            sample_reference()
        if time.perf_counter() - loop_start > MAX_LOOP_SECONDS:
            break
    sample_reference()
    loop_wall = time.perf_counter() - loop_start
    trace = tracer.metrics() if tracer else None
    layer_self_s = tracer.layer_self_s() if tracer else None

    # Fresh queries never repeat inside the loop; re-run a few of the
    # cheapest completed ones and require bit-identical results.
    for index in sorted(completed, key=lambda i: (completed[i], i))[:REPEAT_CHECKS]:
        query = workload.query(index)
        if query.check(query.op()) is not None:
            ok -= 1
            _record_failure(query, "mismatch:repeat", failures, unexpected, known_labels, tracer)

    return {
        "latencies": latencies,
        "starts": starts,
        "reference": reference,
        "queries": log,
        "attempted": len(latencies),
        "ok": ok,
        "failed": len(latencies) - ok,
        "loop_wall_s": loop_wall,
        "failures": dict(failures),
        "known_defects": dict(known_labels),
        "unexpected": dict(unexpected),
        "trace": trace,
        "layer_self_s": layer_self_s,
    }


def _record_failure(query, cause, failures, unexpected, known_labels, tracer):
    failures[f"{query.kind}[k={query.k}] {cause}"] += 1
    if cause in query.known:
        known_labels[query.known[cause]] += 1
    else:
        unexpected[f"{query.kind}[k={query.k}] {cause}"] += 1
    if tracer is not None and query.judged_by_oracle and cause == "unsound":
        tracer.counts["oracle.unsound"] += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run exactly this many rounds of the schedule")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.query(0)
        print("READY", flush=True)
        setup_reference_s = statistics.median(_timed(reference_work) for _ in range(3))
        if args.setup_only:
            print(json.dumps({"setup_reference_s": setup_reference_s}), flush=True)
            return 0
        tracer = None
        if args.traced:
            tracer = tracing.Tracer()
            tracer.install({
                "cli": cli, "composition": composition, "constraints": constraints,
                "core": core, "hypothesis_dp": hypothesis_dp, "oracle": oracle,
                "subsampling": subsampling,
            })
        queries = args.queries or workload.queries_for(
            args.rounds or workload.rounds_for(args.seconds))
        result = run_loop(workload, queries, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_reference_s"] = setup_reference_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = provenance()
    if tracer is not None and args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
