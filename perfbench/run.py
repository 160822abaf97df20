"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload micro-cold --seed 0 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes
installed.  ``--trace 1`` alternates untraced units with units traced
by probes on every layer boundary, and prints the per-layer metrics
plus the tracing overhead (traced minus untraced) of every end-to-end
metric.  The metric names, units and bounds come from
``BENCHMARK.json``; ``perfbench/README.md`` defines each one.

Informational lines (grid digests, the host fingerprint, the seed)
start with ``#``; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Each run also appends that object, with its seed, host fingerprint and
load record, to ``.perfbench/results.jsonl``; a traced run writes its
spans to ``.perfbench/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("micro-cold", "macro-cold", "warm-service")

#: Fresh interpreters timed for a cold workload's set-up.
SETUP_REPEATS = 5

#: Seconds after start by which measurement must end, leaving time to
#: report within a three-minute limit.
DEADLINE_S = 150.0


def say(line: str) -> None:
    print(f"# {line}", flush=True)


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_units(trace: int):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in listed}


def main(argv=None) -> int:
    args = parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import host
    import layers
    import stats
    import workloads
    from spans import Tracer, probes, read_worker_log

    units = metric_units(args.trace)
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    fingerprint = host.fingerprint()
    load_start = host.load_1m()
    if load_start > fingerprint["nproc"]:
        say(f"WARNING: 1-minute load {load_start:.2f} exceeds nproc "
            f"{fingerprint['nproc']}; this run is flagged as loaded")
    say(f"workload={args.workload} seed={args.seed} host={fingerprint}")
    started = time.time()
    deadline = time.perf_counter() + DEADLINE_S
    tracer = Tracer() if args.trace else None
    worker_log = str(workdir / "blockcache-workers.jsonl")
    try:
        prepared = workloads.prepare(args.workload, args.seed, str(workdir))
        runs = workloads.measure(prepared, args.seconds, SETUP_REPEATS, say,
                                 tracer=tracer, worker_log=worker_log,
                                 deadline=deadline)
        untraced = runs[0]
        if tracer is None:
            values = untraced.end_to_end()
        else:
            traced = runs[1]
            if args.workload == "macro-cold":
                # Probed like the traced grids, but its workers' counters
                # stay out of the traced units' totals.
                with probes(tracer):
                    traced.armed_vs_unarmed = workloads.armed_vs_unarmed(
                        prepared, traced.units[-1])
            values = layers.per_layer(
                traced, untraced, tracer, read_worker_log(worker_log))
            tracer.dump(str(
                out_dir / f"spans-{args.workload}-seed{args.seed}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 3
    problems = [p for run in runs for p in run.problems]
    digests = sorted({u.stable for run in runs for u in run.units})
    if len(digests) > 1:
        problems.append("canonical grid digest changed between units")
    for problem in problems:
        say(f"OUTPUT CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    alpha, alpha_base = untraced.alpha_err()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "host": fingerprint,
        "load": host.load_record(
            load_start, host.load_1m(), fingerprint["nproc"]),
        "alpha_err_pct": alpha,
        "alpha_err_base": alpha_base,
        "job_samples": len(untraced.latencies()),
        "tail_percentile": stats.highest_percentile(
            len(untraced.latencies())),
        "grid_digests": digests,
        "result": result,
    }
    with open(out_dir / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
    say(f"record {json.dumps({k: v for k, v in record.items() if k != 'result'})}")
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
