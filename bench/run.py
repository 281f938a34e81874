"""Benchmark entry point.

    python3 bench/run.py --workload {roundtrip,ladder,totspace} --seed N \\
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all      # every workload, one process each

Run it from the repository root; it imports ``momentkit`` from ``src/`` and
writes its inputs under ``.bench_work/``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The line before it records the environment and the run's
shape.  See ``bench/README.md`` for every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path(".bench_work")
WORKLOAD_NAMES = ("roundtrip", "ladder", "totspace")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "top_order_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="generate the inputs and exit (timed by the parent)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "momentkit" / "__init__.py").is_file():
        print(f"error: no momentkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)

    from bench import harness, workloads
    from bench.tracer import Tracer, metric_names

    ops = workloads.generate(args.workload, args.seed, WORKDIR / args.workload)
    store = harness.DigestStore.for_workload(args.workload)
    if args.setup_only:
        return 0

    load_start = os.getloadavg()
    setup, raw_setup = measure_setup(args)
    m = harness.measure(ops, store, args.seconds, Tracer() if args.trace else None)

    outcomes = list(m.outcomes())
    failures = [o for o in outcomes if o.failure]
    if args.trace:
        metrics = harness.per_layer(m)
        units = dict(metric_names(), **{"trace.overhead_s": "s"})
    else:
        metrics = harness.end_to_end(m)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = UNITS
    unrecorded = sorted({o.op.key for o in outcomes if o.op.key not in store.recorded})

    for o in failures[:20]:
        print(f"FAILED {o.op.key}: {o.failure}")
    if unrecorded:
        print(
            f"note: {len(unrecorded)} operations have no recorded digest for seed {args.seed}; "
            "they are gated on exit code, workload checks and agreement between passes"
        )
    print(f"{args.workload} seed={args.seed} trace={args.trace} passes={len(m.passes)}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'fail_ratio':40s} {len(failures) / len(outcomes):14.6g} ({len(failures)}/{len(outcomes)})")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(m.passes),
        "traced_passes": len(m.traced),
        "ops_per_pass": len(ops),
        "unrecorded_digests": len(unrecorded),
        "setup_samples_s": setup,
        "raw_wall_clock": None if args.trace else harness.end_to_end(m, scaled=False),
        "raw_setup_samples_s": raw_setup,
        "fail_ratio": len(failures) / len(outcomes),
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_count": os.cpu_count(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
        },
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def measure_setup(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Time of fresh processes that start the interpreter, import momentkit,
    generate the workload's inputs and load its digests, each scaled by the
    reference computation timed just before it (see ``harness``), and raw."""
    from bench.harness import REFERENCE_SECONDS, reference

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        scale = REFERENCE_SECONDS / reference()
        start = perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] * scale)
        if proc.returncode:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return scaled, raw


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    print()
    for name, result in rows:
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: fail_ratio {ratio:g} ({result['failed']}/{result['attempted']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
