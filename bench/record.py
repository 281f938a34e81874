"""Record the expected exit code and report digest of every operation.

    python3 bench/record.py --workload ladder --seeds 0-99

Run it from the repository root at a commit whose reports are known to be
right.  It refuses to record an operation that fails its exit-code or
workload check, and refuses to overwrite a recorded digest with a different
one; delete ``bench/digests/<workload>.json`` first to re-record on purpose.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range such as 0-99")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench import harness, workloads

    store = harness.DigestStore.for_workload(args.workload)
    done: set[str] = set()
    for seed in seeds:
        ops = workloads.generate(args.workload, seed, Path(".bench_work") / args.workload)
        for op in ops:
            if op.key in done:  # roundtrip cases are shared between nearby seeds
                continue
            outcome = harness.execute(op, store)
            if outcome.failure:
                print(f"error: {op.key}: {outcome.failure}", file=sys.stderr)
                return 1
            store.recorded[op.key] = [outcome.exit_code, outcome.digest]
            done.add(op.key)
        print(f"seed {seed}: {len(ops)} operations")
    store.save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
