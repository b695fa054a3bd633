"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload short_pruned --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones from a second, traced phase.  The lines before it are a
human-readable report and the run record.  Run records and span files go
to ``.perfbench/out/`` under the checkout.  The engine is imported from
the checkout's ``src/``; without it the script exits non-zero and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no engine source at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(src)]
    import harness
    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    root = ROOT / ".perfbench"
    run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    outcome = run.execute()

    record = outcome["record"]
    out = root / "out"
    out.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    (out / f"run-{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n"
    )
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, {args.seconds:g} s timed, "
          f"{record['bound']})")
    print("run_record " + json.dumps(record, default=str))
    for reason, count in sorted(record["failures"].items()):
        print(f"FAILED {count}x {reason}: {record['failure_examples'][reason]}")
    for name, (value, unit) in outcome["metrics"].items():
        print(f"  {name:45s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
