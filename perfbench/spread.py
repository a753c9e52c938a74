"""Run one workload on several seeds; report each metric's quartiles across runs.

    python3 perfbench/spread.py --workload cli-mix --runs 10 [--first-seed 1] [--trace 0]

Each run is ``perfbench/run.py`` with the next seed and BENCHMARK.json's
``run_seconds``.  For every metric the script prints the median across runs,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median, and the metric's bound from BENCHMARK.json.  The last
line is the same summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    failed = attempted = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        line = json.loads(proc.stdout.splitlines()[-1])
        failed += line["failed"]
        attempted += line["attempted"]
        for name, metric in line["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
              flush=True)

    summary = {"workload": args.workload, "runs": args.runs, "first_seed": args.first_seed,
               "attempted": attempted, "failed": failed, "metrics": {}}
    for name, vals in values.items():
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else None
        summary["metrics"][name] = {"median": median, "quartiles": [q1, q2, q3],
                                    "spread": spread, "bound": bounds.get(name)}
        bound = bounds.get(name)
        flag = "" if bound is None or spread is None else (
            "  ok" if spread < bound / 3 else "  WIDE" if spread > bound else "  above bound/3")
        print(f"{name:36s} median {median:<12.6g} spread {spread if spread is None else round(spread, 4)}"
              f"  bound {bound}{flag}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
