"""avoidpair benchmark: one seeded workload, timed, checked, summarised.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``verify-suite``: the default ``avoidpair verify``, one fresh process per pass.
* ``series-expand``: ``expand(gf_for(pair, family), n)`` for the 14 infinite
  pairs, F to n = 30 and G to n = 60.
* ``cli-mix``: a seeded list of in-process ``avoidpair`` commands, replayed
  by one closed-loop client.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose spans
go to ``perfbench/out/spans-<workload>.jsonl``.  The line before it is the
full record (seed, Python, nproc, commit, sample counts, quartiles), which is
also appended to ``perfbench/out/results.jsonl``.  Exit code 0 means the run
finished, even when checks failed: ``correct`` and ``failed`` report those.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import SIZES, alternate

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("verify-suite", "series-expand", "cli-mix")

SETUP_ARGV = ["-m", "avoidpair", "count", "--pair", "123,132", "--n", "10"]
SETUP_PROBES = 15
# Set-up times are scaled to the machine speed at which a bare interpreter
# (BARE_ARGV) starts in BARE_REF_S.  Process start-up follows that speed
# much more closely than the in-pass calibration task: over six sets of 15
# probes, scaled medians ranged 5 % against 20 % with that task.
BARE_ARGV = ["-c", "pass"]
BARE_REF_S = 0.066
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "perms.find_occurrence.calls": "count",
    "perms.find_occurrence.self_s": "s",
    "perms.enumerate_class.calls": "count",
    "perms.enumerate_class.members": "count",
    "perms.enumerate_class.self_s": "s",
    "stats.stat_vector.calls": "count",
    "stats.stat_vector.self_s": "s",
    "verify.brute_distribution.calls": "count",
    "verify.brute_distribution.self_s": "s",
    "verify.check.self_s": "s",
    "polys.expand.calls": "count",
    "polys.expand.self_s": "s",
    "polys.expand.terms_out": "count",
    "polys.mul.calls": "count",
    "polys.mul.term_products": "count",
    "catalog.gf_for.calls": "count",
    "catalog.gf_for.self_s": "s",
    "bijections.map.calls": "count",
    "bijections.map.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    # A fixed hash seed keeps set and dict layouts, and so timings, the same
    # from one process to the next.
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


def quartiles(values) -> list[float]:
    values = list(values)
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def start_s(argv: list[str]) -> tuple[subprocess.CompletedProcess, float]:
    """A fresh interpreter run with ``argv`` and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=60)
    return proc, time.perf_counter() - start


def measure_setup() -> tuple[list[float], list[float], list[float], int]:
    """Cold-start wall times, raw and at reference speed, the bare starts
    that scaled them, and how many starts printed a wrong count.
    """
    raw, scaled, bare, wrong = [], [], [], 0
    for probe in range(SETUP_PROBES + 1):
        _, bare_s = start_s(BARE_ARGV)
        proc, elapsed = start_s(SETUP_ARGV)
        if probe == 0:
            continue  # the first start may compile bytecode
        raw.append(elapsed)
        bare.append(bare_s)
        scaled.append(elapsed * BARE_REF_S / bare_s)
        wrong += proc.returncode != 0 or proc.stdout != "512\n"
    return raw, scaled, bare, wrong


def spawn_worker(args, traced: bool, seconds: float, spans: Path, started: float,
                 pass_index: int = 0) -> dict:
    argv = [sys.executable, str(WORKER), args.workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(int(traced)),
            "--size", args.size, "--spans", str(spans), "--pass-index", str(pass_index)]
    timeout = max(10.0, DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {args.workload} ran past {timeout:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(args, spans: Path, started: float) -> dict:
    if args.workload != "verify-suite":
        result = spawn_worker(args, bool(args.trace), args.seconds, spans, started)
        result["rss_mb"] = [result["rss_mb"]]
        return result
    # Each verify pass gets a fresh process, so every pass starts with cold caches.
    results = []

    def one_pass(traced):
        results.append(spawn_worker(args, traced, 0, spans, started, len(results)))
        return results[-1]["passes"][0]

    passes = alternate(args.seconds, bool(args.trace), one_pass)
    return {
        "passes": passes,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "problems": [p for r in results for p in r["problems"]][:5],
        "rss_mb": [r["rss_mb"] for r in results],
    }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def per_op(plain: list[dict]) -> list[float]:
    """Each operation's median time at reference speed over the passes.

    Every pass of a run runs the same operations in the same order.
    """
    return [statistics.median(times) for times in zip(*(p["scaled_ops_ms"] for p in plain))]


def per_kind(kinds: list[str], op_ms: list[float]) -> dict:
    """p50 and p90 over the operations of each kind."""
    by_kind: dict[str, list[float]] = {}
    for kind, ms in zip(kinds, op_ms):
        by_kind.setdefault(kind, []).append(ms)
    return {kind: {"ops": len(values), "p50_ms": statistics.median(values), "p90_ms": p90(values)}
            for kind, values in sorted(by_kind.items())}


def end_to_end(result: dict, setup_raw: list[float], setup: list[float],
               bare: list[float]) -> tuple[dict, dict, dict]:
    plain = [p for p in result["passes"] if not p["traced"]]
    walls = [p["scaled_s"] for p in plain]
    ops = [ms for p in plain for ms in p["scaled_ops_ms"]]
    # Percentiles are over operations, each taken at its median over the
    # passes: a percentile over a few dozen distinct operations otherwise
    # jumps between operations of different sizes from pass to pass.
    op_ms = per_op(plain)
    op_p90 = p90(op_ms)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(walls),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": op_p90,
        "peak_rss_mb": statistics.median(result["rss_mb"]),
    }
    spread = {
        "setup_s": quartiles(setup),
        "pass_s": quartiles(walls),
        "op_ms": quartiles(ops),
        "peak_rss_mb": quartiles(result["rss_mb"]),
        "raw_setup_s": quartiles(setup_raw),
        "bare_start_s": quartiles(bare),
        "raw_pass_s": quartiles(p["wall_s"] for p in plain),
        "raw_op_ms": quartiles(ms for p in plain for ms in p["ops_ms"]),
    }
    samples = {"setup_probes": len(setup), "passes": len(walls), "ops": len(ops),
               "ops_beyond_p90": sum(ms > op_p90 for ms in ops),
               "per_kind": per_kind(plain[0]["kinds"], op_ms)}
    return values, spread, samples


def per_layer(result: dict) -> tuple[dict, dict, dict]:
    plain = [p["scaled_s"] for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]
    layers = [p["layers"] for p in traced]
    values = {name: (statistics.median if name.endswith("self_s") else statistics.median_low)(
                  l[name] for l in layers)
              for name in PER_LAYER if name != "trace.overhead_ratio"}
    traced_wall = statistics.median(p["scaled_s"] for p in traced)
    values["trace.overhead_ratio"] = traced_wall / statistics.median(plain)
    spread = {name: quartiles(l[name] for l in layers) for name in PER_LAYER
              if name != "trace.overhead_ratio"}
    counts = [{k: v for k, v in l.items() if not k.endswith("self_s")} for l in layers]
    layer_self = sum(v for k, v in layers[0].items()
                     if k.endswith(".self_s") and not k.startswith(("bench.", "trace.")))
    samples = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "counts_repeat": all(c == counts[0] for c in counts),
        "first_traced_pass_s": traced[0]["wall_s"],
        "first_traced_pass_layer_self_s": layer_self,
    }
    return values, spread, samples


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one avoidpair benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'tiny' shrinks every input, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "avoidpair" / "__init__.py").is_file():
        print(f"error: no avoidpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}.jsonl"
    spans.write_text("")
    try:
        setup_raw, setup, bare, setup_wrong = measure_setup()
        result = run_workload(args, spans, started)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values, spread, samples = per_layer(result)
        units = PER_LAYER
    else:
        values, spread, samples = end_to_end(result, setup_raw, setup, bare)
        units = END_TO_END
    attempted = result["attempted"] + len(setup)
    failed = result["failed"] + setup_wrong
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "fail_ratio": failed / attempted,
        "problems": result["problems"] + (["setup printed a wrong count"] if setup_wrong else []),
        "samples": samples,
        "quartiles": spread,
        "run_s": time.perf_counter() - started,
    }
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with (OUT / "results.jsonl").open("a") as fh:
        fh.write(json.dumps({"record": record, "result": line}) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
