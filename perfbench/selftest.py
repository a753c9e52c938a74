"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

It checks that:

* every workload prints, with ``--trace 0`` and ``--trace 1``, exactly the
  metrics BENCHMARK.json names, each with its unit, and no check fails;
* traced call counts repeat exactly and layer self times cover the traced
  verify pass;
* the benchmark's own reference facts agree with brute force;
* a wrong closed form, and a wrong expected output, each make ``failed``
  (and so the fail ratio) rise above 0 on every workload.

Exit code 0 when everything holds.
"""

from __future__ import annotations

import io
import itertools
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import worker  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL {message}")


def run_bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, section in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            record, line = run_bench(workload, trace)
            expect(set(line) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(line)}")
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{workload} trace={trace}: {record['problems']}")
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            expect(printed == wanted, f"{workload} trace={trace}: printed {printed}")
            expect(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                   f"{workload} trace={trace}: non-numeric value")
            if trace:
                counts.append({k: m["value"] for k, m in line["metrics"].items()
                               if k.endswith((".calls", ".members", ".terms_out", ".term_products"))})
                expect(record["samples"]["counts_repeat"], f"{workload}: counts differ between passes")
                if workload == "verify-suite":
                    share = (record["samples"]["first_traced_pass_layer_self_s"]
                             / record["samples"]["first_traced_pass_s"])
                    expect(share > 0.9, f"layer self times cover {share:.0%} of the traced pass")
        expect(counts[0] == counts[1], f"{workload}: traced counts differ between runs")


def test_reference_facts() -> None:
    from avoidpair.stats import stat_vector

    def brute_contains(perm, patt):
        return any(all((sub[i] < sub[j]) == (patt[i] < patt[j])
                       for i, j in itertools.combinations(range(3), 2))
                   for sub in itertools.combinations(perm, 3))

    patterns = list(itertools.permutations((1, 2, 3)))
    for n in range(7):
        for perm in itertools.permutations(range(1, n + 1)):
            expect(all(checks.contains(perm, p) == brute_contains(perm, p) for p in patterns),
                   f"containment scan wrong on {perm}")
            expect(checks.stats(perm) == stat_vector(perm).to_json_obj(),
                   f"reference statistics disagree with the library on {perm}")
    for pair in checks.ALL_PAIRS:
        for n in range(8):
            size = sum(checks.avoids(p, pair) for p in itertools.permutations(range(1, n + 1)))
            expect(size == checks.class_size(pair, n), f"class size of {pair} at n={n}")


def run_in_process(workload: str) -> dict:
    size = worker.SIZES["tiny"]
    with tempfile.TemporaryFile("w+") as spans, redirect_stdout(io.StringIO()):
        if workload == "verify-suite":
            return worker.verify_pass(1, size, False, spans, 0)
        run = worker.series_expand if workload == "series-expand" else worker.cli_mix
        return run(1, size, 0.2, False, spans)


def test_corruption_is_caught() -> None:
    from avoidpair import catalog, polys

    good_gf, good_size = catalog.gf_for, checks.class_size
    x, p = polys.MultiPoly.var("x"), polys.MultiPoly.var("p")

    def wrong_gf(pair, family):
        gf = good_gf(pair, family)
        return polys.RationalGF(gf.num + x**3 * p, gf.den) if family == "F" else gf

    def wrong_size(pair, n):
        return good_size(pair, n) + (n == 2)

    for label, owner, name, bad in (("wrong closed form", catalog, "gf_for", wrong_gf),
                                    ("wrong expected output", checks, "class_size", wrong_size)):
        for workload in ("verify-suite", "series-expand", "cli-mix"):
            if workload == "verify-suite" and owner is checks:
                continue  # verify-suite expects no sizes of its own
            setattr(owner, name, bad)
            try:
                result = run_in_process(workload)
            finally:
                setattr(owner, name, good_gf if owner is catalog else good_size)
            ratio = result["failed"] / result["attempted"]
            expect(ratio > 0, f"{label} not caught on {workload}")
            print(f"{label} on {workload}: fail ratio {ratio:.3f}")
    for workload in ("verify-suite", "series-expand", "cli-mix"):
        result = run_in_process(workload)
        expect(result["failed"] == 0, f"{workload} fails after restoring: {result['problems']}")


def main() -> int:
    test_reference_facts()
    test_corruption_is_caught()
    test_printed_metrics()
    print("selftest FAILED" if FAILURES else "selftest ok")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
