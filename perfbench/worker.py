"""One workload process: build the seeded inputs, time passes, check outputs.

run.py starts this file with the checkout's ``src`` on the path:

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1 \
        --size full|tiny --spans PATH [--pass-index I]

``verify-suite`` runs exactly one pass per process, traced when ``--trace``
is 1; run.py starts a fresh process for every pass and numbers it with
``--pass-index``.  The other workloads loop over passes for ``--seconds``
in this process, alternating untraced and traced passes when ``--trace``
is 1.  The worker prints one JSON object:
the passes (wall time and per-operation latencies, or per-layer metrics for
traced passes), operations attempted and failed, and peak RSS.
"""

from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
from spans import ROOT, Tracer

ROOT_DIR = Path(__file__).resolve().parent.parent

SIZES = {
    "full": {
        "verify": ["verify"],
        "expand": {"F": 30, "G": 60},
        "requests": 600,
        "stats_len": (50, 200),
        "enumerate_n": 10,
        "table_n": 20,
        "oracle_n": 10,
        "map_len": (20, 50),
    },
    "tiny": {
        "verify": ["verify", "--n-max", "5"],
        "expand": {"F": 6, "G": 8},
        "requests": 60,
        "stats_len": (5, 12),
        "enumerate_n": 5,
        "table_n": 7,
        "oracle_n": 5,
        "map_len": (4, 9),
    },
}

# Share of each request kind in the cli-mix list; "bad-map" sends a
# non-member to `map` (exit 1), "bad-perm" a malformed --perm (exit 2).
# The shares are assumptions, not measured traffic (see README.md); the
# record reports p50 and p90 per kind so the mix can be re-weighted.
MIX = {
    "count": 0.25,
    "stats": 0.20,
    "enumerate": 0.15,
    "table": 0.20,
    "oracle": 0.08,
    "map": 0.08,
    "bad-map": 0.02,
    "bad-perm": 0.02,
}


def run_cli(argv) -> tuple[int, str]:
    """Exit code and stdout of one in-process ``avoidpair`` command."""
    from avoidpair import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def alternate(seconds: float, trace: bool, one_pass) -> list[dict]:
    """Run ``one_pass(traced)`` for about ``seconds``.

    A new pass starts while it would end less than half a pass late.  With
    ``trace`` the passes alternate untraced and traced, and at least one of
    each runs, so the tracing overhead is measured in the same run.
    """
    passes = []
    start = last = time.perf_counter()
    while (not passes or (trace and len(passes) < 2)
           or time.perf_counter() - start + (time.perf_counter() - last) / 2 < seconds):
        last = time.perf_counter()
        passes.append(one_pass(trace and len(passes) % 2 == 1))
    return passes


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- machine speed --------------------------------------------------------------
# The speed of a shared machine drifts by tens of percent over seconds to
# minutes.  Each pass therefore samples a fixed pure-Python task between
# its operations, never inside one, and the reported times are scaled to
# the speed at which that task takes CALIBRATION_REF_S, using the samples
# nearest in time.  Raw times stay in the record.

CALIBRATION_REF_S = 0.008
CALIBRATION_EVERY_S = 0.1
CALIBRATION_WINDOW_S = 1.0
CALIBRATION_NEAREST = 5


def calibrate() -> float:
    """Seconds taken by a fixed task that runs no avoidpair code.

    The cyclic collector is off meanwhile, so the time does not depend on
    how many objects the measured code keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[tuple, int] = {}
        for perm in itertools.permutations(range(7)):
            key = tuple(a + b for a, b in zip(perm, perm[1:]))[:3]
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibration samples of one pass, taken at most every CALIBRATION_EVERY_S."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, seconds taken)
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._last >= CALIBRATION_EVERY_S:
            taken = calibrate()
            self._last = time.perf_counter()
            self.samples.append((self._last, taken))
            self.spent += self._last - now

    def scale(self) -> float:
        """Factor turning this pass's raw times into reference-speed times."""
        return CALIBRATION_REF_S / statistics.median(t for _, t in self.samples)

    def scaled_ms(self, timings: list[tuple[float, float]]) -> list[float]:
        """(start, ms) timings at reference speed.

        Each is scaled by the median of the samples taken while it ran or
        within CALIBRATION_WINDOW_S of it, or of its CALIBRATION_NEAREST
        nearest samples when fewer were taken.
        """
        out = []
        for start, ms in timings:
            end = start + ms / 1000
            near = [t for when, t in self.samples
                    if start - CALIBRATION_WINDOW_S <= when <= end + CALIBRATION_WINDOW_S]
            if len(near) < CALIBRATION_NEAREST:
                mid = (start + end) / 2
                nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
                near = [t for _, t in nearest[:CALIBRATION_NEAREST]]
            out.append(ms * CALIBRATION_REF_S / statistics.median(near))
        return out


# -- verify-suite -------------------------------------------------------------


def verify_pass(seed: int, size: dict, traced: bool, spans_fh, pass_index: int) -> dict:
    """One ``avoidpair verify`` in this process; each ``check_*`` call is an operation."""
    from avoidpair import cli, verify

    # The seed only reorders the pairs; the work is the same for every seed.
    pairs = list(verify.all_pairs())
    random.Random(seed).shuffle(pairs)
    verify.all_pairs = cli.all_pairs = lambda: tuple(pairs)

    timings: list[tuple[float, float]] = []
    kinds: list[str] = []
    speed = Speed()
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
        tracer.request = 0
        call = tracer.wrap(ROOT, run_cli)
    else:
        call = run_cli
        # The checks are the operations: time each call, and sample the
        # machine's speed before it starts.
        for name in ("check_counts", "check_gf", "check_equidistribution_maps"):
            setattr(verify, name, _timed(name, getattr(verify, name), timings, kinds, speed))
    speed.sample(force=True)
    spent = speed.spent
    start = time.perf_counter()
    code, out = call(size["verify"])
    wall = time.perf_counter() - start - (speed.spent - spent)
    speed.sample(force=True)
    record = {"traced": traced, "wall_s": wall, "scaled_s": wall * speed.scale()}
    if tracer:
        tracer.uninstall()
        record["layers"] = tracer.layer_metrics()
        tracer.write(spans_fh, pass_index)
    else:
        # The checks fill nearly all of the pass; scale them one by one and
        # the rest (parsing, printing) by the pass's median sample.
        ops_ms = [ms for _, ms in timings]
        scaled = speed.scaled_ms(timings)
        record["ops_ms"] = ops_ms
        record["scaled_ops_ms"] = scaled
        record["kinds"] = kinds
        record["scaled_s"] = (sum(scaled) + (wall * 1000 - sum(ops_ms)) * speed.scale()) / 1000
    problems = checks.verify_problems(out, code)
    return {"passes": [record], "attempted": 1, "failed": int(bool(problems)),
            "problems": problems[:5]}


def _timed(name: str, fn, sink: list, kinds: list, speed: Speed):
    """``fn``, appending (start, ms) per call to ``sink`` and its kind to ``kinds``.

    A calibration sample, when one is due, runs before the call starts.
    """
    def timed(*args, **kwargs):
        speed.sample()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((start, (time.perf_counter() - start) * 1000))
            kinds.append(f"{name} {args[1]}" if name == "check_gf" else name)

    return timed


# -- operations compared against their first output --------------------------


class Ops:
    """A fixed list of operations, run pass after pass.

    ``inspect(i, out)`` sees the first output of operation ``i``, outside
    any timing, and puts what is wrong with it into ``bad[i]``.  Later
    outputs must have the same ``fingerprint``.  A run of an operation fails
    when it raises, when its fingerprint changes, or when the operation is
    in ``bad``.  ``kinds[i]`` names the kind of operation ``i``.
    """

    def __init__(self, ops, kinds, inspect, fingerprint):
        self.ops = ops
        self.kinds = kinds
        self.inspect = inspect
        self.fingerprint = fingerprint
        self.first: dict[int, object] = {}
        self.bad: dict[int, str] = {}
        self.timed_runs = [0] * len(ops)
        self.failed_runs = [0] * len(ops)
        self.problems: list[str] = []
        self.speed = Speed()

    def _note(self, problem: str) -> None:
        if len(self.problems) < 5:
            self.problems.append(problem)

    def run_pass(self, traced: bool, spans_fh=None, pass_index=0, timed=True) -> dict:
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        timings = []
        speed = self.speed
        for i, op in enumerate(self.ops):
            speed.sample()
            fn = op
            if tracer:
                tracer.request = i
                fn = tracer.wrap(ROOT, op)
            start = time.perf_counter()
            try:
                out = fn()
            except Exception as exc:  # count the failure and keep measuring
                out = exc
            timings.append((start, (time.perf_counter() - start) * 1000))
            if isinstance(out, Exception):
                self._note(f"op {i} raised {out!r}")
                self.failed_runs[i] += timed
            elif i not in self.first:
                self.inspect(i, out)
                self.first[i] = self.fingerprint(out)
            elif self.fingerprint(out) != self.first[i]:
                self._note(f"op {i} output changed between passes")
                self.failed_runs[i] += timed
            self.timed_runs[i] += timed
            out = None  # freed here, not inside the next operation's time
        speed.sample(force=True)
        scaled = speed.scaled_ms(timings)
        record = {"traced": traced, "wall_s": sum(ms for _, ms in timings) / 1000,
                  "scaled_s": sum(scaled) / 1000}
        if tracer:
            tracer.uninstall()
            record["layers"] = tracer.layer_metrics()
            tracer.write(spans_fh, pass_index)
        else:
            record["ops_ms"] = [ms for _, ms in timings]
            record["scaled_ops_ms"] = scaled
            record["kinds"] = self.kinds
        return record

    def finish(self) -> dict:
        for problem in self.bad.values():
            self._note(problem)
        failed = sum(self.timed_runs[i] if i in self.bad else self.failed_runs[i]
                     for i in range(len(self.ops)))
        return {"attempted": sum(self.timed_runs), "failed": failed, "problems": self.problems}


def timed_loop(ops: Ops, seconds: float, trace: bool, spans_fh) -> list[dict]:
    pass_index = itertools.count()
    return alternate(seconds, trace,
                     lambda traced: ops.run_pass(traced, spans_fh, next(pass_index)))


# -- series-expand ------------------------------------------------------------


def series_expand(seed: int, size: dict, seconds: float, trace: bool, spans_fh) -> dict:
    from avoidpair import catalog, polys
    from avoidpair.perms import parse_pair

    # The seed only reorders the expansions; the work is the same for every seed.
    jobs = [(pair, family, n) for pair in checks.INFINITE_PAIRS
            for family, n in size["expand"].items()]
    random.Random(seed).shuffle(jobs)
    for pair, family, _ in jobs:
        catalog.gf_for(parse_pair(pair), family)  # build the catalog before timing

    def op(pair, family, n):
        return lambda: polys.expand(catalog.gf_for(parse_pair(pair), family), n)

    # A pair's (p, q) projection waits here until its other family is expanded.
    pending: dict[str, tuple[int, list]] = {}

    def inspect(i, table):
        pair, family, _ = jobs[i]
        for k, coeff in enumerate(table.coeffs):
            total = sum(c for _, c in coeff.terms())
            if total != checks.class_size(pair, k):
                ops.bad[i] = f"{family} {pair}: coefficient of x^{k} sums to {total}"
                break
        projected = [checks.project(c.terms(), polys.VARS) for c in table.coeffs]
        if pair not in pending:
            pending[pair] = (i, projected)
            return
        j, other = pending.pop(pair)
        common = min(len(projected), len(other))
        if projected[:common] != other[:common]:
            problem = f"{pair}: F with u, v, s, t = 1 differs from G with y, z = 1"
            ops.bad.setdefault(i, problem)
            ops.bad.setdefault(j, problem)

    ops = Ops([op(*job) for job in jobs], [f"expand {family}" for _, family, _ in jobs],
              inspect, hash)
    passes = timed_loop(ops, seconds, trace, spans_fh)
    return {"passes": passes, **ops.finish()}


# -- cli-mix ------------------------------------------------------------------


def _spread(count: int, lo: int, hi: int) -> list[int]:
    """``count`` sizes spread evenly over [lo, hi], so every seed gets the same sizes."""
    return [lo + (i * (hi - lo + 1)) // count for i in range(count)]


def _layered(rng: random.Random, n: int) -> list[int]:
    perm, low = [], 1
    for i in range(1, n + 1):
        if i == n or rng.random() < 0.5:
            perm.extend(range(i, low - 1, -1))
            low = i + 1
    return perm


def make_requests(seed: int, size: dict) -> list[dict]:
    """The cli-mix request list.

    Every seed gets the same kinds, sizes, pairs and families, so the cost
    of the list does not depend on the seed; the seed draws the
    permutations, the malformed arguments and the order.
    """
    rng = random.Random(seed)
    total = size["requests"]
    counts = {kind: max(1, round(total * share)) for kind, share in MIX.items()}
    text = lambda perm: " ".join(map(str, perm))  # noqa: E731
    requests = []

    def add(kind, argv, **facts):
        requests.append({"kind": kind, "argv": argv, **facts})

    for i, n in enumerate(_spread(counts["count"], 0, 30)):
        pair = checks.ALL_PAIRS[i % len(checks.ALL_PAIRS)]
        add("count", ["count", "--pair", pair, "--n", str(n)], pair=pair, n=n)
    lo, hi = size["stats_len"]
    for n in _spread(counts["stats"], lo, hi):
        perm = rng.sample(range(1, n + 1), n)
        add("stats", ["stats", "--perm", text(perm), "--format", "json"], perm=perm)
    for i, n in enumerate(_spread(counts["enumerate"], 0, size["enumerate_n"])):
        pair = checks.ALL_PAIRS[i % len(checks.ALL_PAIRS)]
        add("enumerate", ["enumerate", "--pair", pair, "--n", str(n)], pair=pair, n=n)
    for kind, top in (("table", size["table_n"]), ("oracle", size["oracle_n"])):
        for i, n in enumerate(_spread(counts[kind], 0, top)):
            pair = checks.INFINITE_PAIRS[i % len(checks.INFINITE_PAIRS)]
            family = "FG"[i // len(checks.INFINITE_PAIRS) % 2]
            argv = ["table", "--pair", pair, "--family", family, "--n", str(n), "--format", "json"]
            add(kind, argv + ["--oracle"] if kind == "oracle" else argv,
                pair=pair, family=family, n=n)
    lo, hi = size["map_len"]
    for i, n in enumerate(_spread(counts["map"], lo, hi)):
        perm = _layered(rng, n)
        add("map", ["map", "--which", "fg"[i % 2], "--perm", text(perm)], perm=perm)
    for n in _spread(counts["bad-map"], lo, hi):
        perm = rng.sample(range(1, n + 1), n)
        while checks.avoids(perm, "231,312"):
            perm = rng.sample(range(1, n + 1), n)
        add("bad-map", ["map", "--which", "fg"[n % 2], "--perm", text(perm)], perm=perm)
    for i, n in enumerate(_spread(counts["bad-perm"], 3, 20)):
        words = [str(v) for v in rng.sample(range(1, n + 1), n)]
        words[rng.randrange(n)] = ("0", str(n + 1), "x")[i % 3]
        command = ["stats"] if i % 2 else ["map", "--which", "f"]
        add("bad-perm", command + ["--perm", " ".join(words)])
    rng.shuffle(requests)
    return requests


def _perm(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def request_problem(req: dict, code: int, out: str, oracle_n: int) -> str | None:
    """Why the first output of ``req`` is wrong, or None.

    Every fact is recomputed by the checks module, except two agreements
    between library paths: closed-form ``table`` equals ``table --oracle``
    up to ``oracle_n``, and ``map f`` applied twice is the identity.  Those
    re-run the other path here, outside the timed loop.
    """
    kind = req["kind"]
    expected_code = {"bad-map": 1, "bad-perm": 2}.get(kind, 0)
    if code != expected_code:
        return f"{req['argv'][:4]} exited {code}, expected {expected_code}"
    if kind in ("bad-map", "bad-perm"):
        return f"{kind} printed {out!r}" if out else None
    if kind == "count":
        ok = out.strip() == str(checks.class_size(req["pair"], req["n"]))
    elif kind == "stats":
        ok = json.loads(out) == checks.stats(req["perm"])
    elif kind == "enumerate":
        members = [_perm(line) for line in out.splitlines()]
        n, pair = req["n"], req["pair"]
        ok = (len(members) == checks.class_size(pair, n)
              and members == sorted(set(members))
              and all(len(m) == n and checks.is_permutation(m) and checks.avoids(m, pair)
                      for m in members))
    elif kind in ("table", "oracle"):
        poly = checks.json_poly(json.loads(out))
        ok = sum(poly.values()) == checks.class_size(req["pair"], req["n"])
        if ok and req["n"] <= oracle_n:
            other = req["argv"][:-1] if kind == "oracle" else req["argv"] + ["--oracle"]
            other_code, other_out = run_cli(other)
            ok = other_code == 0 and checks.json_poly(json.loads(other_out)) == poly
    else:  # map
        perm, image = req["perm"], _perm(out)
        ok = len(image) == len(perm) and checks.is_permutation(image)
        if ok and req["argv"][2] == "f":
            ok = (checks.avoids(image, "231,312") and (len(perm) < 2 or image != tuple(perm))
                  and run_cli(["map", "--which", "f", "--perm", out]) == (0, req["argv"][4] + "\n"))
        elif ok:
            before, after = checks.stats(perm), checks.stats(image)
            ok = (checks.avoids(image, "213,231")
                  and (after["asc"], after["des"], after["mna"], after["mnd"])
                  == (before["des"], before["asc"], before["mnd"], before["mna"]))
    return None if ok else f"{req['argv'][:4]} printed a wrong result"


def cli_mix(seed: int, size: dict, seconds: float, trace: bool, spans_fh) -> dict:
    requests = make_requests(seed, size)

    def inspect(i, out):
        problem = request_problem(requests[i], *out, size["oracle_n"])
        if problem:
            ops.bad[i] = problem

    ops = Ops([lambda argv=req["argv"]: run_cli(argv) for req in requests],
              [req["kind"] for req in requests], inspect, hash)
    ops.run_pass(False, timed=False)  # fills the class caches and checks every first output
    passes = timed_loop(ops, seconds, trace, spans_fh)
    return {"passes": passes, **ops.finish()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("verify-suite", "series-expand", "cli-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--pass-index", type=int, default=0,
                        help="number of this verify-suite pass in its run, for the spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT_DIR / "src"))
    import avoidpair

    if Path(avoidpair.__file__).resolve().parent != ROOT_DIR / "src" / "avoidpair":
        print(f"error: imported avoidpair from {avoidpair.__file__}", file=sys.stderr)
        return 2
    size = SIZES[args.size]
    with args.spans.open("a") as spans_fh:
        if args.workload == "verify-suite":
            result = verify_pass(args.seed, size, bool(args.trace), spans_fh, args.pass_index)
        else:
            run = series_expand if args.workload == "series-expand" else cli_mix
            result = run(args.seed, size, args.seconds, bool(args.trace), spans_fh)
    result["rss_mb"] = rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
