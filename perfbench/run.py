"""tanglekit benchmark: drives ``tanglekit.cli.main`` in-process.

    python3 perfbench/run.py --workload patterns --seed 1 --seconds 55 --trace 0

Run it from the root of a source checkout. One client sends the
workload's requests one after another (a closed loop), each only after
the previous one returned, and repeats the list until ``--seconds`` have
passed, at least MIN_ROUNDS times; each request's fastest run is its
latency. stdout and stderr of every request are captured and every
answer is checked; a run with a wrong answer reports no timings and
exits 1.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` first repeats
the list untraced for half the time, then traced for the other half, and
reports the per-layer metrics of the traced rounds (see spans.py), the
known-defect probes and the tracing overhead. The last line of stdout is
one JSON object; the line before it records the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is timed this many times before the timed passes and as many
# times after them, so that one slow moment of the host does not set it.
SETUP_SAMPLES = 5
# Every request runs at least this often, and its fastest run is the one
# reported: the host's speed can swing by 1.7x or more for seconds to
# minutes at a time, and the fastest run is the estimate it moves least.
MIN_ROUNDS = 3
# the verifiers time each check; that field may differ between rounds
ELAPSED = re.compile(r'"elapsed": [-+.e0-9]+')
# Import the package and fill its lazy caches: the obstruction fingerprints
# and the ordered tree shapes up to the census cap.
SETUP_CODE = """
import tanglekit.cli
from tanglekit import layout, tanglegram
for fill, arg in ((getattr(layout, "_excluded_fingerprints", None), ()),
                  (getattr(tanglegram, "_ordered_shapes", None), (5,))):
    if fill is not None:
        fill(*arg)
"""


def setup_seconds() -> list[float]:
    """Set-up time in SETUP_SAMPLES fresh interpreters, measured inside each."""
    code = (f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\nt = time.perf_counter()\n"
            f"{SETUP_CODE}\nprint(time.perf_counter() - t)\n")
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, timeout=60, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def calibrate() -> float:
    """A fixed pure-Python loop; recorded to show machine drift, never used
    to scale a result."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def machine(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "seed": seed, "calib_s": calibrate()}


def call(argv: list[str]) -> tuple[int | None, str, float]:
    """One request: exit code (None if it raised), stdout, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t = time.perf_counter()
        try:
            rc = sys.modules["tanglekit.cli"].main(argv)
        except Exception:  # a crash is a failed request, not a failed run
            rc = None
            out = io.StringIO(traceback.format_exc(limit=1))
        dt = time.perf_counter() - t
    return rc, out.getvalue(), dt


class Tally:
    """First output of every request, and every attempt whose output differed."""

    def __init__(self, requests):
        self.requests = requests
        self.first: list = [None] * len(requests)
        self.attempts = [0] * len(requests)
        self.changed = [0] * len(requests)

    def record(self, k: int, rc, out: str) -> None:
        self.attempts[k] += 1
        if self.first[k] is None:
            self.first[k] = (rc, out)
        elif (rc, ELAPSED.sub("", out)) != (self.first[k][0], ELAPSED.sub("", self.first[k][1])):
            self.changed[k] += 1

    def failures(self) -> tuple[int, int, list[str]]:
        """Attempts, failed attempts and one reason per failed request."""
        failed, why = 0, []
        for k, req in enumerate(self.requests):
            if self.first[k] is None:
                continue
            rc, out = self.first[k]
            err = f"raised {out.strip().splitlines()[-1]}" if rc is None else req.check(rc, out)
            if err is not None:
                failed += self.attempts[k]
            elif self.changed[k]:
                err = "output changed between rounds"
                failed += self.changed[k]
            if err is not None:
                why.append(f"{req.kind} {' '.join(req.argv)[:80]}: {err}")
        return sum(self.attempts), failed, why


def play(requests, tally: Tally, best: list[float], recorder=None, first_id: int = 0) -> None:
    """Send every request once, keeping each request's fastest latency."""
    for k, req in enumerate(requests):
        if recorder is not None:
            recorder.request = first_id + k
        rc, out, dt = call(req.argv)
        tally.record(k, rc, out)
        best[k] = min(best[k], dt)


def rounds(requests, tally: Tally, seconds: float) -> list[float]:
    """Repeat the list for ``seconds``, at least MIN_ROUNDS times; returns
    each request's fastest latency."""
    best = [float("inf")] * len(requests)
    t0, n = time.perf_counter(), 0
    while n < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        play(requests, tally, best)
        n += 1
    return best


def result(attempted: int, failed: int, metrics: dict) -> dict:
    """The report line; a run with a failed ordinary request gets no timings."""
    if failed:
        metrics = {}
    return {"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}


def self_test(b: workloads.Builder) -> None:
    """The checker must catch a wrong answer and a truncated SVG, and a run
    with a failed request must lose its timings."""
    b.sweep("layout", 6, "obstructed", "svg")
    b.census(4)
    svg_req, census_req = b.requests
    rc, svg, _ = call(svg_req.argv)
    rc4, out4, _ = call(census_req.argv)
    wrong = checks.expect_lines(0, workloads.CENSUS[5])
    problems = []
    if svg_req.check(rc, svg) is not None or census_req.check(rc4, out4) is not None:
        problems.append("a right answer was refused")
    if svg_req.check(rc, svg[: len(svg) // 2]) is None:
        problems.append("a truncated SVG passed")
    if wrong(rc4, out4) is None:
        problems.append("a wrong expected answer passed")
    tally = Tally([svg_req, census_req])
    tally.record(0, rc, svg[: len(svg) // 2])
    tally.record(1, rc4, out4)
    attempted, failed, _ = tally.failures()
    report = result(attempted, failed, {"wall_s": {"value": 1.0, "unit": "s"}})
    if failed != 1 or report["correct"] or report["metrics"]:
        problems.append("a failed request did not count")
    if problems:
        raise SystemExit("checker self-test failed: " + "; ".join(problems))


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, q in 10..90 in steps of ten, interpolated
    between the samples and never beyond them."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(requests, args) -> tuple[dict, list[Tally]]:
    """Untraced passes for ``args.seconds``; the end-to-end metrics."""
    tally = Tally(requests)
    setup = setup_seconds()
    ms = [x * 1000 for x in rounds(requests, tally, args.seconds)]
    setup += setup_seconds()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(ms) / 1000, "s"),
        "latency_ms.p50": (statistics.median(ms), "ms"),
        "latency_ms.p90": (quantile(ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(json.dumps({"requests": len(requests), "rounds": tally.attempts[0]}))
    return metrics, [tally]


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "B" if name.endswith("bytes_out") else "count"


def per_layer(requests, args) -> tuple[dict, list[Tally]]:
    """Untraced passes, then traced ones; per-layer metrics, the tracing
    overhead and the known-defect probes."""
    tally = Tally(requests)
    plain = rounds(requests, tally, args.seconds / 2)

    b = workloads.Builder(args.workdir, args.seed + 1)
    workloads.coverage(b)
    cover = b.requests
    cover_tally = Tally(cover)
    recorder = spans.Recorder()
    recorder.install()
    traced, per_round = [float("inf")] * len(requests), []
    try:
        t0 = time.perf_counter()
        while len(per_round) < MIN_ROUNDS or time.perf_counter() - t0 < args.seconds / 2:
            recorder.spans.clear()
            play(requests, tally, traced, recorder, 0)
            play(cover, cover_tally, [float("inf")] * len(cover), recorder, len(requests))
            intercept_check(recorder.spans, requests + cover, tally.first + cover_tally.first,
                            len(requests) if args.workload == "trees" else 0)
            per_round.append(spans.aggregate(recorder.spans))
    finally:
        recorder.uninstall()
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    recorder.dump(out_dir / f"spans-{args.workload}.jsonl.gz")

    b = workloads.Builder(args.workdir, args.seed + 2)
    workloads.probes(b)
    probe_tally = Tally(b.requests)
    play(b.requests, probe_tally, [float("inf")] * len(b.requests))
    p_attempted, p_failed, p_why = probe_tally.failures()
    c_attempted, c_failed, _ = cover_tally.failures()
    for why in p_why:
        print(json.dumps({"known_defect": why}))

    metrics = {name: (statistics.median(r[name] for r in per_round), unit(name))
               for name in per_round[0]}
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    attempted, failed, _ = tally.failures()
    metrics["probes.failed"] = (p_failed, "count")
    metrics["fail_ratio"] = ((failed + c_failed + p_failed) / (attempted + c_attempted + p_attempted),
                             "ratio")
    # the coverage requests are ordinary requests; the probes are not
    return metrics, [tally, cover_tally]


def intercept_check(recorded, requests, outputs, n_sweeps: int) -> None:
    """Fail loudly when a wrapper was missed: every traced function must
    fire, contains_pattern must fire once per antichain-check record, and
    the first ``n_sweeps`` requests must call leaf_order at least once and
    no more often than their trees have embeddings. Span request ids are
    indices into ``requests``."""
    missing = sorted(set(spans.TRACED) - {s[spans.NAME] for s in recorded})
    if missing:
        raise SystemExit(f"interception check: never called: {missing}")
    searches = spans.calls_by_request(recorded, "perm.contains_pattern")
    for rid, (req, (_, out)) in enumerate(zip(requests, outputs)):
        if req.argv[:2] == ["verify", "antichain"]:
            records = out.count('"kind": "antichain-check"')
            if searches[rid] != records:
                raise SystemExit(f"interception check: {searches[rid]} contains_pattern calls "
                                 f"for {records} antichain checks")
    if n_sweeps:
        bound = sum(req.leaf_order_bound for req in requests[:n_sweeps])
        sweeps = spans.calls_by_request(recorded, "trees.leaf_order")
        got = sum(sweeps[rid] for rid in range(n_sweeps))
        if not 0 < got <= bound:
            raise SystemExit(f"interception check: {got} leaf_order calls, bound {bound}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "tanglekit" / "cli.py").is_file():
        print(f"error: no tanglekit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    exec(SETUP_CODE, {})
    args.workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        b = workloads.Builder(args.workdir, args.seed)
        workloads.WORKLOADS[args.workload](b)
        self_test(workloads.Builder(args.workdir, args.seed + 3))
        print(json.dumps({"machine": machine(args.seed)}))
        if args.trace:
            metrics, tallies = per_layer(b.requests, args)
        else:
            metrics, tallies = end_to_end(b.requests, args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    attempted = failed = 0
    for tally in tallies:
        a, f, why = tally.failures()
        attempted, failed = attempted + a, failed + f
        for line in why:
            print(json.dumps({"failed": line}), file=sys.stderr)
    report = result(attempted, failed, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
