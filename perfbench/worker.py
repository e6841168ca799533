"""One fresh benchmark process: set a workload up, then run its closed loop.

run.py starts this file with PYTHONPATH set to the checkout's `src`, so the
liereg under test is the one in the checkout.  The process prints one JSON
object on its last stdout line.

Modes:
- `setup`: set up and exit; reports `setup_s` only.
- `timed`: set up, then run whole passes over the fixed job list, one job
  at a time (a single closed-loop client), while the next pass is expected
  to end within `--seconds`.
- `trace`: as `timed` for half of `--seconds`; then install the span
  wrappers, set up again and run the same number of passes traced.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


# The host's speed drifts by tens of percent within seconds (other tenants
# share its cores), and that drift would swamp any change to liereg.  So a
# fixed kernel in the style of liereg's work (exact-arithmetic mat-vecs,
# JSON, sorting, dicts) is timed before the first job and after every
# CAL_EVERY jobs, and each job's time is scaled by REF_KERNEL_S over the
# mean of the two kernel times around it.  Times are thus reported at the
# reference speed; the raw figures are reported alongside.
CAL_EVERY = 4
REF_KERNEL_S = 0.0035
_CAL_RNG = random.Random("calibration")
_CAL_M = [[Fraction(_CAL_RNG.randint(-9, 9), _CAL_RNG.randint(1, 9)) for _ in range(12)]
          for _ in range(12)]
_CAL_V = [Fraction(_CAL_RNG.randint(-9, 9), _CAL_RNG.randint(1, 9)) for _ in range(12)]
_CAL_RECORDS = [
    {"k": i, "v": [_CAL_RNG.random() for _ in range(5)], "s": str(_CAL_RNG.random())}
    for i in range(60)
]


def kernel_s() -> float:
    """Time of one run of the calibration kernel."""
    start = time.perf_counter()
    for _ in range(3):
        [sum((a * b for a, b in zip(row, _CAL_V)), Fraction(0)) for row in _CAL_M]
    for _ in range(3):
        text = json.dumps(_CAL_RECORDS)
        records = json.loads(text)
        records.sort(key=lambda r: (r["s"], r["k"]))
        {r["k"]: tuple(r["v"]) for r in records}
    return time.perf_counter() - start


def speed_factor() -> float:
    """REF_KERNEL_S over the median of five kernel times taken now."""
    return REF_KERNEL_S / statistics.median(kernel_s() for _ in range(5))


def p90_rank(n: int) -> int:
    """Nearest-rank index of the 90th percentile in a sorted sample of n."""
    return math.ceil(0.9 * n) - 1


def percentile(ordered, p: float) -> float:
    """A smoothed p-quantile of a sorted sample.

    A normal-weighted mean of the order statistics around rank p(n+1),
    with the rank's binomial standard deviation sqrt(n p (1-p)) as width
    (the normal approximation of the Harrell-Davis estimator).  A job list
    has a few discrete job costs, and a plain order statistic would jump
    between two neighbouring costs on a small change.
    """
    n = len(ordered)
    centre, width = p * (n + 1), max(math.sqrt(n * p * (1 - p)), 0.5)
    weights = [math.exp(-0.5 * ((rank - centre) / width) ** 2) for rank in range(1, n + 1)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


class Loop:
    """Runs a job list pass after pass and checks every output.

    Oracles run once per job, outside the timed section; later passes (and
    a traced run given `reference`) must reproduce the first pass exactly.
    """

    def __init__(self, workload, reference: "Loop" = None):
        self.workload = workload
        self.jobs = workload.jobs
        n = len(self.jobs)
        if reference is not None:
            if [j.key for j in reference.jobs] != [j.key for j in self.jobs]:
                raise RuntimeError("job list differs between two set-ups of one seed")
            self.expected, self.first = reference.expected, reference.first
        else:
            self.expected, self.first = [None] * n, [None] * n
        self.latencies = []  # at the reference speed
        self.raw_latencies = []
        self.pass_stats = []  # (jobs_per_s, p50 ms, p90 ms) of each pass
        self.last_pass_s = 0.0
        self.passes = 0
        self.failures = defaultdict(Counter)  # kind -> failure class -> count
        self.kind_s = Counter()
        self.tag_s = Counter()
        self.tag_jobs = Counter()

    def run_pass(self, tracer=None):
        first = len(self.latencies)
        before = kernel_s()
        for start in range(0, len(self.jobs), CAL_EVERY):
            block = []
            for i in range(start, min(start + CAL_EVERY, len(self.jobs))):
                job = self.jobs[i]
                call = job.call if tracer is None else (
                    lambda job=job: tracer.section(job.kind, job.call))
                t0 = time.perf_counter()
                try:
                    out, exc = call(), None
                except Exception as e:  # a failing job is counted, not fatal
                    out, exc = None, e
                block.append((i, time.perf_counter() - t0, out, exc))
            after = kernel_s()
            factor = 2 * REF_KERNEL_S / (before + after)
            before = after
            for i, raw, out, exc in block:
                job = self.jobs[i]
                elapsed = raw * factor
                self.raw_latencies.append(raw)
                self.latencies.append(elapsed)
                self.kind_s[job.kind] += elapsed
                self.tag_s[job.tag or "other"] += elapsed
                self.tag_jobs[job.tag or "other"] += 1
                self._check(i, job, out, exc)
        self.passes += 1
        lat = sorted(self.latencies[first:])
        self.last_pass_s = sum(self.raw_latencies[first:])
        self.pass_stats.append((len(lat) / sum(lat), percentile(lat, 0.5) * 1e3,
                                percentile(lat, 0.9) * 1e3))

    def run_for(self, seconds, tracer=None):
        """Whole passes, at least one, while the next is expected to fit."""
        start = time.monotonic()
        while True:
            self.run_pass(tracer)
            if time.monotonic() - start + self.last_pass_s > seconds:
                return

    def _check(self, i, job, out, exc):
        if self.expected[i] is None:
            try:
                self.expected[i] = (workloads.normalize(job.oracle()), None)
            except Exception as e:  # the oracle itself failed
                self.expected[i] = (None, e)
        expected, oracle_exc = self.expected[i]
        if exc is not None:
            got = ["raised", type(exc).__name__]
        else:
            try:
                got = workloads.normalize(job.canon(out))
            except Exception as e:  # output not in the documented format
                got, exc = ["bad-output", type(e).__name__], e
        failure = None
        if self.first[i] is None:
            self.first[i] = got
        elif got != self.first[i]:
            failure = "nondeterministic"
        if failure is None:
            if exc is not None:
                failure = workloads.defect_class(exc) or "unexpected"
            elif oracle_exc is not None:
                failure = workloads.defect_class(oracle_exc) or "unexpected"
            elif not job.agrees(got, expected):
                failure = (job.defect and job.defect(got, expected)) or "unexpected"
        if failure is not None:
            self.failures[job.kind][failure] += 1

    # -- results ----------------------------------------------------------------

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return sum(sum(c.values()) for c in self.failures.values())

    @property
    def unexpected(self):
        return sum(
            n for c in self.failures.values() for cls, n in c.items()
            if cls in ("unexpected", "nondeterministic")
        )

    def digest(self):
        data = [[job.key, got] for job, got in zip(self.jobs, self.first)]
        return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]

    def summary(self):
        """Timings are medians over passes of each pass's figure."""
        rates, p50s, p90s = zip(*self.pass_stats)
        total = sum(self.latencies)
        n = len(self.jobs)
        return {
            "jobs_per_s": statistics.median(rates),
            "job_ms_p50": statistics.median(p50s),
            "job_ms_p90": statistics.median(p90s),
            "samples": len(self.latencies),
            "beyond_p90": n - p90_rank(n) - 1,  # per pass
            "timed_s": total,
            "raw_timed_s": sum(self.raw_latencies),
            "raw_job_ms_p50": statistics.median(self.raw_latencies) * 1e3,
            "passes": self.passes,
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected": self.unexpected,
            "failures": {k: dict(c) for k, c in sorted(self.failures.items())},
            "kinds": {
                kind: {"jobs_per_pass": n, "time_share": self.kind_s[kind] / total}
                for kind, n in sorted(Counter(j.kind for j in self.jobs).items())
            },
            "mix": {
                tag: {"jobs_per_pass": self.tag_jobs[tag] // self.passes,
                      "time_share": self.tag_s[tag] / total}
                for tag in sorted(self.tag_s)
            },
            "modules": dict(sorted(Counter(self.workload.modules).items())),
            "digest": self.digest(),
        }


def trace(loop: Loop, name: str, seed: int, per_kind=None):
    """Set up again with spans installed; repeat loop's passes traced.

    Returns (per-layer metrics, tracer, traced loop).
    """
    tracer = tracing.Tracer().install()
    try:
        again = tracer.section("setup", lambda: workloads.build(name, seed, per_kind))
        traced = Loop(again, reference=loop)
        for _ in range(loop.passes):
            traced.run_pass(tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace_overhead"] = (sum(traced.latencies) / sum(loop.latencies), "ratio")
    return metrics, tracer, traced


def git_commit(root: Path) -> str:
    """The checkout's commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "liereg_commit": git_commit(ROOT),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    args = parser.parse_args(argv)

    import liereg

    src = (ROOT / "src").resolve()
    if src not in Path(liereg.__file__).resolve().parents:
        print(f"error: imported liereg from {liereg.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = workloads.build(args.workload, args.seed)
    raw_setup_s = time.monotonic() - args.t0
    result = {"setup_s": raw_setup_s * speed_factor(), "raw_setup_s": raw_setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    loop = Loop(workload)
    # a traced run repeats the untraced passes, so it spends half on each
    loop.run_for(args.seconds / 2 if args.mode == "trace" else args.seconds)
    result.update(loop.summary())
    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = environment(args.seed)
    if args.mode == "trace":
        metrics, tracer, traced = trace(loop, args.workload, args.seed)
        result["layers"] = metrics
        result["traced_failed"] = traced.failed
        result["traced_unexpected"] = traced.unexpected
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
