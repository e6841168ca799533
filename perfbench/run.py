"""Layered benchmark of liereg: three seeded closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload free-eval --seed 1 --seconds 10 --trace 0

Each run starts fresh Python processes (perfbench/worker.py) that import
liereg from the checkout's `src`, one at a time, single-threaded.  A run
prints the environment, the job mix, failures by type and cause, a digest
of the basis-independent results, every metric with its unit, and as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (each one client that sends the next job when the last ends):
- free-eval: word evaluation of realized functionals, faithfulness
  witnesses, products (shuffle and tensor) and group actions, on a printed
  mix of sparse (V_N(J), chains) and dense (conjugated) modules.
  reps.act_word -> linalg.mat_vec does most of the work.
- free-span: translation closures (Echelon.add) and the DFS shuffle-span
  test.  Builds bases where free-eval only reads through matrices.
- km-cli: liereg.cli.main for km-build, km-mult --oracle, km-theta and
  km-cone over finite, affine and hyperbolic Cartan matrices, each job on
  a fresh module.  Bypasses reps/duals/grp.

With --trace 0 the metrics are the end-to-end ones:
- setup_s: process start to the first timed job (import, inputs, module
  construction, reps.validate_integrable); median of SETUPS fresh processes.
- jobs_per_s: jobs run divided by the time spent inside jobs.
- job_ms_p50, job_ms_p90: job latency percentiles, smoothed over the
  neighbouring order statistics (at least ten samples per pass lie beyond
  p90).
The three job figures are taken per pass over the job list and the median
over passes is reported.  All times are scaled to a reference host speed
measured with a fixed kernel interleaved with the jobs (see worker.py);
the raw figures are printed too.
- ok_frac: share of jobs whose output agreed with its oracle, that is
  1 - failed_frac.  (A metric that can be 0 has no relative bound.)
- peak_rss_mb: ru_maxrss of the process that ran the timed loop.
With --trace 1 a separate process runs the same passes untraced and then
traced, and the metrics are the per-layer ones: <module>.<function>.calls,
.s and .self_s, layer totals <module>.self_s, linalg.mat_vec.nnz_frac,
linalg.Echelon.add.accept_ratio and trace_overhead (traced time over
untraced time).  Aggregated spans go to .bench_out/ when the run ends.

`correct` is false when any job fails other than through the two defects
known at the seed (Peterson's zero denominator, the span-test horizon) or
when a pass does not reproduce the first one.  Known-defect failures still
count in `failed` and ok_frac.

The self-test: python3 -m unittest discover -s perfbench
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("free-eval", "free-span", "km-cli")
SETUPS = 5  # fresh processes whose set-up time is measured per run
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload, seed, seconds, mode, deadline) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker did not finish in {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(timed: dict, setups: list) -> dict:
    """name -> (value, unit) from the timed worker and every set-up time."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (timed["jobs_per_s"], "jobs/s"),
        "job_ms_p50": (timed["job_ms_p50"], "ms"),
        "job_ms_p90": (timed["job_ms_p90"], "ms"),
        "ok_frac": (1 - timed["failed"] / timed["attempted"], "ratio"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MiB"),
    }


def select(measured: dict, wanted: list, absent: list) -> dict:
    """Metrics named in BENCHMARK.json; a layer missing at this commit reads 0."""
    out = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            value, got_unit = measured[name]
            if got_unit != unit:
                raise BenchError(f"metric {name} measured in {got_unit}, declared {unit}")
        else:
            value = 0.0
            absent.append(name)
        out[name] = {"value": value, "unit": unit}
    return out


def report(args, timed, setups, metrics, absent):
    env = timed["env"]
    print(f"# liereg benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"client: 1 closed loop, {timed['passes']} pass(es) over a fixed list of "
          f"{sum(k['jobs_per_pass'] for k in timed['kinds'].values())} jobs, "
          f"{timed['samples']} samples, {timed['beyond_p90']} beyond p90")
    for kind, k in timed["kinds"].items():
        print(f"  job type {kind}: {k['jobs_per_pass']} per pass, "
              f"{k['time_share']:.1%} of job time")
    for tag, m in timed["mix"].items():
        print(f"  module mix {tag}: {m['jobs_per_pass']} jobs per pass, "
              f"{m['time_share']:.1%} of job time")
    for desc, n in timed["modules"].items():
        print(f"  module {desc}: {n}")
    failed_frac = timed["failed"] / timed["attempted"]
    print(f"failed_frac = {failed_frac:.6f} ratio ({timed['failed']} of {timed['attempted']})")
    for kind, causes in timed["failures"].items():
        for cause, n in causes.items():
            print(f"  failed {kind}: {n} x {cause}")
    print(f"digest {timed['digest']}")
    print(f"speed: times are scaled to the reference kernel speed, on average by "
          f"{timed['timed_s'] / timed['raw_timed_s']:.4f}; raw job_ms_p50 over all passes "
          f"{timed['raw_job_ms_p50']:.4f} ms")
    print("setup_s samples, scaled (raw): " + ", ".join(
        f"{s['setup_s']:.4f} ({s['raw_setup_s']:.4f})" for s in setups))
    if "layers" in timed:
        print(f"traced run: {timed['traced_failed']} failed jobs, "
              f"{timed['traced_unexpected']} unexpected")
        for name, (value, unit) in end_to_end(timed, [timed["setup_s"]]).items():
            print(f"untraced part, one set-up: {name} = {value:.6g} {unit}")
    for name in absent:
        print(f"absent at this commit: {name}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="liereg layered benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "liereg" / "__init__.py").is_file():
            raise BenchError(f"no liereg sources under {ROOT / 'src'}")
        declared = spec()
        # byte-compile first, so no timed set-up pays for it
        for path in (ROOT / "src" / "liereg", ROOT / "perfbench"):
            compileall.compile_dir(str(path), quiet=1)
        absent = []
        if args.trace:
            timed = run_worker(args.workload, args.seed, args.seconds, "trace", deadline)
            setups = [timed]
            metrics = select(timed["layers"], declared["per_layer"], absent)
        else:
            setups = [
                run_worker(args.workload, args.seed, args.seconds, "setup", deadline)
                for _ in range(SETUPS - 1)
            ]
            timed = run_worker(args.workload, args.seed, args.seconds, "timed", deadline)
            setups.append(timed)
            metrics = select(end_to_end(timed, [s["setup_s"] for s in setups]),
                             declared["end_to_end"], absent)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(args, timed, setups, metrics, absent)
    unexpected = timed["unexpected"] + timed.get("traced_unexpected", 0)
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
