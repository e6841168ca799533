"""Self-test of the benchmark at a tiny size.

Run from the root of a checkout:  python3 -m unittest discover -s perfbench
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from liereg import grp  # noqa: E402

TINY = 2  # jobs kept per job type
SEED = 3


def tiny_loop(name, seed=SEED):
    loop = worker.Loop(workloads.build(name, seed, per_kind=TINY))
    loop.run_pass()
    return loop


class TinyBenchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.loops = {name: tiny_loop(name) for name in workloads.WORKLOADS}
        cls.traces = {
            name: worker.trace(loop, name, SEED, per_kind=TINY)
            for name, loop in cls.loops.items()
        }

    def test_every_metric_present_with_its_unit(self):
        declared = run.spec()
        for name, loop in self.loops.items():
            summary = dict(loop.summary(), peak_rss_mb=worker.peak_rss_mb())
            for kind, layer in (("end_to_end", run.end_to_end(summary, [0.5, 0.4, 0.6])),
                                ("per_layer", self.traces[name][0])):
                absent = []
                metrics = run.select(layer, declared[kind], absent)
                self.assertEqual(absent, [], f"{name} {kind}")
                for entry in declared[kind]:
                    self.assertEqual(metrics[entry["name"]]["unit"], entry["unit"])

    def test_tiny_runs_match_their_oracles(self):
        for name, loop in self.loops.items():
            self.assertEqual(loop.unexpected, 0, f"{name}: {dict(loop.failures)}")
            self.assertEqual(self.traces[name][2].unexpected, 0, name)

    def test_injected_wrong_answer_raises_failed_frac(self):
        honest = self.loops["free-eval"]
        real = grp.act_group

        def doubled(rep, g, v):
            return tuple(2 * x for x in real(rep, g, v))

        with mock.patch.object(grp, "act_group", doubled):
            broken = tiny_loop("free-eval")
        self.assertGreater(broken.failed / broken.attempted, honest.failed / honest.attempted)
        self.assertGreater(broken.unexpected, 0)

    def test_job_list_identical_for_one_seed(self):
        for name in workloads.WORKLOADS:
            keys = [j.key for j in workloads.build(name, SEED, per_kind=TINY).jobs]
            again = [j.key for j in workloads.build(name, SEED, per_kind=TINY).jobs]
            other = [j.key for j in workloads.build(name, SEED + 1, per_kind=TINY).jobs]
            self.assertEqual(keys, again, name)
            self.assertNotEqual(keys, other, name)
        self.assertEqual(tiny_loop("free-span").digest(), self.loops["free-span"].digest())

    def test_self_time_within_inclusive_time(self):
        for name, (_metrics, tracer, _traced) in self.traces.items():
            called = [n for n, st in tracer.stats.items() if st.calls]
            self.assertTrue(called, name)
            for span, st in tracer.stats.items():
                self.assertGreaterEqual(st.self, 0, span)
                self.assertLessEqual(st.self, st.incl, span)


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_the_program(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "km-cli", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
