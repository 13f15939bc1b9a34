#!/usr/bin/env python3
"""Self-tests of the simulator benchmark.

    python3 perfbench/selftest.py            # from the repository root

The static tests check BENCHMARK.json and the percentile rule. The live
tests build the benchmark and run every workload once at the default
and the held-out seed, plus the traced run of every workload. That takes
a few minutes.
"""

import argparse
import json
import re
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Static(unittest.TestCase):
    def test_metric_names_are_well_formed_and_unique(self):
        doc = declared()
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        names += [w["name"] for w in doc["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(sorted(w["name"] for w in doc["workloads"]),
                         sorted(run.WORKLOADS))

    def test_tail_percentile_has_ten_samples_beyond_it(self):
        self.assertEqual(run.percentile_tail(list(range(19))), (0, 0.0))
        for n in (20, 37, 100, 999, 1000, 5000):
            pct, value = run.percentile_tail(list(range(n)))
            self.assertGreaterEqual(pct, 50)
            beyond = sum(1 for v in range(n) if v > value)
            self.assertGreaterEqual(beyond, 10, (n, pct, value))
            if pct < 99:
                # The next whole percentile would leave fewer than ten.
                self.assertLess(n * (100 - (pct + 1)) / 100, 10)

    def test_seed_picks_a_deterministic_interrupt_point(self):
        self.assertEqual(run.interrupt_after(1), run.interrupt_after(1))
        points = {run.interrupt_after(s) for s in range(50)}
        self.assertGreater(len(points), 1)
        self.assertTrue(all(15 <= k <= 45 for k in points))


class Live(unittest.TestCase):
    """Runs the real binaries; results are shared between the tests."""

    traced_raw = {}
    traced_metrics = {}
    e2e = {}

    @classmethod
    def setUpClass(cls):
        cls.padc, cls.layers = run.build(ROOT)
        for workload in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                args = argparse.Namespace(workload=workload, seed=seed,
                                          seconds=1)
                cls.e2e[workload, seed] = run.end_to_end(
                    args, ROOT, cls.padc, cls.layers)
            args = argparse.Namespace(workload=workload,
                                      seed=run.DEFAULT_SEED, seconds=1)
            metrics, raw, failed, _ = run.traced(args, ROOT, cls.padc,
                                                 cls.layers)
            cls.traced_metrics[workload] = (metrics, failed)
            cls.traced_raw[workload] = raw

    def test_emitted_metric_sets_equal_the_declared_sets(self):
        e2e_names = set(run.declared("end_to_end"))
        layer_names = set(run.declared("per_layer"))
        for (workload, seed), (metrics, _, _, _) in self.e2e.items():
            self.assertEqual(set(metrics), e2e_names, workload)
            for name, (value, _) in metrics.items():
                self.assertGreater(value, 0, (workload, name))
        for workload, (metrics, _) in self.traced_metrics.items():
            self.assertEqual(set(metrics), layer_names, workload)

    def test_default_and_held_out_seeds_run_clean(self):
        for (workload, seed), (_, extra, failed, attempted) in \
                self.e2e.items():
            self.assertEqual(failed, 0, (workload, seed))
            self.assertGreater(attempted, 0)
            self.assertEqual(extra["fail_ratio"][0], 0.0)
        for workload, (_, failed) in self.traced_metrics.items():
            self.assertEqual(failed, 0, workload)

    def test_own_cycle_count_exceeds_bench_sim_cycles(self):
        # Pins the profile's denominator gap: BENCH sim_cycles covers
        # only the recorded post-warm-up windows, our count every run.
        work = run.build_dir(ROOT).parent / "runs" / "selftest"
        for workload, spec in run.WORKLOADS.items():
            shutil.rmtree(work, ignore_errors=True)
            inv = run.Invocation([str(self.padc), "run",
                                  *spec["experiments"], "--out", str(work),
                                  "--threads", "1"])
            self.assertEqual(inv.code, 0)
            bench = sum(json.loads(
                (work / f"BENCH_{e}.json").read_text())["sim_cycles"]
                for e in spec["experiments"])
            keys = sorted(p["key"] for _, p in
                          run.bench_points(work, spec["experiments"]))
            ours = run.workload_counts(self.layers, workload, ROOT)
            self.assertGreater(ours["simulated_cycles"], bench, workload)
            out = run.subprocess.run(
                [str(self.layers), "keys", workload],
                stdout=run.subprocess.PIPE, text=True, check=True).stdout
            self.assertEqual(sorted(line.split()[1]
                                    for line in out.splitlines()),
                             keys, workload)
        shutil.rmtree(work, ignore_errors=True)

    def test_layer_self_times_fit_inside_the_run(self):
        for workload, raw in self.traced_raw.items():
            self.assertLessEqual(raw["sim.layers_ns"], raw["sim.run_ns"],
                                 workload)
            landed = raw["sim.landed_cycles"]
            self.assertAlmostEqual(
                raw["sim.glue_ns_per_landed_cycle"],
                (raw["sim.run_ns"] - raw["sim.layers_ns"]) / landed,
                delta=1e-6 * raw["sim.run_ns"] / landed)

    def test_tracing_overhead_is_reported(self):
        for workload, raw in self.traced_raw.items():
            self.assertIn("trace.overhead_ratio", raw)
            self.assertAlmostEqual(
                raw["trace.overhead_ratio"],
                (raw["trace.traced_run_ns"] - raw["sim.run_ns"])
                / raw["sim.run_ns"], places=9)
            self.assertEqual(raw["trace.cycles_match"], 1, workload)

    def test_workloads_show_the_split_they_were_chosen_for(self):
        sat = self.traced_raw["cmp4_saturated"]
        sweep = self.traced_raw["sweep_pool_resume"]
        self.assertLess(sat["sim.skip_ratio"], 0.5)
        self.assertGreater(sweep["sim.skip_ratio"], 0.5)
        self.assertGreater(sat["memctrl.read_queue_depth_mean"],
                           sweep["memctrl.read_queue_depth_mean"])
        pool = self.traced_metrics["sweep_pool_resume"][0]
        self.assertGreater(pool["procpool.tasks"], 0)
        self.assertGreater(pool["journal.replayed"], 0)
        metrics = self.traced_metrics["cmp4_saturated"][0]
        self.assertEqual(metrics["procpool.tasks"], 0)
        self.assertEqual(metrics["journal.appends"], 0)

    def test_every_run_repeats_and_probes_set_up(self):
        for (workload, _), (metrics, extra, _, _) in self.e2e.items():
            self.assertGreaterEqual(extra["repetitions"][0], 1)
            self.assertGreaterEqual(extra["setup_samples"][0],
                                    run.SETUP_PROBES)
            self.assertLess(metrics["setup_s"][0], metrics["wall_s"][0])
            # The reference kernel ran before every repetition and once
            # more.
            self.assertEqual(extra["reference_chunks"][0],
                             run.REFERENCE_CHUNKS *
                             (extra["repetitions"][0] + 1))
            self.assertAlmostEqual(metrics["setup_s"][0],
                                   extra["measured_setup_s"][0] *
                                   extra["host_speed"][0])


if __name__ == "__main__":
    unittest.main(verbosity=2)
