"""Tests for perfbench's metric math. Run from the repository root with

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import metrics  # noqa: E402


def span(path, count=1, total_ns=0, self_ns=0):
    return {"path": path, "name": path.split(";")[-1], "count": count,
            "total_ns": total_ns, "self_ns": self_ns}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_returns_a_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(metrics.percentile(values, 50), 3.0)
        self.assertEqual(metrics.percentile(values, 100), 5.0)
        self.assertEqual(metrics.percentile(values, 1), 1.0)

    def test_p95_of_twenty_samples_is_the_nineteenth(self):
        values = list(range(1, 21))
        self.assertEqual(metrics.percentile(values, 95), 19)

    def test_even_count_median_is_lower_middle(self):
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 50), 2)

    def test_empty_is_zero_and_bad_q_raises(self):
        self.assertEqual(metrics.percentile([], 50), 0.0)
        with self.assertRaises(ValueError):
            metrics.percentile([1.0], 0)


class RatioTest(unittest.TestCase):
    def test_useful_frac(self):
        self.assertAlmostEqual(metrics.useful_frac(317, 42360), 317 / 42360)

    def test_zero_denominator_is_zero(self):
        self.assertEqual(metrics.useful_frac(5, 0), 0.0)
        self.assertEqual(metrics.ratio(0, 0), 0.0)


class AttributionTest(unittest.TestCase):
    SPANS = [
        span("bench.traced", total_ns=1000, self_ns=40),
        span("bench.traced;core.pipeline_run", count=4, total_ns=500,
             self_ns=100),
        span("bench.traced;core.pipeline_run;pipeline.run", count=4,
             total_ns=400, self_ns=300),
        span("bench.traced;core.pipeline_run;pipeline.run;exec.chunk",
             count=40, total_ns=100, self_ns=100),
        span("bench.traced;constellation.propagate_all", count=120,
             total_ns=460, self_ns=260),
        span("bench.traced;constellation.propagate_all;exec.chunk",
             count=120, total_ns=200, self_ns=200),
        # A pool worker's chunk: top-level, concurrent with the caller.
        span("exec.chunk", count=360, total_ns=900, self_ns=900),
    ]

    def test_attributed_frac_is_one_minus_root_self_share(self):
        self.assertAlmostEqual(metrics.attributed_frac(self.SPANS), 0.96)

    def test_attributed_frac_without_root_is_zero(self):
        self.assertEqual(metrics.attributed_frac(self.SPANS[1:]), 0.0)

    def test_rollup_gives_nested_library_spans_to_their_layer(self):
        layers = metrics.layer_rollup(self.SPANS)
        self.assertEqual(layers["core.pipeline_run"],
                         {"calls": 4, "busy_ns": 500})
        self.assertEqual(layers["constellation.propagate_all"],
                         {"calls": 120, "busy_ns": 460})
        self.assertEqual(layers["match.identify"], {"calls": 0, "busy_ns": 0})

    def test_rollup_ignores_worker_paths(self):
        layers = metrics.layer_rollup(self.SPANS)
        total = sum(v["busy_ns"] for v in layers.values())
        self.assertEqual(total, 1000 - 40)

    def test_inner_layer_span_owns_its_own_self_time(self):
        spans = [
            span("bench.traced", total_ns=100, self_ns=0),
            span("bench.traced;core.pipeline_run", total_ns=100, self_ns=70),
            span("bench.traced;core.pipeline_run;match.identify", count=3,
                 total_ns=30, self_ns=30),
        ]
        layers = metrics.layer_rollup(spans)
        self.assertEqual(layers["core.pipeline_run"]["busy_ns"], 70)
        self.assertEqual(layers["match.identify"],
                         {"calls": 3, "busy_ns": 30})


def driver_result(workload, trace):
    r = {
        "workload": workload, "seed": 1, "threads": 4, "catalog_size": 4236,
        "check_seed": 2,
        # CPU time 5, 7 and 6 ms, measured where the kernel took 20, 20 and
        # 40 ms: 5, 7 and 3 ms on the reference core.
        "setup": [
            {"wall_ns": 6e6, "cpu_ns": 5e6, "kernel_ns": 20e6},
            {"wall_ns": 8e6, "cpu_ns": 7e6, "kernel_ns": 20e6},
            {"wall_ns": 7e6, "cpu_ns": 6e6, "kernel_ns": 40e6},
        ],
        "quality": {"slots": 100, "decided": 90, "compared": 80,
                    "correct": 79, "forest_top5": 0.45,
                    "baseline_top5": 0.2},
        "check_quality": {"slots": 100, "decided": 95, "compared": 90,
                          "correct": 90, "forest_top5": 0.5,
                          "baseline_top5": 0.2},
        "peak_rss_kb": 2048,
    }
    if trace:
        r.update({
            "wall_off_ns": 1000, "wall_on_ns": 1020, "untraced_mismatches": 0,
            "counters": {"sats_propagated": 8472, "candidates": 70,
                         "usable_candidates": 60, "identify_calls": 2,
                         "candidates_scored": 66, "abstained": 1,
                         "dataset_rows": 0, "replay_rows": 2,
                         "replay_mismatches": 0, "digest_mismatches": 0},
        })
    else:
        r["reps"] = [
            {"wall_ns": 2e9, "cpu_ns": 2e9, "kernel_ns": 20e6,
             "slot_ns": 1e9, "slot_cpu_ns": 1e9, "train_ns": 5e8,
             "terminal_slots": 100, "digest": "ab"},
            {"wall_ns": 3e9, "cpu_ns": 6e9, "kernel_ns": 40e6,
             "slot_ns": 2e9, "slot_cpu_ns": 4e9, "train_ns": 7e8,
             "terminal_slots": 100, "digest": "ab"},
            {"wall_ns": 4e9, "cpu_ns": 4e9, "kernel_ns": 20e6,
             "slot_ns": 4e9, "slot_cpu_ns": 4e9, "train_ns": 6e8,
             "terminal_slots": 100, "digest": "ab"},
        ]
    return r


class EndToEndTest(unittest.TestCase):
    def test_ref_cpu_rescales_by_the_kernel(self):
        self.assertAlmostEqual(metrics.ref_cpu_s(4e9, 40e6), 2.0)
        self.assertAlmostEqual(metrics.ref_cpu_s(1e9, 20e6), 1.0)

    def test_medians_and_ratios(self):
        m = metrics.end_to_end(driver_result("survey", trace=False))
        self.assertAlmostEqual(m["setup_s"], 0.005)
        # Rescaled repetition CPU: 2, 3 and 4 s; slot phase: 1, 2 and 4 s.
        self.assertAlmostEqual(m["ref_cpu_s"], 3.0)
        self.assertAlmostEqual(m["slots_per_ref_cpu_s"], 50.0)
        self.assertAlmostEqual(m["wall_s"], 3.0)
        self.assertAlmostEqual(m["slots_per_s"], 50.0)
        self.assertAlmostEqual(m["decided_frac"], 0.9)
        self.assertAlmostEqual(m["peak_rss_mb"], 2.0)
        self.assertAlmostEqual(m["train_s"], 0.6)
        self.assertAlmostEqual(m["top5_lift"], 0.25)
        self.assertNotIn("id_accuracy", m)

    def test_every_end_to_end_metric_on_every_workload(self):
        for w in metrics.WORKLOADS:
            m = metrics.end_to_end(driver_result(w, trace=False))
            self.assertEqual(set(m), set(metrics.END_TO_END)
                             | set(metrics.WALL_CLOCK)
                             | set(metrics.WORKLOAD_EXTRAS[w]))

    def test_checks(self):
        r = driver_result("identify", trace=False)
        m = metrics.end_to_end(r)
        self.assertAlmostEqual(m["id_accuracy"], 79 / 80)
        self.assertTrue(any("id_accuracy" in f
                            for f in metrics.check(r, m, trace=False)))
        r["quality"]["correct"] = 80
        self.assertEqual(metrics.check(r, m, trace=False), [])
        r["reps"][1]["digest"] = "cd"
        self.assertEqual(len(metrics.check(r, m, trace=False)), 1)

    def test_survey_needs_positive_lift(self):
        r = driver_result("survey", trace=False)
        r["quality"]["forest_top5"] = 0.2
        m = metrics.end_to_end(r)
        self.assertTrue(any("top5_lift" in f
                            for f in metrics.check(r, m, trace=False)))

    def test_check_seed_is_checked_too(self):
        r = driver_result("identify", trace=False)
        r["quality"]["correct"] = 80
        r["check_quality"]["correct"] = 88
        failures = metrics.check(r, metrics.end_to_end(r), trace=False)
        self.assertEqual(len(failures), 1)
        self.assertIn("seed 2:", failures[0])

    def test_check_seed_quality_metrics(self):
        q = driver_result("survey", trace=False)["check_quality"]
        self.assertEqual(metrics.quality_metrics("survey", q),
                         {"decided_frac": 0.95, "top5_lift": 0.3})

    def test_attempted_and_failed(self):
        r = driver_result("identify", trace=False)
        self.assertEqual(metrics.attempted_failed(r, trace=False), (300, 0))
        r["reps"][2]["digest"] = "cd"
        r["reps"][2]["terminal_slots"] = 90
        self.assertEqual(metrics.attempted_failed(r, trace=False), (290, 90))


class PerLayerTest(unittest.TestCase):
    PROFILE = {"spans": [
        span("bench.traced", total_ns=10_000_000, self_ns=100_000),
        span("bench.traced;constellation.propagate_all", count=2,
             total_ns=6_000_000, self_ns=6_000_000),
        span("bench.traced;match.identify", count=2, total_ns=3_900_000,
             self_ns=3_900_000),
    ]}
    EVENTS = [
        {"name": "constellation.propagate_all", "dur": 2000.0},
        {"name": "constellation.propagate_all", "dur": 4000.0},
        {"name": "match.identify", "dur": 1000.0},
        {"name": "match.identify", "dur": 2900.0},
        {"name": "exec.chunk", "dur": 99999.0},
    ]

    def test_per_layer_metrics(self):
        r = driver_result("identify", trace=True)
        m = metrics.per_layer(r, self.PROFILE, self.EVENTS)
        self.assertEqual(set(m), set(metrics.PER_LAYER))
        self.assertEqual(m["constellation.propagate_all.calls"], 2)
        self.assertAlmostEqual(m["constellation.propagate_all.busy_ms"], 6.0)
        self.assertEqual(m["constellation.propagate_all.p50_us"], 2000.0)
        self.assertEqual(m["match.identify.p95_us"], 2900.0)
        self.assertAlmostEqual(m["constellation.useful_frac"], 60 / 8472)
        self.assertAlmostEqual(m["match.abstain_frac"], 0.5)
        self.assertAlmostEqual(m["trace.attributed_frac"], 0.99)
        self.assertAlmostEqual(m["trace.overhead_frac"], 0.02)
        self.assertEqual(m["ml.train.busy_ms"], 0)
        r["quality"]["correct"] = 80
        self.assertEqual(metrics.check(r, m, trace=True), [])

    def test_replay_mismatch_fails(self):
        r = driver_result("identify", trace=True)
        r["quality"]["correct"] = 80
        r["counters"]["replay_mismatches"] = 1
        m = metrics.per_layer(r, self.PROFILE, self.EVENTS)
        self.assertEqual(len(metrics.check(r, m, trace=True)), 1)
        self.assertEqual(metrics.attempted_failed(r, trace=True), (2, 1))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_names_and_units_match(self):
        with open(HERE.parent.parent / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            metrics.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         metrics.WORKLOADS)


if __name__ == "__main__":
    unittest.main()
