#!/usr/bin/env python3
"""Unit tests for the benchmark's own aggregation code (run.py).

    python3 perfbench/test_run.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def span(name, tid, ts, dur):
    return {"name": name, "tid": tid, "ts": ts, "dur": dur}


def rep(**overrides):
    """A synthetic driver repetition row (online workload)."""
    row = {
        "row": "rep", "seed": 1, "rep": 0, "workers": 3,
        "plan_ms": 100.0, "plan_cpu_ms": 90.0,
        "call_ms": 2500.0, "call_cpu_ms": 3090.0, "wall_ms": 2000.0,
        "verify_ms": 300.0, "pipeline_overlap_ratio": 0.9,
        "rounds": 1000, "attacked_rounds": 500,
        "detected_rounds": 500, "detection_rate": 1.0, "evidence_total": 7000,
        "false_evidence": 0, "audit_failures": 0, "verify_failures": 0,
        "drain_batches": 50, "peak_open_rounds": 20, "peak_root_digests": 600,
        "bytes_total": 30_000_000, "bytes_gossip": 20_000_000,
        "gossip_messages": 60_000, "fingerprint": "fp", "sim_fingerprint": "sim",
        "counts": {
            "crypto.rsa_signs": 15_000, "crypto.rsa_verifies": 29_000,
            "crypto.world_cache_hits": 31_000, "crypto.bytes_hashed": 42_000_000,
            "sim.events": 85_000, "sim.messages": 80_000, "engine.tasks": 12_000,
            "node.windows_closed": 900,
            "scenario.settle_us": {"count": 4, "sum": 400_000},
        },
    }
    row.update(overrides)
    return row


class SpanSelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once_per_level(self):
        spans = [
            span("parent", 1, 0, 100),
            span("child_a", 1, 10, 20),
            span("grandchild", 1, 12, 8),
            span("child_b", 1, 40, 10),
            span("other_lane", 2, 5, 90),
        ]
        self.assertEqual(run.span_self_times(spans), [70.0, 12.0, 8.0, 10.0, 90.0])

    def test_child_running_past_its_parent_is_clipped(self):
        spans = [span("parent", 1, 0, 50), span("child", 1, 40, 20)]
        self.assertEqual(run.span_self_times(spans), [40.0, 20.0])

    def test_sequential_spans_do_not_nest(self):
        spans = [span("a", 1, 0, 10), span("b", 1, 10, 10)]
        self.assertEqual(run.span_self_times(spans), [10.0, 10.0])

    def test_trace_spans_keep_thread_spans_only(self):
        trace = {"traceEvents": [
            {"ph": "M", "pid": 1, "name": "process_name"},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 9, "name": "engine.task"},
            {"ph": "X", "pid": 1, "tid": 0, "ts": 0, "dur": 50,
             "name": "engine.pipeline.overlap"},
            {"ph": "X", "pid": 2, "tid": 0, "ts": 0, "dur": 7, "name": "round.settle"},
        ]}
        self.assertEqual([s["name"] for s in run.trace_spans(trace)], ["engine.task"])

    def test_enclosing_finds_innermost_same_lane_parent(self):
        outer = span("scenario.harvest", 1, 0, 100)
        inner = span("engine.drain", 1, 20, 50)
        other = span("engine.drain", 2, 0, 100)
        child = span("engine.collect", 1, 30, 5)
        self.assertIs(run.enclosing([outer, inner, other], child), inner)
        self.assertIsNone(run.enclosing([other], child))


class NormalisationTest(unittest.TestCase):
    def test_per_round(self):
        self.assertEqual(run.per_round(3000, 1000), 3.0)
        with self.assertRaises(run.BenchError):
            run.per_round(1, 0)

    def test_end_to_end_medians_and_per_round_values(self):
        reps = [rep(wall_ms=2000.0), rep(wall_ms=4000.0), rep(wall_ms=2500.0)]
        latencies = [50_000, 100_000, 100_000, 150_000]
        metrics = run.end_to_end_metrics("storm_online", reps, latencies, 51200, 0)
        self.assertAlmostEqual(metrics["rounds_per_sec"], 400.0)
        self.assertAlmostEqual(metrics["cpu_ms_per_round"], 3.0)
        self.assertAlmostEqual(metrics["wire_bytes_per_round"], 30_000.0)
        self.assertAlmostEqual(metrics["setup_s"], 0.0)  # median of call_ms - wall_ms
        self.assertAlmostEqual(metrics["settle_mean_sim_us"], 100_000.0)
        self.assertEqual(metrics["settle_p99_sim_us"], 150_000.0)
        self.assertAlmostEqual(metrics["peak_rss_mb"], 50.0)
        self.assertEqual(metrics["clean_round_share"], 1.0)

    def test_reverify_times_the_call_minus_planning(self):
        replay = rep(call_ms=1100.0, plan_ms=100.0, wall_ms=0.0)
        self.assertEqual(run.timed_ms(replay, "storm_reverify"), 1000.0)
        self.assertEqual(run.setup_seconds(replay, "storm_reverify"), 0.1)

    def test_settle_from_spans_is_checked_against_the_histogram(self):
        trace = {"traceEvents": [
            {"ph": "X", "pid": 2, "name": "round.settle", "ts": 0, "dur": 50_000},
            {"ph": "X", "pid": 2, "name": "round.settle", "ts": 9, "dur": 150_000},
            {"ph": "X", "pid": 2, "name": "round.settle", "ts": 5, "dur": 100_000},
            {"ph": "X", "pid": 2, "name": "round.settle", "ts": 7, "dur": 100_000},
            {"ph": "X", "pid": 1, "name": "round.settle", "ts": 0, "dur": 7},
            {"ph": "i", "pid": 2, "name": "drain.tick", "ts": 3},
        ]}
        latencies = run.settle_latencies(trace)
        self.assertEqual(sorted(latencies), [50_000, 100_000, 100_000, 150_000])
        self.assertFalse(run.settle_mismatch(latencies, rep()))
        self.assertTrue(run.settle_mismatch(latencies[:3], rep()))

    def test_nearest_rank(self):
        self.assertEqual(run.nearest_rank(list(range(1, 101)), 0.99), 99.0)
        self.assertEqual(run.nearest_rank([], 0.99), 0.0)


class CorrectnessTest(unittest.TestCase):
    def test_clean_repetition_has_no_failures(self):
        self.assertEqual(run.rep_failures(rep(), rep()), 0)

    def test_undetected_and_false_evidence_count(self):
        bad = rep(detected_rounds=498, detection_rate=0.996, false_evidence=3)
        self.assertEqual(run.rep_failures(bad, rep()), 5)

    def test_fingerprint_mismatch_fails_every_round(self):
        self.assertEqual(run.rep_failures(rep(fingerprint="other"), rep()), 1000)
        self.assertEqual(run.rep_failures(rep(sim_fingerprint="x"), rep()), 1000)
        self.assertEqual(
            run.rep_failures(rep(sim_fingerprint="x"), rep(), same_counts=False), 0)

    def test_run_failures_checks_against_the_recording(self):
        reps = [rep(), rep()]
        self.assertEqual(run.run_failures(reps, rep(fingerprint="recorded")), 2000)
        self.assertEqual(run.run_failures(reps, None), 0)


class MetricNamesTest(unittest.TestCase):
    def test_emitted_names_equal_benchmark_json(self):
        end_to_end, per_layer = run.declared_units()
        timed = run.with_units(
            run.end_to_end_metrics("storm_online", [rep()], [1], 1024, 0), end_to_end)
        self.assertEqual(set(timed), set(end_to_end))

        spans = [
            span("scenario.sim_run", 0, 0, 2_000_000),
            span("scenario.harvest", 0, 100, 50),
            span("engine.collect", 0, 120, 20),
            span("engine.task", 1, 110, 40),
        ]
        costs = {"sign_us": 80.0, "verify_us": 8.0, "sha256_mb_per_s": 100.0,
                 "message_bytes": 400}
        values, table = run.per_layer_metrics("storm_online", rep(), rep(), costs, spans)
        layered = run.with_units(values, per_layer)
        self.assertEqual(set(layered), set(per_layer))
        self.assertEqual(table[0][0], "crypto.sign")
        self.assertEqual(layered["engine.collect_wait_ms"],
                         {"value": 0.02, "unit": "ms"})

    def test_a_missing_or_extra_name_is_refused(self):
        end_to_end, _ = run.declared_units()
        values = run.end_to_end_metrics("storm_online", [rep()], [1], 1024, 0)
        with self.assertRaises(run.BenchError):
            run.with_units({**values, "extra": 1.0}, end_to_end)
        del values["setup_s"]
        with self.assertRaises(run.BenchError):
            run.with_units(values, end_to_end)


if __name__ == "__main__":
    unittest.main()
