#!/usr/bin/env python3
"""End-to-end benchmark of the PVR scenario loop.

    python3 perfbench/run.py --workload storm_online --seed 1 --seconds 45 --trace 0

Builds the driver (perfbench/CMakeLists.txt, the repository's src/ compiled
optimised) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
runs one workload, checks every repetition for correctness, and prints one
row per repetition followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures repetitions for --seconds and reports the end-to-end
metrics (medians over the repetitions). --trace 1 runs one untraced
reference repetition and one repetition with the Chrome trace armed, and
reports the per-layer metrics: span self times, registry work counts, and
crypto layer time estimated as count x per-operation cost. BENCHMARK.json
declares both metric sets; perfbench/plan.json records the workloads, the
seeds and the layer -> workload prediction table.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("storm_online", "storm_reverify")
DRIVER_TIMEOUT_S = 170

class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ---- pure helpers (unit-tested in test_run.py) ---------------------------


def per_round(total, rounds):
    """Normalises a run total by its settled round count."""
    if rounds <= 0:
        raise BenchError("a repetition settled no rounds")
    return total / rounds


def span_self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that spans nested inside it on the same lane cover. `spans` is a list of
    dicts with tid, ts and dur (µs); returns a list aligned with it."""
    self_us = [float(span["dur"]) for span in spans]
    by_lane = {}
    for index, span in enumerate(spans):
        by_lane.setdefault(span["tid"], []).append(index)
    for indices in by_lane.values():
        indices.sort(key=lambda i: (spans[i]["ts"], -spans[i]["dur"]))
        stack = []  # indices of open ancestors, innermost last
        for i in indices:
            start = spans[i]["ts"]
            while stack and spans[stack[-1]]["ts"] + spans[stack[-1]]["dur"] <= start:
                stack.pop()
            if stack:
                parent = spans[stack[-1]]
                end = min(start + spans[i]["dur"], parent["ts"] + parent["dur"])
                self_us[stack[-1]] -= end - start
            stack.append(i)
    return [max(0.0, value) for value in self_us]


def enclosing(candidates, child):
    """The innermost of `candidates` on the child's lane that contains the
    child's start, or None."""
    best = None
    for span in candidates:
        if span["tid"] != child["tid"]:
            continue
        if span["ts"] <= child["ts"] < span["ts"] + max(span["dur"], 1):
            if best is None or span["ts"] >= best["ts"]:
                best = span
    return best


def nearest_rank(values, q):
    """The q-quantile of `values` by the nearest-rank rule (0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q)) - 1])


def rep_failures(rep, reference, same_counts=True):
    """Failed rounds in one repetition: verify failures, false evidence,
    audit failures and attacked rounds left undetected; every round of the
    repetition when nothing was attacked or its report fingerprint (and,
    with `same_counts`, its SIM-domain registry counts) differ from the
    reference repetition's."""
    failed = (rep["verify_failures"] + rep["false_evidence"] + rep["audit_failures"]
              + rep["attacked_rounds"] - rep["detected_rounds"])
    if rep["attacked_rounds"] == 0 or rep["detection_rate"] != 1.0:
        failed = max(failed, 1)
    if rep["fingerprint"] != reference["fingerprint"] or (
            same_counts and rep["sim_fingerprint"] != reference["sim_fingerprint"]):
        failed = rep["rounds"]
    return min(failed, rep["rounds"])


def run_failures(reps, record):
    """Failed rounds over a run's repetitions: each is checked against the
    first (same seed, so same fingerprint and SIM counts) and, for
    storm_reverify, its fingerprint against the recorded run's."""
    total = 0
    for rep in reps:
        failed = rep_failures(rep, reps[0])
        if record is not None:
            failed = max(failed, rep_failures(rep, record, same_counts=False))
        total += failed
    return total


def timed_ms(rep, workload):
    """The measured interval: the runner's own wall_ms online; the
    replay_trace call minus its separately timed plan_world offline."""
    if workload == "storm_reverify":
        return rep["call_ms"] - rep["plan_ms"]
    return rep["wall_ms"]


def setup_seconds(rep, workload):
    """World planning and key generation, plus, online, the world build and
    scoring the runner does outside its own timer."""
    if workload == "storm_reverify":
        return rep["plan_ms"] / 1e3
    return (rep["call_ms"] - rep["wall_ms"]) / 1e3


def settle_latencies(trace):
    """Every round's simulated settle latency (µs): the sim-time
    round.settle spans of a Chrome trace written by TraceWriter."""
    return [event["dur"] for event in trace["traceEvents"]
            if event.get("ph") == "X" and event.get("pid") == 2
            and event.get("name") == "round.settle"]


def settle_mismatch(latencies, source):
    """True when the settle spans disagree with the settle histogram the
    registry kept for the same repetition."""
    hist = source["counts"]["scenario.settle_us"]
    return len(latencies) != hist["count"] or sum(latencies) != hist["sum"]


def end_to_end_metrics(workload, reps, latencies, peak_rss_kb, failed):
    """Medians over the timed repetitions; exact settle mean and p99 over
    `latencies`."""
    if not latencies:
        raise BenchError("no settle latencies recorded")
    rounds = sum(rep["rounds"] for rep in reps)
    values = {
        "rounds_per_sec": statistics.median(
            rep["rounds"] / (timed_ms(rep, workload) / 1e3) for rep in reps),
        "cpu_ms_per_round": statistics.median(
            per_round(rep["call_cpu_ms"] - rep["plan_cpu_ms"], rep["rounds"])
            for rep in reps),
        "setup_s": statistics.median(setup_seconds(rep, workload) for rep in reps),
        "settle_mean_sim_us": statistics.fmean(latencies),
        "settle_p99_sim_us": nearest_rank(latencies, 0.99),
        "wire_bytes_per_round": statistics.median(
            per_round(rep["bytes_total"], rep["rounds"]) for rep in reps),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "clean_round_share": 1.0 - failed / rounds,
    }
    return values


def trace_spans(trace):
    """Wall-clock thread spans of a Chrome trace written by TraceWriter.
    engine.pipeline.overlap is left out: it marks how long a batch verified
    while the simulator ran, on a lane shared with a worker, and occupies no
    thread of its own."""
    return [event for event in trace["traceEvents"]
            if event.get("ph") == "X" and event.get("pid") == 1
            and event.get("name") != "engine.pipeline.overlap"]


def per_layer_metrics(workload, reference, traced, costs, spans):
    """Per-layer metrics of the traced repetition, plus the simulator-thread
    attribution rows (layer, estimated ms) sorted largest first."""
    counts = traced["counts"]
    rounds = traced["rounds"]
    self_us = span_self_times(spans)
    by_name = {}
    for span, own in zip(spans, self_us):
        by_name.setdefault(span["name"], []).append((span, own))

    def total_ms(name, self_time=False):
        return sum(own if self_time else span["dur"]
                   for span, own in by_name.get(name, [])) / 1e3

    reverify = workload == "storm_reverify"
    drain_ms = total_ms("engine.drain")
    if reverify:
        # No sim_run span offline: the replay call minus planning and the
        # engine drain (world build and scoring stay in this figure).
        sim_thread_ms = traced["call_ms"] - traced["plan_ms"] - drain_ms
        verify_ms = drain_ms
        engine_window_ms = drain_ms
    else:
        sim_thread_ms = total_ms("scenario.sim_run", self_time=True)
        verify_ms = traced["verify_ms"]
        engine_window_ms = traced["wall_ms"]
    if sim_thread_ms <= 0:
        raise BenchError("traced run has no simulator-thread time")

    tasks = [span["dur"] for span, _ in by_name.get("engine.task", [])]
    task_busy_ms = sum(tasks) / 1e3
    collect_wait_ms = 0.0
    waiters = [span for name in ("scenario.harvest", "engine.drain")
               for span, _ in by_name.get(name, [])]
    for span, _ in by_name.get("engine.collect", []):
        parent = enclosing(waiters, span)
        if parent is not None:
            collect_wait_ms += (span["ts"] - parent["ts"]) / 1e3

    signs = counts["crypto.rsa_signs"]
    verifies = counts["crypto.rsa_verifies"]
    hits = counts["crypto.world_cache_hits"]
    hashed = counts["crypto.bytes_hashed"]
    # Only the simulator thread signs. Verification and hashing run both on
    # the receive path (simulator thread) and in engine tasks, and the
    # registry does not say which thread counted them; the engine's share is
    # at most its measured task time, so the rest is a lower bound on the
    # receive path's. Signing and verifying hash their own input, so the
    # hash estimate covers only the bytes hashed outside those calls.
    sign_est_ms = signs * costs["sign_us"] / 1e3
    verify_busy_ms = verifies * costs["verify_us"] / 1e3
    other_hashed = max(0, hashed - (signs + verifies) * costs["message_bytes"])
    hash_est_ms = other_hashed / costs["sha256_mb_per_s"] / 1e3
    receive_crypto_ms = max(0.0, verify_busy_ms + hash_est_ms - task_busy_ms)
    unattributed_ms = sim_thread_ms - sign_est_ms - receive_crypto_ms

    reference_ms = timed_ms(reference, workload)
    values = {
        "scenario.plan_ms": traced["plan_ms"],
        "scenario.sim_thread_ms": sim_thread_ms,
        "scenario.verify_ms": verify_ms,
        "scenario.pipeline_overlap_ratio": traced["pipeline_overlap_ratio"],
        "scenario.drain_batches": traced["drain_batches"],
        "scenario.rounds_per_drain": rounds / traced["drain_batches"],
        "scenario.peak_open_rounds": traced["peak_open_rounds"],
        "scenario.peak_root_digests": traced["peak_root_digests"],
        "crypto.signs_per_round": per_round(signs, rounds),
        "crypto.sign_us": costs["sign_us"],
        "crypto.sign_est_ms": sign_est_ms,
        "crypto.verifies_per_round": per_round(verifies, rounds),
        "crypto.verify_us": costs["verify_us"],
        "crypto.verify_busy_ms": verify_busy_ms,
        "crypto.cache_hit_ratio": hits / (hits + verifies) if hits + verifies else 0.0,
        "crypto.hashed_bytes_per_round": per_round(hashed, rounds),
        "crypto.sha256_mb_per_s": costs["sha256_mb_per_s"],
        "crypto.hash_est_ms": hash_est_ms,
        "net.events_per_round": per_round(counts["sim.events"], rounds),
        "net.messages_per_round": per_round(counts["sim.messages"], rounds),
        "net.gossip_messages_per_round": per_round(traced["gossip_messages"], rounds),
        "net.gossip_bytes_per_round": per_round(traced["bytes_gossip"], rounds),
        "engine.tasks_per_round": per_round(counts["engine.tasks"], rounds),
        "engine.task_busy_ms": task_busy_ms,
        "engine.task_p99_us": nearest_rank(tasks, 0.99),
        "engine.worker_utilization":
            task_busy_ms / (traced["workers"] * engine_window_ms) if engine_window_ms > 0 else 0.0,
        "engine.collect_wait_ms": collect_wait_ms,
        "core.windows_per_round": per_round(counts["node.windows_closed"], rounds),
        "core.evidence_per_round": per_round(traced["evidence_total"], rounds),
        "sim.unattributed_ms": unattributed_ms,
        "obs.trace_overhead_pct": (timed_ms(traced, workload) - reference_ms) / reference_ms * 100.0,
    }
    table = sorted([("crypto.sign", sign_est_ms),
                    ("crypto.verify+hash", receive_crypto_ms),
                    ("sim.unattributed", unattributed_ms)],
                   key=lambda row: -row[1])
    return values, table


def declared_units():
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json
    declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def with_units(values, units):
    """The result's metrics object; the emitted names must be exactly the
    declared ones."""
    if sorted(values) != sorted(units):
        raise BenchError("emitted metric names differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ---- build and run -------------------------------------------------------


def build_driver():
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "runner.h")):
        raise BenchError("PVR sources not found under src/ — run from a full checkout")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, cwd=ROOT)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, cwd=ROOT)
    return build_dir, os.path.join(build_dir, "pvr_perfbench")


def run_driver(binary, args):
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError("driver timed out") from error
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"driver exited with {done.returncode}")
    rows = {}
    for line in done.stdout.splitlines():
        row = json.loads(line)
        rows.setdefault(row["row"], []).append(row)
    return rows


def print_rep_row(rep, workload):
    print(f"{workload} seed={rep['seed']} {rep['row']}#{rep['rep']}: "
          f"rounds={rep['rounds']} timed_ms={timed_ms(rep, workload):.1f} "
          f"cpu_ms={rep['call_cpu_ms'] - rep['plan_cpu_ms']:.1f} "
          f"setup_s={setup_seconds(rep, workload):.3f} "
          f"detection={rep['detection_rate']:.4f} false={rep['false_evidence']} "
          f"audit_fail={rep['audit_failures']} verify_fail={rep['verify_failures']}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        build_dir, binary = build_driver()
    except (subprocess.CalledProcessError, OSError) as error:
        raise BenchError(f"build failed: {error}") from error
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    workload = args.workload
    end_to_end_units, per_layer_units = declared_units()

    if args.trace == 0:
        trace_path = os.path.join(build_dir, f"settle-{workload}.json")
        rows = run_driver(binary, common + ["--seconds", str(args.seconds),
                                            "--settle-trace", trace_path])
        record = rows.get("record", [None])[0]
        reps = rows["rep"]
        settle_source = record if record else rows["settle"][0]
        failed = run_failures(reps + rows.get("settle", []), record)
        with open(trace_path, encoding="utf-8") as handle:
            latencies = settle_latencies(json.load(handle))
        if settle_mismatch(latencies, settle_source):
            print(f"{workload} seed={args.seed} settle spans disagree with the "
                  f"registry histogram", file=sys.stderr)
            failed += settle_source["rounds"]
        for rep in reps:
            print_rep_row(rep, workload)
        metrics = with_units(
            end_to_end_metrics(workload, reps, latencies,
                               rows["process"][0]["peak_rss_kb"], failed),
            end_to_end_units)
        attempted = sum(rep["rounds"] for rep in reps)
    else:
        trace_path = os.path.join(build_dir, f"trace-{workload}.json")
        rows = run_driver(binary, common + ["--trace-out", trace_path])
        record = rows.get("record", [None])[0]
        reference, traced = rows["reference"][0], rows["traced"][0]
        costs = rows["op_costs"][0]
        failed = run_failures([reference, traced], record)
        if not costs["signatures_valid"]:
            failed += 1
        with open(trace_path, encoding="utf-8") as handle:
            spans = trace_spans(json.load(handle))
        for rep in (reference, traced):
            print_rep_row(rep, workload)
        values, table = per_layer_metrics(workload, reference, traced, costs, spans)
        metrics = with_units(values, per_layer_units)
        seed = traced["seed"]
        sim_ms = metrics["scenario.sim_thread_ms"]["value"]
        print(f"{workload} seed={seed} simulator-thread attribution "
              f"(thread self time {sim_ms:.1f} ms; verify+hash is the part "
              f"engine task time cannot hold):")
        for layer, ms in table:
            print(f"{workload} seed={seed}   {layer:<20} {ms:10.1f} ms "
                  f"{100.0 * ms / sim_ms:5.1f}%")
        print(f"{workload} seed={seed} top simulator-thread layer: {table[0][0]}")
        if metrics["sim.unattributed_ms"]["value"] < 0:
            print(f"{workload} seed={seed} attribution closure FAILED: estimates "
                  f"exceed the measured simulator-thread time", file=sys.stderr)
            failed += 1
        attempted = reference["rounds"] + traced["rounds"]

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        sys.exit(2)
