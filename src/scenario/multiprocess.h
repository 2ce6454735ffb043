// Multi-process scenario deployment: N node processes on loopback TCP,
// conducted in LOCKSTEP so the distributed run is bit-for-bit equivalent to
// the monolithic simulator run of the same spec.
//
// Free-running sockets cannot reproduce a simulator fingerprint — gossip
// relay fan-out depends on delivery order, and the kernel's interleaving is
// not the simulator's. So the conductor keeps the ONE deterministic event
// queue: it re-derives the world plan (scenario/world.h), wires its own
// net::Simulator with wire_simulator — the same links, latencies,
// adversary interceptor and app-event schedule as run_scenario — with one
// proxy node per participant, and drives the real protocol state, which
// lives sharded across the node processes, by granting each event to the
// owning process over its control connection, the process's only socket:
//
//   grant(app event k / timer id / deliver cookie + message bytes)  →
//   child executes the closure against its real PvrNodes and replies with
//   its shard's gauges and the ordered list of actions the handler took
//   (sends as cookie + the encoded message, one-shot schedules). One frame
//   pair per grant: the child never speaks unasked. The conductor replays
//   those actions into its simulator — sends as the real messages, so
//   latency draws, interceptor decisions (replay included) and byte
//   accounting are the simulated run's; schedules as future grants.
//
// Sequence parity is by construction: the conductor's simulator makes the
// same schedule()/send() calls in the same order as the monolithic run's
// handlers did, so same-time events tiebreak identically. The conductor
// records the delivery trace with Simulator::set_trace, as run_scenario
// does. At the end each child engine-verifies its local verifiers and
// ships the evidence logs and prover counters back; the conductor scores
// with the shared assemble_report pass, and its trace replays through
// scenario::replay_trace to the same fingerprint. DESIGN.md §13.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/message_trace.h"
#include "obs/metrics.h"
#include "scenario/runner.h"

namespace pvr::scenario {

struct MultiprocessOptions {
  // Both sides rebuild the spec as named_scenario(scenario, seed, rounds) —
  // the plan derivation is pure, so conductor and children agree on the
  // world without shipping it.
  std::string scenario = "equivocation_storm";
  std::uint64_t seed = 1;
  std::size_t rounds = 24;
  std::size_t processes = 3;  // node processes (the conductor is extra)
  std::string self_exe;       // argv[0]: re-exec'd with --node for children
  // Distributed observability (DESIGN.md §14). `trace_base` != "" arms
  // Chrome tracing in the conductor and every child ("<base>.conductor
  // .json" / "<base>.<pid>.json") and stitches the shards into
  // "<base>.json" after the run. Whether tracing or not, every done reply
  // carries the child's gauges into the stats_timeline below.
  std::string trace_base;
};

struct MultiprocessResult {
  ScenarioReport report;
  net::MessageTrace trace;  // recorded by the conductor's simulator

  // Cross-process metrics aggregation: each child ships the snapshot DELTA
  // of its grant-loop + verification work in the result frame; merged_obs
  // is the conductor's own delta merged with every child's. Its kSim
  // section is byte-identical to the single-process run of the same spec
  // (ScenarioReport::obs_sim_fingerprint) — the distributed-parity gate.
  obs::MetricsSnapshot merged_obs;
  std::vector<obs::MetricsSnapshot> child_obs;  // per-rank deltas

  // One point per grant: the granted child's gauges from its done reply.
  struct StatsPoint {
    std::uint32_t rank = 0;   // the granted child's index
    std::uint64_t at_us = 0;  // the granted (sim) time
    std::int64_t open_rounds = 0;       // summed over the child's nodes
    std::int64_t peak_open_rounds = 0;  // maximum over the child's nodes
    std::uint64_t rsa_verifies = 0;     // the child's, since run start
    std::uint64_t messages_sent = 0;    // sends mirrored from the child
  };
  std::vector<StatsPoint> stats_timeline;

  // Set when MultiprocessOptions::trace_base was given: the merged
  // Perfetto-loadable timeline (obs::merge_traces output).
  std::string merged_trace_path;
};

// Conductor entry: forks/execs `processes` node children, runs the lockstep
// scenario, scores, and reaps them. Throws std::runtime_error if a child
// fails or disconnects mid-run.
[[nodiscard]] MultiprocessResult run_conductor(
    const MultiprocessOptions& options);

// Node-process entry for a binary that can be re-exec'd as a child: when
// argv is the conductor's --node invocation, serves lockstep grants until
// the finish verb, ships results, and returns the process exit code;
// otherwise returns nullopt. A binary that calls run_conductor calls this
// first thing in main.
[[nodiscard]] std::optional<int> node_process_main(int argc, char** argv);

}  // namespace pvr::scenario
