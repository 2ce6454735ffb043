// Multi-process scenario deployment: N node processes on loopback TCP,
// conducted in LOCKSTEP so the distributed run is bit-for-bit equivalent to
// the monolithic simulator run of the same spec.
//
// Free-running sockets cannot reproduce a simulator fingerprint — gossip
// relay fan-out depends on delivery order, and the kernel's interleaving is
// not the simulator's. So the conductor keeps the ONE deterministic event
// queue: it re-derives the world plan (scenario/world.h), populates its own
// net::Simulator with one proxy node per participant, and drives the real
// protocol state — which lives sharded across the node processes — by
// granting each event to the owning process over a control connection:
//
//   grant(app event k / timer id / deliver cookie)  →  child executes the
//   closure against its real PvrNodes and replies with the ordered list of
//   actions the handler took (sends with their wire metadata, one-shot
//   schedules). The conductor replays those actions into its simulator —
//   sends as PLACEHOLDER messages (same channel, same payload size, so
//   latency draws, interceptor decisions, and byte accounting are
//   identical; Message::cookie carries the correlation tag), schedules as
//   future grants. Real payload bytes travel peer-to-peer between node
//   processes, keyed by the same cookie, and are delivered to the
//   destination node when (and only when) the conductor grants it.
//
// Sequence parity is by construction: the conductor's simulator makes the
// same schedule()/send() calls in the same order as the monolithic run's
// handlers did, so same-time events tiebreak identically. At the end each
// child engine-verifies its local verifiers and ships the evidence logs,
// prover counters, and its MessageTrace shard (conductor-issued sequence
// numbers) back; the conductor scores with the shared assemble_report pass
// and merges the shards into one trace that replays through
// scenario::replay_trace to the same fingerprint. DESIGN.md §13.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/message_trace.h"
#include "obs/metrics.h"
#include "scenario/runner.h"
#include "scenario/world.h"

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
  // "<base>.json" after the run. Whether tracing or not, the conductor
  // sends a kFrameStats probe to the granted child after every grant
  // cycle, accumulating the per-process stats_timeline below.
  std::string trace_base;
};

struct MultiprocessResult {
  ScenarioReport report;
  net::MessageTrace trace;  // merged shards, sorted by conductor sequence

  // Cross-process metrics aggregation: each child ships the snapshot DELTA
  // of its grant-loop + verification work in the result frame; merged_obs
  // is the conductor's own delta merged with every child's. Its kSim
  // section is byte-identical to the single-process run of the same spec
  // (ScenarioReport::obs_sim_fingerprint) — the distributed-parity gate.
  obs::MetricsSnapshot merged_obs;
  std::vector<obs::MetricsSnapshot> child_obs;  // per-rank deltas

  // One row per kFrameStats poll (one per grant cycle).
  struct StatsPoint {
    std::uint32_t rank = 0;
    std::uint64_t at_us = 0;  // lockstep (sim) time of the poll
    std::int64_t open_rounds = 0;
    std::int64_t peak_open_rounds = 0;
    std::uint64_t rsa_verifies = 0;
    std::uint64_t messages_sent = 0;
  };
  std::vector<StatsPoint> stats_timeline;

  // Set when MultiprocessOptions::trace_base was given: the merged
  // Perfetto-loadable timeline (obs::merge_traces output).
  std::string merged_trace_path;
};

// Which node process owns `asn`: its index in the sorted participant list,
// round-robin over `processes`. Pure function of the plan, so every process
// computes the same map.
[[nodiscard]] std::size_t owner_of(const WorldPlan& plan, bgp::AsNumber asn,
                                   std::size_t processes);

// Conductor entry: forks/execs `processes` node children, runs the lockstep
// scenario, scores, and reaps them. Throws std::runtime_error if a child
// fails or disconnects mid-run.
[[nodiscard]] MultiprocessResult run_conductor(
    const MultiprocessOptions& options);

// Node-process entry (invoked by the --node re-exec): serves lockstep
// grants until the finish verb, then ships results. Returns the process
// exit code. A non-empty `trace_base` arms per-process Chrome tracing
// into "<trace_base>.<pid>.json" (the shard path travels back in the
// result frame for the conductor's merge).
int run_node_process(const std::string& scenario, std::uint64_t seed,
                     std::size_t rounds, std::size_t process_index,
                     std::size_t processes, std::uint16_t control_port,
                     const std::string& trace_base = {});

}  // namespace pvr::scenario
