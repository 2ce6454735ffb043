// Deterministic adversarial scenario runner: the single entry point every
// workload harness (bench_scenarios, tests/scenario, examples) drives.
//
//   ScenarioSpec spec = named_scenario("equivocation_storm", seed, rounds);
//   ScenarioReport report = run_scenario(spec);
//   puts(report.to_json_line().c_str());
//
// One run: generate a power-law topology, carve disjoint Figure-1
// neighborhoods out of it, build PvrNodes over the simulator, arm the
// adversary (prover misbehavior + wire interceptor), schedule jittered
// round traffic, verify every round through the parallel engine — either
// offline (run to quiescence, then one drain) or online (ScenarioSpec::
// online: rounds stream into a long-lived engine as their windows close,
// drained every drain_interval_us of sim time, settled state GC'd) — and
// score the outcome. The world itself (nodes, engine, drain schedules,
// scoring) is scenario::World (world.h), shared with replay_trace and the
// multiprocess node processes; this runner supplies the simulator.
// Everything except the wall-clock and drain-schedule fields of the report
// is a pure function of (spec) — fingerprint() is the byte-identity the
// determinism gates compare across worker counts, drain intervals, and
// online vs offline mode.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/message_trace.h"
#include "scenario/adversary.h"
#include "scenario/topology_gen.h"
#include "scenario/traffic.h"

namespace pvr::scenario {

struct ScenarioSpec {
  std::string name = "custom";
  std::uint64_t seed = 1;
  TopologyParams topology;
  std::size_t neighborhoods = 6;  // PVR-active neighborhoods to carve out
  std::size_t min_providers = 4;
  std::size_t max_providers = 5;
  std::size_t rounds = 240;       // total rounds across all neighborhoods
  std::string adversary = "honest";
  // Fraction of neighborhoods whose prover mounts the attack (evenly
  // spread), so honest and attacked neighborhoods coexist and false
  // positives against the honest ones are actually observable.
  double attacked_fraction = 0.5;
  TrafficParams traffic;
  net::SimTime collect_window = 4000;
  net::SimTime batch_deadline = 0;  // > collect_window enables coalescing
  std::uint8_t gossip_hop_budget = 8;
  std::size_t workers = 8;
  std::size_t key_bits = 512;
  std::uint32_t max_len = 16;
  // Online verification (the paper's deployment model): rounds are
  // submitted to a long-lived engine as their windows close and the engine
  // drains every drain_interval_us of SIMULATED time, pipelined — each
  // tick harvests the previous batch and seals the next, so workers verify
  // while the simulator advances (DESIGN.md §12) — with settled rounds
  // GC'd so memory is bounded by concurrently-open windows instead of
  // trace length. false = offline: verify every round after global
  // quiescence in one drain, the parity oracle. The report fingerprint and
  // evidence_digest are byte-identical in both modes at any worker count
  // and any drain interval (DESIGN.md §10).
  bool online = false;
  net::SimTime drain_interval_us = 25'000;
  // World-level verified-signature cache (core::VerifyContext with
  // cache_verdicts = true, shared by every node and engine worker): a
  // (signing input, signature) pair already verified anywhere in the world
  // skips the RSA exponentiation on re-verification — the same signed
  // roots reach every verifier of a hood. Verdicts, and therefore the
  // report fingerprint and evidence_digest, are byte-identical with the
  // cache off (the parity test's matrix); only wall time and the kSched
  // exponentiation counters change.
  bool world_sig_cache = true;
};

struct ScenarioReport {
  // Identity.
  std::string scenario;
  std::string adversary;
  std::uint64_t seed = 0;
  std::size_t workers = 0;
  // World shape.
  std::size_t as_count = 0;
  std::size_t neighborhoods = 0;
  std::size_t pvr_nodes = 0;
  // Round/window accounting (summed over neighborhood provers).
  std::uint64_t rounds_started = 0;
  std::uint64_t windows_fired = 0;
  bool coalesced = false;  // windows_fired < rounds_started
  // Window roots signed, and the Merkle-proof bytes of the pvr.bundle.agg
  // messages — what one signature per window costs on the wire (§3.8).
  std::uint64_t roots_signed = 0;
  std::uint64_t proof_bytes = 0;
  // Roots signed per window fired by each prover that does not attack, the
  // ratio farthest from 1 of them: exactly 1 when every such prover signed
  // one root per window, 0 when none fired a window.
  double honest_signs_per_window = 0;
  // Detection scoring.
  std::uint64_t attacked_rounds = 0;
  std::uint64_t detected_rounds = 0;
  double detection_rate = 1.0;  // 1.0 when nothing was attacked
  std::uint64_t evidence_total = 0;
  std::uint64_t false_evidence = 0;   // evidence accusing an honest AS
  std::uint64_t audit_failures = 0;   // provable evidence the Auditor rejected
  // Engine rounds whose verification closure threw (EngineReport::
  // failed_rounds summed over every drain); bench_scenarios fails on any
  // nonzero value.
  std::uint64_t verify_failures = 0;
  // Online-mode memory accounting: the highest open-round count any single
  // node reached (PvrNode::peak_open_rounds, maxed over all nodes), and
  // the number of interleaved engine drains. Both depend on the drain
  // schedule, so neither joins the fingerprint — the GC tests gate
  // peak_open_rounds against a bound derived from the spec instead.
  std::uint64_t peak_open_rounds = 0;
  std::uint64_t drain_batches = 0;
  bool online = false;
  // Whether the trace ended with a sealed batch still in flight (the tail
  // barrier then harvested it) — the state the final-flush parity test
  // forces. Always false offline.
  bool harvest_pending_at_end = false;
  // Root-dedup footprint (epoch-keyed seen-root GC): the highest live
  // digest count any node reached, and the epochs still holding digests
  // after the run (0 once every epoch retired). Drain-schedule-dependent,
  // so excluded from fingerprint(); the epoch-GC test bounds the peak by
  // open epochs instead.
  std::uint64_t peak_root_digests = 0;
  std::uint64_t final_root_epochs = 0;
  // The settle horizon the online run derived from the spec's timing and
  // the adversary's declared wire slack (0 offline), so harnesses can
  // compute memory bounds from the same number the runner waited out.
  net::SimTime settle_horizon_us = 0;
  // Wire accounting (per channel group).
  std::uint64_t bytes_input = 0;
  std::uint64_t bytes_bundle = 0;        // pvr.bundle.agg
  std::uint64_t bytes_gossip = 0;        // pvr.gossip.root
  std::uint64_t bytes_total = 0;         // all pvr.* channels
  std::uint64_t gossip_messages = 0;
  // Settle latency (online mode): sim-time µs from a round's window close
  // to the drain that verified and GC'd it, aggregated over every round
  // through a log-bucket histogram (quantiles are bucket upper edges).
  // Deterministic at any worker count, but a function of the drain
  // schedule — like drain_batches, reported, p99 gated by the
  // scenarios_online.p99_settle_us RULES row, yet excluded from
  // fingerprint(). 0 in offline mode.
  std::uint64_t p50_settle_us = 0;
  std::uint64_t p99_settle_us = 0;
  // Crypto profile for this run (global obs counter deltas): RSA verify
  // exponentiations performed and verified-root dedup hits that skipped
  // one. Zero under -DPVR_OBS=OFF, so excluded from fingerprint().
  std::uint64_t rsa_verifies = 0;
  std::uint64_t sig_cache_hits = 0;
  // World verdict-cache hits (crypto.world_cache_hits delta): verifications
  // answered from the shared VerifyContext without an exponentiation.
  // Schedule-dependent (which duplicate arrives first is a race between
  // workers), so excluded from fingerprint() like the other crypto deltas.
  std::uint64_t world_cache_hits = 0;
  // SHA-256 (hex) over every node's evidence log in node order — a strict
  // superset of the fingerprint's evidence COUNT: it pins the APPLICATION
  // ORDER, which the two-slot pipeline must preserve batch by batch.
  // Invariant: identical online and offline, at every worker count and
  // drain interval (online_pipeline_test and the stress tests assert it).
  // Offline applies a node's rounds in arrival order, online in settle
  // order, and the two orders agree: a node only logs its own
  // neighborhood's rounds, whose prover closes windows in arrival order
  // and lists each window's rounds in arrival order. Not part of
  // fingerprint(); the parity tests compare it directly.
  std::string evidence_digest;
  // Wall clock — excluded from fingerprint(). sim_ms is the simulator's
  // own wall time (drain work subtracted), verify_ms the total
  // verification cost (sim-thread blocked time + worker time that
  // overlapped the simulation), wall_ms the measured end-to-end elapsed
  // time. With pipelining doing real work on a multi-core host,
  // wall_ms < sim_ms + verify_ms — the bench-gated inequality; on any
  // host, pipeline_overlap_ratio (overlapped verify time / total batch
  // window) is > 0 whenever batches verified while the simulator advanced.
  double sim_ms = 0;
  double verify_ms = 0;
  double wall_ms = 0;
  double pipeline_overlap_ratio = 0;
  double rounds_per_sec = 0;
  std::size_t hw_threads = 0;  // std::thread::hardware_concurrency()

  // The SIM-domain metrics fingerprint of this run's global-registry DELTA
  // (baseline right before the simulation, final read after scoring) —
  // the single-process reference the multiprocess conductor's merged
  // shards must reproduce byte-for-byte (DESIGN.md §14). Empty-valued
  // ("name=0|...") under -DPVR_OBS=OFF in BOTH deployments, so the parity
  // gate holds in both build flavors. Excluded from fingerprint() and
  // to_json_line(): it is itself a fingerprint, compared directly.
  std::string obs_sim_fingerprint;

  // Every deterministic field, one canonical string. Two runs of the same
  // spec — at ANY worker count — must produce identical fingerprints.
  [[nodiscard]] std::string fingerprint() const;
  [[nodiscard]] std::string to_json_line() const;
};

// Runs one scenario end to end. Throws std::runtime_error when the
// generated topology cannot supply a single qualifying neighborhood, and
// std::invalid_argument on specs whose timing cannot work (collect_window
// must exceed the max link latency or inputs could miss their windows).
//
// When `record` is non-null, the run additionally records its ordered
// delivery trace (plus wire stats and prover counters) into it — the
// artifact scenario::replay_trace() re-verifies to an identical
// fingerprint (DESIGN.md §13).
[[nodiscard]] ScenarioReport run_scenario(const ScenarioSpec& spec,
                                          net::MessageTrace* record = nullptr);

// Named presets — the scenario matrix bench_scenarios and CI sweep.
// "equivocation_storm", "batch_split_evasion", "drop_replay_chaos".
[[nodiscard]] std::vector<std::string> scenario_names();
[[nodiscard]] ScenarioSpec named_scenario(std::string_view name,
                                          std::uint64_t seed,
                                          std::size_t rounds);

}  // namespace pvr::scenario
