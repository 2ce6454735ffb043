// Adversarial scenario sweep over the src/scenario/ harness.
//
// For each named scenario (equivocation_storm, batch_split_evasion,
// drop_replay_chaos), on a >= 1000-AS generated power-law topology with
// jittered arrivals:
//
//   1. determinism: the report fingerprint must be byte-identical across
//      1/2/8 engine workers (primary seed) and the gates must hold on a
//      second seed as well;
//   2. online parity: the ONLINE pipeline (rounds verified as their
//      windows settle, batches sealed every 1/7/64 collection windows of
//      sim time and harvested one tick later — DESIGN.md §12 double
//      buffering, ON by default — settled state GC'd) must reproduce the
//      offline fingerprint byte-for-byte;
//   3. gates: detection_rate == 1.0, false_evidence == 0,
//      audit_failures == 0, verify_failures == 0 in EVERY run;
//   4. coalescing: equivocation_storm must batch staggered arrivals into
//      shared windows (batch_deadline > collect_window doing real work);
//   5. throughput: the full --rounds run at 8 workers is the measured row,
//      plus one LONG online trace (--online-rounds, default
//      max(4 * rounds, 2000)) of the storm scenario whose peak open-round
//      count must stay under a bound derived from the spec's timing —
//      the memory claim of DESIGN.md §10, gated in CI — and whose
//      scenarios_online row now also records the pipelining evidence
//      (wall_ms, sim_ms, verify_ms, pipeline_overlap_ratio, hw_threads):
//      overlap ratio must be > 0 everywhere, and on multi-core hosts
//      wall_ms must undercut sim_ms + verify_ms. The row also reports the
//      paper's bandwidth trade (§3.8): proof_bytes_per_round, the Merkle
//      proofs one signature per window costs, and prover_signs_per_window,
//      which must be exactly 1 for every prover that does not attack.
//
// One JSON line per scenario plus a scenarios_gate verdict row, one
// scenarios_online row (check_bench_regression.py holds its p99_settle_us
// against the committed baseline) and one scenarios_mp row, plus a summary
// line. Exits nonzero when any gate above fails: this binary is the only
// owner of those checks.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "obs/trace.h"
#include "scenario/multiprocess.h"
#include "scenario/runner.h"

namespace pvr::bench {
namespace {

struct ScenarioGate {
  bool ok = true;
  bool deterministic = true;
  bool online_parity = true;
};

[[nodiscard]] bool gates_hold(const scenario::ScenarioReport& report) {
  return report.detection_rate == 1.0 && report.false_evidence == 0 &&
         report.audit_failures == 0 && report.verify_failures == 0;
}

// Spec-derived ceiling for the online long trace's peak open-round count:
// rounds stay open for at most collection window + batching deadline +
// settle horizon + one drain interval, and arrive at one per
// mean_interarrival_us round-robined over the neighborhoods. 6x absorbs
// Poisson clumping and partial batches; an unbounded (GC-less) node would
// instead peak near the full trace length.
[[nodiscard]] std::uint64_t peak_bound_for(const scenario::ScenarioSpec& spec,
                                           const scenario::ScenarioReport& report) {
  const std::uint64_t span_us = spec.collect_window + spec.batch_deadline +
                                report.settle_horizon_us +
                                spec.drain_interval_us;
  const std::uint64_t per_hood_interarrival_us =
      std::max<std::uint64_t>(1, spec.traffic.mean_interarrival_us *
                                     spec.neighborhoods);
  return 6 * std::max<std::uint64_t>(1, span_us / per_hood_interarrival_us);
}

}  // namespace
}  // namespace pvr::bench

int main(int argc, char** argv) {
  using namespace pvr;
  using namespace pvr::bench;

  // Node-process re-exec path for the multiprocess leg below (the
  // conductor spawns THIS binary with --node).
  if (const auto code = scenario::node_process_main(argc, argv)) return *code;

  // --online-rounds=N sizes the long online trace independently of the
  // offline sweep, so CI can run a focused online smoke leg;
  // --trace-out=FILE arms Chrome trace capture for the long online trace
  // (written when that run finishes — open in chrome://tracing or
  // Perfetto). Both parsed (and stripped) before the shared --seed/--rounds
  // handling.
  std::size_t online_rounds_flag = 0;
  std::string trace_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--online-rounds=", 0) == 0) {
      online_rounds_flag = std::strtoull(argv[i] + 16, nullptr, 10);
      if (online_rounds_flag == 0) {
        std::fprintf(stderr, "bench_scenarios: bad --online-rounds value\n");
        return 2;
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
      if (trace_out.empty()) {
        std::fprintf(stderr, "bench_scenarios: bad --trace-out value\n");
        return 2;
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  argv[kept] = nullptr;

  const BenchArgs args = parse_bench_args(&argc, argv);
  const std::size_t rounds = args.rounds.value_or(600);
  // The determinism cross-checks rerun each scenario several times; a
  // reduced round count keeps the sweep CI-sized while the measured run
  // stays full.
  const std::size_t det_rounds = std::max<std::size_t>(60, rounds / 10);
  const std::size_t online_rounds =
      online_rounds_flag != 0 ? online_rounds_flag
                              : std::max<std::size_t>(4 * rounds, 2000);

  std::printf("scenario sweep: %zu rounds/scenario (determinism checks at "
              "%zu, online long trace at %zu), seed %llu\n\n",
              rounds, det_rounds, online_rounds,
              static_cast<unsigned long long>(args.seed));
  std::printf("%-22s %-8s %-7s %-9s %-7s %-6s %-6s %-9s %-11s %-10s %-7s\n",
              "scenario", "workers", "rounds", "windows", "detect", "false",
              "audit", "coalesce", "rounds/sec", "determ", "online");

  bool all_ok = true;
  for (const std::string& name : scenario::scenario_names()) {
    ScenarioGate gate;
    std::string fingerprint_at_1;

    // Determinism matrix: 1/2/8 workers on BOTH seeds. Each seed is its
    // own workload, so fingerprints are compared within a seed; the gates
    // must hold in every cell.
    for (const std::uint64_t seed : {args.seed, args.seed + 1}) {
      std::string seed_fingerprint;
      for (const std::size_t workers : {1u, 2u, 8u}) {
        scenario::ScenarioSpec spec =
            scenario::named_scenario(name, seed, det_rounds);
        spec.workers = workers;
        const scenario::ScenarioReport report = scenario::run_scenario(spec);
        if (workers == 1) {
          seed_fingerprint = report.fingerprint();
          if (seed == args.seed) fingerprint_at_1 = seed_fingerprint;
        }
        if (report.fingerprint() != seed_fingerprint) {
          gate.deterministic = false;
        }
        if (!gates_hold(report)) gate.ok = false;
      }
    }

    // Online parity: drain cadences from every collection window to so
    // coarse the trace mostly settles between drains — the fingerprint
    // must match the offline run byte-for-byte either way (primary seed).
    for (const net::SimTime windows : {1u, 7u, 64u}) {
      scenario::ScenarioSpec spec =
          scenario::named_scenario(name, args.seed, det_rounds);
      spec.online = true;
      spec.drain_interval_us = spec.collect_window * windows;
      const scenario::ScenarioReport report = scenario::run_scenario(spec);
      if (report.fingerprint() != fingerprint_at_1) gate.online_parity = false;
      if (!gates_hold(report)) gate.ok = false;
    }

    // The measured run: full round count, 8 workers, primary seed.
    scenario::ScenarioSpec spec =
        scenario::named_scenario(name, args.seed, rounds);
    const scenario::ScenarioReport report = scenario::run_scenario(spec);
    if (!gates_hold(report)) gate.ok = false;
    // The storm scenario exists to exercise window coalescing; losing it
    // would silently un-exercise batch_deadline > collect_window again.
    if (name == "equivocation_storm" && !report.coalesced) gate.ok = false;

    std::printf("%-22s %-8zu %-7llu %-9llu %-7.4f %-6llu %-6llu %-9s "
                "%-11.1f %-10s %-7s\n",
                name.c_str(), report.workers,
                static_cast<unsigned long long>(report.rounds_started),
                static_cast<unsigned long long>(report.windows_fired),
                report.detection_rate,
                static_cast<unsigned long long>(report.false_evidence),
                static_cast<unsigned long long>(report.audit_failures),
                report.coalesced ? "yes" : "no", report.rounds_per_sec,
                gate.deterministic ? "yes" : "DIVERGED",
                gate.online_parity ? "yes" : "DIVERGED");

    std::printf("%s\n", report.to_json_line().c_str());
    // The JSON row above carries the measured run; determinism and parity
    // verdicts ride in a trailing compact row.
    std::printf("{\"bench\":\"scenarios_gate\",\"scenario\":\"%s\","
                "\"seed\":%llu,\"deterministic\":%s,\"online_parity\":%s,"
                "\"gates_ok\":%s}\n",
                name.c_str(), static_cast<unsigned long long>(args.seed),
                gate.deterministic ? "true" : "false",
                gate.online_parity ? "true" : "false",
                gate.ok ? "true" : "false");
    all_ok = all_ok && gate.ok && gate.deterministic && gate.online_parity;
  }

  // The long online trace: the storm scenario at online_rounds, verified
  // entirely through the interleaved pipeline. This is the row that gates
  // the memory claim — peak_open_rounds must stay under the spec-derived
  // bound — and that a drain failure (verify_failures) cannot hide in.
  {
    scenario::ScenarioSpec spec = scenario::named_scenario(
        "equivocation_storm", args.seed, online_rounds);
    spec.online = true;
    // Trace capture covers exactly this run: the long online trace is the
    // one whose round lifecycle / worker occupancy is worth looking at.
    if (!trace_out.empty() && !obs::kCompiledIn) {
      std::fprintf(stderr,
                   "bench_scenarios: --trace-out ignored, tracing compiled "
                   "out (-DPVR_OBS=OFF)\n");
    }
    if (!trace_out.empty()) (void)obs::TraceWriter::global().open(trace_out);
    const scenario::ScenarioReport report = scenario::run_scenario(spec);
    if (!trace_out.empty() && obs::kCompiledIn) {
      if (obs::TraceWriter::global().close()) {
        std::fprintf(stderr, "bench_scenarios: trace written to %s\n",
                     trace_out.c_str());
      } else {
        std::fprintf(stderr, "bench_scenarios: could not write trace to %s\n",
                     trace_out.c_str());
      }
    }
    const std::uint64_t bound = peak_bound_for(spec, report);
    // pipeline_overlap_ratio > 0 is the overlap proof that holds on ANY
    // host (the fold window was in flight while the simulator advanced);
    // wall_ms < sim_ms + verify_ms is the true-parallelism inequality and
    // only gated when the host actually has multiple hardware threads.
    const bool overlap_ok =
        report.pipeline_overlap_ratio > 0.0 &&
        (report.hw_threads <= 1 ||
         report.wall_ms < report.sim_ms + report.verify_ms);
    // One signature per window (DESIGN.md §8.3): every prover that does
    // not attack signs exactly one root per window it fires, and at least
    // one of them fired a window.
    const bool signs_ok = report.honest_signs_per_window == 1.0;
    const double proof_bytes_per_round =
        report.rounds_started == 0
            ? 0.0
            : static_cast<double>(report.proof_bytes) /
                  static_cast<double>(report.rounds_started);
    const bool online_ok = gates_hold(report) &&
                           report.peak_open_rounds <= bound &&
                           report.drain_batches > 1 && overlap_ok && signs_ok;
    std::printf("\nonline long trace: %llu rounds, peak_open_rounds %llu "
                "(bound %llu), drain_batches %llu, verify_failures %llu, "
                "wall %.1f ms (sim %.1f + verify %.1f, overlap %.2f), "
                "%.1f rounds/sec %s\n",
                static_cast<unsigned long long>(report.rounds_started),
                static_cast<unsigned long long>(report.peak_open_rounds),
                static_cast<unsigned long long>(bound),
                static_cast<unsigned long long>(report.drain_batches),
                static_cast<unsigned long long>(report.verify_failures),
                report.wall_ms, report.sim_ms, report.verify_ms,
                report.pipeline_overlap_ratio, report.rounds_per_sec,
                online_ok ? "ok" : "FAIL");
    std::printf("{\"bench\":\"scenarios_online\",\"scenario\":\"%s\","
                "\"seed\":%llu,\"rounds\":%llu,\"detection_rate\":%.4f,"
                "\"false_evidence\":%llu,\"verify_failures\":%llu,"
                "\"peak_open_rounds\":%llu,\"peak_bound\":%llu,"
                "\"peak_root_digests\":%llu,\"drain_batches\":%llu,"
                "\"settle_horizon_us\":%llu,"
                "\"p50_settle_us\":%llu,\"p99_settle_us\":%llu,"
                "\"rsa_verifies\":%llu,\"sig_cache_hits\":%llu,"
                "\"proof_bytes_per_round\":%.1f,"
                "\"prover_signs_per_window\":%.3f,"
                "\"hw_threads\":%zu,\"sim_ms\":%.1f,\"verify_ms\":%.1f,"
                "\"wall_ms\":%.1f,\"pipeline_overlap_ratio\":%.4f,"
                "\"rounds_per_sec\":%.1f}\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(report.rounds_started),
                report.detection_rate,
                static_cast<unsigned long long>(report.false_evidence),
                static_cast<unsigned long long>(report.verify_failures),
                static_cast<unsigned long long>(report.peak_open_rounds),
                static_cast<unsigned long long>(bound),
                static_cast<unsigned long long>(report.peak_root_digests),
                static_cast<unsigned long long>(report.drain_batches),
                static_cast<unsigned long long>(report.settle_horizon_us),
                static_cast<unsigned long long>(report.p50_settle_us),
                static_cast<unsigned long long>(report.p99_settle_us),
                static_cast<unsigned long long>(report.rsa_verifies),
                static_cast<unsigned long long>(report.sig_cache_hits),
                proof_bytes_per_round, report.honest_signs_per_window,
                report.hw_threads, report.sim_ms, report.verify_ms,
                report.wall_ms, report.pipeline_overlap_ratio,
                report.rounds_per_sec);
    all_ok = all_ok && online_ok;
  }

  // Multiprocess deployment leg (DESIGN.md §14): a short storm run sharded
  // over 2 node processes + conductor. Gates BOTH parities — the report
  // fingerprint against the monolithic run, and the merged metrics shards
  // (conductor delta + every child's) against the single-process run's
  // SIM-domain metrics fingerprint. The per-rank obs_snapshot rows carry a
  // "rank" key; the single-process row above keeps its shape.
  {
    constexpr std::size_t kMpRounds = 24;
    constexpr std::size_t kMpProcesses = 2;
    scenario::MultiprocessOptions mp;
    mp.scenario = "equivocation_storm";
    mp.seed = args.seed;
    mp.rounds = kMpRounds;
    mp.processes = kMpProcesses;
    mp.self_exe = argv[0];
    const scenario::MultiprocessResult distributed =
        scenario::run_conductor(mp);
    const scenario::ScenarioReport reference = scenario::run_scenario(
        scenario::named_scenario(mp.scenario, mp.seed, mp.rounds));
    const bool fingerprint_parity =
        distributed.report.fingerprint() == reference.fingerprint();
    const bool obs_parity = distributed.merged_obs.sim_fingerprint() ==
                            reference.obs_sim_fingerprint;
    const bool mp_ok =
        fingerprint_parity && obs_parity && gates_hold(distributed.report);
    std::printf("\nmultiprocess leg: %zu rounds over %zu node processes — "
                "fingerprint %s, obs aggregation %s (%zu stats polls)\n",
                kMpRounds, kMpProcesses,
                fingerprint_parity ? "parity" : "DIVERGED",
                obs_parity ? "parity" : "DIVERGED",
                distributed.stats_timeline.size());
    std::printf("{\"bench\":\"scenarios_mp\",\"scenario\":\"%s\","
                "\"seed\":%llu,\"rounds\":%zu,\"processes\":%zu,"
                "\"fingerprint_parity\":%s,\"multiprocess_obs_parity\":%s,"
                "\"stats_polls\":%zu,\"obs_enabled\":%s}\n",
                mp.scenario.c_str(),
                static_cast<unsigned long long>(mp.seed), kMpRounds,
                kMpProcesses, fingerprint_parity ? "true" : "false",
                obs_parity ? "true" : "false",
                distributed.stats_timeline.size(),
                obs::kCompiledIn ? "true" : "false");
    for (std::size_t rank = 0; rank < distributed.child_obs.size(); ++rank) {
      std::printf("{\"bench\":\"obs_snapshot\",\"source\":\"multiprocess_"
                  "rank%zu\",\"rank\":%zu,\"seed\":%llu,\"obs_enabled\":%s,"
                  "%s}\n",
                  rank, rank, static_cast<unsigned long long>(mp.seed),
                  obs::kCompiledIn ? "true" : "false",
                  distributed.child_obs[rank].to_json_fields().c_str());
    }
    all_ok = all_ok && mp_ok;
  }

  emit_obs_snapshot("scenarios");
  std::printf("\nresult: %s\n", all_ok ? "PASS" : "FAIL");
  return all_ok ? 0 : 1;
}
