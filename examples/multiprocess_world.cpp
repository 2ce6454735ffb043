// Multi-process scenario deployment over loopback TCP (DESIGN.md §13).
//
// The conductor forks N node processes (this same binary re-exec'd with
// --node), runs a named scenario in lockstep over real sockets, and then
// proves the distributed run IS the simulated run:
//
//   1. the distributed report fingerprint equals a pure run_scenario() of
//      the same spec, byte for byte, and the conductor's delivery trace
//      equals that run's recorded trace entry by entry (sequence, time,
//      encoded message),
//   2. the conductor's trace replays through scenario::replay_trace
//      (SimTransport machinery) to the same fingerprint at workers 1, 2,
//      and 8,
//   3. the attack is fully detected with zero false evidence,
//   4. the conductor's merged metrics shards (its own delta + every
//      child's) reproduce the single-process run's SIM-domain metrics
//      fingerprint byte for byte (DESIGN.md §14),
//   5. the stats timeline has a point for every rank, each rank's time and
//      send count never decrease, and no point's peak open rounds exceed
//      the simulated run's.
//
//   ./example_multiprocess_world [--scenario=NAME] [--seed=N]
//                                [--rounds=N] [--processes=N]
//                                [--trace-out=BASE] [--obs-out=PATH]
//
// --trace-out arms Chrome tracing in every process and stitches the shards
// into BASE.json; --obs-out appends the machine-readable parity row plus
// one obs_snapshot row per rank and the per-grant stats timeline to PATH
// (the multiprocess-smoke CI artifacts).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/frame.h"
#include "net/message_trace.h"
#include "obs/metrics.h"
#include "scenario/multiprocess.h"
#include "scenario/replay.h"
#include "scenario/runner.h"

int main(int argc, char** argv) {
  using namespace pvr;

  // Node-process re-exec path (spawned by the conductor, not by hand).
  if (const auto code = scenario::node_process_main(argc, argv)) return *code;

  scenario::MultiprocessOptions options;
  options.self_exe = argv[0];
  std::string obs_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scenario=", 11) == 0) {
      options.scenario = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      options.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--rounds=", 9) == 0) {
      options.rounds = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--processes=", 12) == 0) {
      options.processes = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      options.trace_base = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--obs-out=", 10) == 0) {
      obs_out = argv[i] + 10;
    }
  }

  std::printf("multiprocess deployment: %s, seed %llu, %zu rounds, "
              "%zu node processes + conductor\n",
              options.scenario.c_str(),
              static_cast<unsigned long long>(options.seed), options.rounds,
              options.processes);

  const scenario::MultiprocessResult distributed =
      scenario::run_conductor(options);
  std::printf("  distributed: %llu/%llu attacked rounds detected, "
              "%llu evidence items (%llu false), %zu messages traced\n",
              static_cast<unsigned long long>(
                  distributed.report.detected_rounds),
              static_cast<unsigned long long>(
                  distributed.report.attacked_rounds),
              static_cast<unsigned long long>(
                  distributed.report.evidence_total),
              static_cast<unsigned long long>(
                  distributed.report.false_evidence),
              distributed.trace.entries.size());

  if (distributed.report.detection_rate != 1.0 ||
      distributed.report.false_evidence != 0 ||
      distributed.report.verify_failures != 0) {
    std::printf("FAIL: distributed run missed the attack or fabricated "
                "evidence\n");
    return 1;
  }

  // Parity leg 1: the monolithic simulator run of the same spec.
  const scenario::ScenarioSpec spec = scenario::named_scenario(
      options.scenario, options.seed, options.rounds);
  net::MessageTrace recorded;
  const scenario::ScenarioReport simulated =
      scenario::run_scenario(spec, &recorded);
  if (simulated.fingerprint() != distributed.report.fingerprint()) {
    std::printf("FAIL: distributed fingerprint diverges from the "
                "simulator run\n  sim: %s\n  dist: %s\n",
                simulated.fingerprint().c_str(),
                distributed.report.fingerprint().c_str());
    return 1;
  }
  const auto same_entry = [](const net::TraceEntry& a,
                             const net::TraceEntry& b) {
    return a.sequence == b.sequence && a.at == b.at &&
           net::encode_message_body(a.message) ==
               net::encode_message_body(b.message);
  };
  if (!std::equal(distributed.trace.entries.begin(),
                  distributed.trace.entries.end(), recorded.entries.begin(),
                  recorded.entries.end(), same_entry)) {
    std::printf("FAIL: conductor trace diverges from the simulator run's "
                "(%zu vs %zu entries)\n",
                distributed.trace.entries.size(), recorded.entries.size());
    return 1;
  }
  std::printf("  fingerprint parity: distributed == simulated; %zu trace "
              "entries identical\n",
              recorded.entries.size());

  // Parity leg 4 (DESIGN.md §14): the merged metrics shards — conductor
  // delta + every child's — must carry the exact SIM-domain section the
  // single-process run recorded. Trivially equal (all zeros) under
  // -DPVR_OBS=OFF, byte-identical counters when compiled in.
  const bool obs_parity =
      distributed.merged_obs.sim_fingerprint() == simulated.obs_sim_fingerprint;
  if (!obs_parity) {
    std::printf("FAIL: merged obs shards diverge from the single-process "
                "run\n  sim:  %s\n  dist: %s\n",
                simulated.obs_sim_fingerprint.c_str(),
                distributed.merged_obs.sim_fingerprint().c_str());
    return 1;
  }
  std::printf("  obs aggregation parity: %zu shards merged == single-process "
              "(%zu stats points)\n",
              distributed.child_obs.size() + 1,
              distributed.stats_timeline.size());

  // The stats timeline: every rank was granted at least once, each rank's
  // time and send count never go back, and no child's peak exceeds the
  // single-process peak over all nodes.
  for (std::size_t rank = 0; rank < options.processes; ++rank) {
    const scenario::MultiprocessResult::StatsPoint* last = nullptr;
    for (const auto& point : distributed.stats_timeline) {
      if (point.rank != rank) continue;
      if (last != nullptr && (point.at_us < last->at_us ||
                              point.messages_sent < last->messages_sent)) {
        std::printf("FAIL: rank %zu's stats timeline goes back in time or "
                    "sends\n",
                    rank);
        return 1;
      }
      if (point.peak_open_rounds < 0 ||
          static_cast<std::uint64_t>(point.peak_open_rounds) >
              simulated.peak_open_rounds) {
        std::printf("FAIL: rank %zu's peak open rounds %lld exceed the "
                    "simulated run's %llu\n",
                    rank, static_cast<long long>(point.peak_open_rounds),
                    static_cast<unsigned long long>(
                        simulated.peak_open_rounds));
        return 1;
      }
      last = &point;
    }
    if (last == nullptr) {
      std::printf("FAIL: rank %zu has no stats timeline point\n", rank);
      return 1;
    }
  }
  std::printf("  stats timeline: every rank sampled, monotone, peak within "
              "the simulated run's %llu\n",
              static_cast<unsigned long long>(simulated.peak_open_rounds));
  if (!distributed.merged_trace_path.empty()) {
    std::printf("  merged trace: %s\n", distributed.merged_trace_path.c_str());
  }

  // Machine-readable artifact rows (multiprocess-smoke CI): the parity gate
  // row, one obs_snapshot row per rank, and a per-rank poll summary.
  if (!obs_out.empty()) {
    std::FILE* out = std::fopen(obs_out.c_str(), "w");
    if (out == nullptr) {
      std::printf("FAIL: cannot open --obs-out=%s\n", obs_out.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\"bench\":\"multiprocess_obs\",\"scenario\":\"%s\","
                 "\"seed\":%llu,\"rounds\":%zu,\"processes\":%zu,"
                 "\"obs_enabled\":%s,\"multiprocess_obs_parity\":%s,"
                 "\"stats_polls\":%zu}\n",
                 options.scenario.c_str(),
                 static_cast<unsigned long long>(options.seed), options.rounds,
                 options.processes, obs::kCompiledIn ? "true" : "false",
                 obs_parity ? "true" : "false",
                 distributed.stats_timeline.size());
    std::fprintf(out,
                 "{\"bench\":\"obs_snapshot\",\"source\":\"multiprocess_"
                 "merged\",\"seed\":%llu,\"obs_enabled\":%s,%s}\n",
                 static_cast<unsigned long long>(options.seed),
                 obs::kCompiledIn ? "true" : "false",
                 distributed.merged_obs.to_json_fields().c_str());
    for (std::size_t rank = 0; rank < distributed.child_obs.size(); ++rank) {
      std::fprintf(out,
                   "{\"bench\":\"obs_snapshot\",\"source\":\"multiprocess_"
                   "rank%zu\",\"rank\":%zu,\"seed\":%llu,\"obs_enabled\":%s,"
                   "%s}\n",
                   rank, rank, static_cast<unsigned long long>(options.seed),
                   obs::kCompiledIn ? "true" : "false",
                   distributed.child_obs[rank].to_json_fields().c_str());
    }
    // Per-rank summary of the per-grant points: how the gauges moved.
    for (std::size_t rank = 0; rank < options.processes; ++rank) {
      std::size_t polls = 0;
      long long max_open = 0;
      long long peak_open = 0;
      unsigned long long last_verifies = 0;
      unsigned long long last_sent = 0;
      for (const auto& point : distributed.stats_timeline) {
        if (point.rank != rank) continue;
        polls += 1;
        max_open = std::max<long long>(max_open, point.open_rounds);
        peak_open = std::max<long long>(peak_open, point.peak_open_rounds);
        last_verifies = point.rsa_verifies;
        last_sent = point.messages_sent;
      }
      std::fprintf(out,
                   "{\"bench\":\"obs_stats_poll\",\"rank\":%zu,\"polls\":%zu,"
                   "\"max_open_rounds\":%lld,\"peak_open_rounds\":%lld,"
                   "\"rsa_verifies\":%llu,\"messages_sent\":%llu}\n",
                   rank, polls, max_open, peak_open, last_verifies, last_sent);
    }
    std::fclose(out);
    std::printf("  obs rows: %s\n", obs_out.c_str());
  }

  // Parity leg 2: the collected trace replays through the simulator-side
  // machinery to the same fingerprint at every worker count.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const scenario::ScenarioReport replayed =
        scenario::replay_trace(spec, distributed.trace, workers);
    if (replayed.fingerprint() != distributed.report.fingerprint()) {
      std::printf("FAIL: trace replay at %zu workers diverges\n", workers);
      return 1;
    }
  }
  std::printf("  trace replay parity: workers 1, 2, 8 all match\n");
  std::printf("OK\n");
  return 0;
}
