#include "scenario/runner.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/pvr_speaker.h"
#include "net/simulator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/world.h"

namespace pvr::scenario {

namespace {

[[nodiscard]] double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The simulator's handle on a World-owned node: it forwards deliveries, the
// World keeps ownership.
class SimEndpoint final : public net::Node {
 public:
  explicit SimEndpoint(core::PvrNode* node) noexcept : node_(node) {}
  void on_message(net::Transport& transport,
                  const net::Message& message) override {
    node_->on_message(transport, message);
  }

 private:
  core::PvrNode* node_;
};

}  // namespace

std::string ScenarioReport::fingerprint() const {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "%s|%s|seed=%" PRIu64 "|ases=%zu|hoods=%zu|nodes=%zu|started=%" PRIu64
      "|windows=%" PRIu64 "|coalesced=%d|attacked=%" PRIu64
      "|detected=%" PRIu64 "|evidence=%" PRIu64 "|false=%" PRIu64
      "|audit_fail=%" PRIu64 "|in=%" PRIu64 "|bundle=%" PRIu64
      "|gossip=%" PRIu64 "|total=%" PRIu64 "|gossip_msgs=%" PRIu64
      "|roots=%" PRIu64 "|proof=%" PRIu64,
      scenario.c_str(), adversary.c_str(), seed, as_count, neighborhoods,
      pvr_nodes, rounds_started, windows_fired, coalesced ? 1 : 0,
      attacked_rounds, detected_rounds, evidence_total, false_evidence,
      audit_failures, bytes_input, bytes_bundle, bytes_gossip, bytes_total,
      gossip_messages, roots_signed, proof_bytes);
  return buffer;
}

std::string ScenarioReport::to_json_line() const {
  char buffer[2048];
  std::snprintf(
      buffer, sizeof(buffer),
      "{\"bench\":\"scenarios\",\"scenario\":\"%s\",\"adversary\":\"%s\","
      "\"seed\":%" PRIu64 ",\"workers\":%zu,\"as_count\":%zu,"
      "\"neighborhoods\":%zu,\"rounds_started\":%" PRIu64
      ",\"windows_fired\":%" PRIu64 ",\"coalesced\":%s,"
      "\"roots_signed\":%" PRIu64 ",\"proof_bytes\":%" PRIu64 ","
      "\"attacked_rounds\":%" PRIu64 ",\"detected_rounds\":%" PRIu64
      ",\"detection_rate\":%.4f,\"evidence_total\":%" PRIu64
      ",\"false_evidence\":%" PRIu64 ",\"audit_failures\":%" PRIu64
      ",\"verify_failures\":%" PRIu64 ",\"online\":%s"
      ",\"peak_open_rounds\":%" PRIu64 ",\"drain_batches\":%" PRIu64
      ",\"p50_settle_us\":%" PRIu64 ",\"p99_settle_us\":%" PRIu64
      ",\"rsa_verifies\":%" PRIu64 ",\"sig_cache_hits\":%" PRIu64
      ",\"world_cache_hits\":%" PRIu64
      ",\"bytes_total\":%" PRIu64 ",\"bytes_gossip\":%" PRIu64
      ",\"gossip_messages\":%" PRIu64 ",\"peak_root_digests\":%" PRIu64
      ",\"hw_threads\":%zu,\"sim_ms\":%.1f,\"verify_ms\":%.1f"
      ",\"wall_ms\":%.1f,\"pipeline_overlap_ratio\":%.4f"
      ",\"rounds_per_sec\":%.1f}",
      scenario.c_str(), adversary.c_str(), seed, workers, as_count,
      neighborhoods, rounds_started, windows_fired, coalesced ? "true" : "false",
      roots_signed, proof_bytes, attacked_rounds, detected_rounds, detection_rate, evidence_total,
      false_evidence, audit_failures, verify_failures,
      online ? "true" : "false", peak_open_rounds, drain_batches,
      p50_settle_us, p99_settle_us, rsa_verifies, sig_cache_hits,
      world_cache_hits, bytes_total,
      bytes_gossip, gossip_messages, peak_root_digests, hw_threads, sim_ms,
      verify_ms, wall_ms, pipeline_overlap_ratio, rounds_per_sec);
  return buffer;
}

ScenarioReport run_scenario(const ScenarioSpec& spec,
                            net::MessageTrace* record) {
  // Crypto profile baseline: the report's rsa_verifies/sig_cache_hits are
  // this run's delta of the process-wide counters (scenario runs are
  // sequential within a process). Both stay 0 under -DPVR_OBS=OFF.
  const obs::HotMetrics& hot = obs::MetricsRegistry::global().hot;
  const std::uint64_t rsa_verifies_before = hot.crypto_rsa_verifies.value();
  const std::uint64_t cache_hits_before = hot.crypto_sig_cache_hits.value();
  const std::uint64_t world_hits_before = hot.crypto_world_cache_hits.value();

  // The deterministic world plan (world.h), the World built from it, and
  // the simulator as its transport, wired by the same wire_simulator the
  // multiprocess conductor uses.
  const WorldPlan plan = plan_world(spec);
  World world(spec, plan, spec.workers);
  net::Simulator sim(spec.seed);
  net::Transport& transport = sim.transport();
  if (record != nullptr) sim.set_trace(record);
  wire_simulator(
      plan, spec.seed, sim,
      [&world](bgp::AsNumber asn) -> std::unique_ptr<net::Node> {
        return std::make_unique<SimEndpoint>(world.nodes().at(asn).get());
      },
      [&world, &transport](const AppEvent& event) {
        world.apply(transport, event);
      });
  if (spec.online) world.arm_online(sim);

  // Distributed-parity baseline (DESIGN.md §14): everything from here to the
  // end of scoring is the work the multiprocess deployment shards across the
  // conductor and its children. The delta's SIM-domain fingerprint is the
  // single-process reference merged_obs must reproduce; world planning and
  // key generation above run identically in EVERY process, so the delta
  // excludes them on both sides.
  const obs::MetricsSnapshot obs_baseline =
      obs::MetricsRegistry::global().snapshot();

  const double t_sim = now_ms();
  {
    const obs::TraceSpan sim_span("scenario.sim_run", "scenario");
    sim.run();
  }
  // Drain work ran interleaved on this thread; subtract the blocked share.
  const double sim_ms = now_ms() - t_sim - world.verify_blocked_ms();
  world.finish();
  const double wall_ms = now_ms() - t_sim;

  ScenarioReport report;
  const std::vector<net::TraceProverMeta> provers = world.prover_counters();
  world.fill_report(sim.stats(), provers, report);
  report.sim_ms = sim_ms;
  report.wall_ms = wall_ms;
  // Throughput over MEASURED elapsed time: with pipelining, wall_ms can be
  // less than sim_ms + verify_ms (the overlapped share is counted in both),
  // and the rate should credit that overlap.
  report.rounds_per_sec =
      wall_ms <= 0.0 ? 0.0
                     : static_cast<double>(report.rounds_started) /
                           (wall_ms / 1000.0);
  report.rsa_verifies = hot.crypto_rsa_verifies.value() - rsa_verifies_before;
  report.sig_cache_hits =
      hot.crypto_sig_cache_hits.value() - cache_hits_before;
  report.world_cache_hits =
      hot.crypto_world_cache_hits.value() - world_hits_before;

  // Finalize the recorded trace: identity, the run's wire stats, and the
  // per-prover round counters replay_trace() reports instead of replaying
  // the provers' dynamic window machinery (DESIGN.md §13).
  if (record != nullptr) {
    sim.set_trace(nullptr);
    record->scenario = spec.name;
    record->seed = spec.seed;
    record->backend = "sim";
    record->stats = sim.stats();
    record->provers = provers;
  }

  report.obs_sim_fingerprint =
      obs::MetricsSnapshot::delta(obs::MetricsRegistry::global().snapshot(),
                                  obs_baseline)
          .sim_fingerprint();
  return report;
}

std::vector<std::string> scenario_names() {
  return {"equivocation_storm", "batch_split_evasion", "drop_replay_chaos"};
}

ScenarioSpec named_scenario(std::string_view name, std::uint64_t seed,
                            std::size_t rounds) {
  ScenarioSpec spec;
  spec.name = std::string(name);
  spec.seed = seed;
  spec.rounds = rounds;
  spec.topology.as_count = 1200;
  spec.neighborhoods = 6;
  if (name == "equivocation_storm") {
    // Dense Poisson arrivals against a deadline five times the collection
    // window: THE workload that finally coalesces staggered start_round
    // arrivals into shared aggregation windows.
    spec.adversary = "equivocator";
    spec.traffic.process = ArrivalProcess::kPoisson;
    spec.traffic.mean_interarrival_us = 1200;
    spec.batch_deadline = 20'000;
    return spec;
  }
  if (name == "batch_split_evasion") {
    // Bursts land several prefixes per neighborhood in one window; the
    // prover answers each burst with TWO signed windows claiming the same
    // prefixes (no shared batch number to pair on).
    spec.adversary = "batch_split";
    spec.traffic.process = ArrivalProcess::kBursty;
    spec.traffic.burst_size = 18;
    spec.traffic.mean_interarrival_us = 25'000;
    spec.batch_deadline = 15'000;
    return spec;
  }
  if (name == "drop_replay_chaos") {
    // Equivocating provers behind a hostile wire: gossip selectively
    // dropped, delayed, and stale roots replayed with reset hop counts.
    spec.adversary = "delay_replay";
    spec.traffic.process = ArrivalProcess::kPoisson;
    spec.traffic.mean_interarrival_us = 2000;
    spec.batch_deadline = 12'000;
    return spec;
  }
  throw std::invalid_argument("named_scenario: unknown scenario '" +
                              std::string(name) + "'");
}

}  // namespace pvr::scenario
