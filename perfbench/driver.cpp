// End-to-end benchmark driver: runs one workload repeatedly for a fixed
// measuring time and prints one JSON row per repetition (raw timings, work
// counts and the correctness fields), for run.py to aggregate.
//
//   pvr_perfbench --workload storm_online --seed 1 --seconds 45
//   pvr_perfbench --workload storm_reverify --seed 1 --trace-out t.json
//
// Workloads (the equivocation_storm preset: 1200 ASes, 6 neighbourhoods,
// 1200 rounds per repetition):
//   storm_online    run_scenario, online pipelined verification
//   storm_reverify  replay_trace of a trace recorded (untimed, once per
//                   process) from the storm_online spec, verified offline
//
// Every repetition first times plan_world() on its own (world planning and
// RSA key generation), then times the workload call. Work counts are the
// obs registry delta of the call minus the delta of that separate
// plan_world, so they cover exactly the simulated and verified work.
//
// With --settle-trace, one further untimed repetition (storm_reverify: the
// recording run) runs with the Chrome trace armed, whose round.settle spans
// give every round's exact simulated settle latency.
//
// With --trace-out the driver instead runs one untraced reference
// repetition and one repetition with the Chrome trace armed (written to the
// given path), and times sign_message, VerifyContext::verify (cache off) and
// sha256 on the workload's own keys and mean message size around the latter.
//
// Every row carries the workload and seed. The process exits nonzero only
// on a usage error or an exception; correctness is judged by run.py.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <limits>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/keys.h"
#include "core/verify_context.h"
#include "crypto/sha256.h"
#include "net/message_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/replay.h"
#include "scenario/runner.h"
#include "scenario/world.h"

namespace {

using namespace pvr;

constexpr std::size_t kRounds = 1200;  // per repetition
constexpr int kMinReps = 3;

[[nodiscard]] double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU of the whole process (all threads, live or joined).
[[nodiscard]] double process_cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

[[nodiscard]] long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct Workload {
  std::string name;
  bool reverify = false;
};

[[nodiscard]] std::optional<Workload> find_workload(std::string_view name) {
  if (name == "storm_online") return Workload{"storm_online", false};
  if (name == "storm_reverify") return Workload{"storm_reverify", true};
  return std::nullopt;
}

[[nodiscard]] std::size_t engine_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

// Work counts of one measured call: registry delta of the call minus the
// delta of a separate plan_world of the same spec.
struct Counts {
  std::map<std::string, std::uint64_t> scalars;
  std::map<std::string, obs::HistogramSnapshot> histograms;
  std::string sim_fingerprint;  // SIM section of the call's raw delta
};

[[nodiscard]] std::uint64_t saturating_sub(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : 0;
}

[[nodiscard]] Counts counts_between(const obs::MetricsSnapshot& call,
                                    const obs::MetricsSnapshot& plan) {
  Counts counts;
  for (const auto& entry : call.scalars) counts.scalars[entry.name] = entry.value;
  for (const auto& entry : plan.scalars) {
    auto& value = counts.scalars[entry.name];
    value = saturating_sub(value, entry.value);
  }
  for (const auto& entry : call.histograms) {
    counts.histograms[entry.name] = entry.hist;
  }
  for (const auto& entry : plan.histograms) {
    obs::HistogramSnapshot& hist = counts.histograms[entry.name];
    hist.count = saturating_sub(hist.count, entry.hist.count);
    hist.sum = saturating_sub(hist.sum, entry.hist.sum);
  }
  counts.sim_fingerprint = crypto::digest_hex(crypto::sha256(call.sim_fingerprint()));
  return counts;
}

[[nodiscard]] std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

[[nodiscard]] std::string counts_json(const Counts& counts) {
  std::string out = "{";
  bool first = true;
  const auto key = [&](const std::string& name) {
    if (!first) out += ',';
    first = false;
    out += '"' + json_escape(name) + "\":";
  };
  for (const auto& [name, value] : counts.scalars) {
    key(name);
    out += std::to_string(value);
  }
  for (const auto& [name, hist] : counts.histograms) {
    key(name);
    out += "{\"count\":" + std::to_string(hist.count) +
           ",\"sum\":" + std::to_string(hist.sum) + "}";
  }
  return out + "}";
}

struct RepResult {
  double plan_ms = 0;
  double plan_cpu_ms = 0;
  double call_ms = 0;
  double call_cpu_ms = 0;
  scenario::ScenarioReport report;
  Counts counts;
};

// One repetition: a separately timed plan_world, then the workload call.
[[nodiscard]] RepResult run_rep(const Workload& workload,
                                const scenario::ScenarioSpec& spec,
                                const net::MessageTrace* trace) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  RepResult rep;
  obs::MetricsSnapshot plan_delta;
  {
    const obs::MetricsSnapshot before = registry.snapshot();
    const double cpu0 = process_cpu_ms();
    const double t0 = now_ms();
    const scenario::WorldPlan plan = scenario::plan_world(spec);
    rep.plan_ms = now_ms() - t0;
    rep.plan_cpu_ms = process_cpu_ms() - cpu0;
    plan_delta = obs::MetricsSnapshot::delta(registry.snapshot(), before);
  }
  const obs::MetricsSnapshot before = registry.snapshot();
  const double cpu0 = process_cpu_ms();
  const double t0 = now_ms();
  rep.report = workload.reverify
                   ? scenario::replay_trace(spec, *trace, spec.workers)
                   : scenario::run_scenario(spec);
  rep.call_ms = now_ms() - t0;
  rep.call_cpu_ms = process_cpu_ms() - cpu0;
  rep.counts = counts_between(
      obs::MetricsSnapshot::delta(registry.snapshot(), before), plan_delta);
  return rep;
}

void print_rep(const char* row, const Workload& workload, std::uint64_t seed,
               int index, const RepResult& rep) {
  const scenario::ScenarioReport& r = rep.report;
  std::printf(
      "{\"row\":\"%s\",\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"rep\":%d,"
      "\"workers\":%zu,\"plan_ms\":%.4f,\"plan_cpu_ms\":%.4f,"
      "\"call_ms\":%.4f,\"call_cpu_ms\":%.4f,\"wall_ms\":%.4f,"
      "\"verify_ms\":%.4f,\"pipeline_overlap_ratio\":%.6f,"
      "\"rounds\":%" PRIu64 ",\"attacked_rounds\":%" PRIu64
      ",\"detected_rounds\":%" PRIu64 ",\"detection_rate\":%.6f,"
      "\"evidence_total\":%" PRIu64 ",\"false_evidence\":%" PRIu64
      ",\"audit_failures\":%" PRIu64 ",\"verify_failures\":%" PRIu64
      ",\"drain_batches\":%" PRIu64 ",\"peak_open_rounds\":%" PRIu64
      ",\"peak_root_digests\":%" PRIu64 ",\"bytes_total\":%" PRIu64
      ",\"bytes_gossip\":%" PRIu64 ",\"gossip_messages\":%" PRIu64
      ",\"fingerprint\":\"%s\",\"sim_fingerprint\":\"%s\",\"counts\":%s}\n",
      row, workload.name.c_str(), seed, index, r.workers, rep.plan_ms,
      rep.plan_cpu_ms, rep.call_ms, rep.call_cpu_ms, r.wall_ms, r.verify_ms,
      r.pipeline_overlap_ratio, r.rounds_started, r.attacked_rounds, r.detected_rounds, r.detection_rate, r.evidence_total,
      r.false_evidence, r.audit_failures, r.verify_failures, r.drain_batches,
      r.peak_open_rounds, r.peak_root_digests, r.bytes_total, r.bytes_gossip,
      r.gossip_messages, json_escape(r.fingerprint()).c_str(),
      rep.counts.sim_fingerprint.c_str(), counts_json(rep.counts).c_str());
  std::fflush(stdout);
}

// Per-operation cost (µs) of `op(i)`: the fastest of `batches` timed batches
// of `per_batch` calls, i.e. the cost with the least interference from
// other load, so count x cost estimates err low.
template <typename Op>
[[nodiscard]] double min_op_us(int batches, int per_batch, Op&& op) {
  std::vector<double> samples;
  int i = 0;
  for (int b = 0; b < batches; ++b) {
    const double t0 = now_ms();
    for (int k = 0; k < per_batch; ++k) op(i++);
    samples.push_back((now_ms() - t0) * 1e3 / per_batch);
  }
  return *std::min_element(samples.begin(), samples.end());
}

struct OpCosts {
  double sign_us = std::numeric_limits<double>::infinity();
  double verify_us = std::numeric_limits<double>::infinity();
  double hash_us = std::numeric_limits<double>::infinity();
  bool signatures_valid = true;
};

// Times sign_message, VerifyContext::verify (cache off) and sha256 on the
// workload's own keys at its mean wire message size, folding the fastest
// batch of each into `costs`. The traced run samples right before and right
// after its traced repetition, so a slow spell of the host during one
// sample cannot inflate the count x cost estimates.
void sample_op_costs(const scenario::WorldPlan& plan, const core::VerifyContext& ctx,
                     std::vector<std::uint8_t>& payload, OpCosts& costs) {
  std::vector<std::pair<bgp::AsNumber, const crypto::RsaPrivateKey*>> signers;
  for (const auto& [asn, pair] : plan.keys.private_keys) {
    signers.emplace_back(asn, &pair.priv);
    if (signers.size() == 16) break;
  }
  constexpr int kBatches = 9;
  std::vector<core::SignedMessage> signed_messages;
  costs.sign_us = std::min(costs.sign_us, min_op_us(kBatches, 200, [&](int i) {
    payload[0] = static_cast<std::uint8_t>(i);
    payload[1] = static_cast<std::uint8_t>(i >> 8);
    const auto& [asn, key] = signers[static_cast<std::size_t>(i) % signers.size()];
    core::SignedMessage message = core::sign_message(asn, *key, payload);
    if (signed_messages.size() < 256) signed_messages.push_back(std::move(message));
  }));

  for (const core::SignedMessage& message : signed_messages) {
    // Also warms the per-key precompute before timing.
    costs.signatures_valid = ctx.verify(message) && costs.signatures_valid;
  }
  costs.verify_us = std::min(costs.verify_us, min_op_us(kBatches, 1000, [&](int i) {
    const core::SignedMessage& message =
        signed_messages[static_cast<std::size_t>(i) % signed_messages.size()];
    if (!ctx.verify(message)) costs.signatures_valid = false;
  }));

  static volatile std::uint8_t sink = 0;
  costs.hash_us = std::min(costs.hash_us, min_op_us(kBatches, 4000, [&](int i) {
    payload[0] = static_cast<std::uint8_t>(i);
    sink = sink ^ crypto::sha256(std::span<const std::uint8_t>(payload))[0];
  }));
}

void print_op_costs(const Workload& workload, const scenario::ScenarioSpec& spec,
                    std::size_t message_bytes, const OpCosts& costs) {
  std::printf(
      "{\"row\":\"op_costs\",\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"message_bytes\":%zu,\"key_bits\":%zu,\"sign_us\":%.4f,"
      "\"verify_us\":%.4f,\"sha256_mb_per_s\":%.4f,\"signatures_valid\":%s}\n",
      workload.name.c_str(), spec.seed, message_bytes, spec.key_bits, costs.sign_us,
      costs.verify_us,
      static_cast<double>(message_bytes) / costs.hash_us,  // bytes/µs == MB/s
      costs.signatures_valid ? "true" : "false");
  std::fflush(stdout);
}

// Arms the global Chrome trace; finish_trace writes it to `path`.
void start_trace(const std::string& path) {
  if (!obs::TraceWriter::global().open(path)) {
    throw std::runtime_error("tracing is compiled out");
  }
}

void finish_trace(const std::string& path) {
  if (!obs::TraceWriter::global().close()) {
    throw std::runtime_error("could not write " + path);
  }
}

[[nodiscard]] int usage() {
  std::fprintf(stderr,
               "usage: pvr_perfbench --workload storm_online|storm_reverify "
               "--seed N [--seconds S] "
               "[--settle-trace PATH | --trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  std::string settle_trace;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--settle-trace") {
      settle_trace = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1) return usage();
  const std::optional<Workload> workload = find_workload(workload_name);
  if (!workload) return usage();

  scenario::ScenarioSpec spec = scenario::named_scenario("equivocation_storm", seed, kRounds);
  spec.online = true;
  spec.workers = engine_workers();

  long peak_kb = 0;
  try {
    // storm_reverify: record the storm_online run once. Set-up, untimed;
    // with --settle-trace its settle spans are captured.
    net::MessageTrace trace;
    std::size_t message_bytes = 0;
    if (workload->reverify) {
      if (!settle_trace.empty()) start_trace(settle_trace);
      RepResult record;
      const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
      record.report = scenario::run_scenario(spec, &trace);
      record.counts = counts_between(
          obs::MetricsSnapshot::delta(obs::MetricsRegistry::global().snapshot(), before),
          obs::MetricsSnapshot{});
      if (!settle_trace.empty()) finish_trace(settle_trace);
      print_rep("record", *workload, seed, 0, record);
      message_bytes = record.report.bytes_total /
                      std::max<std::uint64_t>(1, record.counts.scalars["sim.messages"]);
    }

    if (!trace_out.empty()) {
      const RepResult reference = run_rep(*workload, spec, &trace);
      print_rep("reference", *workload, seed, 0, reference);
      if (!workload->reverify) {
        message_bytes = reference.report.bytes_total /
                        std::max<std::uint64_t>(
                            1, reference.counts.scalars.at("sim.messages"));
      }
      const scenario::WorldPlan plan = scenario::plan_world(spec);
      const core::VerifyContext ctx(&plan.keys.directory, /*cache_verdicts=*/false);
      message_bytes = std::max<std::size_t>(message_bytes, 8);
      std::vector<std::uint8_t> payload(message_bytes);
      for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
      }
      OpCosts costs;
      sample_op_costs(plan, ctx, payload, costs);
      start_trace(trace_out);
      const RepResult traced = run_rep(*workload, spec, &trace);
      finish_trace(trace_out);
      sample_op_costs(plan, ctx, payload, costs);
      print_rep("traced", *workload, seed, 0, traced);
      peak_kb = peak_rss_kb();
      print_op_costs(*workload, spec, message_bytes, costs);
    } else {
      double measured_ms = 0;
      for (int rep = 0; rep < kMinReps || measured_ms < seconds * 1e3; ++rep) {
        const RepResult result = run_rep(*workload, spec, &trace);
        measured_ms += result.call_ms;
        print_rep("rep", *workload, seed, rep, result);
      }
      peak_kb = peak_rss_kb();
      // The settle latencies are simulated and identical in every
      // repetition: one more, untimed, with the trace armed records each
      // round's exact latency as a round.settle span.
      if (!settle_trace.empty() && !workload->reverify) {
        start_trace(settle_trace);
        const RepResult settle = run_rep(*workload, spec, &trace);
        finish_trace(settle_trace);
        print_rep("settle", *workload, seed, 0, settle);
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pvr_perfbench: %s\n", error.what());
    return 1;
  }
  std::printf("{\"row\":\"process\",\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"peak_rss_kb\":%ld}\n",
              workload->name.c_str(), seed, peak_kb);
  return 0;
}
