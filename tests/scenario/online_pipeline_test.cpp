// Online window-close verification pipeline (DESIGN.md §10): the same
// ScenarioSpec verified ONLINE — rounds submitted to the long-lived engine
// as their windows settle, drained every drain_interval_us of simulated
// time, settled state GC'd — must produce a report fingerprint and
// evidence digest byte-identical to the OFFLINE run at every drain interval
// and worker count, and per-node memory must be bounded by concurrently-open windows
// instead of trace length.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/adversary.h"
#include "scenario/runner.h"

namespace pvr::scenario {
namespace {

[[nodiscard]] ScenarioSpec parity_spec(const std::string& adversary,
                                       std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "online_parity_" + adversary;
  spec.seed = seed;
  spec.adversary = adversary;
  spec.topology.as_count = 400;
  spec.topology.tier1_count = 6;
  spec.neighborhoods = 2;
  spec.min_providers = 4;
  spec.max_providers = 4;
  // Long enough that the trace outlives the settle horizon several times
  // over — shorter traces quiesce before any round settles, degenerating
  // online mode into one tail flush that proves nothing about interleaving.
  spec.rounds = 120;
  spec.attacked_fraction = 0.5;
  spec.traffic.mean_interarrival_us = 2000;
  spec.batch_deadline = 10'000;
  return spec;
}

// Drain intervals in collection-window units: every window (1), a drain
// lagging several windows (7), and one so coarse most of the trace settles
// between two drains (64). The fingerprint must not notice.
class OnlineParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OnlineParityTest, FingerprintMatchesOfflineAtEveryDrainScheduleAndWorkerCount) {
  const std::string adversary = GetParam();
  const ScenarioSpec offline_spec = parity_spec(adversary, 33);
  const ScenarioReport offline = run_scenario(offline_spec);
  ASSERT_EQ(offline.detection_rate, 1.0) << adversary;
  ASSERT_EQ(offline.false_evidence, 0u) << adversary;
  ASSERT_EQ(offline.verify_failures, 0u) << adversary;
  ASSERT_FALSE(offline.online);

  for (const net::SimTime windows : {1u, 7u, 64u}) {
    for (const std::size_t workers : {1u, 2u, 8u}) {
      ScenarioSpec spec = parity_spec(adversary, 33);
      spec.online = true;
      spec.drain_interval_us = spec.collect_window * windows;
      spec.workers = workers;
      const ScenarioReport online = run_scenario(spec);
      EXPECT_EQ(online.fingerprint(), offline.fingerprint())
          << adversary << " diverged at drain interval " << windows
          << " windows, " << workers << " workers";
      EXPECT_EQ(online.evidence_digest, offline.evidence_digest)
          << adversary << " applied evidence in another order at drain "
          << "interval " << windows << " windows, " << workers << " workers";
      EXPECT_EQ(online.verify_failures, 0u);
      EXPECT_EQ(online.detection_rate, 1.0);
      EXPECT_EQ(online.false_evidence, 0u);
      EXPECT_TRUE(online.online);
      EXPECT_GE(online.drain_batches, 1u);
      if (windows == 1) {
        // A per-window drain cadence must actually interleave with the
        // simulation, not degenerate into one big tail flush.
        EXPECT_GT(online.drain_batches, 2u) << adversary;
      }
    }
  }
}

// Every registered strategy: the wire-chaos ones (dropped, muted, delayed
// and replayed root gossip) are the settle-horizon stress. An understated
// horizon would snapshot rounds before their last root arrived and break
// parity exactly there.
INSTANTIATE_TEST_SUITE_P(Adversaries, OnlineParityTest,
                         ::testing::ValuesIn([] {
                           std::vector<std::string> names;
                           for (const std::string_view name : adversary_names()) {
                             names.emplace_back(name);
                           }
                           return names;
                         }()));

TEST(OnlinePipelineTest, RejectsZeroDrainInterval) {
  ScenarioSpec spec = parity_spec("honest", 1);
  spec.online = true;
  spec.drain_interval_us = 0;
  EXPECT_THROW((void)run_scenario(spec), std::invalid_argument);
}

TEST(OnlinePipelineTest, ReportMarksOnlineModeAndJsonCarriesGatedFields) {
  ScenarioSpec spec = parity_spec("equivocator", 5);
  spec.online = true;
  const ScenarioReport report = run_scenario(spec);
  const std::string json = report.to_json_line();
  EXPECT_NE(json.find("\"online\":true"), std::string::npos);
  EXPECT_NE(json.find("\"verify_failures\":0"), std::string::npos);
  EXPECT_NE(json.find("\"peak_open_rounds\":"), std::string::npos);
}

// The GC proof: a 50k-round online trace must complete with every node's
// open-round high-water mark bounded by the rounds that can be concurrently
// unsettled (windows still collecting, in their settle horizon, or awaiting
// the next drain) — NOT by trace length — while every attacked round still
// ends detected with auditor-valid evidence and zero false accusations.
// Sanitizer builds run the same pipeline at 10k rounds to stay inside the
// per-test timeout; the peak bound derives from the spec's timing, not the
// trace length, so the assertion is equally sharp at either size.
#ifndef __has_feature
#define __has_feature(x) 0  // GCC spells it __SANITIZE_*__ instead
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr std::size_t kLongTraceRounds = 10'000;
#else
constexpr std::size_t kLongTraceRounds = 50'000;
#endif

TEST(OnlinePipelineTest, GcBoundsOpenRoundsOnFiftyThousandRoundTrace) {
  ScenarioSpec spec;
  spec.name = "online_gc_long_trace";
  spec.seed = 7;
  spec.adversary = "equivocator";
  spec.topology.as_count = 400;
  spec.topology.tier1_count = 6;
  // Two lean neighborhoods (2 providers each) keep the 50k-round trace
  // inside the test-suite time budget; one of them is attacked.
  spec.neighborhoods = 2;
  spec.min_providers = 2;
  spec.max_providers = 2;
  spec.attacked_fraction = 0.5;
  spec.rounds = kLongTraceRounds;
  spec.traffic.mean_interarrival_us = 400;
  spec.traffic.process = ArrivalProcess::kUniform;
  spec.batch_deadline = 8'000;
  spec.online = true;
  spec.drain_interval_us = 20'000;
  const ScenarioReport report = run_scenario(spec);

  EXPECT_EQ(report.rounds_started, kLongTraceRounds);
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_EQ(report.detection_rate, 1.0);
  EXPECT_EQ(report.false_evidence, 0u);
  EXPECT_EQ(report.audit_failures, 0u);
  EXPECT_GT(report.evidence_total, 0u);  // evidence survived the GC

  // Concurrently-unsettled span: collection window + batching deadline +
  // settle horizon (the one the runner actually derived and waited out,
  // echoed in the report) + one drain interval. With one arrival every
  // 400 µs round-robined over 2 neighborhoods, the rounds a node can hold
  // at once are span / (2 * 400 µs); 4x covers jitter, partial batches,
  // and any horizon slack — far under the full trace an unbounded node
  // would hold.
  ASSERT_GT(report.settle_horizon_us, 0u);
  const std::uint64_t span_us =
      4000 + 8000 + report.settle_horizon_us + 20'000;
  const std::uint64_t bound = 4 * span_us / (2 * 400);
  EXPECT_LE(report.peak_open_rounds, bound);
  EXPECT_LT(report.peak_open_rounds, report.rounds_started / 20);
  EXPECT_GT(report.drain_batches, 100u);
}

}  // namespace
}  // namespace pvr::scenario
