// Trace record → replay determinism (DESIGN.md §13): a scenario run that
// records its delivery trace must (a) be unperturbed by the recording,
// (b) replay through scenario::replay_trace to a byte-identical report
// fingerprint at EVERY engine worker count, and (c) survive a full
// serialize → deserialize round trip of the trace. This is the bridge that
// makes the multiprocess deployment auditable: any backend that can
// produce a MessageTrace can be re-verified deterministically.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "net/message_trace.h"
#include "obs/metrics.h"
#include "scenario/replay.h"
#include "scenario/runner.h"

namespace pvr::scenario {
namespace {

[[nodiscard]] ScenarioSpec replay_spec(const std::string& adversary,
                                       std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "trace_replay_" + adversary;
  spec.seed = seed;
  spec.adversary = adversary;
  spec.topology.as_count = 400;
  spec.topology.tier1_count = 6;
  spec.neighborhoods = 2;
  spec.min_providers = 4;
  spec.max_providers = 4;
  spec.rounds = 60;
  spec.attacked_fraction = 0.5;
  spec.traffic.mean_interarrival_us = 2000;
  // Coalescing on: replay must reproduce aggregated-window traffic too.
  spec.batch_deadline = 10'000;
  return spec;
}

class TraceReplayTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TraceReplayTest, ReplayMatchesRecordedFingerprintAtEveryWorkerCount) {
  const std::string adversary = GetParam();
  const ScenarioSpec spec = replay_spec(adversary, 77);

  const ScenarioReport baseline = run_scenario(spec);

  net::MessageTrace trace;
  const ScenarioReport recorded = run_scenario(spec, &trace);
  // Recording is observation only — it must not perturb the run.
  EXPECT_EQ(recorded.fingerprint(), baseline.fingerprint());
  EXPECT_EQ(recorded.evidence_digest, baseline.evidence_digest);
  ASSERT_FALSE(trace.entries.empty());
  EXPECT_EQ(trace.scenario, spec.name);
  EXPECT_EQ(trace.seed, spec.seed);
  EXPECT_EQ(trace.backend, "sim");
  EXPECT_EQ(trace.stats.messages_delivered, trace.entries.size());

  for (const std::size_t workers : {1u, 2u, 8u}) {
    const ScenarioReport replayed = replay_trace(spec, trace, workers);
    EXPECT_EQ(replayed.fingerprint(), baseline.fingerprint())
        << adversary << " replay at " << workers << " workers";
    // Offline verification applies evidence in arrival order on both
    // sides, so the order-pinning digest must match too — a strictly
    // stronger claim than the fingerprint's counts.
    EXPECT_EQ(replayed.evidence_digest, baseline.evidence_digest)
        << adversary << " replay at " << workers << " workers";
    EXPECT_EQ(replayed.verify_failures, 0u);
  }
}

TEST_P(TraceReplayTest, TraceSurvivesCodecRoundTrip) {
  const std::string adversary = GetParam();
  const ScenarioSpec spec = replay_spec(adversary, 101);

  net::MessageTrace trace;
  const ScenarioReport recorded = run_scenario(spec, &trace);

  const std::vector<std::uint8_t> wire = trace.encode();
  const net::MessageTrace decoded = net::MessageTrace::decode(wire);
  ASSERT_EQ(decoded.entries.size(), trace.entries.size());
  EXPECT_EQ(decoded.scenario, trace.scenario);
  EXPECT_EQ(decoded.seed, trace.seed);
  EXPECT_EQ(decoded.backend, trace.backend);
  EXPECT_EQ(decoded.stats.bytes_sent, trace.stats.bytes_sent);
  EXPECT_EQ(decoded.provers.size(), trace.provers.size());

  const ScenarioReport replayed = replay_trace(spec, decoded, 2);
  EXPECT_EQ(replayed.fingerprint(), recorded.fingerprint());
  EXPECT_EQ(replayed.evidence_digest, recorded.evidence_digest);
}

// Everything a replay checks is already signed: it records the providers'
// inputs without re-signing them, and still reproduces the recording.
TEST_P(TraceReplayTest, ReplaySignsNothing) {
  const std::string adversary = GetParam();
  const ScenarioSpec spec = replay_spec(adversary, 91);

  net::MessageTrace trace;
  const ScenarioReport recorded = run_scenario(spec, &trace);

  const obs::Counter& signs = obs::MetricsRegistry::global().hot.crypto_rsa_signs;
  const std::uint64_t signs_before = signs.value();
  const ScenarioReport replayed = replay_trace(spec, trace, 2);
  EXPECT_EQ(signs.value() - signs_before, 0u) << adversary;
  if (obs::kCompiledIn) {
    // The delta above is live: the recorded run counted its signatures.
    EXPECT_GT(signs_before, 0u);
  }
  EXPECT_EQ(replayed.fingerprint(), recorded.fingerprint()) << adversary;
  EXPECT_EQ(replayed.evidence_digest, recorded.evidence_digest) << adversary;
}

TEST(TraceReplayGuardTest, MismatchedIdentityIsRejected) {
  const ScenarioSpec spec = replay_spec("honest", 5);
  net::MessageTrace trace;
  (void)run_scenario(spec, &trace);

  ScenarioSpec other = spec;
  other.seed = 6;
  EXPECT_THROW((void)replay_trace(other, trace, 1), std::invalid_argument);
}

// Deliveries replay in sequence order, so a trace whose delivery times go
// backwards in that order cannot be the record of a run.
TEST(TraceReplayGuardTest, RegressingTimestampsAreRejected) {
  const ScenarioSpec spec = replay_spec("honest", 5);
  net::MessageTrace trace;
  (void)run_scenario(spec, &trace);
  ASSERT_GT(trace.entries.size(), 2u);
  const std::size_t k = trace.entries.size() / 2;
  ASSERT_GT(trace.entries[k - 1].at, 0u);
  trace.entries[k].at = trace.entries[k - 1].at - 1;
  EXPECT_THROW((void)replay_trace(spec, trace, 1), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Adversaries, TraceReplayTest,
                         ::testing::Values("equivocator", "delay_replay",
                                           "honest"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace pvr::scenario
