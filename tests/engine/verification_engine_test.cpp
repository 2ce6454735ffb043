// The engine's flat worker pool over free-standing rounds: drain() returns
// outcomes in submission order, the sequence is byte-identical at every
// worker count, and one throwing round never costs the others their
// findings or the engine its next batch.
#include "engine/verification_engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace pvr::engine {
namespace {

[[nodiscard]] core::ProtocolId round_id(std::uint32_t prefix_index,
                                        std::uint64_t epoch) {
  return core::ProtocolId{
      .prover = 1,
      .prefix = bgp::Ipv4Prefix(0x0A000000u + (prefix_index << 8), 24),
      .epoch = epoch};
}

// A fake round that reports which round it was via Evidence.detail.
[[nodiscard]] core::RoundFindings findings_for(std::uint32_t prefix_index,
                                               std::uint64_t epoch) {
  core::RoundFindings findings;
  findings.evidence.push_back(core::Evidence{
      .kind = core::ViolationKind::kEquivocation,
      .accused = 1,
      .reporter = prefix_index,
      .index = static_cast<std::uint32_t>(epoch),
      .messages = {},
      .leaves = {},
      .detail = "round " + std::to_string(prefix_index) + "/" +
                std::to_string(epoch)});
  return findings;
}

// Drained outcome sequence serialized to one string for comparisons.
[[nodiscard]] std::string outcome_trace(const std::vector<RoundOutcome>& outcomes) {
  std::string trace;
  for (const RoundOutcome& outcome : outcomes) {
    trace += std::to_string(outcome.id.epoch) + ":";
    for (const core::Evidence& item : outcome.findings.evidence) {
      trace += item.detail + ";";
    }
    trace += "|";
  }
  return trace;
}

[[nodiscard]] std::string run_workload(std::size_t workers) {
  VerificationEngine engine(workers);
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    for (std::uint32_t prefix = 0; prefix < 40; ++prefix) {
      engine.submit(round_id(prefix, epoch), [prefix, epoch] {
        return findings_for(prefix, epoch);
      });
    }
  }
  return outcome_trace(engine.drain().outcomes);
}

TEST(VerificationEngineTest, DrainReturnsSubmissionOrder) {
  VerificationEngine engine(4);
  for (std::uint64_t epoch = 1; epoch <= 30; ++epoch) {
    engine.submit(round_id(epoch % 7, epoch),
                  [epoch] { return findings_for(epoch % 7, epoch); });
  }
  const std::vector<RoundOutcome> outcomes = engine.drain().outcomes;
  ASSERT_EQ(outcomes.size(), 30u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].id.epoch, i + 1);
    ASSERT_EQ(outcomes[i].findings.evidence.size(), 1u);
    EXPECT_EQ(outcomes[i].findings.evidence[0].index, i + 1);
  }
}

TEST(VerificationEngineTest, DeterministicAcrossWorkerCounts) {
  const std::string reference = run_workload(1);
  EXPECT_EQ(run_workload(2), reference);
  EXPECT_EQ(run_workload(4), reference);
  EXPECT_EQ(run_workload(8), reference);
}

// Many submissions that share one ProtocolId (the n+1 checks of a hot
// round) run on whichever workers are idle; the drained sequence must
// still be byte-identical across worker counts.
TEST(VerificationEngineTest, HotRoundDeterministicAcrossWorkerCounts) {
  const auto run_hot_rounds = [](std::size_t workers) {
    VerificationEngine engine(workers);
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      for (std::uint32_t prefix = 0; prefix < 4; ++prefix) {
        for (std::uint32_t check = 0; check < 10; ++check) {
          engine.submit(round_id(prefix, epoch), [prefix, epoch, check] {
            return findings_for(prefix * 100 + check, epoch);
          });
        }
      }
    }
    return outcome_trace(engine.drain().outcomes);
  };
  const std::string reference = run_hot_rounds(1);
  EXPECT_EQ(run_hot_rounds(2), reference);
  EXPECT_EQ(run_hot_rounds(8), reference);
}

TEST(VerificationEngineTest, ExceptionIsolatedToItsRound) {
  VerificationEngine engine(2);
  engine.submit(round_id(0, 1), [] { return findings_for(0, 1); });
  engine.submit(round_id(1, 1), []() -> core::RoundFindings {
    throw std::runtime_error("round blew up");
  });
  const EngineReport report = engine.drain(/*rethrow_errors=*/false);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.failed_rounds, 1u);
  // The healthy round's findings survive; the failed one carries its error.
  EXPECT_EQ(report.outcomes[0].error, nullptr);
  EXPECT_EQ(report.outcomes[0].findings.evidence.size(), 1u);
  ASSERT_NE(report.outcomes[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(report.outcomes[1].error),
               std::runtime_error);

  // The engine must remain usable after a failed batch.
  engine.submit(round_id(2, 2), [] { return findings_for(2, 2); });
  const EngineReport next = engine.drain();
  ASSERT_EQ(next.outcomes.size(), 1u);
  EXPECT_EQ(next.outcomes[0].id.epoch, 2u);
  EXPECT_EQ(next.failed_rounds, 0u);
}

}  // namespace
}  // namespace pvr::engine
