// Two-phase (pipelined) drain protocol: begin_drain seals a batch and the
// worker pool folds it in the background; collect applies the findings on
// the calling thread. These tests pin the protocol's contract (DESIGN.md
// §12): submission-ordered delivery across batches, one-batch-in-flight
// guards, exception isolation, empty batches, byte-parity with the
// blocking drain() composition, and teardown with a batch still running.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/verification_engine.h"

namespace pvr::engine {
namespace {

[[nodiscard]] core::ProtocolId round_id(std::uint32_t prefix_index,
                                        std::uint64_t epoch) {
  return core::ProtocolId{
      .prover = 1,
      .prefix = bgp::Ipv4Prefix(0x0A000000u + (prefix_index << 8), 24),
      .epoch = epoch};
}

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

// The report's evidence, concatenated over its outcomes in order.
[[nodiscard]] std::string evidence_trace(const EngineReport& report) {
  std::string trace;
  for (const RoundOutcome& outcome : report.outcomes) {
    for (const core::Evidence& item : outcome.findings.evidence) {
      trace += item.detail + "|";
    }
  }
  return trace;
}

// The evidence of several begin_drain/collect batches, concatenated, must
// equal the GLOBAL submission order — batch boundaries shift work across
// threads but never reorder delivery.
TEST(PipelinedDrainTest, SinkOrderSpansBatchesInSubmissionOrder) {
  VerificationEngine engine(8);
  std::string expected;
  std::string delivered;
  for (std::uint64_t batch = 1; batch <= 5; ++batch) {
    for (std::uint32_t prefix = 0; prefix < 17; ++prefix) {
      engine.submit(round_id(prefix, batch), [prefix, batch] {
        return findings_for(prefix, batch);
      });
      expected += "round " + std::to_string(prefix) + "/" +
                  std::to_string(batch) + "|";
    }
    engine.begin_drain();
    // The simulator would advance here; the pool folds in the background.
    const EngineReport report = engine.collect();
    EXPECT_EQ(report.rounds, 17u);
    EXPECT_EQ(report.failed_rounds, 0u);
    delivered += evidence_trace(report);
  }
  EXPECT_EQ(delivered, expected);
}

// Byte-parity: the same workload through begin_drain/collect and through
// the blocking drain() must produce identical evidence sequences.
TEST(PipelinedDrainTest, MatchesBlockingDrainByteForByte) {
  const auto run = [](bool pipelined) {
    VerificationEngine engine(4);
    std::string delivered;
    for (std::uint64_t batch = 1; batch <= 3; ++batch) {
      for (std::uint32_t prefix = 0; prefix < 23; ++prefix) {
        engine.submit(round_id(prefix, batch), [prefix, batch] {
          return findings_for(prefix, batch);
        });
      }
      if (pipelined) {
        engine.begin_drain();
        delivered += evidence_trace(engine.collect());
      } else {
        delivered += evidence_trace(engine.drain());
      }
    }
    return delivered;
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(PipelinedDrainTest, EmptyBatchCollectsEmptyReport) {
  VerificationEngine engine(2);
  engine.begin_drain();
  EXPECT_TRUE(engine.has_pending());
  const EngineReport report = engine.collect();
  EXPECT_EQ(report.rounds, 0u);
  EXPECT_EQ(report.outcomes.size(), 0u);
  EXPECT_FALSE(engine.has_pending());
}

TEST(PipelinedDrainTest, HasPendingTracksTheInFlightBatch) {
  VerificationEngine engine(2);
  EXPECT_FALSE(engine.has_pending());
  engine.submit(round_id(0, 1), [] { return findings_for(0, 1); });
  EXPECT_FALSE(engine.has_pending());
  engine.begin_drain();
  EXPECT_TRUE(engine.has_pending());
  (void)engine.collect();
  EXPECT_FALSE(engine.has_pending());
}

// At most one batch in flight: submit, begin_drain, and the blocking
// drain() all refuse while a batch is pending, and collect refuses when
// none is.
TEST(PipelinedDrainTest, GuardsAgainstOverlappingBatches) {
  VerificationEngine engine(2);
  EXPECT_THROW((void)engine.collect(), std::logic_error);
  engine.submit(round_id(0, 1), [] { return findings_for(0, 1); });
  engine.begin_drain();
  EXPECT_THROW(engine.submit(round_id(1, 1), [] { return findings_for(1, 1); }),
               std::logic_error);
  EXPECT_THROW(engine.begin_drain(), std::logic_error);
  EXPECT_THROW((void)engine.drain(), std::logic_error);
  const EngineReport report = engine.collect();
  EXPECT_EQ(report.rounds, 1u);
  // The guards released: the next batch proceeds normally.
  engine.submit(round_id(2, 2), [] { return findings_for(2, 2); });
  engine.begin_drain();
  EXPECT_EQ(engine.collect().rounds, 1u);
}

// A throwing round loses only its own findings; the rest of the batch is
// delivered, and collect(false) reports the failure as a count instead of
// unwinding.
TEST(PipelinedDrainTest, ExceptionIsolationAcrossTheAsyncBoundary) {
  VerificationEngine engine(4);
  engine.submit(round_id(0, 1), [] { return findings_for(0, 1); });
  engine.submit(round_id(1, 1), []() -> core::RoundFindings {
    throw std::runtime_error("round 1 exploded");
  });
  engine.submit(round_id(2, 1), [] { return findings_for(2, 1); });
  engine.begin_drain();
  const EngineReport report = engine.collect(/*rethrow_errors=*/false);
  EXPECT_EQ(report.rounds, 3u);
  EXPECT_EQ(report.failed_rounds, 1u);
  EXPECT_EQ(evidence_trace(report), "round 0/1|round 2/1|");

  // With rethrow_errors (the default) the first error surfaces, and the
  // engine is left clean for the next batch.
  engine.submit(round_id(3, 2), [] { return findings_for(3, 2); });
  engine.submit(round_id(4, 2), []() -> core::RoundFindings {
    throw std::runtime_error("round 4 exploded");
  });
  engine.begin_drain();
  EXPECT_THROW((void)engine.collect(), std::runtime_error);
  EXPECT_FALSE(engine.has_pending());
  engine.submit(round_id(5, 3), [] { return findings_for(5, 3); });
  EXPECT_EQ(evidence_trace(engine.drain()), "round 5/3|");
}

// The overlap accounting the scenario runner aggregates: work folded while
// the caller was away shows up as overlapped_ms > 0, and the fold window
// (verify_wall_ms) covers at least the task's own run time.
TEST(PipelinedDrainTest, OverlapAccountingSeesWorkDoneWhileAway) {
  VerificationEngine engine(1);
  engine.submit(round_id(0, 1), [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    return findings_for(0, 1);
  });
  engine.begin_drain();
  // Simulate "the simulator advancing": stay away long enough that the
  // fold certainly finished before collect arrived.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const EngineReport report = engine.collect();
  EXPECT_GT(report.verify_wall_ms, 0.0);
  EXPECT_GT(report.overlapped_ms, 0.0);
  EXPECT_LE(report.overlapped_ms, report.verify_wall_ms + 0.001);
}

// An engine that goes out of scope with a sealed batch still running (a
// World unwinding mid-simulation) must let the last worker finish the task
// and fold the batch before any member it writes is destroyed. Under
// AddressSanitizer a fold into an already-destroyed completed-batch slot
// shows up as leaked outcome vectors.
TEST(PipelinedDrainTest, DestroyedWithBatchInFlightFinishesTheBatch) {
  std::atomic<bool> ran{false};
  {
    VerificationEngine engine(1);
    engine.submit(round_id(0, 1), [&ran] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ran = true;
      return findings_for(0, 1);
    });
    engine.begin_drain();
    EXPECT_TRUE(engine.has_pending());
  }
  EXPECT_TRUE(ran);
}

}  // namespace
}  // namespace pvr::engine
