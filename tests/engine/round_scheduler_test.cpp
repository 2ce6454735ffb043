#include "engine/round_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
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
  RoundScheduler scheduler({.workers = workers, .shards = 16});
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    for (std::uint32_t prefix = 0; prefix < 40; ++prefix) {
      scheduler.submit(round_id(prefix, epoch), [prefix, epoch] {
        return findings_for(prefix, epoch);
      });
    }
  }
  return outcome_trace(scheduler.drain());
}

TEST(RoundSchedulerTest, DrainReturnsSubmissionOrder) {
  RoundScheduler scheduler({.workers = 4, .shards = 8});
  for (std::uint64_t epoch = 1; epoch <= 30; ++epoch) {
    scheduler.submit(round_id(epoch % 7, epoch),
                     [epoch] { return findings_for(epoch % 7, epoch); });
  }
  const std::vector<RoundOutcome> outcomes = scheduler.drain();
  ASSERT_EQ(outcomes.size(), 30u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].id.epoch, i + 1);
    ASSERT_EQ(outcomes[i].findings.evidence.size(), 1u);
    EXPECT_EQ(outcomes[i].findings.evidence[0].index, i + 1);
  }
}

TEST(RoundSchedulerTest, DeterministicAcrossWorkerCounts) {
  const std::string reference = run_workload(1);
  EXPECT_EQ(run_workload(2), reference);
  EXPECT_EQ(run_workload(4), reference);
  EXPECT_EQ(run_workload(8), reference);
}

// Salting changes WHERE tasks run, never what drain() returns. Many
// submissions that share one ProtocolId (the n+1 checks of a round) are
// the case salting spreads across shards; the drained sequence must still
// be byte-identical across worker counts.
TEST(RoundSchedulerTest, DeterministicAcrossSaltingModes) {
  const auto run_hot_rounds = [](std::size_t workers) {
    RoundScheduler scheduler({.workers = workers, .shards = 16});
    for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
      for (std::uint32_t prefix = 0; prefix < 4; ++prefix) {
        for (std::uint32_t check = 0; check < 10; ++check) {
          scheduler.submit(round_id(prefix, epoch), [prefix, epoch, check] {
            return findings_for(prefix * 100 + check, epoch);
          });
        }
      }
    }
    return outcome_trace(scheduler.drain());
  };
  const std::string reference = run_hot_rounds(1);
  EXPECT_EQ(run_hot_rounds(2), reference);
  EXPECT_EQ(run_hot_rounds(8), reference);
}

TEST(RoundSchedulerTest, ShardsAreReasonablyBalanced) {
  RoundScheduler scheduler({.workers = 2, .shards = 16});
  for (std::uint32_t prefix = 0; prefix < 1600; ++prefix) {
    scheduler.submit(round_id(prefix, 1),
                     [] { return core::RoundFindings{}; });
  }
  (void)scheduler.drain();
  const std::vector<std::uint64_t> loads = scheduler.shard_loads();
  ASSERT_EQ(loads.size(), 16u);
  const std::uint64_t total = std::accumulate(loads.begin(), loads.end(),
                                              std::uint64_t{0});
  EXPECT_EQ(total, 1600u);
  const std::uint64_t mean = total / loads.size();  // 100 per shard
  for (const std::uint64_t load : loads) {
    EXPECT_GT(load, mean / 2) << "starved shard";
    EXPECT_LT(load, mean * 2) << "overloaded shard";
  }
}

TEST(RoundSchedulerTest, SameProtocolIdHashesToSameShard) {
  RoundScheduler scheduler({.workers = 1, .shards = 32});
  const core::ProtocolId a = round_id(7, 1);
  const core::ProtocolId b = round_id(7, 99);  // same prefix, other epoch
  for (std::size_t ticket = 0; ticket < 8; ++ticket) {
    EXPECT_EQ(scheduler.shard_of(a, ticket), scheduler.shard_of(b, ticket));
  }
}

// Submissions of ONE (prover, prefix) — e.g. the n+1 checks
// of a single round — must spread over the shards instead of pinning one,
// or a hot prefix serializes on a single worker (the speedup_8v1 = 0.97
// regression this PR exists to fix).
TEST(RoundSchedulerTest, SaltedSubmissionsOfOneRoundSpreadAcrossShards) {
  RoundScheduler scheduler({.workers = 2, .shards = 16});
  const core::ProtocolId hot = round_id(7, 1);
  for (std::size_t i = 0; i < 160; ++i) {
    scheduler.submit(hot, [] { return core::RoundFindings{}; });
  }
  (void)scheduler.drain();
  const std::vector<std::uint64_t> loads = scheduler.shard_loads();
  const std::size_t used = static_cast<std::size_t>(
      std::count_if(loads.begin(), loads.end(),
                    [](std::uint64_t load) { return load > 0; }));
  // The splitmix-style mix over (key ⊕ ticket) should touch nearly every
  // shard at 160 submissions / 16 shards; >= 12 leaves generous slack.
  EXPECT_GE(used, 12u);
  std::uint64_t heaviest = 0;
  for (const std::uint64_t load : loads) heaviest = std::max(heaviest, load);
  EXPECT_LT(heaviest, 160u / 3) << "salted hot key still pins one shard";
}

// The salted key must actually vary with the ticket (a constant salt would
// silently restore the hot-shard pin), and stay stable for a fixed ticket.
TEST(RoundSchedulerTest, SaltedShardKeyVariesWithTicket) {
  RoundScheduler scheduler({.workers = 1, .shards = 64});
  const core::ProtocolId hot = round_id(3, 1);
  std::set<std::size_t> shards;
  for (std::size_t salt = 0; salt < 32; ++salt) {
    EXPECT_EQ(scheduler.shard_of(hot, salt), scheduler.shard_of(hot, salt));
    shards.insert(scheduler.shard_of(hot, salt));
  }
  EXPECT_GE(shards.size(), 16u) << "ticket salt barely perturbs the shard";
}

TEST(RoundSchedulerTest, ExceptionIsolatedToItsRound) {
  RoundScheduler scheduler({.workers = 2, .shards = 4});
  scheduler.submit(round_id(0, 1), [] { return findings_for(0, 1); });
  scheduler.submit(round_id(1, 1), []() -> core::RoundFindings {
    throw std::runtime_error("round blew up");
  });
  const std::vector<RoundOutcome> outcomes = scheduler.drain();
  ASSERT_EQ(outcomes.size(), 2u);
  // The healthy round's findings survive; the failed one carries its error.
  EXPECT_EQ(outcomes[0].error, nullptr);
  EXPECT_EQ(outcomes[0].findings.evidence.size(), 1u);
  ASSERT_NE(outcomes[1].error, nullptr);
  EXPECT_THROW(std::rethrow_exception(outcomes[1].error), std::runtime_error);

  // Scheduler must remain usable after a failed batch.
  scheduler.submit(round_id(2, 2), [] { return findings_for(2, 2); });
  const std::vector<RoundOutcome> next = scheduler.drain();
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].id.epoch, 2u);
}

}  // namespace
}  // namespace pvr::engine
