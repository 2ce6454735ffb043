// Every adversary strategy end-to-end through the scenario runner: the
// attack must be caught by the SHIPPED evidence checks with exactly the
// expected violation class, zero false evidence against honest ASes, and
// byte-identical reports at 1/2/8 engine workers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/runner.h"

namespace pvr::scenario {
namespace {

[[nodiscard]] ScenarioSpec small_spec(const std::string& adversary,
                                      std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "test_" + adversary;
  spec.seed = seed;
  spec.adversary = adversary;
  spec.topology.as_count = 400;
  spec.topology.tier1_count = 6;
  spec.neighborhoods = 2;
  spec.min_providers = 4;
  spec.max_providers = 4;
  spec.rounds = 16;  // 8 per neighborhood
  spec.attacked_fraction = 0.5;  // one attacked, one honest
  spec.traffic.mean_interarrival_us = 2000;
  spec.batch_deadline = 10'000;
  return spec;
}

class AdversaryStrategyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AdversaryStrategyTest, CaughtAtEveryWorkerCountWithoutFalsePositives) {
  const std::string adversary = GetParam();
  std::string fingerprint_at_1;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ScenarioSpec spec = small_spec(adversary, 21);
    spec.workers = workers;
    const ScenarioReport report = run_scenario(spec);

    // 16 rounds round-robined over 2 neighborhoods, one of them attacked.
    EXPECT_EQ(report.rounds_started, 16u);
    EXPECT_EQ(report.attacked_rounds, 8u) << adversary;
    EXPECT_EQ(report.detection_rate, 1.0) << adversary;
    EXPECT_EQ(report.false_evidence, 0u) << adversary;
    EXPECT_EQ(report.audit_failures, 0u) << adversary;
    // Every attack here is an equivocation variant; real evidence exists.
    EXPECT_GT(report.evidence_total, 0u) << adversary;

    if (workers == 1) {
      fingerprint_at_1 = report.fingerprint();
    } else {
      EXPECT_EQ(report.fingerprint(), fingerprint_at_1)
          << adversary << " diverged at " << workers << " workers";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAttacks, AdversaryStrategyTest,
                         ::testing::Values("equivocator", "batch_split",
                                           "selective_drop", "delay_replay",
                                           "colluding_pair"));

TEST(ScenarioRunnerTest, HonestWorldIsSilent) {
  const ScenarioReport report = run_scenario(small_spec("honest", 4));
  EXPECT_EQ(report.attacked_rounds, 0u);
  EXPECT_EQ(report.detection_rate, 1.0);
  EXPECT_EQ(report.evidence_total, 0u);
  EXPECT_EQ(report.false_evidence, 0u);
}

TEST(ScenarioRunnerTest, SecondSeedAlsoHolds) {
  for (const std::uint64_t seed : {91u, 92u}) {
    const ScenarioReport report = run_scenario(small_spec("equivocator", seed));
    EXPECT_EQ(report.detection_rate, 1.0) << "seed " << seed;
    EXPECT_EQ(report.false_evidence, 0u) << "seed " << seed;
  }
}

TEST(ScenarioRunnerTest, CoalescesStaggeredArrivalsUnderDeadline) {
  ScenarioSpec spec = small_spec("honest", 6);
  spec.rounds = 40;
  spec.traffic.mean_interarrival_us = 800;
  spec.batch_deadline = 30'000;  // far beyond collect_window = 4000
  const ScenarioReport coalescing = run_scenario(spec);
  EXPECT_TRUE(coalescing.coalesced);
  EXPECT_LT(coalescing.windows_fired, coalescing.rounds_started);

  // Without a batching deadline the same traffic runs one window per round.
  spec.batch_deadline = 0;
  const ScenarioReport strict = run_scenario(spec);
  EXPECT_EQ(strict.windows_fired, strict.rounds_started);
  EXPECT_FALSE(strict.coalesced);
}

TEST(ScenarioRunnerTest, AdversaryRegistryIsInSync) {
  // adversary_names() is the public registry listing; every entry must
  // construct through the factory and report the name it was asked for —
  // this is what keeps the list and make_adversary's dispatch from
  // drifting apart.
  const std::vector<std::string_view> names = adversary_names();
  EXPECT_GE(names.size(), 7u);
  for (const std::string_view name : names) {
    const std::unique_ptr<AdversaryStrategy> strategy = make_adversary(name);
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->name(), name);
  }
}

TEST(ScenarioRunnerTest, NamedScenariosAreWellFormed) {
  // bench_scenarios sweeps exactly this matrix; a shrinking list would let
  // its detection and parity gates pass vacuously.
  EXPECT_EQ(scenario_names(),
            (std::vector<std::string>{"equivocation_storm",
                                      "batch_split_evasion",
                                      "drop_replay_chaos"}));
  for (const std::string& name : scenario_names()) {
    const ScenarioSpec spec = named_scenario(name, 1, 12);
    EXPECT_EQ(spec.name, name);
    EXPECT_GE(spec.topology.as_count, 1000u);
    EXPECT_GT(spec.batch_deadline, spec.collect_window);
  }
  EXPECT_THROW(named_scenario("no_such_scenario", 1, 12),
               std::invalid_argument);
  EXPECT_THROW(make_adversary("no_such_strategy"), std::invalid_argument);
}

TEST(ScenarioRunnerTest, JsonLineCarriesTheGatedFields) {
  const ScenarioReport report = run_scenario(small_spec("equivocator", 3));
  const std::string json = report.to_json_line();
  EXPECT_NE(json.find("\"bench\":\"scenarios\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":3"), std::string::npos);
  EXPECT_NE(json.find("\"detection_rate\":1.0000"), std::string::npos);
  EXPECT_NE(json.find("\"false_evidence\":0"), std::string::npos);
}

}  // namespace
}  // namespace pvr::scenario
