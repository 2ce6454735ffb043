// Adversarial relay vs. the gossip defenses: a replayer that re-injects
// stale signed roots with a reset hop count must be absorbed by the
// first-seen slots (no re-relay storm, no state growth) and must never
// manufacture evidence against honest provers; the hop budget must bound
// the honest flood itself. A replayed copy is a new send: it must not
// inherit the original's trace-flow cookie.
#include <gtest/gtest.h>

#include "core/pvr_speaker.h"
#include "net/simulator.h"
#include "scenario/adversary.h"
#include "scenario/runner.h"

namespace pvr::scenario {
namespace {

[[nodiscard]] ScenarioSpec relay_spec(const std::string& adversary,
                                      std::uint8_t hop_budget) {
  ScenarioSpec spec;
  spec.name = "test_relay";
  spec.seed = 17;
  spec.adversary = adversary;
  spec.topology.as_count = 400;
  spec.topology.tier1_count = 6;
  spec.neighborhoods = 2;
  spec.min_providers = 4;
  spec.max_providers = 4;
  spec.rounds = 12;
  spec.traffic.mean_interarrival_us = 3000;
  spec.gossip_hop_budget = hop_budget;
  return spec;
}

TEST(ReplayBudgetTest, ReplayedStaleRootsYieldNoFalseEvidence) {
  const ScenarioReport honest = run_scenario(relay_spec("honest", 8));
  const ScenarioReport replayed = run_scenario(relay_spec("replay_relay", 8));

  // Honest provers, hostile relay: evidence of ANY kind would be a false
  // accusation. The first-seen slots also stop re-relay: the only extra
  // gossip on the wire is the replayer's own injections (512 budget).
  EXPECT_EQ(honest.evidence_total, 0u);
  EXPECT_EQ(replayed.evidence_total, 0u);
  EXPECT_EQ(replayed.false_evidence, 0u);
  EXPECT_GT(replayed.gossip_messages, honest.gossip_messages)
      << "replayer injected nothing — the strategy is not exercising replay";
  EXPECT_LE(replayed.gossip_messages, honest.gossip_messages + 512u);
}

TEST(ReplayBudgetTest, HopBudgetBoundsTheFloodWithoutLosingDetection) {
  // Full verifier mesh: one relay hop reaches every verifier, so even the
  // tightest budget must keep equivocation detection at 100% while
  // shedding the deeper relay traffic a bigger budget allows.
  ScenarioSpec tight = relay_spec("equivocator", 1);
  ScenarioSpec loose = relay_spec("equivocator", 8);
  const ScenarioReport tight_report = run_scenario(tight);
  const ScenarioReport loose_report = run_scenario(loose);

  EXPECT_EQ(tight_report.detection_rate, 1.0);
  EXPECT_EQ(tight_report.false_evidence, 0u);
  EXPECT_EQ(loose_report.detection_rate, 1.0);
  EXPECT_LT(tight_report.gossip_messages, loose_report.gossip_messages);
}

TEST(ReplayBudgetTest, ReplayOnTopOfEquivocationChangesNothing) {
  // delay_replay = equivocator + dropper + delayer + replayer: the full
  // hostile wire must neither hide the attack nor smear honest ASes.
  const ScenarioReport report = run_scenario(relay_spec("delay_replay", 8));
  EXPECT_EQ(report.detection_rate, 1.0);
  EXPECT_EQ(report.false_evidence, 0u);
  EXPECT_EQ(report.audit_failures, 0u);
}

// Records the (hop byte, cookie) of every message it receives.
class CookieRecorder final : public net::Node {
 public:
  void on_message(net::Transport& transport,
                  const net::Message& message) override {
    (void)transport;
    seen.emplace_back(message.payload.front(), message.cookie);
  }
  std::vector<std::pair<std::uint8_t, std::uint64_t>> seen;
};

TEST(ReplayBudgetTest, ReplayedCopiesCarryNoFlowCookie) {
  net::Simulator sim(5);
  sim.add_node(1, std::make_unique<CookieRecorder>());
  sim.add_node(2, std::make_unique<CookieRecorder>());
  sim.connect(1, 2);
  // No neighborhoods: nothing is droppable, so only delay and replay act.
  make_adversary("delay_replay")->install(sim, {}, {}, 9);
  sim.schedule(0, [&sim] {
    sim.send(net::Message{.from = 1,
                          .to = 2,
                          .channel = core::kGossipRootChannel,
                          .payload = {3, 0xAA, 0xBB},
                          .cookie = 0x1234});
  });
  sim.run();

  const auto& seen = dynamic_cast<CookieRecorder&>(sim.node(2)).seen;
  // The original plus delay_replay's two replays, which reset the hop byte.
  ASSERT_EQ(seen.size(), 3u);
  std::size_t originals = 0;
  for (const auto& [hops, cookie] : seen) {
    if (hops == 3) {
      originals += 1;
      EXPECT_EQ(cookie, 0x1234u);
    } else {
      EXPECT_EQ(hops, 0u);
      EXPECT_EQ(cookie, 0u) << "a replay kept the original's flow cookie";
    }
  }
  EXPECT_EQ(originals, 1u);
}

}  // namespace
}  // namespace pvr::scenario
