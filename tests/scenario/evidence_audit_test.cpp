// Evidence from real runs is checkable by a third party from its wire bytes
// alone: every provable item any verifier logs — in the three named
// scenarios and across the adversary matrix — validates after an
// Evidence::encode / decode round trip, and stops validating when one byte
// of a leaf, of a proof sibling or of the root signature flips.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/evidence.h"
#include "net/simulator.h"
#include "scenario/runner.h"
#include "scenario/world.h"

namespace pvr::scenario {
namespace {

// The simulator's handle on a World-owned node.
class Forwarder final : public net::Node {
 public:
  explicit Forwarder(core::PvrNode* node) noexcept : node_(node) {}
  void on_message(net::Transport& transport,
                  const net::Message& message) override {
    node_->on_message(transport, message);
  }

 private:
  core::PvrNode* node_;
};

// Runs `spec` like run_scenario and returns every evidence item logged.
[[nodiscard]] std::vector<core::Evidence> run_and_collect(
    const ScenarioSpec& spec, const WorldPlan& plan) {
  World world(spec, plan, spec.workers);
  net::Simulator sim(spec.seed);
  wire_simulator(
      plan, spec.seed, sim,
      [&world](bgp::AsNumber asn) -> std::unique_ptr<net::Node> {
        return std::make_unique<Forwarder>(world.nodes().at(asn).get());
      },
      [&world, &sim](const AppEvent& event) {
        world.apply(sim.transport(), event);
      });
  if (spec.online) world.arm_online(sim);
  sim.run();
  world.finish();
  std::vector<core::Evidence> out;
  for (const auto& [asn, node] : world.nodes()) {
    out.insert(out.end(), node->evidence().begin(), node->evidence().end());
  }
  return out;
}

[[nodiscard]] bool provable(core::ViolationKind kind) {
  return kind != core::ViolationKind::kMissingReveal &&
         kind != core::ViolationKind::kBadSignature;
}

// Checks every provable item of one run; returns the kinds it saw.
std::set<core::ViolationKind> audit_from_wire(const ScenarioSpec& spec) {
  const WorldPlan plan = plan_world(spec);
  const core::VerifyContext ctx(&plan.keys.directory);
  const core::Auditor auditor(&ctx);
  std::set<core::ViolationKind> kinds;
  for (const core::Evidence& item : run_and_collect(spec, plan)) {
    if (!provable(item.kind)) continue;
    kinds.insert(item.kind);
    const core::Evidence decoded = core::Evidence::decode(item.encode());
    EXPECT_TRUE(auditor.validate(decoded)) << spec.name << ": " << item.to_string();

    core::Evidence bad_signature = decoded;
    bad_signature.messages.back().signature[1] ^= 0x04;
    EXPECT_FALSE(auditor.validate(bad_signature)) << spec.name;
    if (decoded.leaves.empty()) continue;
    core::Evidence bad_leaf = decoded;
    bad_leaf.leaves.back().leaf.payload.back() ^= 0x01;
    EXPECT_FALSE(auditor.validate(bad_leaf)) << spec.name;
    core::Evidence bad_sibling = decoded;
    if (bad_sibling.leaves.front().proof.siblings.empty()) {
      ADD_FAILURE() << "leaf evidence with a one-leaf tree";
      continue;
    }
    bad_sibling.leaves.front().proof.siblings.back()[0] ^= 0x80;
    EXPECT_FALSE(auditor.validate(bad_sibling)) << spec.name;
  }
  return kinds;
}

TEST(EvidenceWireAuditTest, NamedScenarioEvidenceValidatesFromWireBytes) {
  std::set<core::ViolationKind> kinds;
  for (const std::string& name : scenario_names()) {
    ScenarioSpec spec = named_scenario(name, 1, 48);
    spec.workers = 2;
    spec.online = true;
    const std::set<core::ViolationKind> seen = audit_from_wire(spec);
    EXPECT_TRUE(seen.contains(core::ViolationKind::kEquivocation)) << name;
    kinds.insert(seen.begin(), seen.end());
  }
  // The first-half providers get the variant root, whose bundles their
  // reveals do not open.
  EXPECT_TRUE(kinds.contains(core::ViolationKind::kBadOpening));
}

TEST(EvidenceWireAuditTest, AdversaryMatrixEvidenceValidatesFromWireBytes) {
  for (const std::string_view adversary : adversary_names()) {
    ScenarioSpec spec;
    spec.name = "audit_" + std::string(adversary);
    spec.seed = 7919;
    spec.adversary = std::string(adversary);
    spec.topology.as_count = 400;
    spec.topology.tier1_count = 6;
    spec.neighborhoods = 2;
    spec.min_providers = 4;
    spec.max_providers = 4;
    spec.rounds = 16;
    spec.traffic.mean_interarrival_us = 2000;
    spec.batch_deadline = 10'000;
    spec.workers = 2;
    const std::set<core::ViolationKind> seen = audit_from_wire(spec);
    const bool attacks = make_adversary(adversary)->expects_detection();
    EXPECT_EQ(seen.contains(core::ViolationKind::kEquivocation), attacks)
        << adversary;
  }
}

}  // namespace
}  // namespace pvr::scenario
