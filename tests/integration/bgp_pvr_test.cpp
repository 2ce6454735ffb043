// Integration: PVR piggybacked on a converged BGP network (the deployment
// story of §3.8/§4), plus global properties of the BGP substrate itself.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "bgp/speaker.h"
#include "core/bundle_aggregation.h"
#include "core/min_protocol.h"
#include "core/verify_context.h"

namespace pvr {
namespace {

const bgp::Ipv4Prefix kPrefix = bgp::Ipv4Prefix::parse("203.0.113.0/24");

struct ConvergedWorld {
  bgp::AsGraph graph;
  std::unique_ptr<net::Simulator> sim;

  explicit ConvergedWorld(std::size_t as_count, std::uint64_t seed) {
    crypto::Drbg rng(seed, "bgp-pvr-topo");
    graph = bgp::generate_gao_rexford(
        {.as_count = as_count, .tier1_count = 4}, rng);
    sim = std::make_unique<net::Simulator>(seed);
    const bgp::AsNumber origin = static_cast<bgp::AsNumber>(as_count);
    for (const bgp::AsNumber asn : graph.as_numbers()) {
      bgp::SpeakerConfig config{.asn = asn, .graph = &graph};
      if (asn == origin) config.originated = {kPrefix};
      sim->add_node(asn, std::make_unique<bgp::BgpSpeaker>(std::move(config)));
    }
    for (const bgp::AsNumber asn : graph.as_numbers()) {
      for (const bgp::AsNumber neighbor : graph.neighbors(asn)) {
        if (asn < neighbor) sim->connect(asn, neighbor, {.latency = 1500});
      }
    }
    sim->run();
  }

  [[nodiscard]] bgp::BgpSpeaker& speaker(bgp::AsNumber asn) {
    return dynamic_cast<bgp::BgpSpeaker&>(sim->node(asn));
  }
};

// Gao–Rexford safety: every selected path is valley-free — once the path
// goes "down" (provider->customer) or "sideways" (peer), it never goes
// "up" (customer->provider) or sideways again.
TEST(BgpGlobalProperties, ConvergedPathsAreValleyFree) {
  ConvergedWorld world(60, 3);
  for (const bgp::AsNumber asn : world.graph.as_numbers()) {
    const auto best = world.speaker(asn).best(kPrefix);
    if (!best.has_value()) continue;
    // Walk the path from this AS toward the origin; classify each edge
    // from the perspective of the AS closer to this one.
    std::vector<bgp::AsNumber> walk = {asn};
    for (const bgp::AsNumber hop : best->path.hops()) walk.push_back(hop);
    // In travel order (origin -> asn) the exports must match
    // (to-provider)* (to-peer)? (to-customer)*. We walk in REVERSE travel
    // order, so the legal pattern is (to-customer)* (to-peer)?
    // (to-provider)*: once a non-customer export is seen, every remaining
    // (earlier-in-travel) export must be to-provider.
    bool past_customer_phase = false;
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
      const auto rel = world.graph.relationship(walk[i], walk[i + 1]);
      ASSERT_TRUE(rel.has_value())
          << "path uses a non-existent link " << walk[i] << "-" << walk[i + 1];
      // walk[i] learned the route FROM walk[i+1]; from the exporter
      // walk[i+1]'s view, the export went to `reverse(*rel)`.
      const bgp::Relationship export_to = bgp::reverse(*rel);
      if (past_customer_phase) {
        EXPECT_EQ(export_to, bgp::Relationship::kProvider)
            << "valley in path of AS" << asn << ": " << best->path.to_string();
      } else if (export_to != bgp::Relationship::kCustomer) {
        past_customer_phase = true;  // the single peer edge or first uphill
      }
    }
  }
}

TEST(BgpGlobalProperties, NoForwardingLoopsInSelectedPaths) {
  ConvergedWorld world(60, 4);
  for (const bgp::AsNumber asn : world.graph.as_numbers()) {
    const auto best = world.speaker(asn).best(kPrefix);
    if (!best.has_value()) continue;
    std::set<bgp::AsNumber> seen;
    for (const bgp::AsNumber hop : best->path.hops()) {
      EXPECT_TRUE(seen.insert(hop).second)
          << "AS" << hop << " appears twice in " << best->path.to_string();
    }
    EXPECT_FALSE(best->path.contains(asn));
  }
}

TEST(BgpGlobalProperties, ConvergenceIsDeterministic) {
  ConvergedWorld a(40, 9);
  ConvergedWorld b(40, 9);
  for (const bgp::AsNumber asn : a.graph.as_numbers()) {
    EXPECT_EQ(a.speaker(asn).best(kPrefix), b.speaker(asn).best(kPrefix));
  }
  EXPECT_EQ(a.sim->stats().messages_sent, b.sim->stats().messages_sent);
}

// The §3.8 deployment: after convergence, a transit AS runs a PVR round
// over its actual Adj-RIB-In; all its neighbors verify cleanly, and the
// exported route equals the BGP decision (shortest among equal local-pref
// candidates by the minimum operator's criterion).
TEST(BgpPvrIntegration, PvrRoundOverRealRibInVerifiesCleanly) {
  ConvergedWorld world(60, 5);

  // Find the AS with the most candidates.
  bgp::AsNumber prover = 0;
  std::size_t most = 0;
  for (const bgp::AsNumber asn : world.graph.as_numbers()) {
    const std::size_t count = world.speaker(asn).candidates(kPrefix).size();
    if (count > most) {
      most = count;
      prover = asn;
    }
  }
  ASSERT_GE(most, 2u);

  std::vector<bgp::AsNumber> participants = world.graph.neighbors(prover);
  participants.push_back(prover);
  crypto::Drbg key_rng(5, "bgp-pvr-keys");
  const core::AsKeyPairs keys = core::generate_keys(participants, key_rng, 512);

  const core::ProtocolId id{.prover = prover, .prefix = kPrefix, .epoch = 1};
  std::map<bgp::AsNumber, std::optional<core::SignedMessage>> inputs;
  std::map<bgp::AsNumber, core::InputAnnouncement> announcements;
  for (const bgp::Route& route : world.speaker(prover).candidates(kPrefix)) {
    const core::InputAnnouncement announcement{
        .id = id, .provider = route.next_hop, .route = route};
    announcements.emplace(route.next_hop, announcement);
    inputs[route.next_hop] = core::sign_message(
        route.next_hop, keys.private_keys.at(route.next_hop).priv,
        announcement.encode());
  }

  crypto::Drbg rng(6, "bgp-pvr-round");
  const core::ProverResult result =
      core::run_prover(id, core::OperatorKind::kMinimum, inputs, 16, rng, {});
  const core::SignedWindow window =
      core::seal_window(prover, id.epoch, 0, 0, std::span(&result, 1),
                        keys.private_keys.at(prover).priv, rng)
          .honest;
  const core::SignedWindow::Round& round = window.rounds.front();
  const core::VerifyContext ctx(&keys.directory);
  const core::VerifiedWindow verified =
      core::open_window(ctx, window.signed_root).value();

  // All providers and one recipient verify with zero findings.
  for (const auto& [provider, announcement] : announcements) {
    const auto it = round.provider_reveals.find(provider);
    const auto evidence = core::verify_as_provider(
        provider, announcement, verified, round.bundle,
        it == round.provider_reveals.end() ? nullptr : &it->second);
    EXPECT_TRUE(evidence.empty()) << evidence.front().to_string();
  }
  const auto evidence = core::verify_as_recipient(
      ctx, participants.front(), verified, round.bundle,
      &round.recipient_reveal, &round.export_statement);
  EXPECT_TRUE(evidence.empty()) << evidence.front().to_string();

  // The protocol's honest output is a shortest candidate.
  ASSERT_TRUE(result.honest_output.has_value());
  std::size_t min_len = ~std::size_t{0};
  for (const bgp::Route& route : world.speaker(prover).candidates(kPrefix)) {
    min_len = std::min(min_len, route.path.length());
  }
  EXPECT_EQ(result.honest_output->path.length(), min_len);
}

}  // namespace
}  // namespace pvr
