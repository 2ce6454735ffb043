// Engine-backed finalize over the lossy-network scenarios: the parallel
// engine must reproduce the sequential finalize_round verdicts exactly,
// byte for byte, under message loss, equivocation, and duplicate delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "core/evidence.h"
#include "core/pvr_speaker.h"
#include "engine/verification_engine.h"

namespace pvr::engine {
namespace {

using core::Evidence;
using core::Figure1Handles;
using core::Figure1Setup;
using core::Figure1World;
using core::ViolationKind;

[[nodiscard]] bgp::Route route_len(std::size_t length, bgp::AsNumber origin_as,
                                   const bgp::Ipv4Prefix& prefix) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(origin_as);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(5000 + i));
  }
  return bgp::Route{.prefix = prefix,
                    .path = bgp::AsPath(std::move(hops)),
                    .next_hop = origin_as,
                    .local_pref = 100,
                    .med = 0,
                    .origin = bgp::Origin::kIgp,
                    .communities = {}};
}

// Runs the equivocating-prover round over a degraded verifier mesh (the
// scenario from tests/integration/lossy_network_test.cpp) and returns the
// world, quiesced and ready to finalize.
[[nodiscard]] Figure1Handles run_lossy_equivocation_world() {
  Figure1Setup setup{.seed = 32, .provider_count = 4};
  setup.misbehavior = {.equivocate = true};
  Figure1Handles handles = core::make_figure1_world(setup);
  Figure1World& world = *handles.world;

  // Reduce the verifier mesh to a line: N1-N2-N3-N4-B.
  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (std::size_t i = 0; i < verifiers.size(); ++i) {
    for (std::size_t j = i + 1; j < verifiers.size(); ++j) {
      if (j != i + 1) world.sim.disconnect(verifiers[i], verifiers[j]);
    }
  }

  world.sim.schedule(0, [&world, &handles] {
    const std::vector<std::size_t> lengths = {3, 4, 5, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i],
                                   handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();
  return handles;
}

[[nodiscard]] std::string evidence_fingerprint(const std::vector<Evidence>& log) {
  std::string out;
  for (const Evidence& item : log) {
    out += item.to_string() + "\n";
    for (const core::SignedMessage& message : item.messages) {
      out += crypto::to_hex(message.encode()) + "\n";
    }
  }
  return out;
}

TEST(EngineIntegrationTest, MatchesSequentialFinalizeUnderEquivocation) {
  // Two identical worlds (same seed => byte-identical message history):
  // one finalized sequentially, one through the 8-worker engine.
  Figure1Handles sequential = run_lossy_equivocation_world();
  Figure1Handles engined = run_lossy_equivocation_world();

  std::vector<bgp::AsNumber> verifiers = sequential.world->providers;
  verifiers.push_back(sequential.world->recipient);

  for (const bgp::AsNumber verifier : verifiers) {
    sequential.world->node(verifier).finalize_round(sequential.round_id(1));
  }

  VerificationEngine engine(8);
  for (const bgp::AsNumber verifier : verifiers) {
    EXPECT_TRUE(engine.submit_node_round(engined.world->node(verifier), engined.round_id(1)));
  }
  const EngineReport report = engine.drain();
  EXPECT_EQ(report.rounds, verifiers.size());

  // Every verifier's evidence log must be byte-identical to the sequential
  // run's.
  for (const bgp::AsNumber verifier : verifiers) {
    EXPECT_EQ(
        evidence_fingerprint(engined.world->node(verifier).evidence()),
        evidence_fingerprint(sequential.world->node(verifier).evidence()))
        << "verifier " << verifier;
    EXPECT_FALSE(engined.world->node(verifier).evidence().empty());
  }

  // The report counts exactly what the nodes received.
  const core::Auditor auditor(engined.verify_ctx.get());
  std::size_t total = 0;
  std::size_t equivocations = 0;
  std::size_t provable = 0;
  for (const bgp::AsNumber verifier : verifiers) {
    for (const Evidence& item : engined.world->node(verifier).evidence()) {
      total += 1;
      if (item.kind == ViolationKind::kEquivocation) equivocations += 1;
      if (auditor.validate(item)) provable += 1;
    }
  }
  EXPECT_EQ(total, report.violations);
  EXPECT_GT(equivocations, 0u);
  // Equivocation evidence is third-party provable: the auditor accepts it.
  EXPECT_GT(provable, 0u);
}

TEST(EngineIntegrationTest, TotalLossYieldsOnlyLivenessFindings) {
  // The total-loss scenario: links severed after inputs, so bundle and
  // reveals never arrive; the engine path must report the same
  // non-provable liveness faults as sequential finalize.
  Figure1Handles handles = core::make_figure1_world({.seed = 31});
  Figure1World& world = *handles.world;

  world.sim.schedule(0, [&world, &handles] {
    const std::vector<std::size_t> lengths = {4, 2, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i],
                                   handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.schedule(5'000, [&world] {
    for (const bgp::AsNumber provider : world.providers) {
      world.sim.disconnect(world.prover, provider);
    }
    world.sim.disconnect(world.prover, world.recipient);
  });
  try {
    world.sim.run();
  } catch (const std::logic_error&) {
    // expected: the prover sent on a severed link
  }

  VerificationEngine engine(4);
  for (const bgp::AsNumber provider : world.providers) {
    EXPECT_TRUE(engine.submit_node_round(world.node(provider), handles.round_id(1)));
  }
  const EngineReport report = engine.drain();

  const core::Auditor auditor(handles.verify_ctx.get());
  std::size_t total = 0;
  for (const bgp::AsNumber provider : world.providers) {
    const auto& evidence = world.node(provider).evidence();
    ASSERT_FALSE(evidence.empty());
    for (const Evidence& item : evidence) {
      EXPECT_EQ(item.kind, ViolationKind::kMissingReveal);
      EXPECT_FALSE(auditor.validate(item));
    }
    total += evidence.size();
  }
  EXPECT_EQ(total, report.violations);
}

TEST(EngineIntegrationTest, FailedRoundDoesNotCorruptNextBatch) {
  VerificationEngine engine(2);

  const core::ProtocolId id{.prover = 1,
                            .prefix = bgp::Ipv4Prefix::parse("10.0.0.0/24"),
                            .epoch = 1};
  engine.submit(id, [] { return core::RoundFindings{}; });
  engine.submit(id, []() -> core::RoundFindings {
    throw std::runtime_error("boom");
  });
  EXPECT_THROW((void)engine.drain(), std::runtime_error);

  // After a failed batch the engine must still deliver the next batch's
  // findings correctly (tickets restart at 0; no stale owner state).
  engine.submit(id, [] {
    core::RoundFindings findings;
    findings.evidence.push_back(core::Evidence{
        .kind = core::ViolationKind::kBadOpening,
        .accused = 1,
        .reporter = 2,
        .index = 1,
        .messages = {},
        .leaves = {},
        .detail = "post-error round"});
    return findings;
  });
  const EngineReport report = engine.drain();
  EXPECT_EQ(report.rounds, 1u);
  EXPECT_EQ(report.violations, 1u);
  ASSERT_EQ(report.outcomes[0].findings.evidence.size(), 1u);
  EXPECT_EQ(report.outcomes[0].findings.evidence[0].kind,
            core::ViolationKind::kBadOpening);
}

TEST(EngineIntegrationTest, DeferFinalizeIsIdempotent) {
  Figure1Handles handles = core::make_figure1_world({.seed = 33});
  Figure1World& world = *handles.world;
  // A copy of provider 1's window message, delivered again after its round
  // is deferred.
  net::Message window_message;
  world.sim.set_interceptor([&](net::Transport&, const net::Message& message) {
    if (message.to == world.providers[1] &&
        message.channel == core::kBundleAggChannel) {
      window_message = message;
    }
    return net::InterceptDecision{};
  });
  world.sim.schedule(0, [&world, &handles] {
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(2 + i, world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  core::PvrNode& provider = world.node(world.providers[0]);
  VerificationEngine engine(2);
  EXPECT_TRUE(engine.submit_node_round(provider, handles.round_id(1)));
  // Second deferred submit and a direct finalize are both no-ops now.
  EXPECT_FALSE(engine.submit_node_round(provider, handles.round_id(1)));
  provider.finalize_round(handles.round_id(1));
  (void)engine.drain();
  EXPECT_TRUE(provider.evidence().empty());  // honest round, one evaluation

  // A deferred round is one closure; a second defer returns none.
  core::PvrNode& other = world.node(world.providers[1]);
  const std::function<core::RoundFindings()> check =
      other.defer_finalize_checks(handles.round_id(1));
  ASSERT_TRUE(check);
  EXPECT_FALSE(other.defer_finalize_checks(handles.round_id(1)));
  // The closure took the round's state. A late window message for the
  // deferred round changes nothing: it yields no second closure, and the
  // one closure still checks the round as it stood.
  ASSERT_FALSE(window_message.payload.empty());
  other.on_message(world.sim.transport(), window_message);
  EXPECT_FALSE(other.defer_finalize_checks(handles.round_id(1)));
  other.apply_round_findings(handles.round_id(1), check());
  EXPECT_TRUE(other.evidence().empty());
  ASSERT_TRUE(other.gc_finalized(handles.round_id(1)));
  EXPECT_EQ(other.open_rounds(), 0u);
}

}  // namespace
}  // namespace pvr::engine
