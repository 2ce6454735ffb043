// Regression coverage for the multi-prefix / multi-prover round-state
// collision: before round state was keyed by the full core::ProtocolId,
// PvrNode keyed rounds_ / collected_inputs_ / accepted_ by epoch alone, so
// two concurrent rounds in the same epoch — different prefixes, or
// different provers — stomped each other's bundles and reveals and were
// reported as equivocation / bad reveals that never happened (and the
// recipient could not hold one accepted route per prefix at all).
#include "core/pvr_speaker.h"

#include <gtest/gtest.h>

#include "core/evidence.h"
#include "engine/verification_engine.h"

namespace pvr::core {
namespace {

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

// Drives two prefixes through the same epoch of one world: every provider
// announces a route for both prefixes, the prover starts both rounds inside
// one collection window.
struct TwoPrefixRun {
  Figure1Handles handles;
  bgp::Ipv4Prefix prefix_b;

  [[nodiscard]] ProtocolId id_a() const { return handles.round_id(1); }
  [[nodiscard]] ProtocolId id_b() const {
    return ProtocolId{
        .prover = handles.world->prover, .prefix = prefix_b, .epoch = 1};
  }
};

[[nodiscard]] TwoPrefixRun run_two_prefixes(Figure1Setup setup) {
  TwoPrefixRun run{.handles = make_figure1_world(setup),
                   .prefix_b = bgp::Ipv4Prefix::parse("198.51.100.0/24")};
  Figure1World& world = *run.handles.world;

  world.sim.schedule(0, [&world, &run] {
    // Prefix A minimum: length 2 (provider 1); prefix B minimum: length 3
    // (provider 2) — distinct winners so cross-prefix clobbering would be
    // visible in the accepted routes, not just in the evidence log. Sized
    // for the largest provider_count any caller uses (ASan caught the
    // 4-provider equivocation run reading past 3-element vectors).
    const std::vector<std::size_t> lengths_a = {4, 2, 6, 9};
    const std::vector<std::size_t> lengths_b = {5, 7, 3, 8};
    ASSERT_LE(world.providers.size(), lengths_a.size());
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      const bgp::AsNumber provider = world.providers[i];
      world.node(provider).provide_input(
          world.sim.transport(), 1, run.handles.prefix,
          route_len(lengths_a[i], provider, run.handles.prefix));
      world.node(provider).provide_input(
          world.sim.transport(), 1, run.prefix_b,
          route_len(lengths_b[i], provider, run.prefix_b));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, run.handles.prefix);
    world.node(world.prover).start_round(world.sim.transport(), 1, run.prefix_b);
  });
  world.sim.run();
  return run;
}

TEST(MultiPrefixTest, TwoPrefixesSameEpochNoFalseEvidence) {
  TwoPrefixRun run = run_two_prefixes({.seed = 21});
  Figure1World& world = *run.handles.world;

  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (const bgp::AsNumber verifier : verifiers) {
    world.node(verifier).finalize_round(run.id_a());
    world.node(verifier).finalize_round(run.id_b());
    EXPECT_TRUE(world.node(verifier).evidence().empty())
        << "verifier " << verifier << ": "
        << world.node(verifier).evidence().front().to_string();
  }

  // Per-prefix accepted routes: input minimum + the prover prepended.
  const auto accepted_a = world.node(world.recipient).accepted_route(run.id_a());
  const auto accepted_b = world.node(world.recipient).accepted_route(run.id_b());
  ASSERT_TRUE(accepted_a.has_value());
  ASSERT_TRUE(accepted_b.has_value());
  EXPECT_EQ(accepted_a->path.length(), 3u);
  EXPECT_EQ(accepted_b->path.length(), 4u);
  EXPECT_EQ(accepted_a->prefix, run.handles.prefix);
  EXPECT_EQ(accepted_b->prefix, run.prefix_b);
}

TEST(MultiPrefixTest, TwoPrefixesSameEpochThroughEngine) {
  TwoPrefixRun run = run_two_prefixes({.seed = 22});
  Figure1World& world = *run.handles.world;

  engine::VerificationEngine engine(8);
  engine::finalize_world_round(engine, world, run.id_a());
  const engine::EngineReport report =
      engine::finalize_world_round(engine, world, run.id_b());
  EXPECT_EQ(report.rounds, world.providers.size() + 1);
  EXPECT_EQ(report.violations, 0u);

  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (const bgp::AsNumber verifier : verifiers) {
    EXPECT_TRUE(world.node(verifier).evidence().empty()) << verifier;
  }
  EXPECT_TRUE(
      world.node(world.recipient).accepted_route(run.id_a()).has_value());
  EXPECT_TRUE(
      world.node(world.recipient).accepted_route(run.id_b()).has_value());
}

// Two provers (two Figure-1 neighborhoods, distinct ASNs) running the same
// epoch over the same prefix, drained through ONE engine batch: rounds are
// keyed by the full (prover, prefix, epoch) identity, so
// neither neighborhood sees the other's state or findings.
TEST(MultiPrefixTest, TwoProversSameEpochSamePrefixThroughOneEngine) {
  Figure1Handles first = make_figure1_world({.seed = 24});
  Figure1Handles second = make_figure1_world({.seed = 25, .asn_base = 1000});
  ASSERT_NE(first.world->prover, second.world->prover);
  ASSERT_EQ(first.prefix, second.prefix);

  const auto drive = [](Figure1Handles& handles,
                        const std::vector<std::size_t>& lengths) {
    Figure1World& world = *handles.world;
    world.sim.schedule(0, [&world, &handles, lengths] {
      for (std::size_t i = 0; i < world.providers.size(); ++i) {
        world.node(world.providers[i])
            .provide_input(world.sim.transport(), 1, handles.prefix,
                           route_len(lengths[i], world.providers[i],
                                     handles.prefix));
      }
      world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
    });
    world.sim.run();
  };
  drive(first, {4, 2, 6});
  drive(second, {5, 7, 3});

  engine::VerificationEngine engine(8);
  engine::finalize_world_round(engine, *first.world, first.round_id(1));
  engine::finalize_world_round(engine, *second.world, second.round_id(1));

  for (Figure1Handles* handles : {&first, &second}) {
    Figure1World& world = *handles->world;
    std::vector<bgp::AsNumber> verifiers = world.providers;
    verifiers.push_back(world.recipient);
    for (const bgp::AsNumber verifier : verifiers) {
      EXPECT_TRUE(world.node(verifier).evidence().empty()) << verifier;
    }
  }
  const auto accepted_first =
      first.world->node(first.world->recipient).accepted_route(first.round_id(1));
  const auto accepted_second = second.world->node(second.world->recipient)
                                   .accepted_route(second.round_id(1));
  ASSERT_TRUE(accepted_first.has_value());
  ASSERT_TRUE(accepted_second.has_value());
  EXPECT_EQ(accepted_first->path.length(), 3u);   // min 2 + prover
  EXPECT_EQ(accepted_second->path.length(), 4u);  // min 3 + prover
}

// A Byzantine prover equivocating across a two-prefix window is caught per
// round, and the root evidence convinces the auditor.
TEST(MultiPrefixTest, EquivocationAcrossTwoPrefixWindowIsProvable) {
  Figure1Setup setup{.seed = 26, .provider_count = 4};
  setup.misbehavior = {.equivocate = true};
  TwoPrefixRun run = run_two_prefixes(setup);
  Figure1World& world = *run.handles.world;

  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  const Auditor auditor(run.handles.verify_ctx.get());
  std::size_t equivocations = 0;
  std::size_t provable = 0;
  for (const bgp::AsNumber verifier : verifiers) {
    world.node(verifier).finalize_round(run.id_a());
    world.node(verifier).finalize_round(run.id_b());
    // Providers fed the variant bundle also (correctly) flag the mismatched
    // openings, so the log is a mix; every equivocation item must accuse
    // the prover and convince the auditor from the two signed roots alone.
    for (const Evidence& item : world.node(verifier).evidence()) {
      EXPECT_EQ(item.accused, world.prover);
      if (item.kind != ViolationKind::kEquivocation) continue;
      equivocations += 1;
      if (auditor.validate(item)) provable += 1;
    }
  }
  EXPECT_GT(equivocations, 0u);
  EXPECT_EQ(provable, equivocations);
}

// An honest epoch with TWO aggregation windows (the second prefix started
// after the first window closed) legitimately carries two different signed
// roots with disjoint prefix lists; that must not produce evidence.
TEST(MultiPrefixTest, HonestTwoWindowEpochYieldsNoEvidence) {
  Figure1Handles handles = make_figure1_world({.seed = 29});
  Figure1World& world = *handles.world;
  const bgp::Ipv4Prefix prefix_b = bgp::Ipv4Prefix::parse("198.51.100.0/24");

  world.sim.schedule(0, [&world, &handles] {
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(3 + i, world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  // Second window: starts well after the first 10 ms window closed.
  world.sim.schedule(50'000, [&world, &prefix_b] {
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, prefix_b,
                         route_len(2 + i, world.providers[i], prefix_b));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, prefix_b);
  });
  world.sim.run();

  const ProtocolId id_a = handles.round_id(1);
  const ProtocolId id_b{
      .prover = world.prover, .prefix = prefix_b, .epoch = 1};
  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (const bgp::AsNumber verifier : verifiers) {
    world.node(verifier).finalize_round(id_a);
    world.node(verifier).finalize_round(id_b);
    EXPECT_TRUE(world.node(verifier).evidence().empty())
        << "verifier " << verifier << ": "
        << world.node(verifier).evidence().front().to_string();
  }
  EXPECT_TRUE(world.node(world.recipient).accepted_route(id_a).has_value());
  EXPECT_TRUE(world.node(world.recipient).accepted_route(id_b).has_value());
}

// A prover that equivocates by splitting its victims across DIFFERENT
// batch numbers never signs two roots for one window. Both signed prefix
// lists still claim the round, so once root gossip hands every verifier
// both roots, each holds provable per-round equivocation evidence from the
// two signed roots alone — even the verifiers that only ever received one
// of the bundles.
TEST(MultiPrefixTest, BatchSplitEquivocationEscalatesToProvableEvidence) {
  Figure1Handles handles =
      make_figure1_world({.seed = 27, .provider_count = 4});
  Figure1World& world = *handles.world;
  const ProtocolId id = handles.round_id(1);
  const auto& prover_key = handles.keys->private_keys.at(world.prover).priv;

  // Two conflicting signed bundles for the same round (fresh commitment
  // nonces), each wrapped in its own aggregation window: batch 0 vs 1.
  const std::map<bgp::AsNumber, std::optional<SignedMessage>> no_inputs;
  crypto::Drbg rng_a(71, "batch-split-a");
  crypto::Drbg rng_b(72, "batch-split-b");
  const ProverResult variant_a =
      run_prover(id, OperatorKind::kMinimum, no_inputs, 16, rng_a, {});
  const ProverResult variant_b =
      run_prover(id, OperatorKind::kMinimum, no_inputs, 16, rng_b, {});
  ASSERT_NE(variant_a.bundle.encode(), variant_b.bundle.encode());
  const AggregatedBundleMessage agg_a =
      seal_window(world.prover, 1, /*batch=*/0, 0, std::span(&variant_a, 1),
                  prover_key, rng_a)
          .honest.message_for_recipient();
  const AggregatedBundleMessage agg_b =
      seal_window(world.prover, 1, /*batch=*/1, 1, std::span(&variant_b, 1),
                  prover_key, rng_b)
          .honest.message_for_recipient();

  world.sim.schedule(0, [&world, &agg_a, &agg_b] {
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.sim.send(net::Message{
          .from = world.prover,
          .to = world.providers[i],
          .channel = kBundleAggChannel,
          .payload = (i < world.providers.size() / 2 ? agg_a : agg_b).encode()});
    }
    world.sim.send(net::Message{.from = world.prover,
                                .to = world.recipient,
                                .channel = kBundleAggChannel,
                                .payload = agg_b.encode()});
  });
  world.sim.run();

  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  const Auditor auditor(handles.verify_ctx.get());
  for (const bgp::AsNumber verifier : verifiers) {
    world.node(verifier).finalize_round(id);
    std::size_t provable_equivocations = 0;
    for (const Evidence& item : world.node(verifier).evidence()) {
      if (item.kind == ViolationKind::kEquivocation &&
          auditor.validate(item)) {
        provable_equivocations += 1;
      }
    }
    EXPECT_GT(provable_equivocations, 0u) << "verifier " << verifier;
  }
}

// A forged aggregation message (claimed prover signer, garbage root
// signature) injected before the real one must neither claim the
// first-seen bundle slot nor produce evidence: the honest round's route is
// still accepted.
TEST(MultiPrefixTest, ForgedBundleCannotPoisonHonestRound) {
  Figure1Handles handles = make_figure1_world({.seed = 31});
  Figure1World& world = *handles.world;
  const ProtocolId id = handles.round_id(1);
  const auto& prover_key = handles.keys->private_keys.at(world.prover).priv;

  // Well-formed statements for the round, sealed in a well-formed window,
  // with the root signature replaced by garbage.
  const std::map<bgp::AsNumber, std::optional<SignedMessage>> no_inputs;
  crypto::Drbg rng(74, "forged-agg");
  const ProverResult forged =
      run_prover(id, OperatorKind::kMinimum, no_inputs, 16, rng, {});
  AggregatedBundleMessage forged_agg =
      seal_window(world.prover, 1, /*batch=*/0, 0, std::span(&forged, 1),
                  prover_key, rng)
          .honest.message_for_recipient();
  forged_agg.signed_root.signature = {0xde, 0xad, 0xbe, 0xef};

  world.sim.schedule(0, [&world, &handles, &forged_agg] {
    // The forgery races ahead of the honest protocol flow.
    world.sim.send(net::Message{.from = world.prover,
                                .to = world.recipient,
                                .channel = kBundleAggChannel,
                                .payload = forged_agg.encode()});
    const std::vector<std::size_t> lengths = {4, 2, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i],
                                   handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  world.node(world.recipient).finalize_round(id);
  EXPECT_TRUE(world.node(world.recipient).evidence().empty());
  const auto accepted = world.node(world.recipient).accepted_route(id);
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->path.length(), 3u);
}

// A leaf whose round is NOT in the window's signed prefix list must be
// rejected: otherwise a prover could hide a round inside the tree while
// omitting it from every window's list, and no two windows would ever
// provably conflict over it.
TEST(MultiPrefixTest, OpeningOutsideSignedPrefixListIsRejected) {
  Figure1Handles handles = make_figure1_world({.seed = 30});
  Figure1World& world = *handles.world;
  const ProtocolId id = handles.round_id(1);
  const auto& prover_key = handles.keys->private_keys.at(world.prover).priv;

  const std::map<bgp::AsNumber, std::optional<SignedMessage>> no_inputs;
  crypto::Drbg rng(73, "hidden-prefix");
  const ProverResult result =
      run_prover(id, OperatorKind::kMinimum, no_inputs, 16, rng, {});

  // A properly sealed message opens; the same message with the round's
  // prefix swapped out of the signed list must not — neither the bundle
  // leaf nor the statements after it.
  const AggregatedBundleMessage honest =
      seal_window(world.prover, 1, 0, 0, std::span(&result, 1), prover_key, rng)
          .honest.message_for_recipient();
  const AggregatedBundle honest_root =
      AggregatedBundle::decode(honest.signed_root.payload);
  ASSERT_EQ(honest.openings.size(), 3u);  // bundle, reveal, export
  ASSERT_TRUE(open_leaf<CommitmentBundle>(honest_root, honest.openings[0]));
  ASSERT_TRUE(open_leaf<ExportStatement>(honest_root, honest.openings[2]));

  AggregatedBundle hiding_root = honest_root;
  hiding_root.prefixes = {bgp::Ipv4Prefix::parse("198.51.100.0/24")};
  EXPECT_FALSE(open_leaf<CommitmentBundle>(hiding_root, honest.openings[0]));
  EXPECT_FALSE(open_leaf<RevealToRecipient>(hiding_root, honest.openings[1]));
  EXPECT_FALSE(open_leaf<ExportStatement>(hiding_root, honest.openings[2]));

  // End to end: a node receiving the hiding window stashes nothing for the
  // round, so nothing is accepted and no bundle state exists to verify.
  AggregatedBundleMessage hiding = honest;
  hiding.signed_root =
      sign_message(world.prover, prover_key, hiding_root.encode());
  world.sim.schedule(0, [&world, &hiding] {
    world.sim.send(net::Message{.from = world.prover,
                                .to = world.recipient,
                                .channel = kBundleAggChannel,
                                .payload = hiding.encode()});
  });
  world.sim.run();
  world.node(world.recipient).finalize_round(id);
  EXPECT_FALSE(world.node(world.recipient).accepted_route(id).has_value());
  EXPECT_TRUE(world.node(world.recipient).evidence().empty());
}

// A verifier whose direct agg message is lost must still prove root
// equivocation it has seen via gossip alone: roots for the round's
// (prover, epoch) attach at finalize even without a delivered window.
TEST(MultiPrefixTest, OrphanedRoundStillProvesGossipedRootConflict) {
  Figure1Setup setup{.seed = 28, .provider_count = 4};
  setup.misbehavior = {.equivocate = true};
  Figure1Handles handles = make_figure1_world(setup);
  Figure1World& world = *handles.world;

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

  // Cut the prover->providers[3] link before the prover's window closes,
  // so that node gets no window message — only gossip.
  world.sim.schedule(5'000, [&world] {
    world.sim.disconnect(world.prover, world.providers[3]);
  });
  // The prover throws mid-batch when it hits the severed link; resume the
  // simulator so the deliveries already queued (aggs to the first three
  // providers, and their gossip) still dispatch.
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      world.sim.run();
      break;
    } catch (const std::logic_error&) {
      // expected: the prover sent on the severed link
    }
  }

  PvrNode& orphan = world.node(world.providers[3]);
  orphan.finalize_round(handles.round_id(1));
  const Auditor auditor(handles.verify_ctx.get());
  bool provable_equivocation = false;
  for (const Evidence& item : orphan.evidence()) {
    if (item.kind == ViolationKind::kEquivocation && auditor.validate(item)) {
      provable_equivocation = true;
    }
  }
  EXPECT_TRUE(provable_equivocation);
}

}  // namespace
}  // namespace pvr::core
