// End-to-end Figure-1 rounds over the simulated network: the PVR paper's
// Detection / Evidence / Accuracy / Confidentiality properties, exercised
// through actual message exchange (inputs, bundle, gossip, reveals, export).
#include "core/pvr_speaker.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/evidence.h"

namespace pvr::core {
namespace {

[[nodiscard]] bgp::Route route_len(std::size_t length, bgp::AsNumber origin_as,
                                   const bgp::Ipv4Prefix& prefix) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(origin_as);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(5000 + i));
  }
  return bgp::Route{
      .prefix = prefix,
      .path = bgp::AsPath(std::move(hops)),
      .next_hop = origin_as,
      .local_pref = 100,
      .med = 0,
      .origin = bgp::Origin::kIgp,
      .communities = {},
  };
}

struct RoundOutcome {
  std::vector<Evidence> all_evidence;
  std::optional<bgp::Route> accepted;
};

// Runs one full round: providers 0..k-1 provide routes of the given lengths
// (0 = provide nothing), prover proves, everyone verifies.
[[nodiscard]] RoundOutcome run_round(const Figure1Setup& setup,
                                     const std::vector<std::size_t>& lengths) {
  Figure1Handles handles = make_figure1_world(setup);
  Figure1World& world = *handles.world;

  world.sim.schedule(0, [&] {
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      const bgp::AsNumber provider = world.providers[i];
      const std::optional<bgp::Route> route =
          (i < lengths.size() && lengths[i] > 0)
              ? std::optional(route_len(lengths[i], provider, handles.prefix))
              : std::nullopt;
      world.node(provider).provide_input(world.sim.transport(), 1, handles.prefix, route);
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  RoundOutcome outcome;
  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (const bgp::AsNumber verifier : verifiers) {
    world.node(verifier).finalize_round(handles.round_id(1));
    const auto& found = world.node(verifier).evidence();
    outcome.all_evidence.insert(outcome.all_evidence.end(), found.begin(),
                                found.end());
  }
  outcome.accepted = world.node(world.recipient).accepted_route(handles.round_id(1));
  return outcome;
}

[[nodiscard]] bool detected(const RoundOutcome& outcome, ViolationKind kind) {
  return std::any_of(outcome.all_evidence.begin(), outcome.all_evidence.end(),
                     [&](const Evidence& e) { return e.kind == kind; });
}

TEST(PvrNodeTest, HonestRoundAcceptsMinimumNoEvidence) {
  const RoundOutcome outcome = run_round({.seed = 1}, {4, 2, 6});
  EXPECT_TRUE(outcome.all_evidence.empty())
      << outcome.all_evidence.front().to_string();
  ASSERT_TRUE(outcome.accepted.has_value());
  // Input length 2 + the prover prepended = 3 hops.
  EXPECT_EQ(outcome.accepted->path.length(), 3u);
}

TEST(PvrNodeTest, HonestEmptyRoundAcceptsNothing) {
  const RoundOutcome outcome = run_round({.seed = 2}, {0, 0, 0});
  EXPECT_TRUE(outcome.all_evidence.empty());
  EXPECT_FALSE(outcome.accepted.has_value());
}

TEST(PvrNodeTest, HonestExistentialRound) {
  const RoundOutcome outcome = run_round(
      {.seed = 3, .op = OperatorKind::kExistential}, {0, 5, 0});
  EXPECT_TRUE(outcome.all_evidence.empty());
  EXPECT_TRUE(outcome.accepted.has_value());
}

TEST(PvrNodeTest, SingleProviderRound) {
  const RoundOutcome outcome =
      run_round({.seed = 4, .provider_count = 1}, {3});
  EXPECT_TRUE(outcome.all_evidence.empty());
  ASSERT_TRUE(outcome.accepted.has_value());
  EXPECT_EQ(outcome.accepted->path.length(), 4u);
}

// ---- Detection over the wire (the §2.3 Detection property) ----

struct MisbehaviorCase {
  const char* name;
  ProverMisbehavior misbehavior;
  ViolationKind expected;
  bool provable;  // should the auditor accept the evidence?
};

// gtest's fallback printer dumps the raw bytes of the struct, which include
// the load address of `name`; that address changes with every build, and so
// would the listed test names. Print the case name instead.
void PrintTo(const MisbehaviorCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class PvrDetectionTest : public ::testing::TestWithParam<MisbehaviorCase> {};

TEST_P(PvrDetectionTest, MisbehaviorDetectedOverTheWire) {
  const MisbehaviorCase& test_case = GetParam();
  Figure1Setup setup{.seed = 5};
  setup.misbehavior = test_case.misbehavior;

  // Recreate the world to get the directory for auditing.
  Figure1Handles handles = make_figure1_world(setup);
  Figure1World& world = *handles.world;
  world.sim.schedule(0, [&] {
    const std::vector<std::size_t> lengths = {4, 2, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  std::vector<Evidence> all;
  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (const bgp::AsNumber verifier : verifiers) {
    world.node(verifier).finalize_round(handles.round_id(1));
    const auto& found = world.node(verifier).evidence();
    all.insert(all.end(), found.begin(), found.end());
  }

  const auto it = std::find_if(all.begin(), all.end(), [&](const Evidence& e) {
    return e.kind == test_case.expected;
  });
  ASSERT_NE(it, all.end()) << "expected " << to_string(test_case.expected);
  EXPECT_EQ(it->accused, world.prover);

  const Auditor auditor(handles.verify_ctx.get());
  EXPECT_EQ(auditor.validate(*it), test_case.provable) << it->to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PvrDetectionTest,
    ::testing::Values(
        MisbehaviorCase{"nonminimal", {.export_nonminimal = true},
                        ViolationKind::kOutputNotMinimal, true},
        MisbehaviorCase{"nonminimal_forged_bits",
                        {.export_nonminimal = true, .bits_match_lie = true},
                        ViolationKind::kBitNotSet, true},
        MisbehaviorCase{"suppress", {.suppress_export = true},
                        ViolationKind::kSuppressedOutput, true},
        MisbehaviorCase{"fabricate", {.fabricate_route = true},
                        ViolationKind::kOutputWithoutInput, true},
        MisbehaviorCase{"nonmonotone", {.nonmonotone_bits = true},
                        ViolationKind::kNonMonotoneBits, true},
        MisbehaviorCase{"wrong_opening", {.wrong_opening_for = 301},
                        ViolationKind::kBadOpening, true},
        MisbehaviorCase{"skip_reveal", {.skip_reveal_for = 302},
                        ViolationKind::kMissingReveal, false},
        MisbehaviorCase{"equivocate", {.equivocate = true},
                        ViolationKind::kEquivocation, true}),
    [](const ::testing::TestParamInfo<MisbehaviorCase>& info) {
      return info.param.name;
    });

// A misbehaving prover must not have its route accepted by B when B's own
// checks fail.
TEST(PvrNodeTest, RecipientRejectsRouteOnDetectedViolation) {
  Figure1Setup setup{.seed = 6};
  setup.misbehavior = {.export_nonminimal = true};
  const RoundOutcome outcome = [&] {
    Figure1Handles handles = make_figure1_world(setup);
    Figure1World& world = *handles.world;
    world.sim.schedule(0, [&] {
      const std::vector<std::size_t> lengths = {4, 2, 6};
      for (std::size_t i = 0; i < world.providers.size(); ++i) {
        world.node(world.providers[i])
            .provide_input(world.sim.transport(), 1, handles.prefix,
                           route_len(lengths[i], world.providers[i], handles.prefix));
      }
      world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
    });
    world.sim.run();
    RoundOutcome out;
    world.node(world.recipient).finalize_round(handles.round_id(1));
    out.accepted = world.node(world.recipient).accepted_route(handles.round_id(1));
    out.all_evidence = world.node(world.recipient).evidence();
    return out;
  }();
  EXPECT_FALSE(outcome.accepted.has_value());
  EXPECT_FALSE(outcome.all_evidence.empty());
}

// Equivocation is caught by gossip even though each individual neighbor saw
// a self-consistent bundle.
TEST(PvrNodeTest, GossipCatchesEquivocation) {
  Figure1Setup setup{.seed = 7, .provider_count = 4};
  setup.misbehavior = {.equivocate = true};
  const RoundOutcome outcome = run_round(setup, {3, 4, 5, 6});
  EXPECT_TRUE(detected(outcome, ViolationKind::kEquivocation));
}

// Confidentiality: in an honest round, a provider's node state never holds
// another provider's route or the recipient reveal, and the recipient never
// sees provider reveals. (The channels are point-to-point; this asserts the
// node-level bookkeeping honors that.)
TEST(PvrNodeTest, NoCrossNeighborLeakage) {
  Figure1Setup setup{.seed = 8};
  Figure1Handles handles = make_figure1_world(setup);
  Figure1World& world = *handles.world;
  world.sim.schedule(0, [&] {
    const std::vector<std::size_t> lengths = {4, 2, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();
  for (const bgp::AsNumber provider : world.providers) {
    world.node(provider).finalize_round(handles.round_id(1));
    EXPECT_TRUE(world.node(provider).evidence().empty());
    // Providers never accept/observe the exported route.
    EXPECT_FALSE(world.node(provider).accepted_route(handles.round_id(1)).has_value());
  }
}

TEST(PvrNodeTest, MultipleSequentialEpochs) {
  Figure1Setup setup{.seed = 9};
  Figure1Handles handles = make_figure1_world(setup);
  Figure1World& world = *handles.world;

  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    world.sim.schedule_after(1000, [&, epoch] {
      const std::vector<std::size_t> lengths = {4 + epoch % 2, 2, 6};
      for (std::size_t i = 0; i < world.providers.size(); ++i) {
        world.node(world.providers[i])
            .provide_input(world.sim.transport(), epoch, handles.prefix,
                           route_len(lengths[i], world.providers[i], handles.prefix));
      }
      world.node(world.prover).start_round(world.sim.transport(), epoch, handles.prefix);
    });
    world.sim.run();
  }
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    world.node(world.recipient).finalize_round(handles.round_id(epoch));
    EXPECT_TRUE(world.node(world.recipient).accepted_route(handles.round_id(epoch)).has_value())
        << "epoch " << epoch;
  }
  EXPECT_TRUE(world.node(world.recipient).evidence().empty());
}

// The recipient's own window message is held back, so the window's root
// reaches it first as a gossip copy and enters the root dedup from there.
// The late direct message must still file the round's leaves: the honest
// round accepts its route with no evidence.
TEST(PvrNodeTest, WindowLeavesFiledWhenGossipRootArrivesFirst) {
  Figure1Handles handles = make_figure1_world({.seed = 14});
  Figure1World& world = *handles.world;
  constexpr net::SimTime kLatency = 1000;  // every Figure-1 link
  constexpr net::SimTime kHoldBack = 5000;
  net::SimTime direct_arrival = 0;
  net::SimTime first_gossip_arrival = 0;
  world.sim.set_interceptor([&](net::Transport& sim, const net::Message& message) {
    if (message.to != world.recipient) return net::InterceptDecision{};
    const net::SimTime arrival = sim.now() + kLatency;
    if (message.channel == kBundleAggChannel) {
      direct_arrival = arrival + kHoldBack;
      return net::InterceptDecision{.drop = false, .extra_delay = kHoldBack};
    }
    if (message.channel == kGossipRootChannel && first_gossip_arrival == 0) {
      first_gossip_arrival = arrival;
    }
    return net::InterceptDecision{};
  });
  world.sim.schedule(0, [&] {
    const std::vector<std::size_t> lengths = {4, 2, 6};
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix,
                         route_len(lengths[i], world.providers[i], handles.prefix));
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();
  ASSERT_GT(direct_arrival, 0);
  ASSERT_GT(first_gossip_arrival, 0);
  ASSERT_LT(first_gossip_arrival, direct_arrival);

  PvrNode& recipient = world.node(world.recipient);
  EXPECT_EQ(recipient.seen_root_digests(), 1u);
  recipient.finalize_round(handles.round_id(1));
  EXPECT_TRUE(recipient.evidence().empty())
      << recipient.evidence().front().to_string();
  const auto accepted = recipient.accepted_route(handles.round_id(1));
  ASSERT_TRUE(accepted.has_value());
  EXPECT_EQ(accepted->path.length(), 3u);  // the length-2 input, prepended
}

// A 58-byte unsigned gossip root from one provider to another: a hops
// byte, then a SignedMessage whose AggregatedBundle claims 2^32 - 1
// prefixes. The decoder must reject the count before it reserves for it;
// the receiver drops the root and the run completes.
TEST(PvrNodeTest, ForgedHugeGossipRootIsDroppedWithoutAbortingTheRun) {
  Figure1Handles handles = make_figure1_world({.seed = 12});
  Figure1World& world = *handles.world;
  crypto::ByteWriter root;
  root.put_string("pvr-aggregated-bundle");
  root.put_u32(world.prover);
  root.put_u64(1);            // epoch
  root.put_u32(0);            // batch
  root.put_u32(0xFFFFFFFFu);  // leaf count
  root.put_u32(0xFFFFFFFFu);  // prefix count, with no prefixes following
  const SignedMessage forged{
      .signer = world.prover, .payload = root.take(), .signature = {}};
  std::vector<std::uint8_t> payload{0};  // relay hop count
  const std::vector<std::uint8_t> envelope = forged.encode();
  payload.insert(payload.end(), envelope.begin(), envelope.end());
  ASSERT_EQ(payload.size(), 62u);

  const bgp::AsNumber receiver = world.providers[0];
  world.sim.schedule(0, [&world, receiver, payload] {
    world.sim.send(net::Message{.from = world.providers[1],
                                .to = receiver,
                                .channel = kGossipRootChannel,
                                .payload = payload});
  });
  world.sim.run();
  EXPECT_EQ(world.node(receiver).open_rounds(), 0u);
  EXPECT_EQ(world.node(receiver).seen_root_epochs(), 0u);
}

// The same for a window message from the prover's own address: an opening
// count, a leaf length and a sibling count that each claim far more than
// the bytes hold are rejected by the decoder before anything is reserved.
TEST(PvrNodeTest, ForgedHugeWindowMessageIsDroppedWithoutAbortingTheRun) {
  Figure1Handles handles = make_figure1_world({.seed = 13});
  Figure1World& world = *handles.world;
  const std::vector<std::uint8_t> root =
      SignedMessage{.signer = world.prover, .payload = {1, 2, 3}, .signature = {}}
          .encode();
  const auto window_message = [&root](auto&& body) {
    crypto::ByteWriter writer;
    writer.put_string("pvr.bundle.agg");
    writer.put_bytes(root);
    body(writer);
    return writer.take();
  };
  const std::vector<std::vector<std::uint8_t>> forged = {
      window_message([](crypto::ByteWriter& w) { w.put_u32(0xFFFFFFFFu); }),
      window_message([](crypto::ByteWriter& w) {
        w.put_u32(1);            // one opening
        w.put_u32(0xFFFFFFF0u);  // whose leaf claims ~4 GiB
      }),
      window_message([](crypto::ByteWriter& w) {
        w.put_u32(1);
        w.put_bytes(WindowLeaf{}.encode());
        w.put_u32(0);
        w.put_u32(1);
        w.put_u8(0xFF);  // 255 siblings, none following
      }),
  };
  const bgp::AsNumber receiver = world.providers[0];
  world.sim.schedule(0, [&world, receiver, &forged] {
    for (const std::vector<std::uint8_t>& payload : forged) {
      world.sim.send(net::Message{.from = world.prover,
                                  .to = receiver,
                                  .channel = kBundleAggChannel,
                                  .payload = payload});
    }
  });
  world.sim.run();
  EXPECT_EQ(world.node(receiver).open_rounds(), 0u);
  EXPECT_EQ(world.node(receiver).seen_root_epochs(), 0u);
}

// record_input is provide_input's state half: the provider's round holds
// its own input, so a round whose bundle never arrives is reported as a
// missing reveal, and nothing is signed or put on the wire.
TEST(PvrNodeTest, RecordInputKeepsOwnInputWithoutSending) {
  Figure1Handles handles = make_figure1_world({.seed = 15});
  Figure1World& world = *handles.world;
  PvrNode& recorded = world.node(world.providers[0]);
  PvrNode& declined = world.node(world.providers[1]);
  PvrNode& silent = world.node(world.providers[2]);
  const auto& announcement = recorded.record_input(
      1, handles.prefix, route_len(3, world.providers[0], handles.prefix));
  ASSERT_TRUE(announcement.has_value());
  EXPECT_EQ(announcement->id, handles.round_id(1));
  EXPECT_EQ(announcement->provider, world.providers[0]);
  EXPECT_FALSE(declined.record_input(1, handles.prefix, std::nullopt).has_value());
  world.sim.run();
  EXPECT_EQ(world.sim.stats().messages_sent, 0u);
  EXPECT_EQ(recorded.bytes_sent(), 0u);

  recorded.finalize_round(handles.round_id(1));
  ASSERT_EQ(recorded.evidence().size(), 1u);
  EXPECT_EQ(recorded.evidence()[0].kind, ViolationKind::kMissingReveal);
  EXPECT_EQ(recorded.evidence()[0].accused, world.prover);
  // No input (declined) or no call at all (silent): nothing was owed.
  declined.finalize_round(handles.round_id(1));
  silent.finalize_round(handles.round_id(1));
  EXPECT_TRUE(declined.evidence().empty());
  EXPECT_TRUE(silent.evidence().empty());
  EXPECT_THROW((void)world.node(world.prover)
                   .record_input(1, handles.prefix, std::nullopt),
               std::logic_error);
}

TEST(PvrNodeTest, RoleValidation) {
  Figure1Setup setup{.seed = 10};
  Figure1Handles handles = make_figure1_world(setup);
  Figure1World& world = *handles.world;
  EXPECT_THROW(world.node(world.recipient).start_round(world.sim.transport(), 1, handles.prefix),
               std::logic_error);
  EXPECT_THROW(world.node(world.prover)
                   .provide_input(world.sim.transport(), 1, handles.prefix, std::nullopt),
               std::logic_error);
}

// Every node verifies through the context its builder hands in; there is
// no fallback to pick one silently, so a missing context is refused.
TEST(PvrNodeTest, NullVerifyContextIsRejected) {
  Figure1Setup setup{.seed = 10};
  const Figure1Handles handles = make_figure1_world(setup);
  const bgp::AsNumber prover = handles.world->prover;
  PvrConfig config{
      .asn = prover,
      .role = PvrRole::kProver,
      .verify_ctx = nullptr,
      .private_key = &handles.keys->private_keys.at(prover).priv,
  };
  EXPECT_THROW(PvrNode{config}, std::invalid_argument);
  config.verify_ctx = handles.verify_ctx.get();
  EXPECT_NO_THROW(PvrNode{config});
}

}  // namespace
}  // namespace pvr::core
