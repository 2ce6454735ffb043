// One signature per prover window, in the form PvrNode ships it
// (pvr.bundle.agg): every statement of the window is a salted leaf under
// one signed root. Each leaf must bind to the signed window statement —
// its kind to its position, its proof to the signed leaf count — and a
// root whose signature fails must leave a verifier with no round state.
#include "core/bundle_aggregation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/pvr_speaker.h"
#include "core/verify_context.h"

namespace pvr::core {
namespace {

constexpr bgp::AsNumber kProver = 1;

// One round per prefix of one epoch window, nobody providing.
[[nodiscard]] std::vector<ProverResult> window_rounds(bgp::AsNumber prover,
                                                      std::uint64_t epoch,
                                                      std::size_t prefixes) {
  crypto::Drbg rng(12 + epoch, "agg-test-commits");
  std::vector<ProverResult> out;
  for (std::uint32_t p = 0; p < prefixes; ++p) {
    const ProtocolId id{.prover = prover,
                        .prefix = bgp::Ipv4Prefix(0x0A000000u + (p << 8), 24),
                        .epoch = epoch};
    out.push_back(run_prover(id, OperatorKind::kMinimum, {}, 4, rng, {}));
  }
  return out;
}

struct AggregatedWorld {
  AsKeyPairs keys;
  AggregatedBundleMessage message;  // the recipient's: every leaf kind
  AggregatedBundle root;            // decoded message.signed_root.payload
};

[[nodiscard]] AggregatedWorld make_aggregated(std::size_t prefixes,
                                              std::uint64_t epoch) {
  AggregatedWorld world;
  crypto::Drbg key_rng(11, "agg-test-keys");
  world.keys = generate_keys({kProver, 2}, key_rng, 512);
  crypto::Drbg salt_rng(40 + epoch, "agg-test-salts");
  world.message =
      seal_window(kProver, epoch, /*batch=*/0, 0,
                  window_rounds(kProver, epoch, prefixes),
                  world.keys.private_keys.at(kProver).priv, salt_rng)
          .honest.message_for_recipient();
  world.root = AggregatedBundle::decode(world.message.signed_root.payload);
  return world;
}

// Provider `provider`'s signed input for round `id`: a route of `length`
// hops starting at the provider.
[[nodiscard]] SignedMessage signed_input(const AsKeyPairs& keys,
                                         const ProtocolId& id,
                                         bgp::AsNumber provider,
                                         std::size_t length) {
  std::vector<bgp::AsNumber> hops(length, 64512);
  hops.front() = provider;
  const InputAnnouncement announcement{
      .id = id,
      .provider = provider,
      .route = bgp::Route{.prefix = id.prefix,
                          .path = bgp::AsPath(std::move(hops)),
                          .next_hop = provider,
                          .local_pref = 100,
                          .med = 0,
                          .origin = bgp::Origin::kIgp,
                          .communities = {}}};
  return sign_message(provider, keys.private_keys.at(provider).priv,
                      announcement.encode());
}

// Whether `opening` opens under `root` as the statement its kind names.
[[nodiscard]] bool opens(const AggregatedBundle& root,
                         const LeafOpening& opening) {
  switch (opening.leaf.kind) {
    case LeafKind::kBundle:
      return open_leaf<CommitmentBundle>(root, opening).has_value();
    case LeafKind::kProviderReveal:
      return open_leaf<RevealToProvider>(root, opening).has_value();
    case LeafKind::kRecipientReveal:
      return open_leaf<RevealToRecipient>(root, opening).has_value();
    case LeafKind::kExport:
      return open_leaf<ExportStatement>(root, opening).has_value();
  }
  return false;
}

TEST(AggregatedBundleTest, AllOpeningsVerify) {
  const AggregatedWorld world = make_aggregated(9, 5);
  // 9 bundles, then a recipient reveal and an export per round.
  ASSERT_EQ(world.message.openings.size(), 27u);
  const VerifyContext ctx(&world.keys.directory);
  EXPECT_TRUE(ctx.verify(world.message.signed_root));
  EXPECT_EQ(world.root.prefix_count(), 9u);
  EXPECT_EQ(world.root.leaf_count, 27u);
  for (std::size_t i = 0; i < world.message.openings.size(); ++i) {
    const LeafOpening& opening = world.message.openings[i];
    EXPECT_TRUE(opens(world.root, opening)) << i;
    // Bundle leaf i is the bundle of prefixes[i].
    if (i < 9) {
      EXPECT_EQ(opening.proof.leaf_index, i);
      EXPECT_EQ(open_leaf<CommitmentBundle>(world.root, opening)->id.prefix,
                world.root.prefixes[i]);
    }
  }
}

TEST(AggregatedBundleTest, TamperedBundleRejected) {
  const AggregatedWorld world = make_aggregated(4, 1);
  // A bundle with one commitment changed still decodes, names this
  // window's prover and epoch and the prefix of its slot, so only the
  // Merkle inclusion proof can reject it.
  LeafOpening tampered = world.message.openings[2];
  CommitmentBundle bundle = CommitmentBundle::decode(tampered.leaf.payload);
  bundle.bits[1].digest[0] ^= 1;
  tampered.leaf.payload = bundle.encode();
  const CommitmentBundle reopened = CommitmentBundle::decode(tampered.leaf.payload);
  ASSERT_EQ(reopened.id.prover, world.root.prover);
  ASSERT_EQ(reopened.id.epoch, world.root.epoch);
  ASSERT_EQ(reopened.id.prefix, world.root.prefixes[2]);
  EXPECT_FALSE(open_leaf<CommitmentBundle>(world.root, tampered));
}

TEST(AggregatedBundleTest, CrossEpochTransplantRejected) {
  // A valid opening from epoch 1 must not verify against epoch 2's root.
  const AggregatedWorld epoch1 = make_aggregated(4, 1);
  const AggregatedWorld epoch2 = make_aggregated(4, 2);
  ASSERT_TRUE(opens(epoch1.root, epoch1.message.openings[0]));
  EXPECT_FALSE(opens(epoch2.root, epoch1.message.openings[0]));
}

// A leaf must sit where its kind belongs: a bundle leaf opened as another
// statement, or a statement leaf opened as a bundle, does not open even
// though the Merkle proof itself is sound.
TEST(AggregatedBundleTest, LeafKindMustMatchPosition) {
  const AggregatedWorld world = make_aggregated(3, 1);
  const LeafOpening& bundle = world.message.openings[0];
  const LeafOpening& reveal = world.message.openings[3];
  ASSERT_EQ(reveal.leaf.kind, LeafKind::kRecipientReveal);
  EXPECT_FALSE(open_leaf<RevealToRecipient>(world.root, bundle));
  EXPECT_FALSE(open_leaf<CommitmentBundle>(world.root, reveal));
  LeafOpening relabelled = bundle;
  relabelled.leaf.kind = LeafKind::kExport;
  EXPECT_FALSE(open_leaf<ExportStatement>(world.root, relabelled));
}

// The proof's leaf count is unauthenticated. 5 and 6 leaves share a depth,
// so an inflated count still passes MerkleTree::verify — only the signed
// count in the window statement rejects it.
TEST(AggregatedBundleTest, InflatedLeafCountRejected) {
  const AggregatedWorld world = make_aggregated(2, 1);  // 6 leaves
  ASSERT_EQ(world.root.leaf_count, 6u);
  LeafOpening inflated = world.message.openings[1];
  inflated.proof.leaf_count = 7;  // same depth (3) as 6
  ASSERT_TRUE(crypto::MerkleTree::verify(world.root.root, inflated.leaf.encode(),
                                         inflated.proof));
  EXPECT_FALSE(open_leaf<CommitmentBundle>(world.root, inflated));
  inflated.proof.leaf_count = 9;  // a deeper tree: the sibling count is wrong
  EXPECT_FALSE(crypto::MerkleTree::verify(world.root.root, inflated.leaf.encode(),
                                          inflated.proof));
}

TEST(AggregatedBundleTest, DuplicatePrefixRootRejected) {
  const AggregatedWorld world = make_aggregated(2, 1);
  AggregatedBundle duplicated = world.root;
  duplicated.prefixes[1] = duplicated.prefixes[0];
  EXPECT_THROW((void)AggregatedBundle::decode(duplicated.encode()),
               std::out_of_range);
}

// open_window is the one acceptance rule for a signed root. A payload the
// prover really signed but that is no window statement, and a genuine
// window statement signed by a key other than its prover's, both verify
// as signatures and are still refused. The genuine root is the control.
TEST(AggregatedBundleTest, OpenWindowRejectsMalformedPayload) {
  const AggregatedWorld world = make_aggregated(2, 1);
  const VerifyContext ctx(&world.keys.directory);
  ASSERT_TRUE(open_window(ctx, world.message.signed_root).has_value());
  std::vector<std::uint8_t> truncated = world.message.signed_root.payload;
  truncated.pop_back();
  const SignedMessage malformed = sign_message(
      kProver, world.keys.private_keys.at(kProver).priv, truncated);
  ASSERT_TRUE(ctx.verify(malformed));
  EXPECT_FALSE(open_window(ctx, malformed).has_value());
}

TEST(AggregatedBundleTest, OpenWindowRejectsProverOtherThanSigner) {
  const AggregatedWorld world = make_aggregated(2, 1);
  const VerifyContext ctx(&world.keys.directory);
  // AS 2 signs the statement that names kProver as its prover.
  const SignedMessage resigned = sign_message(
      2, world.keys.private_keys.at(2).priv, world.message.signed_root.payload);
  ASSERT_TRUE(ctx.verify(resigned));
  EXPECT_FALSE(open_window(ctx, resigned).has_value());
  const auto genuine = open_window(ctx, world.message.signed_root);
  ASSERT_TRUE(genuine.has_value());
  EXPECT_EQ(genuine->root().prover, kProver);
  EXPECT_EQ(genuine->signed_root(), world.message.signed_root);
}

// Node level: the prover itself sends a window whose root signature is
// corrupted. The verifier drops the whole message before touching round
// state, so it holds no bundle for any round. The same window with its
// signature intact opens every round — the control that makes the
// rejection meaningful.
TEST(AggregatedBundleTest, ForgedRootSignatureRejected) {
  const auto deliver_window = [](bool forge) {
    Figure1Handles handles = make_figure1_world({.seed = 23});
    Figure1World& world = *handles.world;
    crypto::Drbg salt_rng(5, "forged-root-salts");
    AggregatedBundleMessage message =
        seal_window(world.prover, 1, /*batch=*/0, 0,
                    window_rounds(world.prover, 1, 4),
                    handles.keys->private_keys.at(world.prover).priv, salt_rng)
            .honest.message_for_recipient();
    if (forge) message.signed_root.signature[5] ^= 0x10;
    const bgp::AsNumber verifier = world.providers[0];
    world.sim.schedule(0, [&world, verifier, payload = message.encode()] {
      world.sim.send(net::Message{.from = world.prover,
                                  .to = verifier,
                                  .channel = kBundleAggChannel,
                                  .payload = payload});
    });
    world.sim.run();
    return std::pair{world.node(verifier).open_rounds(),
                     world.node(verifier).seen_root_epochs()};
  };
  EXPECT_EQ(deliver_window(/*forge=*/false), std::pair(std::size_t{4},
                                                        std::size_t{1}));
  EXPECT_EQ(deliver_window(/*forge=*/true), std::pair(std::size_t{0},
                                                       std::size_t{0}));
}

// Node level: a verifier files the leaves of a window message by what
// they claim and checks each one's inclusion once, at finalize. A reveal
// whose opening was altered after the root was signed still decodes and
// names the provider's round, so it is filed — and finalize reports it
// against the prover. The same run without the alteration is clean.
TEST(AggregatedBundleTest, LeafFailingInclusionIsReportedAtFinalize) {
  const auto run = [](bool alter) {
    Figure1Handles handles = make_figure1_world({.seed = 31, .provider_count = 2});
    Figure1World& world = *handles.world;
    const bgp::AsNumber provider = world.providers[0];
    bool altered = false;
    world.sim.set_interceptor([&](net::Transport& sim, const net::Message& message) {
      if (!alter || altered || message.from != world.prover ||
          message.to != provider || message.channel != kBundleAggChannel) {
        return net::InterceptDecision{};
      }
      altered = true;
      AggregatedBundleMessage window = AggregatedBundleMessage::decode(message.payload);
      for (LeafOpening& opening : window.openings) {
        if (opening.leaf.kind != LeafKind::kProviderReveal) continue;
        RevealToProvider reveal = RevealToProvider::decode(opening.leaf.payload);
        reveal.opening.nonce[0] ^= 0x01;
        opening.leaf.payload = reveal.encode();
      }
      net::Message copy = message;
      copy.payload = window.encode();
      sim.send(std::move(copy));
      return net::InterceptDecision{.drop = true, .extra_delay = 0};
    });
    world.sim.schedule(0, [&world, &handles, provider] {
      const bgp::Route route{.prefix = handles.prefix,
                             .path = bgp::AsPath{provider, 64512},
                             .next_hop = provider,
                             .local_pref = 100,
                             .med = 0,
                             .origin = bgp::Origin::kIgp,
                             .communities = {}};
      world.node(provider).provide_input(world.sim.transport(), 1,
                                         handles.prefix, route);
      world.node(world.prover).start_round(world.sim.transport(), 1,
                                           handles.prefix);
    });
    world.sim.run();
    EXPECT_EQ(altered, alter);
    world.node(provider).finalize_round(handles.round_id(1));
    return world.node(provider).evidence();
  };
  EXPECT_TRUE(run(/*alter=*/false).empty());
  const std::vector<Evidence> found = run(/*alter=*/true);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found.front().kind, ViolationKind::kBadSignature);
  EXPECT_EQ(found.front().detail, "provider reveal not a leaf of the signed root");
}

TEST(AggregatedBundleTest, OpeningRoundTripsOnWire) {
  const AggregatedWorld world = make_aggregated(5, 3);
  const AggregatedBundleMessage decoded =
      AggregatedBundleMessage::decode(world.message.encode());
  EXPECT_EQ(decoded.signed_root, world.message.signed_root);
  ASSERT_EQ(decoded.openings.size(), world.message.openings.size());
  EXPECT_EQ(decoded.openings[3], world.message.openings[3]);
  EXPECT_TRUE(opens(world.root, decoded.openings[3]));

  const AggregatedBundle root2 = AggregatedBundle::decode(world.root.encode());
  EXPECT_EQ(root2.prover, world.root.prover);
  EXPECT_EQ(root2.epoch, world.root.epoch);
  EXPECT_EQ(root2.batch, world.root.batch);
  EXPECT_EQ(root2.leaf_count, world.root.leaf_count);
  EXPECT_EQ(root2.prefixes, world.root.prefixes);
  EXPECT_EQ(root2.root, world.root.root);
}

// Confidentiality (§3.2): in a Figure-1 world, what provider Ni receives
// from the prover holds the window's bundles and its own reveal — no other
// provider's opening nonce and no export leaf.
TEST(AggregatedBundleTest, ProviderSeesNoOtherRevealAndNoExport) {
  Figure1Handles handles = make_figure1_world({.seed = 29, .provider_count = 3});
  Figure1World& world = *handles.world;
  std::vector<net::Message> from_prover;
  world.sim.set_interceptor(
      [&from_prover, prover = world.prover](net::Transport&,
                                            const net::Message& message) {
        if (message.from == prover) from_prover.push_back(message);
        return net::InterceptDecision{};
      });
  // Distinct lengths, so each provider is revealed a different bit (and so
  // a different nonce).
  world.sim.schedule(0, [&world, &handles] {
    for (std::size_t i = 0; i < world.providers.size(); ++i) {
      std::vector<bgp::AsNumber> hops(i + 1, 64512);
      hops.front() = world.providers[i];
      bgp::Route route{.prefix = handles.prefix,
                       .path = bgp::AsPath(std::move(hops)),
                       .next_hop = world.providers[i],
                       .local_pref = 100,
                       .med = 0,
                       .origin = bgp::Origin::kIgp,
                       .communities = {}};
      world.node(world.providers[i])
          .provide_input(world.sim.transport(), 1, handles.prefix, route);
    }
    world.node(world.prover).start_round(world.sim.transport(), 1, handles.prefix);
  });
  world.sim.run();

  // Every provider's opening nonce, from the recipient's message (which
  // opens every bit).
  std::map<bgp::AsNumber, AggregatedBundleMessage> received;
  for (const net::Message& message : from_prover) {
    received.emplace(message.to, AggregatedBundleMessage::decode(message.payload));
  }
  ASSERT_EQ(received.size(), world.providers.size() + 1);
  const auto contains = [](const std::vector<std::uint8_t>& haystack,
                           const std::vector<std::uint8_t>& needle) {
    return std::search(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end()) != haystack.end();
  };
  for (const bgp::AsNumber provider : world.providers) {
    const AggregatedBundleMessage& own = received.at(provider);
    const std::vector<std::uint8_t> bytes = own.encode();
    std::size_t reveals = 0;
    for (const LeafOpening& opening : own.openings) {
      EXPECT_NE(opening.leaf.kind, LeafKind::kExport);
      EXPECT_NE(opening.leaf.kind, LeafKind::kRecipientReveal);
      if (opening.leaf.kind != LeafKind::kProviderReveal) continue;
      reveals += 1;
      EXPECT_EQ(RevealToProvider::decode(opening.leaf.payload).provider, provider);
    }
    EXPECT_EQ(reveals, 1u);
    // No other provider's nonce appears anywhere in the bytes.
    for (const bgp::AsNumber other : world.providers) {
      if (other == provider) continue;
      for (const LeafOpening& opening : received.at(other).openings) {
        if (opening.leaf.kind != LeafKind::kProviderReveal) continue;
        const RevealToProvider reveal =
            RevealToProvider::decode(opening.leaf.payload);
        EXPECT_FALSE(contains(bytes, reveal.opening.nonce))
            << "provider " << provider << " holds the nonce of " << other;
        EXPECT_FALSE(contains(bytes, opening.leaf.encode()));
      }
    }
    // ... nor the export leaf.
    for (const LeafOpening& opening : received.at(world.recipient).openings) {
      if (opening.leaf.kind == LeafKind::kExport) {
        EXPECT_FALSE(contains(bytes, opening.leaf.encode()));
      }
    }
  }
}

// The salt hides each leaf's digest: the same round sealed under two salt
// streams gives a provider different sibling digests for identical
// statements, so it cannot test guesses about its siblings' contents.
TEST(AggregatedBundleTest, SaltsChangeSiblingDigests) {
  crypto::Drbg key_rng(11, "agg-test-keys");
  const AsKeyPairs keys = generate_keys({kProver, 7, 8}, key_rng, 512);
  const ProtocolId id{.prover = kProver,
                      .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
                      .epoch = 1};
  std::map<bgp::AsNumber, std::optional<SignedMessage>> inputs;
  for (const bgp::AsNumber provider : {7u, 8u}) {
    inputs[provider] = signed_input(keys, id, provider, 1);
  }
  crypto::Drbg prover_rng(3, "agg-test-prover");
  const ProverResult result =
      run_prover(id, OperatorKind::kMinimum, inputs, 4, prover_rng, {});
  const auto reveal_of = [&](std::uint64_t salt_seed) {
    crypto::Drbg salt_rng(salt_seed, "agg-test-salts");
    return seal_window(kProver, 1, 0, 0, std::span(&result, 1),
                       keys.private_keys.at(kProver).priv, salt_rng)
        .honest.rounds.front()
        .provider_reveals.at(7);
  };
  const LeafOpening a = reveal_of(1);
  const LeafOpening b = reveal_of(2);
  EXPECT_EQ(a.leaf.payload, b.leaf.payload);
  ASSERT_EQ(a.proof.siblings.size(), b.proof.siblings.size());
  for (std::size_t level = 0; level < a.proof.siblings.size(); ++level) {
    EXPECT_NE(a.proof.siblings[level], b.proof.siblings[level]) << level;
  }
}

// Confidentiality (§3.2): the signed root is gossiped to the whole
// neighborhood and every proof repeats its leaf count and the leaf's index,
// so the tree's shape must follow from the configured provider list alone.
// Rounds in which three, one or no providers supplied a route, or in which
// the prover skipped a reveal, give the same leaf count and the same index
// for a given provider's reveal.
TEST(AggregatedBundleTest, TreeShapeIsFixedByTheProviderList) {
  crypto::Drbg key_rng(11, "agg-test-keys");
  const AsKeyPairs keys = generate_keys({kProver, 7, 8, 9}, key_rng, 512);
  const ProtocolId id{.prover = kProver,
                      .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
                      .epoch = 1};
  using Inputs = std::map<bgp::AsNumber, std::optional<SignedMessage>>;
  const Inputs all{{7, signed_input(keys, id, 7, 2)},
                   {8, signed_input(keys, id, 8, 3)},
                   {9, signed_input(keys, id, 9, 1)}};
  // Provider 8's route is longer than L = 4: outside the promise's domain.
  const Inputs only_nine{{7, std::nullopt},
                         {8, signed_input(keys, id, 8, 6)},
                         {9, signed_input(keys, id, 9, 1)}};
  const Inputs none{{7, std::nullopt}, {8, std::nullopt}, {9, std::nullopt}};
  struct Shape {
    std::uint32_t leaf_count = 0;
    std::optional<std::uint32_t> index_of_nine;
    std::size_t reveals = 0;
  };
  const auto shape = [&](const Inputs& inputs, const ProverMisbehavior& misbehavior) {
    crypto::Drbg prover_rng(3, "agg-test-prover");
    const ProverResult result =
        run_prover(id, OperatorKind::kMinimum, inputs, 4, prover_rng, misbehavior);
    crypto::Drbg salt_rng(1, "agg-test-salts");
    const SignedWindow window =
        seal_window(kProver, 1, 0, 0, std::span(&result, 1),
                    keys.private_keys.at(kProver).priv, salt_rng)
            .honest;
    Shape out{.leaf_count = AggregatedBundle::decode(window.signed_root.payload)
                                .leaf_count,
              .index_of_nine = std::nullopt,
              .reveals = window.rounds.front().provider_reveals.size()};
    const auto& reveals = window.rounds.front().provider_reveals;
    if (const auto it = reveals.find(9); it != reveals.end()) {
      out.index_of_nine = it->second.proof.leaf_index;
      EXPECT_EQ(it->second.proof.leaf_count, out.leaf_count);
    }
    return out;
  };
  const Shape full = shape(all, {});
  const Shape sparse = shape(only_nine, {});
  const Shape skipped = shape(all, {.skip_reveal_for = 7});
  const Shape empty = shape(none, {});
  // The reveals do differ: 3, 1, 2 and 0 providers are revealed to.
  ASSERT_EQ(full.reveals, 3u);
  ASSERT_EQ(sparse.reveals, 1u);
  ASSERT_EQ(skipped.reveals, 2u);
  ASSERT_EQ(empty.reveals, 0u);
  // One bundle, three reveal slots, the recipient reveal and the export.
  EXPECT_EQ(full.leaf_count, 6u);
  EXPECT_EQ(sparse.leaf_count, full.leaf_count);
  EXPECT_EQ(skipped.leaf_count, full.leaf_count);
  EXPECT_EQ(empty.leaf_count, full.leaf_count);
  ASSERT_TRUE(full.index_of_nine.has_value());
  EXPECT_EQ(sparse.index_of_nine, full.index_of_nine);
  EXPECT_EQ(skipped.index_of_nine, full.index_of_nine);
}

}  // namespace
}  // namespace pvr::core
