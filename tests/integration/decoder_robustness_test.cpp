// Adversarial-input robustness: every wire decoder in the system must
// either parse or throw std::out_of_range — never crash, hang, or silently
// misparse — when fed Byzantine bytes. This backs the threat model (§3):
// "an unknown subset of the networks ... can behave arbitrarily".
#include <gtest/gtest.h>

#include "baseline/sbgp.h"
#include "bgp/messages.h"
#include "core/bundle_aggregation.h"
#include "core/graph_commitment.h"
#include "core/min_protocol.h"
#include "core/verify_context.h"
#include "crypto/drbg.h"
#include "crypto/encoding.h"
#include "net/message_trace.h"
#include "obs/export.h"

namespace pvr {
namespace {

// Applies `decode` to random buffers and truncated/bit-flipped versions of
// `valid`; the only acceptable outcomes are success or std::out_of_range.
template <typename DecodeFn>
void expect_robust(DecodeFn decode, const std::vector<std::uint8_t>& valid,
                   crypto::Drbg& rng) {
  // 1. Pure random buffers of assorted sizes.
  for (const std::size_t size : {0u, 1u, 3u, 16u, 64u, 300u}) {
    const auto junk = rng.bytes(size);
    try {
      decode(junk);
    } catch (const std::out_of_range&) {
    }
  }
  // 2. Every truncation of a valid message.
  for (std::size_t cut = 0; cut < valid.size(); cut += 1 + valid.size() / 37) {
    std::vector<std::uint8_t> truncated(valid.begin(),
                                        valid.begin() + static_cast<std::ptrdiff_t>(cut));
    try {
      decode(truncated);
    } catch (const std::out_of_range&) {
    }
  }
  // 3. Single-byte corruptions of a valid message.
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> corrupted = valid;
    if (corrupted.empty()) break;
    corrupted[rng.uniform(corrupted.size())] ^=
        static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      decode(corrupted);
    } catch (const std::out_of_range&) {
    }
  }
}

[[nodiscard]] bgp::Route sample_route() {
  return bgp::Route{.prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
                    .path = bgp::AsPath{2, 1},
                    .next_hop = 2,
                    .local_pref = 100,
                    .med = 5,
                    .origin = bgp::Origin::kEgp,
                    .communities = {bgp::make_community(65000, 1)}};
}

[[nodiscard]] core::ProtocolId sample_id() {
  return {.prover = 7,
          .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
          .epoch = 3};
}

TEST(DecoderRobustness, BgpUpdate) {
  crypto::Drbg rng(1, "fuzz-bgp");
  const bgp::BgpUpdate update{.withdraw = false,
                              .prefix = sample_route().prefix,
                              .route = sample_route()};
  expect_robust([](const auto& b) { (void)bgp::BgpUpdate::decode(b); },
                update.encode(), rng);
}

TEST(DecoderRobustness, SignedMessage) {
  crypto::Drbg rng(2, "fuzz-signed");
  const core::SignedMessage message{.signer = 9,
                                    .payload = {1, 2, 3},
                                    .signature = rng.bytes(64)};
  expect_robust([](const auto& b) { (void)core::SignedMessage::decode(b); },
                message.encode(), rng);
}

TEST(DecoderRobustness, InputAnnouncement) {
  crypto::Drbg rng(3, "fuzz-input");
  const core::InputAnnouncement announcement{
      .id = sample_id(), .provider = 11, .route = sample_route()};
  expect_robust([](const auto& b) { (void)core::InputAnnouncement::decode(b); },
                announcement.encode(), rng);
}

TEST(DecoderRobustness, CommitmentBundle) {
  crypto::Drbg rng(4, "fuzz-bundle");
  core::CommitmentBundle bundle{
      .id = sample_id(), .op = core::OperatorKind::kMinimum, .max_len = 4,
      .bits = {}};
  for (int i = 0; i < 4; ++i) {
    bundle.bits.push_back(crypto::commit_bit(i % 2 == 0, rng).first);
  }
  expect_robust([](const auto& b) { (void)core::CommitmentBundle::decode(b); },
                bundle.encode(), rng);
}

TEST(DecoderRobustness, Reveals) {
  crypto::Drbg rng(5, "fuzz-reveals");
  const auto [commitment, opening] = crypto::commit_bit(true, rng);
  const core::RevealToProvider to_provider{
      .id = sample_id(), .provider = 11, .bit_index = 1, .opening = opening};
  expect_robust([](const auto& b) { (void)core::RevealToProvider::decode(b); },
                to_provider.encode(), rng);

  const core::RevealToRecipient to_recipient{.id = sample_id(),
                                             .openings = {opening, opening}};
  expect_robust([](const auto& b) { (void)core::RevealToRecipient::decode(b); },
                to_recipient.encode(), rng);
}

TEST(DecoderRobustness, ExportStatement) {
  crypto::Drbg rng(6, "fuzz-export");
  core::ExportStatement statement{.id = sample_id(),
                                  .has_route = true,
                                  .route = sample_route(),
                                  .provenance = core::SignedMessage{
                                      .signer = 2,
                                      .payload = {9, 9},
                                      .signature = rng.bytes(64)}};
  expect_robust([](const auto& b) { (void)core::ExportStatement::decode(b); },
                statement.encode(), rng);
}

TEST(DecoderRobustness, GraphRootAnnouncement) {
  crypto::Drbg rng(7, "fuzz-root");
  const core::GraphRootAnnouncement announcement{
      .id = sample_id(), .root = crypto::sha256("root")};
  expect_robust(
      [](const auto& b) { (void)core::GraphRootAnnouncement::decode(b); },
      announcement.encode(), rng);
}

TEST(DecoderRobustness, SbgpAttestation) {
  crypto::Drbg rng(8, "fuzz-sbgp");
  const baseline::Attestation attestation{
      .prefix = sample_route().prefix, .signer = 1, .to = 2, .suffix = {1}};
  expect_robust([](const auto& b) { (void)baseline::Attestation::decode(b); },
                attestation.encode(), rng);
}

// A length field that claims more entries than the input could hold must be
// rejected with std::out_of_range before the decoder reserves space for it:
// reserve() on such a count throws std::length_error or std::bad_alloc.
TEST(DecoderRobustness, HugeEntryCountsRejectedBeforeReserve) {
  // Magic, version, empty scenario, seed, empty backend: 24 bytes, then the
  // u64 entry count ends the 32-byte trace.
  const std::vector<std::uint8_t> empty_trace = net::MessageTrace{}.encode();
  for (const std::uint64_t count : {std::uint64_t{1} << 60,
                                    std::uint64_t{1} << 32}) {
    crypto::ByteWriter count_field;
    count_field.put_u64(count);
    std::vector<std::uint8_t> trace(empty_trace.begin(),
                                    empty_trace.begin() + 24);
    trace.insert(trace.end(), count_field.data().begin(),
                 count_field.data().end());
    ASSERT_EQ(trace.size(), 32u);
    EXPECT_THROW((void)net::MessageTrace::decode(trace), std::out_of_range)
        << "entry_count " << count;
  }

  // Wire version, then n_scalars = 2^32 - 1: a 6-byte snapshot.
  crypto::ByteWriter snapshot;
  snapshot.put_u16(obs::kSnapshotWireVersion);
  snapshot.put_u32(0xFFFFFFFFu);
  ASSERT_EQ(snapshot.data().size(), 6u);
  EXPECT_THROW((void)obs::MetricsSnapshot::decode(snapshot.data()),
               std::out_of_range);

  // Tag, prover, epoch, batch, leaf count, then prefix_count = 2^32 - 1
  // and no prefixes (each would be 5 bytes).
  crypto::ByteWriter root;
  root.put_string("pvr-aggregated-bundle");
  root.put_u32(1);
  root.put_u64(1);
  root.put_u32(0);
  root.put_u32(0xFFFFFFFFu);
  root.put_u32(0xFFFFFFFFu);
  EXPECT_THROW((void)core::AggregatedBundle::decode(root.data()),
               std::out_of_range);

  // Tag, an empty signed root, then opening_count = 2^32 - 1 and no
  // openings (each at least LeafOpening::kMinEncodedSize bytes).
  crypto::ByteWriter agg;
  agg.put_string("pvr.bundle.agg");
  agg.put_bytes(core::SignedMessage{}.encode());
  agg.put_u32(0xFFFFFFFFu);
  EXPECT_THROW((void)core::AggregatedBundleMessage::decode(agg.data()),
               std::out_of_range);

  // Kind, accused, reporter, index, then message count = 2^32 - 1 and no
  // messages (each at least a 4-byte length prefix).
  crypto::ByteWriter evidence;
  evidence.put_u8(0);
  evidence.put_u32(1);
  evidence.put_u32(2);
  evidence.put_u32(0);
  evidence.put_u32(0xFFFFFFFFu);
  EXPECT_THROW((void)core::Evidence::decode(evidence.data()),
               std::out_of_range);

  // The same with no messages, then leaf count = 2^32 - 1 and no leaves.
  crypto::ByteWriter leaf_evidence;
  leaf_evidence.put_u8(1);
  leaf_evidence.put_u32(1);
  leaf_evidence.put_u32(2);
  leaf_evidence.put_u32(1);
  leaf_evidence.put_u32(0);
  leaf_evidence.put_u32(0xFFFFFFFFu);
  EXPECT_THROW((void)core::Evidence::decode(leaf_evidence.data()),
               std::out_of_range);
}

// A sealed window message, its leaves, its root statement and leaf-carrying
// evidence, truncated, corrupted and replaced by junk.
TEST(DecoderRobustness, WindowMessageLeavesAndEvidence) {
  crypto::Drbg rng(12, "fuzz-window");
  crypto::Drbg key_rng(13, "fuzz-window-keys");
  const core::AsKeyPairs keys = core::generate_keys({7, 11}, key_rng, 512);
  const core::ProverResult result = core::run_prover(
      sample_id(), core::OperatorKind::kMinimum,
      {{11, core::sign_message(11, keys.private_keys.at(11).priv,
                               core::InputAnnouncement{.id = sample_id(),
                                                       .provider = 11,
                                                       .route = sample_route()}
                                   .encode())}},
      4, rng);
  const core::SignedWindow window =
      core::seal_window(7, sample_id().epoch, 0, 0, std::span(&result, 1),
                        keys.private_keys.at(7).priv, rng)
          .honest;
  const core::AggregatedBundleMessage message = window.message_for_provider(11);
  ASSERT_EQ(message.openings.size(), 2u);
  expect_robust(
      [](const auto& b) { (void)core::AggregatedBundleMessage::decode(b); },
      message.encode(), rng);
  expect_robust([](const auto& b) { (void)core::WindowLeaf::decode(b); },
                message.openings[1].leaf.encode(), rng);
  expect_robust([](const auto& b) { (void)core::AggregatedBundle::decode(b); },
                message.signed_root.payload, rng);
  const core::Evidence evidence{.kind = core::ViolationKind::kBitNotSet,
                                .accused = 7,
                                .reporter = 11,
                                .index = 1,
                                .messages = {message.signed_root},
                                .leaves = message.openings,
                                .detail = "sample"};
  expect_robust([](const auto& b) { (void)core::Evidence::decode(b); },
                evidence.encode(), rng);
}

// The verifier entry points must likewise survive adversarial envelopes.
// Random bytes in place of a signed root never become a window: open_window
// is the only door, and it rejects every one. Random bytes in place of the
// leaves under a genuine window yield findings, never crashes.
TEST(DecoderRobustness, VerifiersSurviveGarbageEnvelopes) {
  crypto::Drbg key_rng(10, "fuzz-verifier-keys");
  const core::AsKeyPairs keys = core::generate_keys({7, 2, 11}, key_rng, 512);
  const core::VerifyContext ctx(&keys.directory);
  crypto::Drbg rng(11, "fuzz-verifier");
  const core::ProverResult result =
      core::run_prover(sample_id(), core::OperatorKind::kMinimum, {}, 4, rng);
  const core::VerifiedWindow genuine =
      core::open_window(ctx, core::seal_window(7, sample_id().epoch, 0, 0,
                                               std::span(&result, 1),
                                               keys.private_keys.at(7).priv, rng)
                                 .honest.signed_root)
          .value();

  for (int trial = 0; trial < 20; ++trial) {
    const core::SignedMessage garbage{
        .signer = 7,  // the window's prover: only the bytes are wrong
        .payload = rng.bytes(rng.uniform(200)),
        .signature = rng.bytes(64),
    };
    EXPECT_FALSE(core::open_window(ctx, garbage).has_value());
    core::LeafOpening leaf{.leaf = {.kind = core::LeafKind::kBundle,
                                    .salt = {},
                                    .payload = rng.bytes(rng.uniform(200))},
                           .proof = {.leaf_index = rng.uniform(4),
                                     .leaf_count = rng.uniform(4),
                                     .siblings = {crypto::sha256("x")}}};
    const auto provider_findings = core::verify_as_provider(
        11,
        core::InputAnnouncement{.id = sample_id(), .provider = 11,
                                .route = sample_route()},
        genuine, leaf, &leaf);
    EXPECT_FALSE(provider_findings.empty());  // the bundle does not open
    const auto recipient_findings =
        core::verify_as_recipient(ctx, 2, genuine, leaf, &leaf, &leaf);
    EXPECT_FALSE(recipient_findings.empty());
  }
}

}  // namespace
}  // namespace pvr
