#include "core/bundle_aggregation.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "core/verify_context.h"

namespace pvr::core {

namespace {

constexpr std::string_view kAggregatedBundleTag = "pvr-aggregated-bundle";
constexpr std::string_view kAggregatedMessageTag = "pvr.bundle.agg";

}  // namespace

bool AggregatedBundle::covers(const bgp::Ipv4Prefix& prefix) const {
  return std::find(prefixes.begin(), prefixes.end(), prefix) != prefixes.end();
}

std::vector<std::uint8_t> AggregatedBundle::encode() const {
  crypto::ByteWriter writer;
  writer.put_string(kAggregatedBundleTag);
  writer.put_u32(prover);
  writer.put_u64(epoch);
  writer.put_u32(batch);
  writer.put_u32(prefix_count());
  for (const bgp::Ipv4Prefix& prefix : prefixes) prefix.encode(writer);
  writer.put_raw(std::span(root.data(), root.size()));
  return writer.take();
}

AggregatedBundle AggregatedBundle::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  if (reader.get_string() != kAggregatedBundleTag) {
    throw std::out_of_range("AggregatedBundle::decode: bad tag");
  }
  AggregatedBundle bundle;
  bundle.prover = reader.get_u32();
  bundle.epoch = reader.get_u64();
  bundle.batch = reader.get_u32();
  const std::uint32_t count = reader.get_u32();
  reader.require_entries(count, 5);  // u32 address + u8 length per prefix
  bundle.prefixes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    bundle.prefixes.push_back(bgp::Ipv4Prefix::decode(reader));
  }
  const std::vector<std::uint8_t> raw = reader.get_raw(crypto::kSha256DigestSize);
  std::copy(raw.begin(), raw.end(), bundle.root.begin());
  return bundle;
}

void SignedBundleOpening::encode(crypto::ByteWriter& writer) const {
  writer.put_bytes(bundle.encode());
  proof.encode(writer);
}

SignedBundleOpening SignedBundleOpening::decode(crypto::ByteReader& reader) {
  SignedBundleOpening opening;
  opening.bundle = SignedMessage::decode(reader.get_bytes());
  opening.proof = crypto::MerkleProof::decode(reader);
  return opening;
}

std::vector<std::uint8_t> AggregatedBundleMessage::encode() const {
  crypto::ByteWriter writer;
  writer.put_string(kAggregatedMessageTag);
  writer.put_bytes(signed_root.encode());
  writer.put_u32(static_cast<std::uint32_t>(openings.size()));
  for (const SignedBundleOpening& opening : openings) opening.encode(writer);
  return writer.take();
}

AggregatedBundleMessage AggregatedBundleMessage::decode(
    std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  if (reader.get_string() != kAggregatedMessageTag) {
    throw std::out_of_range("AggregatedBundleMessage::decode: bad tag");
  }
  AggregatedBundleMessage message;
  message.signed_root = SignedMessage::decode(reader.get_bytes());
  const std::uint32_t count = reader.get_u32();
  // u32 length prefix of the signed bundle + the 20-byte proof header.
  reader.require_entries(count, 4 + 20);
  message.openings.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    message.openings.push_back(SignedBundleOpening::decode(reader));
  }
  return message;
}

AggregatedBundleMessage aggregate_signed_bundles(
    bgp::AsNumber prover, std::uint64_t epoch, std::uint32_t batch,
    std::span<const SignedMessage> bundles, const crypto::RsaPrivateKey& key) {
  if (bundles.empty()) {
    throw std::invalid_argument("aggregate_signed_bundles: no bundles");
  }
  std::vector<std::vector<std::uint8_t>> leaves;
  leaves.reserve(bundles.size());
  for (const SignedMessage& bundle : bundles) leaves.push_back(bundle.encode());
  const crypto::MerkleTree tree = crypto::MerkleTree::build(leaves);

  AggregatedBundleMessage message;
  AggregatedBundle root{
      .prover = prover, .epoch = epoch, .batch = batch, .root = tree.root()};
  for (const SignedMessage& bundle : bundles) {
    root.prefixes.push_back(CommitmentBundle::decode(bundle.payload).id.prefix);
  }
  message.signed_root = sign_message(prover, key, root.encode());
  message.openings.reserve(bundles.size());
  for (std::size_t i = 0; i < bundles.size(); ++i) {
    message.openings.push_back(
        SignedBundleOpening{.bundle = bundles[i], .proof = tree.prove(i)});
  }
  return message;
}

bool verify_signed_opening(const AggregatedBundle& root,
                           const SignedBundleOpening& opening) {
  if (opening.bundle.signer != root.prover) return false;
  if (opening.proof.leaf_count != root.prefix_count()) return false;
  // The opened bundle must belong to this window's (prover, epoch) — a
  // proof from another epoch's tree must not transplant — and its round
  // must be in the window's SIGNED prefix list, otherwise a prover could
  // hide a round inside the tree while omitting it from every window's
  // list, and no two windows would ever conflict over it (the batch-split
  // evasion the list exists to close).
  try {
    const CommitmentBundle opened = CommitmentBundle::decode(opening.bundle.payload);
    if (opened.id.prover != root.prover || opened.id.epoch != root.epoch ||
        !root.covers(opened.id.prefix)) {
      return false;
    }
  } catch (const std::out_of_range&) {
    return false;
  }
  return crypto::MerkleTree::verify(root.root, opening.bundle.encode(),
                                    opening.proof);
}

bool roots_conflict(const AggregatedBundle& a, const AggregatedBundle& b) {
  if (a.prover != b.prover || a.epoch != b.epoch) return false;
  if (a.root == b.root) return false;
  // Same window signed twice with different contents — or two windows
  // claiming a common round (the batch-split evasion).
  if (a.batch == b.batch) return true;
  return std::any_of(a.prefixes.begin(), a.prefixes.end(),
                     [&](const bgp::Ipv4Prefix& prefix) { return b.covers(prefix); });
}

std::optional<Evidence> check_root_equivocation(const VerifyContext& ctx,
                                                bgp::AsNumber reporter,
                                                const SignedMessage& first,
                                                const SignedMessage& second) {
  if (!ctx.verify(first) || !ctx.verify(second)) {
    return std::nullopt;
  }
  if (first.signer != second.signer) return std::nullopt;
  AggregatedBundle a;
  AggregatedBundle b;
  try {
    a = AggregatedBundle::decode(first.payload);
    b = AggregatedBundle::decode(second.payload);
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
  if (a.prover != first.signer || b.prover != second.signer) return std::nullopt;
  if (!roots_conflict(a, b)) return std::nullopt;
  return Evidence{
      .kind = ViolationKind::kEquivocation,
      .accused = first.signer,
      .reporter = reporter,
      .index = 0,
      .messages = {first, second},
      .detail = a.batch == b.batch
                    ? "two conflicting signed bundle roots for one aggregation window"
                    : "two aggregation windows claim the same round"};
}

}  // namespace pvr::core
