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
  writer.put_u32(leaf_count);
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
  bundle.leaf_count = reader.get_u32();
  const std::uint32_t count = reader.get_u32();
  reader.require_entries(count, 5);  // u32 address + u8 length per prefix
  if (count == 0 || bundle.leaf_count < count) {
    throw std::out_of_range("AggregatedBundle::decode: bad leaf count");
  }
  bundle.prefixes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    bundle.prefixes.push_back(bgp::Ipv4Prefix::decode(reader));
  }
  // One bundle leaf per round: a prefix listed twice would let one root
  // commit to two bundles for one round.
  std::vector<bgp::Ipv4Prefix> sorted = bundle.prefixes;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::out_of_range("AggregatedBundle::decode: duplicate prefix");
  }
  const std::vector<std::uint8_t> raw = reader.get_raw(crypto::kSha256DigestSize);
  std::copy(raw.begin(), raw.end(), bundle.root.begin());
  return bundle;
}

template <typename Statement>
std::optional<Statement> decode_leaf(const AggregatedBundle& root,
                                     const LeafOpening& opening) {
  if (opening.leaf.kind != Statement::kLeafKind) return std::nullopt;
  // The proof's leaf count is unauthenticated; several counts share one
  // depth, so only the signed count pins the tree the proof is for.
  if (opening.proof.leaf_count != root.leaf_count) return std::nullopt;
  const std::size_t index = opening.proof.leaf_index;
  const bool bundle_slot = index < root.prefix_count();
  if (bundle_slot != (Statement::kLeafKind == LeafKind::kBundle)) {
    return std::nullopt;
  }
  Statement statement;
  try {
    statement = Statement::decode(opening.leaf.payload);
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
  // The statement must belong to this window's (prover, epoch) — a leaf
  // from another epoch's tree must not transplant — and name a round the
  // window's SIGNED prefix list covers; a bundle must sit at its own
  // prefix's index.
  if (statement.id.prover != root.prover || statement.id.epoch != root.epoch) {
    return std::nullopt;
  }
  if (bundle_slot ? statement.id.prefix != root.prefixes[index]
                  : !root.covers(statement.id.prefix)) {
    return std::nullopt;
  }
  return statement;
}

template <typename Statement>
std::optional<Statement> open_leaf(const AggregatedBundle& root,
                                   const LeafOpening& opening) {
  auto statement = decode_leaf<Statement>(root, opening);
  if (!statement || !crypto::MerkleTree::verify(root.root, opening.leaf.encode(),
                                                opening.proof)) {
    return std::nullopt;
  }
  return statement;
}

template std::optional<CommitmentBundle> decode_leaf(const AggregatedBundle&,
                                                     const LeafOpening&);
template std::optional<CommitmentBundle> open_leaf(const AggregatedBundle&,
                                                   const LeafOpening&);
template std::optional<RevealToProvider> decode_leaf(const AggregatedBundle&,
                                                     const LeafOpening&);
template std::optional<RevealToProvider> open_leaf(const AggregatedBundle&,
                                                   const LeafOpening&);
template std::optional<RevealToRecipient> decode_leaf(const AggregatedBundle&,
                                                      const LeafOpening&);
template std::optional<RevealToRecipient> open_leaf(const AggregatedBundle&,
                                                    const LeafOpening&);
template std::optional<ExportStatement> decode_leaf(const AggregatedBundle&,
                                                    const LeafOpening&);
template std::optional<ExportStatement> open_leaf(const AggregatedBundle&,
                                                  const LeafOpening&);

std::vector<std::uint8_t> AggregatedBundleMessage::encode() const {
  crypto::ByteWriter writer;
  writer.put_string(kAggregatedMessageTag);
  writer.put_bytes(signed_root.encode());
  writer.put_u32(static_cast<std::uint32_t>(openings.size()));
  for (const LeafOpening& opening : openings) opening.encode(writer);
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
  reader.require_entries(count, LeafOpening::kMinEncodedSize);
  message.openings.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    message.openings.push_back(LeafOpening::decode(reader));
  }
  return message;
}

AggregatedBundleMessage SignedWindow::message_for_provider(
    bgp::AsNumber provider) const {
  AggregatedBundleMessage message{.signed_root = signed_root, .openings = {}};
  for (const Round& round : rounds) message.openings.push_back(round.bundle);
  for (const Round& round : rounds) {
    const auto it = round.provider_reveals.find(provider);
    if (it != round.provider_reveals.end()) message.openings.push_back(it->second);
  }
  return message;
}

AggregatedBundleMessage SignedWindow::message_for_recipient() const {
  AggregatedBundleMessage message{.signed_root = signed_root, .openings = {}};
  for (const Round& round : rounds) message.openings.push_back(round.bundle);
  for (const Round& round : rounds) {
    message.openings.push_back(round.recipient_reveal);
    message.openings.push_back(round.export_statement);
  }
  return message;
}

namespace {

// Leaf index of each statement of one round, in the layout seal_window
// builds: bundles first, then each round's reveals and export.
struct RoundSlots {
  std::size_t bundle = 0;
  std::map<bgp::AsNumber, std::size_t> provider_reveals;
  std::size_t recipient_reveal = 0;
  std::size_t export_statement = 0;
};

// Builds the tree over `leaves`, signs its statement and cuts every
// statement's opening.
[[nodiscard]] SignedWindow sign_tree(bgp::AsNumber prover, std::uint64_t epoch,
                                     std::uint32_t batch,
                                     std::span<const ProverResult> rounds,
                                     const std::vector<WindowLeaf>& leaves,
                                     const std::vector<RoundSlots>& slots,
                                     const crypto::RsaPrivateKey& key) {
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(leaves.size());
  for (const WindowLeaf& leaf : leaves) encoded.push_back(leaf.encode());
  const crypto::MerkleTree tree = crypto::MerkleTree::build(encoded);

  AggregatedBundle statement{.prover = prover,
                             .epoch = epoch,
                             .batch = batch,
                             .leaf_count = static_cast<std::uint32_t>(leaves.size()),
                             .prefixes = {},
                             .root = tree.root()};
  for (const ProverResult& round : rounds) {
    statement.prefixes.push_back(round.bundle.id.prefix);
  }
  const auto open = [&](std::size_t index) {
    return LeafOpening{.leaf = leaves[index], .proof = tree.prove(index)};
  };
  SignedWindow window{.signed_root = sign_message(prover, key, statement.encode()),
                      .rounds = {}};
  window.rounds.reserve(slots.size());
  for (const RoundSlots& slot : slots) {
    SignedWindow::Round round{.bundle = open(slot.bundle),
                              .provider_reveals = {},
                              .recipient_reveal = open(slot.recipient_reveal),
                              .export_statement = open(slot.export_statement)};
    for (const auto& [provider, index] : slot.provider_reveals) {
      round.provider_reveals.emplace(provider, open(index));
    }
    window.rounds.push_back(std::move(round));
  }
  return window;
}

}  // namespace

SealedWindow seal_window(bgp::AsNumber prover, std::uint64_t epoch,
                         std::uint32_t batch, std::uint32_t variant_batch,
                         std::span<const ProverResult> rounds,
                         const crypto::RsaPrivateKey& key, crypto::Drbg& rng) {
  if (rounds.empty()) throw std::invalid_argument("seal_window: no rounds");
  std::vector<WindowLeaf> leaves;
  std::vector<RoundSlots> slots(rounds.size());
  const auto add_leaf = [&](LeafKind kind, std::vector<std::uint8_t> payload) {
    WindowLeaf leaf{.kind = kind, .salt = {}, .payload = std::move(payload)};
    rng.fill(leaf.salt);
    leaves.push_back(std::move(leaf));
    return leaves.size() - 1;
  };
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    slots[r].bundle = add_leaf(LeafKind::kBundle, rounds[r].bundle.encode());
  }
  bool equivocating = false;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const ProverResult& round = rounds[r];
    // One reveal slot per configured provider, so leaf_count and every
    // leaf's index follow from the provider list alone: a provider that is
    // not revealed to (no valid input, or a skipped reveal) gets a salted
    // leaf with no statement, which no neighbor is ever sent.
    for (const bgp::AsNumber provider : round.providers) {
      const auto it = round.provider_reveals.find(provider);
      if (it == round.provider_reveals.end()) {
        add_leaf(LeafKind::kProviderReveal, {});
        continue;
      }
      slots[r].provider_reveals.emplace(
          provider, add_leaf(LeafKind::kProviderReveal, it->second.encode()));
    }
    if (slots[r].provider_reveals.size() != round.provider_reveals.size()) {
      throw std::invalid_argument("seal_window: reveal to an unlisted provider");
    }
    slots[r].recipient_reveal =
        add_leaf(LeafKind::kRecipientReveal, round.recipient_reveal.encode());
    slots[r].export_statement =
        add_leaf(LeafKind::kExport, round.export_statement.encode());
    equivocating |= round.equivocating_bundle.has_value();
  }

  SealedWindow sealed{
      .honest = sign_tree(prover, epoch, batch, rounds, leaves, slots, key),
      .variant = std::nullopt};
  if (equivocating) {
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      if (rounds[r].equivocating_bundle) {
        leaves[slots[r].bundle].payload = rounds[r].equivocating_bundle->encode();
      }
    }
    sealed.variant =
        sign_tree(prover, epoch, variant_batch, rounds, leaves, slots, key);
  }
  return sealed;
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

std::optional<VerifiedWindow> open_window(const VerifyContext& ctx,
                                          const SignedMessage& signed_root) {
  // Decode first: a malformed or misattributed root is rejected before it
  // costs an RSA verify.
  AggregatedBundle root;
  try {
    root = AggregatedBundle::decode(signed_root.payload);
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
  if (root.prover != signed_root.signer || !ctx.verify(signed_root)) {
    return std::nullopt;
  }
  return VerifiedWindow(signed_root, std::move(root));
}

std::optional<Evidence> check_root_equivocation(bgp::AsNumber reporter,
                                                const VerifiedWindow& first,
                                                const VerifiedWindow& second) {
  const AggregatedBundle& a = first.root();
  const AggregatedBundle& b = second.root();
  if (!roots_conflict(a, b)) return std::nullopt;
  return Evidence{
      .kind = ViolationKind::kEquivocation,
      .accused = a.prover,
      .reporter = reporter,
      .index = 0,
      .messages = {first.signed_root(), second.signed_root()},
      .leaves = {},
      .detail = a.batch == b.batch
                    ? "two conflicting signed bundle roots for one aggregation window"
                    : "two aggregation windows claim the same round"};
}

}  // namespace pvr::core
