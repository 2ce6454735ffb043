#include "core/evidence.h"

#include <algorithm>
#include <stdexcept>

#include "core/bundle_aggregation.h"
#include "core/min_protocol.h"
#include "core/verify_context.h"
#include "crypto/encoding.h"

namespace pvr::core {

std::string to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kEquivocation: return "equivocation";
    case ViolationKind::kBadOpening: return "bad-opening";
    case ViolationKind::kBitNotSet: return "bit-not-set";
    case ViolationKind::kMissingReveal: return "missing-reveal";
    case ViolationKind::kNonMonotoneBits: return "non-monotone-bits";
    case ViolationKind::kOutputNotMinimal: return "output-not-minimal";
    case ViolationKind::kOutputWithoutInput: return "output-without-input";
    case ViolationKind::kSuppressedOutput: return "suppressed-output";
    case ViolationKind::kBadSignature: return "bad-signature";
    case ViolationKind::kStructuralMismatch: return "structural-mismatch";
  }
  return "unknown";
}

std::string Evidence::to_string() const {
  return core::to_string(kind) + " against AS" + std::to_string(accused) +
         " (reported by AS" + std::to_string(reporter) + "): " + detail;
}

std::vector<std::uint8_t> Evidence::encode() const {
  crypto::ByteWriter writer;
  writer.put_u8(static_cast<std::uint8_t>(kind));
  writer.put_u32(accused);
  writer.put_u32(reporter);
  writer.put_u32(index);
  writer.put_u32(static_cast<std::uint32_t>(messages.size()));
  for (const SignedMessage& message : messages) {
    writer.put_bytes(message.encode());
  }
  writer.put_u32(static_cast<std::uint32_t>(leaves.size()));
  for (const LeafOpening& leaf : leaves) leaf.encode(writer);
  writer.put_string(detail);
  return writer.take();
}

Evidence Evidence::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  Evidence evidence;
  evidence.kind = static_cast<ViolationKind>(reader.get_u8());
  evidence.accused = reader.get_u32();
  evidence.reporter = reader.get_u32();
  evidence.index = reader.get_u32();
  const std::uint32_t count = reader.get_u32();
  reader.require_entries(count, 4);  // u32 length prefix per message
  evidence.messages.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    evidence.messages.push_back(SignedMessage::decode(reader.get_bytes()));
  }
  const std::uint32_t leaf_count = reader.get_u32();
  reader.require_entries(leaf_count, LeafOpening::kMinEncodedSize);
  evidence.leaves.reserve(leaf_count);
  for (std::uint32_t i = 0; i < leaf_count; ++i) {
    evidence.leaves.push_back(LeafOpening::decode(reader));
  }
  evidence.detail = reader.get_string();
  if (!reader.exhausted()) {
    throw std::out_of_range("Evidence::decode: trailing bytes");
  }
  return evidence;
}

Auditor::Auditor(const VerifyContext* ctx) : ctx_(ctx) {
  if (ctx_ == nullptr) {
    throw std::invalid_argument("Auditor: null verify context");
  }
}

namespace {

[[nodiscard]] std::optional<std::vector<bool>> open_all_bits(
    const CommitmentBundle& bundle, const RevealToRecipient& reveal) {
  if (reveal.openings.size() != bundle.bits.size()) return std::nullopt;
  std::vector<bool> bits(bundle.bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (!crypto::verify_commitment(bundle.bits[i], reveal.openings[i])) {
      return std::nullopt;
    }
    if (reveal.openings[i].value.size() != 1 ||
        reveal.openings[i].value[0] > 1) {
      return std::nullopt;
    }
    bits[i] = reveal.openings[i].value[0] == 1;
  }
  return bits;
}

// Statements the auditor re-derives a violation from: leaf `i` of the
// evidence opened under its signed root. Malformed or unproven leaves give
// nullopt — they must never crash the auditor, only fail to convince it.
struct ProvenStatements {
  const AggregatedBundle& root;
  const std::vector<LeafOpening>& leaves;

  template <typename Statement>
  [[nodiscard]] std::optional<Statement> at(std::size_t i) const {
    if (i >= leaves.size()) return std::nullopt;
    return open_leaf<Statement>(root, leaves[i]);
  }
};

}  // namespace

bool Auditor::validate(const Evidence& evidence) const {
  // Every root in valid evidence must carry the accused's verifiable
  // signature, and decode as a window statement of the accused.
  const auto signed_root = [&](std::size_t index) -> std::optional<AggregatedBundle> {
    if (index >= evidence.messages.size()) return std::nullopt;
    const SignedMessage& message = evidence.messages[index];
    if (message.signer != evidence.accused) return std::nullopt;
    if (!ctx_->verify(message)) return std::nullopt;
    try {
      AggregatedBundle root = AggregatedBundle::decode(message.payload);
      if (root.prover != evidence.accused) return std::nullopt;
      return root;
    } catch (const std::out_of_range&) {
      return std::nullopt;
    }
  };

  if (evidence.kind == ViolationKind::kEquivocation) {
    // Two content-distinct signed roots that are either for one
    // (prover, epoch, batch) window or for two windows claiming a common
    // round (batch-split equivocation).
    const auto a = signed_root(0);
    const auto b = signed_root(1);
    return a && b && roots_conflict(*a, *b);
  }

  const auto root = signed_root(0);
  if (!root) return false;
  const ProvenStatements proven{.root = *root, .leaves = evidence.leaves};
  const auto bundle = proven.at<CommitmentBundle>(0);
  if (!bundle) return false;

  switch (evidence.kind) {
    case ViolationKind::kBadOpening: {
      // The claim is "the accused stated an opening for bit `index` that
      // does not match its own commitment"; the reveal may be either flavor.
      if (evidence.index == 0 || evidence.index > bundle->bits.size()) {
        return false;
      }
      if (const auto provider = proven.at<RevealToProvider>(1)) {
        return provider->id == bundle->id &&
               provider->bit_index == evidence.index &&
               !crypto::verify_commitment(bundle->bits[evidence.index - 1],
                                          provider->opening);
      }
      if (const auto recipient = proven.at<RevealToRecipient>(1)) {
        return recipient->id == bundle->id &&
               recipient->openings.size() == bundle->bits.size() &&
               !crypto::verify_commitment(bundle->bits[evidence.index - 1],
                                          recipient->openings[evidence.index - 1]);
      }
      return false;
    }

    case ViolationKind::kBitNotSet: {
      // The accused's reveal for bit index l acknowledges an input of
      // length l while opening the bit to 0.
      const auto reveal = proven.at<RevealToProvider>(1);
      if (!reveal || !(reveal->id == bundle->id)) return false;
      if (reveal->bit_index == 0 || reveal->bit_index > bundle->bits.size()) {
        return false;
      }
      if (!crypto::verify_commitment(bundle->bits[reveal->bit_index - 1],
                                     reveal->opening)) {
        return false;
      }
      return reveal->opening.value == std::vector<std::uint8_t>{0};
    }

    case ViolationKind::kNonMonotoneBits: {
      const auto reveal = proven.at<RevealToRecipient>(1);
      if (!reveal || !(reveal->id == bundle->id)) return false;
      if (bundle->op != OperatorKind::kMinimum) return false;
      const auto bits = open_all_bits(*bundle, *reveal);
      if (!bits) return false;
      bool seen_set = false;
      for (const bool bit : *bits) {
        if (bit) {
          seen_set = true;
        } else if (seen_set) {
          return true;
        }
      }
      return false;
    }

    case ViolationKind::kOutputNotMinimal:
    case ViolationKind::kOutputWithoutInput:
    case ViolationKind::kSuppressedOutput: {
      const auto reveal = proven.at<RevealToRecipient>(1);
      const auto statement = proven.at<ExportStatement>(2);
      if (!reveal || !statement) return false;
      if (!(reveal->id == bundle->id) || !(statement->id == bundle->id)) {
        return false;
      }
      const auto bits = open_all_bits(*bundle, *reveal);
      if (!bits) return false;
      const bool any_set =
          std::any_of(bits->begin(), bits->end(), [](bool b) { return b; });

      if (evidence.kind == ViolationKind::kSuppressedOutput) {
        return !statement->has_route && any_set;
      }

      if (!statement->has_route) return false;
      // Re-derive provenance validity exactly as the recipient verifier did.
      const auto provenance_length = [&]() -> std::optional<std::size_t> {
        if (!statement->provenance.has_value()) return std::nullopt;
        if (!ctx_->verify(*statement->provenance)) {
          return std::nullopt;
        }
        InputAnnouncement input;
        try {
          input = InputAnnouncement::decode(statement->provenance->payload);
        } catch (const std::out_of_range&) {
          return std::nullopt;
        }
        if (!(input.id == bundle->id)) return std::nullopt;
        if (input.provider != statement->provenance->signer) return std::nullopt;
        if (statement->route.path !=
            input.route.path.prepended(bundle->id.prover)) {
          return std::nullopt;
        }
        if (statement->route.prefix != input.route.prefix) return std::nullopt;
        return input.route.path.length();
      }();

      if (evidence.kind == ViolationKind::kOutputWithoutInput) {
        return !provenance_length.has_value() || !any_set;
      }
      // kOutputNotMinimal:
      if (!provenance_length.has_value() || !any_set) return false;
      if (bundle->op != OperatorKind::kMinimum) return false;
      const std::size_t min_set = static_cast<std::size_t>(
          std::find(bits->begin(), bits->end(), true) - bits->begin()) + 1;
      return *provenance_length != min_set;
    }

    case ViolationKind::kEquivocation:  // handled above
    case ViolationKind::kMissingReveal:
    case ViolationKind::kBadSignature:
      // Liveness / transport faults: detectable, not third-party provable.
      return false;

    case ViolationKind::kStructuralMismatch:
      // Graph-protocol evidence is validated by the graph layer
      // (core::verify_vertex_disclosure); the generic auditor cannot
      // reconstruct the tree without the disclosures, so it rejects.
      return false;
  }
  return false;
}

}  // namespace pvr::core
