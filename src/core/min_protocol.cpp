#include "core/min_protocol.h"

#include <algorithm>
#include <stdexcept>

#include "core/bundle_aggregation.h"
#include "core/verify_context.h"

namespace pvr::core {

// ---- ProtocolId ----

std::string ProtocolId::gossip_topic() const {
  return "pvr/" + std::to_string(prover) + "/" + prefix.to_string() + "/" +
         std::to_string(epoch);
}

void ProtocolId::encode(crypto::ByteWriter& writer) const {
  writer.put_u32(prover);
  prefix.encode(writer);
  writer.put_u64(epoch);
}

ProtocolId ProtocolId::decode(crypto::ByteReader& reader) {
  ProtocolId id;
  id.prover = reader.get_u32();
  id.prefix = bgp::Ipv4Prefix::decode(reader);
  id.epoch = reader.get_u64();
  return id;
}

// ---- Statements ----
//
// The prover's four statements carry no tag of their own: the LeafKind of
// the window leaf that holds them types them.

std::vector<std::uint8_t> InputAnnouncement::encode() const {
  crypto::ByteWriter writer;
  writer.put_string("pvr.input");
  id.encode(writer);
  writer.put_u32(provider);
  route.encode(writer);
  return writer.take();
}

InputAnnouncement InputAnnouncement::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  if (reader.get_string() != "pvr.input") {
    throw std::out_of_range("InputAnnouncement: bad tag");
  }
  InputAnnouncement out;
  out.id = ProtocolId::decode(reader);
  out.provider = reader.get_u32();
  out.route = bgp::Route::decode(reader);
  return out;
}

std::vector<std::uint8_t> CommitmentBundle::encode() const {
  crypto::ByteWriter writer;
  id.encode(writer);
  writer.put_u8(static_cast<std::uint8_t>(op));
  writer.put_u32(max_len);
  writer.put_u32(static_cast<std::uint32_t>(bits.size()));
  for (const crypto::Commitment& c : bits) {
    writer.put_raw(std::span(c.digest.data(), c.digest.size()));
  }
  return writer.take();
}

CommitmentBundle CommitmentBundle::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  CommitmentBundle out;
  out.id = ProtocolId::decode(reader);
  const std::uint8_t op = reader.get_u8();
  if (op > 1) throw std::out_of_range("CommitmentBundle: bad operator");
  out.op = static_cast<OperatorKind>(op);
  out.max_len = reader.get_u32();
  const std::uint32_t count = reader.get_u32();
  if (count != out.max_len || count == 0 || count > 4096) {
    throw std::out_of_range("CommitmentBundle: bad bit count");
  }
  out.bits.resize(count);
  for (crypto::Commitment& c : out.bits) {
    const auto raw = reader.get_raw(crypto::kSha256DigestSize);
    std::copy(raw.begin(), raw.end(), c.digest.begin());
  }
  return out;
}

namespace {

void encode_opening(crypto::ByteWriter& writer,
                    const crypto::CommitmentOpening& opening) {
  writer.put_bytes(opening.value);
  writer.put_bytes(opening.nonce);
}

[[nodiscard]] crypto::CommitmentOpening decode_opening(crypto::ByteReader& reader) {
  crypto::CommitmentOpening opening;
  opening.value = reader.get_bytes();
  opening.nonce = reader.get_bytes();
  return opening;
}

}  // namespace

std::vector<std::uint8_t> RevealToProvider::encode() const {
  crypto::ByteWriter writer;
  id.encode(writer);
  writer.put_u32(provider);
  writer.put_u32(bit_index);
  encode_opening(writer, opening);
  return writer.take();
}

RevealToProvider RevealToProvider::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  RevealToProvider out;
  out.id = ProtocolId::decode(reader);
  out.provider = reader.get_u32();
  out.bit_index = reader.get_u32();
  out.opening = decode_opening(reader);
  return out;
}

std::vector<std::uint8_t> RevealToRecipient::encode() const {
  crypto::ByteWriter writer;
  id.encode(writer);
  writer.put_u32(static_cast<std::uint32_t>(openings.size()));
  for (const crypto::CommitmentOpening& opening : openings) {
    encode_opening(writer, opening);
  }
  return writer.take();
}

RevealToRecipient RevealToRecipient::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  RevealToRecipient out;
  out.id = ProtocolId::decode(reader);
  const std::uint32_t count = reader.get_u32();
  if (count == 0 || count > 4096) {
    throw std::out_of_range("RevealToRecipient: bad opening count");
  }
  out.openings.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.openings.push_back(decode_opening(reader));
  }
  return out;
}

std::vector<std::uint8_t> ExportStatement::encode() const {
  crypto::ByteWriter writer;
  id.encode(writer);
  writer.put_bool(has_route);
  if (has_route) {
    route.encode(writer);
    writer.put_bool(provenance.has_value());
    if (provenance) writer.put_bytes(provenance->encode());
  }
  return writer.take();
}

ExportStatement ExportStatement::decode(std::span<const std::uint8_t> data) {
  crypto::ByteReader reader(data);
  ExportStatement out;
  out.id = ProtocolId::decode(reader);
  out.has_route = reader.get_bool();
  if (out.has_route) {
    out.route = bgp::Route::decode(reader);
    if (reader.get_bool()) {
      const auto bytes = reader.get_bytes();
      out.provenance = SignedMessage::decode(bytes);
    }
  }
  return out;
}

// ---- Prover ----

std::vector<bool> compute_bits(OperatorKind op,
                               const std::vector<bgp::Route>& inputs,
                               std::uint32_t max_len) {
  if (op == OperatorKind::kExistential) {
    return {!inputs.empty()};
  }
  std::vector<bool> bits(max_len, false);
  for (const bgp::Route& route : inputs) {
    const std::size_t len = route.path.length();
    if (len == 0 || len > max_len) continue;
    for (std::size_t i = len; i <= max_len; ++i) bits[i - 1] = true;
  }
  return bits;
}

ProverResult run_prover(
    const ProtocolId& id, OperatorKind op,
    const std::map<bgp::AsNumber, std::optional<SignedMessage>>& inputs,
    std::uint32_t max_len, crypto::Drbg& rng,
    const ProverMisbehavior& misbehavior) {
  if (op == OperatorKind::kExistential) max_len = 1;
  if (max_len == 0) throw std::invalid_argument("run_prover: max_len == 0");

  // Decode the valid inputs. (The prover already verified signatures on
  // receipt; it keeps the signed envelopes for provenance.)
  struct ValidInput {
    bgp::AsNumber provider;
    InputAnnouncement announcement;
    const SignedMessage* envelope;
  };
  std::vector<ValidInput> valid;
  for (const auto& [provider, envelope] : inputs) {
    if (!envelope.has_value()) continue;
    InputAnnouncement announcement = InputAnnouncement::decode(envelope->payload);
    const std::size_t len = announcement.route.path.length();
    if (len == 0) continue;
    if (op == OperatorKind::kMinimum && len > max_len) continue;
    valid.push_back({provider, std::move(announcement), &*envelope});
  }

  // Honest decision: the minimum (ties by provider ASN, which is also the
  // map iteration order), or the first present input for the existential.
  const ValidInput* honest = nullptr;
  for (const ValidInput& input : valid) {
    if (honest == nullptr) {
      honest = &input;
      continue;
    }
    if (op == OperatorKind::kMinimum &&
        input.announcement.route.path.length() <
            honest->announcement.route.path.length()) {
      honest = &input;
    }
  }

  // Byzantine output selection.
  const ValidInput* actual = honest;
  if (misbehavior.export_nonminimal && !valid.empty()) {
    const ValidInput* longest = &valid.front();
    for (const ValidInput& input : valid) {
      if (input.announcement.route.path.length() >
          longest->announcement.route.path.length()) {
        longest = &input;
      }
    }
    actual = longest;
  }
  if (misbehavior.suppress_export) actual = nullptr;

  // Bit computation (honest, or matching the lie).
  std::vector<bgp::Route> bit_basis;
  if (misbehavior.bits_match_lie) {
    if (actual != nullptr) bit_basis.push_back(actual->announcement.route);
  } else {
    for (const ValidInput& input : valid) {
      bit_basis.push_back(input.announcement.route);
    }
  }
  std::vector<bool> bits = compute_bits(op, bit_basis, max_len);

  if (misbehavior.nonmonotone_bits) {
    // Clear the highest set bit, provided a lower one stays set.
    for (std::size_t i = bits.size(); i-- > 0;) {
      if (bits[i]) {
        const bool lower_set =
            std::any_of(bits.begin(), bits.begin() + static_cast<std::ptrdiff_t>(i),
                        [](bool b) { return b; });
        if (lower_set) bits[i] = false;
        break;
      }
    }
  }

  // Commitments.
  std::vector<crypto::Commitment> commitments(bits.size());
  std::vector<crypto::CommitmentOpening> openings(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    auto [commitment, opening] = crypto::commit_bit(bits[i], rng);
    commitments[i] = commitment;
    openings[i] = std::move(opening);
  }

  ProverResult result;
  result.bundle = CommitmentBundle{
      .id = id, .op = op, .max_len = max_len, .bits = commitments};
  for (const auto& entry : inputs) result.providers.push_back(entry.first);

  if (misbehavior.equivocate) {
    // Fresh nonces -> different commitments -> a second, conflicting bundle.
    CommitmentBundle alt = result.bundle;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      alt.bits[i] = crypto::commit_bit(bits[i], rng).first;
    }
    result.equivocating_bundle = std::move(alt);
  }

  // Reveals to providers.
  for (const ValidInput& input : valid) {
    if (misbehavior.skip_reveal_for == input.provider) continue;
    const std::uint32_t bit_index =
        op == OperatorKind::kExistential
            ? 1u
            : static_cast<std::uint32_t>(input.announcement.route.path.length());
    RevealToProvider reveal{
        .id = id,
        .provider = input.provider,
        .bit_index = bit_index,
        .opening = openings[bit_index - 1],
    };
    if (misbehavior.wrong_opening_for == input.provider) {
      reveal.opening.nonce[0] ^= 0xff;
    }
    result.provider_reveals.emplace(input.provider, std::move(reveal));
  }

  // Reveal to the recipient.
  result.recipient_reveal = RevealToRecipient{.id = id, .openings = openings};

  // Export statement.
  ExportStatement& statement = result.export_statement;
  statement.id = id;
  if (misbehavior.fabricate_route) {
    statement.has_route = true;
    statement.route = bgp::Route{
        .prefix = id.prefix,
        .path = bgp::AsPath{id.prover, 4242},
        .next_hop = id.prover,
        .local_pref = 0,
        .med = 0,
        .origin = bgp::Origin::kIncomplete,
        .communities = {},
    };
  } else if (actual != nullptr) {
    statement.has_route = true;
    statement.route = actual->announcement.route;
    statement.route.path = statement.route.path.prepended(id.prover);
    statement.route.next_hop = id.prover;
    statement.provenance = *actual->envelope;
  }

  if (honest != nullptr) result.honest_output = honest->announcement.route;
  return result;
}

// ---- Verifiers ----

namespace {

// Evidence against the prover of `root`'s window: the signed root plus the
// statement leaves that prove the violation.
[[nodiscard]] Evidence make_evidence(ViolationKind kind, bgp::AsNumber accused,
                                     bgp::AsNumber reporter, std::string detail,
                                     const SignedMessage* root = nullptr,
                                     std::vector<LeafOpening> leaves = {},
                                     std::uint32_t index = 0) {
  Evidence evidence{.kind = kind,
                    .accused = accused,
                    .reporter = reporter,
                    .index = index,
                    .messages = {},
                    .leaves = std::move(leaves),
                    .detail = std::move(detail)};
  if (root != nullptr) evidence.messages.push_back(*root);
  return evidence;
}

// The round's bundle, opened under its window's root. Appends evidence and
// returns nullopt when the leaf does not open.
[[nodiscard]] std::optional<CommitmentBundle> checked_bundle(
    bgp::AsNumber reporter, const VerifiedWindow& window,
    const LeafOpening& bundle_leaf, std::vector<Evidence>& out) {
  auto bundle = open_leaf<CommitmentBundle>(window.root(), bundle_leaf);
  if (!bundle) {
    out.push_back(make_evidence(ViolationKind::kBadSignature,
                                window.signed_root().signer, reporter,
                                "commitment bundle not a leaf of the signed root"));
  }
  return bundle;
}

[[nodiscard]] bool opened_bit(const crypto::CommitmentOpening& opening) {
  return opening.value.size() == 1 && opening.value[0] == 1;
}

}  // namespace

std::vector<Evidence> verify_as_provider(
    bgp::AsNumber self, const std::optional<InputAnnouncement>& own_input,
    const VerifiedWindow& window, const LeafOpening& bundle_leaf,
    const LeafOpening* reveal) {
  std::vector<Evidence> out;
  const auto checked = checked_bundle(self, window, bundle_leaf, out);
  if (!checked) return out;
  const CommitmentBundle& bundle = *checked;
  const SignedMessage& signed_root = window.signed_root();
  const bgp::AsNumber prover = bundle.id.prover;

  if (!own_input.has_value()) return out;  // provided nothing: nothing to check
  const std::size_t len = own_input->route.path.length();
  if (bundle.op == OperatorKind::kMinimum &&
      (len == 0 || len > bundle.max_len)) {
    return out;  // outside the promise's domain
  }
  const std::uint32_t expected_index =
      bundle.op == OperatorKind::kExistential ? 1u
                                              : static_cast<std::uint32_t>(len);

  if (reveal == nullptr) {
    out.push_back(make_evidence(ViolationKind::kMissingReveal, prover, self,
                                "no reveal received for provided route"));
    return out;
  }
  const auto decoded = open_leaf<RevealToProvider>(window.root(), *reveal);
  if (!decoded) {
    out.push_back(make_evidence(ViolationKind::kBadSignature, prover, self,
                                "provider reveal not a leaf of the signed root"));
    return out;
  }
  if (!(decoded->id == bundle.id) || decoded->provider != self ||
      decoded->bit_index != expected_index ||
      decoded->bit_index > bundle.max_len) {
    out.push_back(make_evidence(ViolationKind::kMissingReveal, prover, self,
                                "reveal does not match this round/provider"));
    return out;
  }
  if (!crypto::verify_commitment(bundle.bits[decoded->bit_index - 1],
                                 decoded->opening)) {
    out.push_back(make_evidence(ViolationKind::kBadOpening, prover, self,
                                "opening does not match commitment",
                                &signed_root, {bundle_leaf, *reveal},
                                decoded->bit_index));
    return out;
  }
  if (!opened_bit(decoded->opening)) {
    out.push_back(make_evidence(
        ViolationKind::kBitNotSet, prover, self,
        "bit b_" + std::to_string(decoded->bit_index) +
            " is 0 although this provider supplied a route of that length",
        &signed_root, {bundle_leaf, *reveal}, decoded->bit_index));
  }
  return out;
}

std::vector<Evidence> verify_as_recipient(const VerifyContext& ctx,
                                          bgp::AsNumber self,
                                          const VerifiedWindow& window,
                                          const LeafOpening& bundle_leaf,
                                          const LeafOpening* recipient_reveal,
                                          const LeafOpening* export_statement) {
  std::vector<Evidence> out;
  const auto checked = checked_bundle(self, window, bundle_leaf, out);
  if (!checked) return out;
  const CommitmentBundle& bundle = *checked;
  const SignedMessage& signed_root = window.signed_root();
  const bgp::AsNumber prover = bundle.id.prover;

  if (recipient_reveal == nullptr || export_statement == nullptr) {
    out.push_back(make_evidence(ViolationKind::kMissingReveal, prover, self,
                                "recipient reveal or export statement missing"));
    return out;
  }
  const auto reveal = open_leaf<RevealToRecipient>(window.root(), *recipient_reveal);
  const auto statement = open_leaf<ExportStatement>(window.root(), *export_statement);
  if (!reveal || !statement) {
    out.push_back(make_evidence(ViolationKind::kBadSignature, prover, self,
                                "recipient-side leaf not under the signed root"));
    return out;
  }
  if (!(reveal->id == bundle.id) || !(statement->id == bundle.id) ||
      reveal->openings.size() != bundle.bits.size()) {
    out.push_back(make_evidence(ViolationKind::kMissingReveal, prover, self,
                                "recipient-side statements do not match round"));
    return out;
  }

  // Open every bit.
  std::vector<bool> bits(bundle.bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (!crypto::verify_commitment(bundle.bits[i], reveal->openings[i])) {
      out.push_back(make_evidence(ViolationKind::kBadOpening, prover, self,
                                  "opening " + std::to_string(i + 1) +
                                      " does not match commitment",
                                  &signed_root, {bundle_leaf, *recipient_reveal},
                                  static_cast<std::uint32_t>(i + 1)));
      return out;
    }
    bits[i] = opened_bit(reveal->openings[i]);
  }

  // Monotonicity (§3.3: "if some bi is set to 1, then all the bj, j > i,
  // must also be set").
  if (bundle.op == OperatorKind::kMinimum) {
    bool seen_set = false;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) {
        seen_set = true;
      } else if (seen_set) {
        out.push_back(make_evidence(ViolationKind::kNonMonotoneBits, prover,
                                    self, "bit vector is not monotone",
                                    &signed_root,
                                    {bundle_leaf, *recipient_reveal},
                                    static_cast<std::uint32_t>(i + 1)));
        break;
      }
    }
  }

  const bool any_set = std::any_of(bits.begin(), bits.end(), [](bool b) { return b; });
  const auto output_evidence = [&](ViolationKind kind, std::string detail) {
    return make_evidence(kind, prover, self, std::move(detail), &signed_root,
                         {bundle_leaf, *recipient_reveal, *export_statement});
  };

  if (statement->has_route) {
    // Condition 1: the route must have been provided by some Ni — checked
    // via the provenance signature chain.
    const auto provenance_valid = [&]() -> std::optional<std::size_t> {
      if (!statement->provenance.has_value()) return std::nullopt;
      if (!ctx.verify(*statement->provenance)) return std::nullopt;
      InputAnnouncement input;
      try {
        input = InputAnnouncement::decode(statement->provenance->payload);
      } catch (const std::out_of_range&) {
        return std::nullopt;
      }
      if (!(input.id == bundle.id)) return std::nullopt;
      if (input.provider != statement->provenance->signer) return std::nullopt;
      // Exported path must be the input path prepended with the prover.
      if (statement->route.path != input.route.path.prepended(prover)) {
        return std::nullopt;
      }
      if (statement->route.prefix != input.route.prefix) return std::nullopt;
      return input.route.path.length();
    }();

    if (!provenance_valid.has_value()) {
      out.push_back(output_evidence(ViolationKind::kOutputWithoutInput,
                                    "exported route has no valid provenance"));
      return out;
    }
    if (!any_set) {
      out.push_back(output_evidence(ViolationKind::kOutputWithoutInput,
                                    "route exported although all bits are 0"));
      return out;
    }
    if (bundle.op == OperatorKind::kMinimum) {
      const std::size_t min_set =
          static_cast<std::size_t>(std::find(bits.begin(), bits.end(), true) -
                                   bits.begin()) + 1;
      if (*provenance_valid != min_set) {
        out.push_back(output_evidence(
            ViolationKind::kOutputNotMinimal,
            "exported input length " + std::to_string(*provenance_valid) +
                " != committed minimum " + std::to_string(min_set)));
      }
    }
  } else if (any_set) {
    out.push_back(output_evidence(
        ViolationKind::kSuppressedOutput,
        "bits claim a route exists but none was exported"));
  }
  return out;
}

}  // namespace pvr::core
