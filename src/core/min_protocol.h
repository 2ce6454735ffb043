// The existential and minimum operator protocols (paper §3.2–3.3).
//
// Scenario (Fig. 1): prover AS A has providers N1..Nk and recipient B, and
// has promised B the shortest (resp. some) route received from the Ni.
//
// Per protocol round (prefix, epoch):
//   1. Each providing Ni sends A a signed InputAnnouncement.
//   2. A computes bits b_1..b_L (b_i = 1 iff an input of length <= i
//      exists; L = 1 with b_1 = "any input" for the existential operator),
//      commits to each bit, and publishes a signed CommitmentBundle to all
//      neighbors, who gossip it to detect equivocation.
//   3. A reveals to each providing Ni the opening of b_{|r_i|}
//      (RevealToProvider, signed — the signature doubles as A's
//      acknowledgment that Ni provided a length-|r_i| route, which is what
//      makes kBitNotSet third-party provable).
//   4. A reveals all openings to B (RevealToRecipient, signed) and sends a
//      signed ExportStatement carrying either the exported route plus its
//      provenance (the winning Ni's own signed announcement) or the claim
//      "no route", which makes suppression provable.
//   5. Verifiers run verify_as_provider / verify_as_recipient; any
//      violation yields Evidence validatable by core::Auditor.
//
// Confidentiality: Ni learns only the single bit b_{|r_i|} (which must be 1
// if A is honest — it already knows that); B learns the chosen route and
// the bit vector, i.e. exactly "no shorter route existed", which standard
// BGP already implies under the promise.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "bgp/route.h"
#include "core/evidence.h"
#include "core/keys.h"
#include "crypto/commitment.h"
#include "crypto/drbg.h"

namespace pvr::core {

enum class OperatorKind : std::uint8_t { kExistential = 0, kMinimum = 1 };

// Identifies one protocol round. Totally ordered (prover, prefix, epoch)
// and hashable so node and engine state can be keyed by the full round
// identity — keying by epoch alone collides concurrent rounds for
// different prefixes or provers.
struct ProtocolId {
  bgp::AsNumber prover = 0;
  bgp::Ipv4Prefix prefix;
  std::uint64_t epoch = 0;

  [[nodiscard]] bool operator==(const ProtocolId&) const = default;
  [[nodiscard]] auto operator<=>(const ProtocolId&) const = default;
  [[nodiscard]] std::string gossip_topic() const;
  void encode(crypto::ByteWriter& writer) const;
  [[nodiscard]] static ProtocolId decode(crypto::ByteReader& reader);
};

// ---- Wire payloads (each travels inside a SignedMessage) ----

struct InputAnnouncement {
  ProtocolId id;               // the round this input feeds
  bgp::AsNumber provider = 0;  // who provides the route
  bgp::Route route;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static InputAnnouncement decode(std::span<const std::uint8_t> data);
};

struct CommitmentBundle {
  ProtocolId id;
  OperatorKind op = OperatorKind::kMinimum;
  std::uint32_t max_len = 0;                   // L; 1 for existential
  std::vector<crypto::Commitment> bits;        // size L, index i-1 = b_i

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static CommitmentBundle decode(std::span<const std::uint8_t> data);
};

struct RevealToProvider {
  ProtocolId id;
  bgp::AsNumber provider = 0;
  std::uint32_t bit_index = 0;  // 1-based; == min(|r_i|, L)
  crypto::CommitmentOpening opening;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static RevealToProvider decode(std::span<const std::uint8_t> data);
};

struct RevealToRecipient {
  ProtocolId id;
  std::vector<crypto::CommitmentOpening> openings;  // all of b_1..b_L

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static RevealToRecipient decode(std::span<const std::uint8_t> data);
};

struct ExportStatement {
  ProtocolId id;
  bool has_route = false;
  bgp::Route route;  // as exported (provider path prepended with prover)
  // Provenance: the winning provider's signed InputAnnouncement (§3.2
  // condition 1 — B verifies the route "was provided to A by some Ni").
  std::optional<SignedMessage> provenance;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static ExportStatement decode(std::span<const std::uint8_t> data);
};

// ---- Prover ----

// Byzantine strategy knobs for the prover (all false = honest).
struct ProverMisbehavior {
  bool export_nonminimal = false;   // export the longest input, honest bits
  bool bits_match_lie = false;      // with export_nonminimal: forge the bits
                                    // to match the lie instead
  bool suppress_export = false;     // claim "no route" despite inputs
  bool fabricate_route = false;     // export a route nobody provided
  bool nonmonotone_bits = false;    // clear a bit above the minimum
  std::optional<bgp::AsNumber> wrong_opening_for;  // corrupt Ni's opening
  std::optional<bgp::AsNumber> skip_reveal_for;    // never reveal to Ni
  bool equivocate = false;          // second bundle for a subset of peers
  // With equivocate, in aggregated wire mode: put the conflicting bundles
  // under a SECOND window (fresh batch number) instead of signing the same
  // window twice, so no two roots share a batch — the batch-split evasion.
  // Both windows still claim the same prefixes, which is exactly what
  // roots_conflict's common-round rule catches.
  bool batch_split = false;

  [[nodiscard]] bool honest() const {
    return !export_nonminimal && !bits_match_lie && !suppress_export &&
           !fabricate_route && !nonmonotone_bits && !wrong_opening_for &&
           !skip_reveal_for && !equivocate && !batch_split;
  }
};

struct ProverResult {
  SignedMessage signed_bundle;                       // CommitmentBundle
  std::optional<SignedMessage> equivocating_bundle;  // if equivocating
  std::map<bgp::AsNumber, SignedMessage> provider_reveals;  // RevealToProvider
  SignedMessage recipient_reveal;                    // RevealToRecipient
  SignedMessage export_statement;                    // ExportStatement
  // The honest decision (for experiment bookkeeping).
  std::optional<bgp::Route> honest_output;
};

// Runs the prover side over the signed inputs (one optional entry per
// provider; absent = that neighbor provided nothing). `max_len` is L.
// Inputs longer than L are ignored (out of the promise's domain).
[[nodiscard]] ProverResult run_prover(
    const ProtocolId& id, OperatorKind op,
    const std::map<bgp::AsNumber, std::optional<SignedMessage>>& inputs,
    std::uint32_t max_len, const crypto::RsaPrivateKey& prover_key,
    crypto::Drbg& rng, const ProverMisbehavior& misbehavior = {});

// ---- Verifiers (each returns the violations it detected) ----
//
// Each check exists in two flavors: the VerifyContext one (the engine /
// world-shared path, amortized per-key precompute plus the optional
// verdict cache) and a KeyDirectory convenience wrapper that forwards to
// directory.verify_context(). Verdicts are identical by construction.

// Ni-side checks (§3.2 condition 2 / §3.3 condition 3). `own_input` is what
// the provider actually sent this round; `reveal` is the signed
// RevealToProvider received from the prover (nullptr if none arrived).
[[nodiscard]] std::vector<Evidence> verify_as_provider(
    const VerifyContext& ctx, bgp::AsNumber self,
    const std::optional<InputAnnouncement>& own_input,
    const SignedMessage& signed_bundle, const SignedMessage* reveal);
[[nodiscard]] std::vector<Evidence> verify_as_provider(
    const KeyDirectory& directory, bgp::AsNumber self,
    const std::optional<InputAnnouncement>& own_input,
    const SignedMessage& signed_bundle, const SignedMessage* reveal);

// B-side checks (§3.2 condition 1 plus the §3.3 bit-vector checks).
[[nodiscard]] std::vector<Evidence> verify_as_recipient(
    const VerifyContext& ctx, bgp::AsNumber self,
    const SignedMessage& signed_bundle, const SignedMessage* recipient_reveal,
    const SignedMessage* export_statement);
[[nodiscard]] std::vector<Evidence> verify_as_recipient(
    const KeyDirectory& directory, bgp::AsNumber self,
    const SignedMessage& signed_bundle, const SignedMessage* recipient_reveal,
    const SignedMessage* export_statement);

// Two signed bundles for the same round with different contents prove
// equivocation.
[[nodiscard]] std::optional<Evidence> check_equivocation(
    const VerifyContext& ctx, bgp::AsNumber reporter,
    const SignedMessage& first, const SignedMessage& second);
[[nodiscard]] std::optional<Evidence> check_equivocation(
    const KeyDirectory& directory, bgp::AsNumber reporter,
    const SignedMessage& first, const SignedMessage& second);

// Honest-bit computation (exposed for tests and benches): bits_of returns
// b_1..b_L for the given input routes.
[[nodiscard]] std::vector<bool> compute_bits(
    OperatorKind op, const std::vector<bgp::Route>& inputs, std::uint32_t max_len);

}  // namespace pvr::core
