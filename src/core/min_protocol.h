// The existential and minimum operator protocols (paper §3.2–3.3).
//
// Scenario (Fig. 1): prover AS A has providers N1..Nk and recipient B, and
// has promised B the shortest (resp. some) route received from the Ni.
//
// Per protocol round (prefix, epoch):
//   1. Each providing Ni sends A a signed InputAnnouncement.
//   2. A computes bits b_1..b_L (b_i = 1 iff an input of length <= i
//      exists; L = 1 with b_1 = "any input" for the existential operator)
//      and commits to each bit in a CommitmentBundle.
//   3. A reveals to each providing Ni the opening of b_{|r_i|}
//      (RevealToProvider — A's statement of it doubles as A's
//      acknowledgment that Ni provided a length-|r_i| route, which is what
//      makes kBitNotSet third-party provable).
//   4. A reveals all openings to B (RevealToRecipient) and states its
//      export (ExportStatement): either the exported route plus its
//      provenance (the winning Ni's own signed announcement) or the claim
//      "no route", which makes suppression provable.
//   5. Verifiers run verify_as_provider / verify_as_recipient; any
//      violation yields Evidence validatable by core::Auditor.
//
// run_prover only computes these statements; it signs nothing. A binds
// them by making each one a salted leaf of its window's Merkle tree and
// signing that tree's root once (core/bundle_aggregation.h seal_window), so
// every statement reaches its verifier as leaf + inclusion proof under one
// signed root, which binds A exactly as a signature on the statement would.
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
#include "core/window_leaf.h"
#include "crypto/commitment.h"
#include "crypto/drbg.h"

namespace pvr::core {

class VerifiedWindow;  // bundle_aggregation.h

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

// ---- Statements ----
//
// InputAnnouncement travels inside a provider-signed SignedMessage. The
// prover's four statements travel as window leaves (window_leaf.h); each
// names its LeafKind.

struct InputAnnouncement {
  ProtocolId id;               // the round this input feeds
  bgp::AsNumber provider = 0;  // who provides the route
  bgp::Route route;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static InputAnnouncement decode(std::span<const std::uint8_t> data);
};

struct CommitmentBundle {
  static constexpr LeafKind kLeafKind = LeafKind::kBundle;

  ProtocolId id;
  OperatorKind op = OperatorKind::kMinimum;
  std::uint32_t max_len = 0;                   // L; 1 for existential
  std::vector<crypto::Commitment> bits;        // size L, index i-1 = b_i

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static CommitmentBundle decode(std::span<const std::uint8_t> data);
};

struct RevealToProvider {
  static constexpr LeafKind kLeafKind = LeafKind::kProviderReveal;

  ProtocolId id;
  bgp::AsNumber provider = 0;
  std::uint32_t bit_index = 0;  // 1-based; == min(|r_i|, L)
  crypto::CommitmentOpening opening;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static RevealToProvider decode(std::span<const std::uint8_t> data);
};

struct RevealToRecipient {
  static constexpr LeafKind kLeafKind = LeafKind::kRecipientReveal;

  ProtocolId id;
  std::vector<crypto::CommitmentOpening> openings;  // all of b_1..b_L

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static RevealToRecipient decode(std::span<const std::uint8_t> data);
};

struct ExportStatement {
  static constexpr LeafKind kLeafKind = LeafKind::kExport;

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
  // With equivocate: put the conflicting bundles under a SECOND window
  // (fresh batch number) instead of signing the same window twice, so no
  // two roots share a batch — the batch-split evasion.
  // Both windows still claim the same prefixes, which is exactly what
  // roots_conflict's common-round rule catches.
  bool batch_split = false;

  [[nodiscard]] bool honest() const {
    return !export_nonminimal && !bits_match_lie && !suppress_export &&
           !fabricate_route && !nonmonotone_bits && !wrong_opening_for &&
           !skip_reveal_for && !equivocate && !batch_split;
  }
};

// One round's statements, unsigned: seal_window (bundle_aggregation.h)
// turns them into leaves under the window's signed root.
struct ProverResult {
  CommitmentBundle bundle;
  std::optional<CommitmentBundle> equivocating_bundle;  // if equivocating
  // Every configured provider (the keys of run_prover's inputs), in AS
  // order. Each has a reveal slot in the window tree whether or not it is
  // revealed to, so the tree's shape shows no neighbor how many providers
  // supplied a route (§3.2 confidentiality).
  std::vector<bgp::AsNumber> providers;
  std::map<bgp::AsNumber, RevealToProvider> provider_reveals;  // keys in providers
  RevealToRecipient recipient_reveal;
  ExportStatement export_statement;
  // The honest decision (for experiment bookkeeping).
  std::optional<bgp::Route> honest_output;
};

// Runs the prover side over the signed inputs (one optional entry per
// provider; absent = that neighbor provided nothing). `max_len` is L.
// Inputs longer than L are ignored (out of the promise's domain).
[[nodiscard]] ProverResult run_prover(
    const ProtocolId& id, OperatorKind op,
    const std::map<bgp::AsNumber, std::optional<SignedMessage>>& inputs,
    std::uint32_t max_len, crypto::Drbg& rng,
    const ProverMisbehavior& misbehavior = {});

// ---- Verifiers (each returns the violations it detected) ----
//
// Every prover statement arrives as a LeafOpening under `window`, the
// round's window root as open_window (bundle_aggregation.h) accepted it.
// The root's signature is therefore already checked; these checks open
// each leaf with hashes only.

// Ni-side checks (§3.2 condition 2 / §3.3 condition 3). `own_input` is what
// the provider actually sent this round; `reveal` is the RevealToProvider
// leaf received from the prover (nullptr if none arrived).
[[nodiscard]] std::vector<Evidence> verify_as_provider(
    bgp::AsNumber self, const std::optional<InputAnnouncement>& own_input,
    const VerifiedWindow& window, const LeafOpening& bundle,
    const LeafOpening* reveal);

// B-side checks (§3.2 condition 1 plus the §3.3 bit-vector checks). `ctx`
// verifies the export's provenance, the winning provider's signed input.
[[nodiscard]] std::vector<Evidence> verify_as_recipient(
    const VerifyContext& ctx, bgp::AsNumber self, const VerifiedWindow& window,
    const LeafOpening& bundle, const LeafOpening* recipient_reveal,
    const LeafOpening* export_statement);

// Honest-bit computation (exposed for tests and benches): bits_of returns
// b_1..b_L for the given input routes.
[[nodiscard]] std::vector<bool> compute_bits(
    OperatorKind op, const std::vector<bgp::Route>& inputs, std::uint32_t max_len);

}  // namespace pvr::core
