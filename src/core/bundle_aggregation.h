// One signature per prover window (paper §3.6, §3.8; DESIGN.md §8.3–§8.4).
//
// A prover signs ONE statement per collection window: an AggregatedBundle
// naming the window's rounds and the Merkle root over every statement it
// makes in them. The leaves (window_leaf.h) are, in order, the
// CommitmentBundle of prefixes[0..P), then per round one RevealToProvider
// slot per configured provider, the RevealToRecipient and the
// ExportStatement. A provider that is not revealed to still fills its slot
// with a salted leaf that holds no statement, so the leaf count and every
// leaf's index follow from the public provider list, never from how many
// providers supplied a route. Each neighbor gets one
// "pvr.bundle.agg" message: the signed root, every bundle leaf, and only
// its own reveal leaf — or, for the recipient, the recipient-reveal and
// export leaves — each with its inclusion proof. Verifiers gossip only the
// small signed root ("pvr.gossip.root").
//
// Bundle leaf i is the bundle of prefixes[i] (open_leaf enforces it and
// the statement signs the leaf count), so one root commits to exactly one
// bundle per round: two bundles for one round always mean two signed
// roots, and check_root_equivocation is the only equivocation proof.
//
// A verifier accepts a signed root in one place, open_window, and from
// then on holds the VerifiedWindow it returns: every later check on that
// window is hashing and comparing, with no signature verify or decode.
//
// Wire formats are specified in DESIGN.md §"Engine".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/evidence.h"
#include "core/keys.h"
#include "core/min_protocol.h"
#include "core/window_leaf.h"
#include "crypto/merkle.h"

namespace pvr::core {

// The signed statement: one root over every statement of one aggregation
// window. `batch` numbers the prover's windows within an epoch, `prefixes`
// names the rounds the window covers (no duplicates; decode rejects them)
// and `leaf_count` sizes the tree — all signed, so EITHER two different
// roots for one (prover, epoch, batch) OR two windows that both claim the
// same prefix are provable equivocation from the two statements alone (a
// correct prover aggregates each (prefix, epoch) round in exactly one
// window).
struct AggregatedBundle {
  bgp::AsNumber prover = 0;
  std::uint64_t epoch = 0;
  std::uint32_t batch = 0;
  std::uint32_t leaf_count = 0;
  std::vector<bgp::Ipv4Prefix> prefixes;  // rounds covered, bundle leaf order
  crypto::Digest root{};

  [[nodiscard]] std::uint32_t prefix_count() const noexcept {
    return static_cast<std::uint32_t>(prefixes.size());
  }
  [[nodiscard]] bool covers(const bgp::Ipv4Prefix& prefix) const;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AggregatedBundle decode(std::span<const std::uint8_t> data);
};

// What one leaf claims under an already-decoded root statement, without
// its inclusion proof: the leaf must be of Statement's kind, its proof
// must be for the signed leaf count, a bundle leaf must sit at the index
// of its own prefix and every other statement after the bundles, naming a
// round the window covers. Returns the decoded statement, or nullopt.
// Receivers file leaves by it; the statement is not yet bound to the root.
template <typename Statement>
[[nodiscard]] std::optional<Statement> decode_leaf(const AggregatedBundle& root,
                                                   const LeafOpening& opening);

// decode_leaf plus the hash-only inclusion check: the statement as the
// root's signer made it (the root signature is the caller's concern —
// verified once per window). Both are instantiated for the four leaf
// statements of min_protocol.h.
template <typename Statement>
[[nodiscard]] std::optional<Statement> open_leaf(const AggregatedBundle& root,
                                                 const LeafOpening& opening);

// What travels on pvr.bundle.agg: the signed root plus the leaves this
// neighbor may see.
struct AggregatedBundleMessage {
  SignedMessage signed_root;  // AggregatedBundle payload
  std::vector<LeafOpening> openings;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AggregatedBundleMessage decode(
      std::span<const std::uint8_t> data);
};

// One signed tree of a window: the root and every statement leaf with its
// inclusion proof, per round in prefix order.
struct SignedWindow {
  struct Round {
    LeafOpening bundle;
    std::map<bgp::AsNumber, LeafOpening> provider_reveals;
    LeafOpening recipient_reveal;
    LeafOpening export_statement;
  };
  SignedMessage signed_root;
  std::vector<Round> rounds;

  // The pvr.bundle.agg message for one neighbor: the root, every bundle
  // leaf and that neighbor's own leaves.
  [[nodiscard]] AggregatedBundleMessage message_for_provider(
      bgp::AsNumber provider) const;
  [[nodiscard]] AggregatedBundleMessage message_for_recipient() const;
};

// A window as the prover emits it: the honest tree and, when any round
// carries an equivocating bundle, a variant tree whose bundle leaves are
// the variants (its other leaves are the honest ones).
struct SealedWindow {
  SignedWindow honest;
  std::optional<SignedWindow> variant;
};

// Prover side: makes every statement of `rounds` (one per prefix, in
// window order) a leaf salted from `rng`, and signs the root — once, or
// twice when equivocating, the variant under `variant_batch`.
[[nodiscard]] SealedWindow seal_window(bgp::AsNumber prover,
                                       std::uint64_t epoch,
                                       std::uint32_t batch,
                                       std::uint32_t variant_batch,
                                       std::span<const ProverResult> rounds,
                                       const crypto::RsaPrivateKey& key,
                                       crypto::Drbg& rng);

class VerifiedWindow;

// The one acceptance rule for a signed window root: the payload decodes as
// an AggregatedBundle, its prover is the signer, and the signature
// verifies. Returns nullopt for anything else.
[[nodiscard]] std::optional<VerifiedWindow> open_window(
    const VerifyContext& ctx, const SignedMessage& signed_root);

// A signed window root that open_window accepted, with its decoded
// statement. open_window is the only way to make one. It is immutable, so
// a verifier shares one instance across every round the window claims and
// with the engine workers that check those rounds.
class VerifiedWindow {
 public:
  [[nodiscard]] const SignedMessage& signed_root() const noexcept {
    return signed_root_;
  }
  [[nodiscard]] const AggregatedBundle& root() const noexcept { return root_; }

 private:
  friend std::optional<VerifiedWindow> open_window(const VerifyContext&,
                                                   const SignedMessage&);
  VerifiedWindow(SignedMessage signed_root, AggregatedBundle root)
      : signed_root_(std::move(signed_root)), root_(std::move(root)) {}

  SignedMessage signed_root_;
  AggregatedBundle root_;
};

// The shared conflict predicate behind both evidence creation
// (check_root_equivocation) and third-party validation (Auditor): two
// content-distinct statements by one prover for one epoch conflict when
// they share a batch or claim a common prefix.
[[nodiscard]] bool roots_conflict(const AggregatedBundle& a,
                                  const AggregatedBundle& b);

// Two content-distinct windows of the same (prover, epoch) prove
// equivocation when they either belong to the same batch or both claim a
// common prefix (the same round committed in two windows — the
// batch-split evasion). Both windows are already verified, so this only
// compares. The evidence is the two signed root envelopes, validatable by
// core::Auditor.
[[nodiscard]] std::optional<Evidence> check_root_equivocation(
    bgp::AsNumber reporter, const VerifiedWindow& first,
    const VerifiedWindow& second);

}  // namespace pvr::core
