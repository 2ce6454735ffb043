// Merkle-aggregated commitment bundles (paper §3.6, §3.8): the prover
// commits to ONE signed Merkle root over all its per-prefix bundles of an
// epoch window and reveals each prefix with a log-size inclusion proof.
//
// The leaves are the prover's per-prefix *signed* bundle envelopes, and
// the whole window travels as one AggregatedBundleMessage on the
// "pvr.bundle.agg" channel, so all per-round evidence keeps working
// unchanged, while verifiers gossip only the small signed root
// ("pvr.gossip.root"), never a bundle. Two signed roots for the same
// (prover, epoch, batch) window, or two whose signed prefix lists share a
// round, are third-party-provable equivocation (check_root_equivocation) —
// the only proof path verifiers need.
//
// Wire formats are specified in DESIGN.md §"Engine".
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/evidence.h"
#include "core/keys.h"
#include "core/min_protocol.h"
#include "crypto/merkle.h"

namespace pvr::core {

// The signed statement: one root over all per-prefix bundles of one
// aggregation window. `batch` numbers the prover's windows within an
// epoch, and `prefixes` names the rounds the window covers — both are
// signed, so EITHER two different roots for one (prover, epoch, batch)
// OR two windows that both claim the same prefix are provable
// equivocation from the two statements alone (a correct prover aggregates
// each (prefix, epoch) round in exactly one window).
struct AggregatedBundle {
  bgp::AsNumber prover = 0;
  std::uint64_t epoch = 0;
  std::uint32_t batch = 0;
  std::vector<bgp::Ipv4Prefix> prefixes;  // rounds covered, leaf order
  crypto::Digest root{};

  [[nodiscard]] std::uint32_t prefix_count() const noexcept {
    return static_cast<std::uint32_t>(prefixes.size());
  }
  [[nodiscard]] bool covers(const bgp::Ipv4Prefix& prefix) const;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AggregatedBundle decode(std::span<const std::uint8_t> data);
};

// One prefix's reveal under the root: the prover's individually signed
// CommitmentBundle envelope plus its inclusion proof.
struct SignedBundleOpening {
  SignedMessage bundle;  // CommitmentBundle payload, prover-signed
  crypto::MerkleProof proof;

  void encode(crypto::ByteWriter& writer) const;
  [[nodiscard]] static SignedBundleOpening decode(crypto::ByteReader& reader);
};

// What actually travels on pvr.bundle.agg: the signed root plus one
// opening per prefix of the window.
struct AggregatedBundleMessage {
  SignedMessage signed_root;  // AggregatedBundle payload
  std::vector<SignedBundleOpening> openings;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AggregatedBundleMessage decode(
      std::span<const std::uint8_t> data);
};

// Prover side: aggregates the signed per-prefix bundle envelopes of one
// (epoch, batch) window under one signed root.
[[nodiscard]] AggregatedBundleMessage aggregate_signed_bundles(
    bgp::AsNumber prover, std::uint64_t epoch, std::uint32_t batch,
    std::span<const SignedMessage> bundles, const crypto::RsaPrivateKey& key);

// Hash-only check of one opening against an already-decoded root statement
// (the root signature is the caller's concern — verified once per window).
// Also requires the opened bundle's prefix to be in the root's signed
// prefix list.
[[nodiscard]] bool verify_signed_opening(const AggregatedBundle& root,
                                         const SignedBundleOpening& opening);

// The shared conflict predicate behind both evidence creation
// (check_root_equivocation) and third-party validation (Auditor): two
// content-distinct statements by one prover for one epoch conflict when
// they share a batch or claim a common prefix.
[[nodiscard]] bool roots_conflict(const AggregatedBundle& a,
                                  const AggregatedBundle& b);

// Two verifiably signed, content-distinct roots for the same
// (prover, epoch) prove equivocation when they either belong to the same
// batch window or both claim a common prefix (the same round committed in
// two windows — the batch-split evasion). The evidence is the two signed
// root envelopes, validatable by core::Auditor.
[[nodiscard]] std::optional<Evidence> check_root_equivocation(
    const VerifyContext& ctx, bgp::AsNumber reporter,
    const SignedMessage& first, const SignedMessage& second);

}  // namespace pvr::core
