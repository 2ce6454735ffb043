// Merkle-aggregated commitment bundles (paper §3.6, §3.8): the prover
// commits to ONE signed Merkle root over all its per-prefix bundles of an
// epoch window and reveals each prefix with a log-size inclusion proof.
//
// Two layers share the machinery:
//
//  1. Payload-level aggregation (AggregatedBundle / AggregatedOpening):
//     leaves are raw CommitmentBundle encodings, so verifying N prefixes
//     costs one RSA verification plus hashes. Exercised by the engine
//     benches (see bench_engine_throughput).
//
//  2. Envelope-level wire aggregation (AggregatedBundleMessage, the
//     "pvr.bundle.agg" channel): leaves are the prover's per-prefix
//     *signed* bundle envelopes, so all per-round evidence keeps working
//     unchanged, while verifiers gossip only the small signed root
//     ("pvr.gossip.root"), never a bundle. Two signed roots for the same
//     (prover, epoch, batch) window, or two whose signed prefix lists
//     share a round, are third-party-provable equivocation
//     (check_root_equivocation) — the only proof path verifiers need.
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

// Per-prefix reveal: the bundle itself plus its inclusion proof under the
// signed root (payload-level form).
struct AggregatedOpening {
  CommitmentBundle bundle;
  crypto::MerkleProof proof;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static AggregatedOpening decode(std::span<const std::uint8_t> data);
};

struct AggregatedCommitment {
  SignedMessage signed_root;                // AggregatedBundle payload
  std::vector<AggregatedOpening> openings;  // same order as the input bundles
};

// Prover side: one signature for the whole window (payload-level form).
[[nodiscard]] AggregatedCommitment aggregate_bundles(
    bgp::AsNumber prover, std::uint64_t epoch,
    std::span<const CommitmentBundle> bundles, const crypto::RsaPrivateKey& key,
    std::uint32_t batch = 0);

// Verifier side for one prefix: checks the root signature, the inclusion
// proof, and that the opened bundle belongs to (prover, epoch).
[[nodiscard]] bool verify_aggregated_opening(
    const KeyDirectory& directory, const SignedMessage& signed_root,
    const AggregatedOpening& opening);

// Amortized form: verifies the root signature ONCE and then each opening
// against it — the per-epoch cost the aggregated mode exists for. Result
// order matches `openings`; all false if the root itself fails.
[[nodiscard]] std::vector<bool> verify_aggregated_openings(
    const KeyDirectory& directory, const SignedMessage& signed_root,
    std::span<const AggregatedOpening> openings);

// ---- Envelope-level wire aggregation (the pvr.bundle.agg channel) ----

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
    const KeyDirectory& directory, bgp::AsNumber reporter,
    const SignedMessage& first, const SignedMessage& second);

// VerifyContext flavors (the engine / world-shared path, see
// core/verify_context.h): identical verdicts, amortized root-signature
// verification. The KeyDirectory versions forward to
// directory.verify_context().
[[nodiscard]] bool verify_aggregated_opening(const VerifyContext& ctx,
                                             const SignedMessage& signed_root,
                                             const AggregatedOpening& opening);
[[nodiscard]] std::vector<bool> verify_aggregated_openings(
    const VerifyContext& ctx, const SignedMessage& signed_root,
    std::span<const AggregatedOpening> openings);
[[nodiscard]] std::optional<Evidence> check_root_equivocation(
    const VerifyContext& ctx, bgp::AsNumber reporter,
    const SignedMessage& first, const SignedMessage& second);

}  // namespace pvr::core
