// Violations, evidence, and the third-party auditor (paper §2.3).
//
// PVR's four properties are Detection, Evidence, Accuracy, Confidentiality.
// This module implements the Evidence and Accuracy halves: every detected
// *safety* violation is packaged as a self-contained Evidence object built
// from the misbehaving AS's own signed artifacts, and `Auditor::validate`
// is the "convince a third party" predicate — it re-derives the violation
// from the signed artifacts alone, so a correct AS can always disprove
// fabricated evidence (validation fails) and a guilty AS cannot repudiate
// (its signatures bind it).
//
// Liveness faults (a reveal or export that never arrives) are detectable by
// the waiting neighbor but not third-party provable without signed
// acknowledgments of message delivery; validate() deliberately rejects
// those kinds. See DESIGN.md §7.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/keys.h"
#include "core/window_leaf.h"
#include "crypto/commitment.h"

namespace pvr::core {

enum class ViolationKind : std::uint8_t {
  // Two conflicting signed window roots: one window signed twice, or two
  // windows claiming one round (so two commitment bundles for it).
  kEquivocation = 0,
  // A reveal whose opening does not match the committed value.
  kBadOpening = 1,
  // Provider Ni supplied a route of length l but the opened bit b_l is 0.
  kBitNotSet = 2,
  // Provider supplied a route but received no (or a malformed) reveal.
  // Detectable; NOT third-party provable (liveness).
  kMissingReveal = 3,
  // Recipient-side: some b_i = 1 with b_j = 0 for j > i.
  kNonMonotoneBits = 4,
  // Recipient-side: exported route's input length != the minimum set bit.
  kOutputNotMinimal = 5,
  // Recipient-side: a route was exported although no bit is set, or its
  // provenance (the providing neighbor's signature chain) is invalid.
  kOutputWithoutInput = 6,
  // Recipient-side: a bit is set but the signed export statement says
  // "no route".
  kSuppressedOutput = 7,
  // A signature that fails verification where one is required.
  // Detectable; not provable (anyone can corrupt bytes).
  kBadSignature = 8,
  // Graph protocol: a disclosed vertex is inconsistent with the committed
  // root, or the disclosed structure does not implement the promise.
  kStructuralMismatch = 9,
};

[[nodiscard]] std::string to_string(ViolationKind kind);

struct Evidence {
  ViolationKind kind = ViolationKind::kBadSignature;
  bgp::AsNumber accused = 0;
  bgp::AsNumber reporter = 0;
  // Bit index the violation refers to (kBitNotSet / kBadOpening), 1-based.
  std::uint32_t index = 0;
  // The accused's signed window roots: the two conflicting ones for
  // kEquivocation, otherwise the one root the leaves below open under.
  std::vector<SignedMessage> messages;
  // The accused's statements as leaves of messages[0]'s tree, each with
  // its inclusion proof: the bundle, then the reveal (provider or
  // recipient), then the export statement, as far as the kind needs them.
  // Everything the auditor needs is in messages + leaves.
  std::vector<LeafOpening> leaves;
  std::string detail;  // human-readable diagnosis

  [[nodiscard]] std::string to_string() const;

  // Canonical wire form (ByteWriter layout): evidence is self-contained by
  // design, so a serialized item validates anywhere — the multiprocess node
  // processes ship their verifiers' logs back to the conductor with this.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static Evidence decode(std::span<const std::uint8_t> data);
};

class VerifyContext;  // core/verify_context.h

// Third-party evidence validation. Holds only public keys (through the
// caller's verification context); never sees protocol state, so whatever
// it accepts is reproducible by anyone.
class Auditor {
 public:
  // Borrows `ctx`, which must outlive the Auditor. Throws
  // std::invalid_argument on null.
  explicit Auditor(const VerifyContext* ctx);

  // True iff the evidence proves the accused misbehaved.
  [[nodiscard]] bool validate(const Evidence& evidence) const;

 private:
  const VerifyContext* ctx_;  // not owned
};

}  // namespace pvr::core
