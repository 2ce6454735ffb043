// Auditor tests: the Evidence and Accuracy properties of §2.3.
//
// Every genuine violation's evidence must convince the auditor; every
// fabricated or tampered evidence object must fail validation (so an
// honest AS can always disprove false accusations).
#include "core/evidence.h"

#include <gtest/gtest.h>

#include "core/bundle_aggregation.h"
#include "core/min_protocol.h"
#include "core/verify_context.h"

namespace pvr::core {
namespace {

constexpr bgp::AsNumber kProver = 100;
constexpr bgp::AsNumber kRecipient = 200;
constexpr bgp::AsNumber kN1 = 301;
constexpr bgp::AsNumber kN2 = 302;
constexpr std::uint32_t kMaxLen = 8;

[[nodiscard]] bgp::Route route_len(std::size_t length, bgp::AsNumber origin_as) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(origin_as);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(5000 + i));
  }
  return bgp::Route{
      .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
      .path = bgp::AsPath(std::move(hops)),
      .next_hop = origin_as,
      .local_pref = 100,
      .med = 0,
      .origin = bgp::Origin::kIgp,
      .communities = {},
  };
}

class AuditorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::Drbg rng(13, "auditor-keys");
    keys_ = new AsKeyPairs(generate_keys({kProver, kRecipient, kN1, kN2}, rng, 512));
    ctx_ = new VerifyContext(&keys_->directory);
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
    delete keys_;
    keys_ = nullptr;
  }

  static const VerifyContext& ctx() { return *ctx_; }
  // The window root as a verifier accepts it (throws if it does not open).
  [[nodiscard]] static VerifiedWindow opened(const SignedWindow& window) {
    return open_window(ctx(), window.signed_root).value();
  }
  static const crypto::RsaPrivateKey& key_of(bgp::AsNumber asn) {
    return keys_->private_keys.at(asn).priv;
  }

  [[nodiscard]] static ProtocolId round_id() {
    return {.prover = kProver,
            .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
            .epoch = 1};
  }

  [[nodiscard]] static std::map<bgp::AsNumber, std::optional<SignedMessage>>
  canonical_inputs() {
    auto make = [&](bgp::AsNumber provider, std::size_t length) {
      const InputAnnouncement announcement{.id = round_id(),
                                           .provider = provider,
                                           .route = route_len(length, provider)};
      return sign_message(provider, key_of(provider), announcement.encode());
    };
    return {{kN1, make(kN1, 3)}, {kN2, make(kN2, 2)}};
  }

  // The round sealed as a one-prefix window: statements as leaves under
  // one signed root (plus the variant root when equivocating).
  [[nodiscard]] static SealedWindow run(const ProverMisbehavior& misbehavior) {
    crypto::Drbg rng(5, "auditor-prover");
    const ProverResult result =
        run_prover(round_id(), OperatorKind::kMinimum, canonical_inputs(),
                   kMaxLen, rng, misbehavior);
    return seal_window(kProver, 1, 0, 0, std::span(&result, 1), key_of(kProver),
                       rng);
  }

  // First evidence of a given kind produced by the full verifier sweep (or,
  // for kEquivocation, by the honest and variant roots).
  [[nodiscard]] static Evidence evidence_for(const ProverMisbehavior& misbehavior,
                                             ViolationKind kind) {
    const SealedWindow sealed = run(misbehavior);
    if (kind == ViolationKind::kEquivocation) {
      const auto conflict = check_root_equivocation(
          kN1, opened(sealed.honest), opened(*sealed.variant));
      if (conflict) return *conflict;
      ADD_FAILURE() << "expected equivocation evidence";
      return {};
    }
    const SignedWindow& window = sealed.honest;
    const VerifiedWindow verified = opened(window);
    const SignedWindow::Round& round = window.rounds.front();
    std::vector<Evidence> all;
    for (const auto& [provider, length] :
         std::vector<std::pair<bgp::AsNumber, std::size_t>>{{kN1, 3}, {kN2, 2}}) {
      const InputAnnouncement own{.id = round_id(), .provider = provider,
                                  .route = route_len(length, provider)};
      const auto it = round.provider_reveals.find(provider);
      auto found = verify_as_provider(
          provider, own, verified, round.bundle,
          it == round.provider_reveals.end() ? nullptr : &it->second);
      all.insert(all.end(), found.begin(), found.end());
    }
    auto found = verify_as_recipient(ctx(), kRecipient, verified,
                                     round.bundle, &round.recipient_reveal,
                                     &round.export_statement);
    all.insert(all.end(), found.begin(), found.end());
    for (const Evidence& e : all) {
      if (e.kind == kind) return e;
    }
    ADD_FAILURE() << "expected evidence of kind " << to_string(kind);
    return {};
  }

 private:
  static AsKeyPairs* keys_;
  static VerifyContext* ctx_;
};

AsKeyPairs* AuditorTest::keys_ = nullptr;
VerifyContext* AuditorTest::ctx_ = nullptr;

TEST_F(AuditorTest, RejectsNullDirectory) {
  EXPECT_THROW(Auditor(nullptr), std::invalid_argument);
}

// ---- Genuine evidence convinces the auditor ----

TEST_F(AuditorTest, ValidatesEquivocation) {
  const Evidence evidence =
      evidence_for({.equivocate = true}, ViolationKind::kEquivocation);
  EXPECT_TRUE(Auditor(&ctx()).validate(evidence));
}

TEST_F(AuditorTest, ValidatesBadOpening) {
  const Evidence evidence =
      evidence_for({.wrong_opening_for = kN1}, ViolationKind::kBadOpening);
  EXPECT_TRUE(Auditor(&ctx()).validate(evidence));
}

TEST_F(AuditorTest, ValidatesBitNotSet) {
  const Evidence evidence = evidence_for(
      {.export_nonminimal = true, .bits_match_lie = true},
      ViolationKind::kBitNotSet);
  EXPECT_TRUE(Auditor(&ctx()).validate(evidence));
}

TEST_F(AuditorTest, ValidatesNonMonotoneBits) {
  const Evidence evidence =
      evidence_for({.nonmonotone_bits = true}, ViolationKind::kNonMonotoneBits);
  EXPECT_TRUE(Auditor(&ctx()).validate(evidence));
}

TEST_F(AuditorTest, ValidatesOutputNotMinimal) {
  const Evidence evidence =
      evidence_for({.export_nonminimal = true}, ViolationKind::kOutputNotMinimal);
  EXPECT_TRUE(Auditor(&ctx()).validate(evidence));
}

TEST_F(AuditorTest, ValidatesOutputWithoutInput) {
  const Evidence evidence =
      evidence_for({.fabricate_route = true}, ViolationKind::kOutputWithoutInput);
  EXPECT_TRUE(Auditor(&ctx()).validate(evidence));
}

TEST_F(AuditorTest, ValidatesSuppressedOutput) {
  const Evidence evidence =
      evidence_for({.suppress_export = true}, ViolationKind::kSuppressedOutput);
  EXPECT_TRUE(Auditor(&ctx()).validate(evidence));
}

// ---- Fabricated evidence is rejected (Accuracy) ----

TEST_F(AuditorTest, RejectsAccusationAgainstHonestProver) {
  // Take an honest round and try to frame the prover with every provable
  // violation kind using its genuine messages.
  const SignedWindow window = run({}).honest;
  const SignedWindow::Round& round = window.rounds.front();
  const Auditor auditor(&ctx());
  for (const ViolationKind kind :
       {ViolationKind::kEquivocation, ViolationKind::kBadOpening,
        ViolationKind::kBitNotSet, ViolationKind::kNonMonotoneBits,
        ViolationKind::kOutputNotMinimal, ViolationKind::kOutputWithoutInput,
        ViolationKind::kSuppressedOutput}) {
    const Evidence framed{
        .kind = kind,
        .accused = kProver,
        .reporter = kN1,
        .index = 2,
        .messages = {window.signed_root, window.signed_root},
        .leaves = {round.bundle, round.recipient_reveal, round.export_statement},
        .detail = "framed",
    };
    EXPECT_FALSE(auditor.validate(framed)) << to_string(kind);
  }
}

TEST_F(AuditorTest, RejectsEvidenceWithTamperedMessages) {
  Evidence evidence =
      evidence_for({.export_nonminimal = true}, ViolationKind::kOutputNotMinimal);
  ASSERT_FALSE(evidence.messages.empty());
  evidence.messages[0].payload[15] ^= 1;  // break the root signature
  EXPECT_FALSE(Auditor(&ctx()).validate(evidence));
}

TEST_F(AuditorTest, RejectsEvidenceAccusingWrongAs) {
  Evidence evidence =
      evidence_for({.export_nonminimal = true}, ViolationKind::kOutputNotMinimal);
  evidence.accused = kN1;  // redirect the accusation
  EXPECT_FALSE(Auditor(&ctx()).validate(evidence));
}

TEST_F(AuditorTest, RejectsEmptyEvidence) {
  const Evidence empty{.kind = ViolationKind::kEquivocation,
                       .accused = kProver,
                       .reporter = kN1,
                       .index = 0,
                       .messages = {},
                       .leaves = {},
                       .detail = ""};
  EXPECT_FALSE(Auditor(&ctx()).validate(empty));
}

TEST_F(AuditorTest, RejectsLivenessKinds) {
  // Missing reveals are detectable but not third-party provable; validate()
  // must never convict on them.
  const SignedWindow window = run({.skip_reveal_for = kN2}).honest;
  const Evidence liveness{.kind = ViolationKind::kMissingReveal,
                          .accused = kProver,
                          .reporter = kN2,
                          .index = 0,
                          .messages = {window.signed_root},
                          .leaves = {window.rounds.front().bundle},
                          .detail = "no reveal"};
  EXPECT_FALSE(Auditor(&ctx()).validate(liveness));
}

// Evidence is self-contained: every provable kind validates from its wire
// bytes alone, and one flipped byte in a leaf, a proof sibling or the root
// signature makes it fail.
TEST_F(AuditorTest, EveryKindValidatesFromWireBytesAndNotAfterAFlip) {
  const Auditor auditor(&ctx());
  const std::vector<std::pair<ProverMisbehavior, ViolationKind>> cases = {
      {{.equivocate = true}, ViolationKind::kEquivocation},
      {{.wrong_opening_for = kN1}, ViolationKind::kBadOpening},
      {{.export_nonminimal = true, .bits_match_lie = true},
       ViolationKind::kBitNotSet},
      {{.nonmonotone_bits = true}, ViolationKind::kNonMonotoneBits},
      {{.export_nonminimal = true}, ViolationKind::kOutputNotMinimal},
      {{.fabricate_route = true}, ViolationKind::kOutputWithoutInput},
      {{.suppress_export = true}, ViolationKind::kSuppressedOutput},
  };
  for (const auto& [misbehavior, kind] : cases) {
    const Evidence original = evidence_for(misbehavior, kind);
    const Evidence decoded = Evidence::decode(original.encode());
    EXPECT_TRUE(auditor.validate(decoded)) << to_string(kind);

    Evidence bad_signature = decoded;
    bad_signature.messages.back().signature[3] ^= 0x20;
    EXPECT_FALSE(auditor.validate(bad_signature)) << to_string(kind);
    if (kind == ViolationKind::kEquivocation) {
      EXPECT_TRUE(decoded.leaves.empty());
      continue;
    }
    Evidence bad_leaf = decoded;
    bad_leaf.leaves.back().leaf.payload[5] ^= 0x01;
    EXPECT_FALSE(auditor.validate(bad_leaf)) << to_string(kind);
    Evidence bad_salt = decoded;
    bad_salt.leaves.front().leaf.salt[0] ^= 0x01;
    EXPECT_FALSE(auditor.validate(bad_salt)) << to_string(kind);
    Evidence bad_sibling = decoded;
    ASSERT_FALSE(bad_sibling.leaves.back().proof.siblings.empty());
    bad_sibling.leaves.back().proof.siblings[0][7] ^= 0x01;
    EXPECT_FALSE(auditor.validate(bad_sibling)) << to_string(kind);
  }
}

TEST_F(AuditorTest, EvidenceToStringNamesParties) {
  const Evidence evidence =
      evidence_for({.suppress_export = true}, ViolationKind::kSuppressedOutput);
  const std::string text = evidence.to_string();
  EXPECT_NE(text.find("AS100"), std::string::npos);
  EXPECT_NE(text.find("suppressed-output"), std::string::npos);
}

}  // namespace
}  // namespace pvr::core
