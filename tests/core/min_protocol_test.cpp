#include "core/min_protocol.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/bundle_aggregation.h"
#include "core/verify_context.h"

namespace pvr::core {
namespace {

constexpr bgp::AsNumber kProver = 100;
constexpr bgp::AsNumber kRecipient = 200;
constexpr bgp::AsNumber kN1 = 301;
constexpr bgp::AsNumber kN2 = 302;
constexpr bgp::AsNumber kN3 = 303;
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

// Shared fixture: keys for the five participants plus canonical inputs
// (N1: length 3, N2: length 2, N3: nothing).
class MinProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::Drbg rng(7, "min-protocol-keys");
    keys_ = new AsKeyPairs(
        generate_keys({kProver, kRecipient, kN1, kN2, kN3}, rng, 512));
    ctx_ = new VerifyContext(&keys_->directory);
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
    delete keys_;
    keys_ = nullptr;
  }

  static const AsKeyPairs& keys() { return *keys_; }
  static const VerifyContext& ctx() { return *ctx_; }
  // The window root as a verifier accepts it (throws if it does not open).
  [[nodiscard]] static VerifiedWindow opened(const SignedWindow& window) {
    return open_window(ctx(), window.signed_root).value();
  }
  static const crypto::RsaPrivateKey& key_of(bgp::AsNumber asn) {
    return keys_->private_keys.at(asn).priv;
  }

  [[nodiscard]] static ProtocolId round_id(std::uint64_t epoch = 1) {
    return {.prover = kProver,
            .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
            .epoch = epoch};
  }

  [[nodiscard]] static SignedMessage signed_input(bgp::AsNumber provider,
                                                  std::size_t length,
                                                  std::uint64_t epoch = 1) {
    const InputAnnouncement announcement{
        .id = round_id(epoch),
        .provider = provider,
        .route = route_len(length, provider),
    };
    return sign_message(provider, key_of(provider), announcement.encode());
  }

  // Canonical input set: N1 len 3, N2 len 2 (the minimum), N3 silent.
  [[nodiscard]] static std::map<bgp::AsNumber, std::optional<SignedMessage>>
  canonical_inputs() {
    return {{kN1, signed_input(kN1, 3)},
            {kN2, signed_input(kN2, 2)},
            {kN3, std::nullopt}};
  }

  [[nodiscard]] static ProverResult run(const ProverMisbehavior& misbehavior = {},
                                        OperatorKind op = OperatorKind::kMinimum) {
    crypto::Drbg rng(99, "min-protocol-prover");
    return run_prover(round_id(), op, canonical_inputs(), kMaxLen, rng,
                      misbehavior);
  }

  // The round as the prover ships it: its statements as leaves of a
  // one-prefix window under one signed root.
  [[nodiscard]] static SealedWindow seal(const ProverResult& result) {
    crypto::Drbg rng(98, "min-protocol-salts");
    return seal_window(kProver, 1, 0, 0, std::span(&result, 1), key_of(kProver),
                       rng);
  }

  [[nodiscard]] static InputAnnouncement own_input_of(bgp::AsNumber provider,
                                                      std::size_t length) {
    return {.id = round_id(), .provider = provider,
            .route = route_len(length, provider)};
  }

  // Seals a prover result and runs both verifier roles over it; returns
  // all evidence.
  [[nodiscard]] static std::vector<Evidence> verify_everything(
      const ProverResult& result) {
    const SignedWindow window = seal(result).honest;
    const VerifiedWindow verified = opened(window);
    const SignedWindow::Round& round = window.rounds.front();
    std::vector<Evidence> all;
    for (const auto& [provider, length] :
         std::vector<std::pair<bgp::AsNumber, std::size_t>>{{kN1, 3}, {kN2, 2}}) {
      const auto it = round.provider_reveals.find(provider);
      auto found = verify_as_provider(
          provider, own_input_of(provider, length), verified, round.bundle,
          it == round.provider_reveals.end() ? nullptr : &it->second);
      all.insert(all.end(), found.begin(), found.end());
    }
    auto found = verify_as_recipient(ctx(), kRecipient, verified, round.bundle,
                                     &round.recipient_reveal,
                                     &round.export_statement);
    all.insert(all.end(), found.begin(), found.end());
    return all;
  }

  [[nodiscard]] static bool detected(const std::vector<Evidence>& evidence,
                                     ViolationKind kind) {
    return std::any_of(evidence.begin(), evidence.end(),
                       [&](const Evidence& e) { return e.kind == kind; });
  }

 private:
  static AsKeyPairs* keys_;
  static VerifyContext* ctx_;
};

AsKeyPairs* MinProtocolTest::keys_ = nullptr;
VerifyContext* MinProtocolTest::ctx_ = nullptr;

// ---- compute_bits ----

TEST(ComputeBitsTest, MinimumBitsAreCumulative) {
  const std::vector<bgp::Route> inputs = {route_len(3, 1), route_len(5, 2)};
  const std::vector<bool> bits =
      compute_bits(OperatorKind::kMinimum, inputs, 8);
  const std::vector<bool> expected = {false, false, true, true,
                                      true,  true,  true, true};
  EXPECT_EQ(bits, expected);
}

TEST(ComputeBitsTest, EmptyInputsAllZero) {
  const std::vector<bool> bits = compute_bits(OperatorKind::kMinimum, {}, 4);
  EXPECT_EQ(bits, std::vector<bool>(4, false));
}

TEST(ComputeBitsTest, OverlongInputIgnored) {
  const std::vector<bool> bits =
      compute_bits(OperatorKind::kMinimum, {route_len(9, 1)}, 4);
  EXPECT_EQ(bits, std::vector<bool>(4, false));
}

TEST(ComputeBitsTest, ExistentialSingleBit) {
  EXPECT_EQ(compute_bits(OperatorKind::kExistential, {route_len(3, 1)}, 8),
            std::vector<bool>{true});
  EXPECT_EQ(compute_bits(OperatorKind::kExistential, {}, 8),
            std::vector<bool>{false});
}

// ---- Wire round trips ----

TEST_F(MinProtocolTest, WirePayloadsRoundTrip) {
  const ProverResult result = run();
  const CommitmentBundle& bundle = result.bundle;
  EXPECT_EQ(bundle.id, round_id());
  EXPECT_EQ(bundle.max_len, kMaxLen);
  EXPECT_EQ(bundle.bits.size(), kMaxLen);
  EXPECT_EQ(CommitmentBundle::decode(bundle.encode()).bits, bundle.bits);

  const RevealToProvider& reveal = result.provider_reveals.at(kN1);
  EXPECT_EQ(reveal.provider, kN1);
  EXPECT_EQ(reveal.bit_index, 3u);
  EXPECT_EQ(RevealToProvider::decode(reveal.encode()).bit_index, 3u);

  const RevealToRecipient recipient =
      RevealToRecipient::decode(result.recipient_reveal.encode());
  EXPECT_EQ(recipient.openings.size(), kMaxLen);

  const ExportStatement& statement = result.export_statement;
  EXPECT_TRUE(statement.has_route);
  const ExportStatement redecoded = ExportStatement::decode(statement.encode());
  EXPECT_EQ(redecoded.route, statement.route);
  ASSERT_TRUE(redecoded.provenance.has_value());
}

// ---- Honest prover: Accuracy ----

TEST_F(MinProtocolTest, HonestProverPassesAllChecks) {
  const ProverResult result = run();
  EXPECT_TRUE(verify_everything(result).empty());
  // Honest output is N2's length-2 route.
  ASSERT_TRUE(result.honest_output.has_value());
  EXPECT_EQ(result.honest_output->path.length(), 2u);
  // The exported route is that route with the prover prepended.
  const ExportStatement& statement = result.export_statement;
  EXPECT_EQ(statement.route.path.length(), 3u);
  EXPECT_EQ(statement.route.path.first(), kProver);
}

TEST_F(MinProtocolTest, HonestExistentialPassesAllChecks) {
  const ProverResult result = run({}, OperatorKind::kExistential);
  EXPECT_TRUE(verify_everything(result).empty());
}

TEST_F(MinProtocolTest, HonestEmptyRoundExportsNothing) {
  crypto::Drbg rng(1, "empty-round");
  const ProverResult result =
      run_prover(round_id(), OperatorKind::kMinimum,
                 {{kN1, std::nullopt}, {kN2, std::nullopt}}, kMaxLen, rng, {});
  EXPECT_FALSE(result.export_statement.has_route);
  const SignedWindow window = seal(result).honest;
  const SignedWindow::Round& round = window.rounds.front();
  auto found = verify_as_recipient(ctx(), kRecipient, opened(window),
                                   round.bundle, &round.recipient_reveal,
                                   &round.export_statement);
  EXPECT_TRUE(found.empty());
}

// ---- Detection matrix: every misbehavior class is caught ----

TEST_F(MinProtocolTest, DetectsNonMinimalExport) {
  const ProverResult result = run({.export_nonminimal = true});
  const auto evidence = verify_everything(result);
  EXPECT_TRUE(detected(evidence, ViolationKind::kOutputNotMinimal));
}

TEST_F(MinProtocolTest, DetectsNonMinimalExportWithForgedBits) {
  // Bits forged to match the lie: B's checks pass, but the provider with
  // the shorter route sees its bit opened to 0.
  const ProverResult result =
      run({.export_nonminimal = true, .bits_match_lie = true});
  const auto evidence = verify_everything(result);
  EXPECT_TRUE(detected(evidence, ViolationKind::kBitNotSet));
  // And the detecting neighbor is N2 (the one whose promise was broken).
  const auto it = std::find_if(
      evidence.begin(), evidence.end(),
      [](const Evidence& e) { return e.kind == ViolationKind::kBitNotSet; });
  ASSERT_NE(it, evidence.end());
  EXPECT_EQ(it->reporter, kN2);
  EXPECT_EQ(it->accused, kProver);
}

TEST_F(MinProtocolTest, DetectsSuppressedExport) {
  const ProverResult result = run({.suppress_export = true});
  const auto evidence = verify_everything(result);
  EXPECT_TRUE(detected(evidence, ViolationKind::kSuppressedOutput));
}

TEST_F(MinProtocolTest, DetectsFabricatedRoute) {
  const ProverResult result = run({.fabricate_route = true});
  const auto evidence = verify_everything(result);
  EXPECT_TRUE(detected(evidence, ViolationKind::kOutputWithoutInput));
}

TEST_F(MinProtocolTest, DetectsNonMonotoneBits) {
  const ProverResult result = run({.nonmonotone_bits = true});
  const auto evidence = verify_everything(result);
  EXPECT_TRUE(detected(evidence, ViolationKind::kNonMonotoneBits));
}

TEST_F(MinProtocolTest, DetectsWrongOpening) {
  const ProverResult result = run({.wrong_opening_for = kN1});
  const auto evidence = verify_everything(result);
  EXPECT_TRUE(detected(evidence, ViolationKind::kBadOpening));
}

TEST_F(MinProtocolTest, DetectsSkippedReveal) {
  const ProverResult result = run({.skip_reveal_for = kN2});
  const auto evidence = verify_everything(result);
  EXPECT_TRUE(detected(evidence, ViolationKind::kMissingReveal));
}

// Equivocation: the variant bundles go under a second signed root, and the
// two roots are the proof.
TEST_F(MinProtocolTest, DetectsEquivocation) {
  const SealedWindow window = seal(run({.equivocate = true}));
  ASSERT_TRUE(window.variant.has_value());
  const auto conflict = check_root_equivocation(kN1, opened(window.honest),
                                                opened(*window.variant));
  ASSERT_TRUE(conflict.has_value());
  EXPECT_EQ(conflict->kind, ViolationKind::kEquivocation);
  EXPECT_EQ(conflict->accused, kProver);
}

TEST_F(MinProtocolTest, NoFalseEquivocationOnIdenticalBundles) {
  const SealedWindow window = seal(run());
  EXPECT_FALSE(window.variant.has_value());
  EXPECT_FALSE(check_root_equivocation(kN1, opened(window.honest),
                                       opened(window.honest))
                   .has_value());
}

// A root whose signature fails never becomes a window, so it can never be
// half of an equivocation proof. The genuine variant root is the control.
TEST_F(MinProtocolTest, EquivocationRequiresValidSignatures) {
  const SealedWindow window = seal(run({.equivocate = true}));
  SignedMessage forged = window.variant->signed_root;
  forged.signature[0] ^= 1;
  EXPECT_FALSE(open_window(ctx(), forged).has_value());
  EXPECT_TRUE(open_window(ctx(), window.variant->signed_root).has_value());
}

// ---- Tampered-message handling ----

TEST_F(MinProtocolTest, TamperedBundleFlaggedAsBadSignature) {
  const SignedWindow window = seal(run()).honest;
  LeafOpening bundle = window.rounds.front().bundle;
  bundle.leaf.payload[20] ^= 1;
  const auto evidence = verify_as_provider(kN1, own_input_of(kN1, 3),
                                           opened(window), bundle, nullptr);
  ASSERT_FALSE(evidence.empty());
  EXPECT_EQ(evidence.front().kind, ViolationKind::kBadSignature);
}

TEST_F(MinProtocolTest, ProviderOutsideDomainChecksNothing) {
  // A provider whose route is longer than max_len is outside the promise.
  const SignedWindow window = seal(run()).honest;
  const auto evidence = verify_as_provider(
      kN3, own_input_of(kN3, kMaxLen + 5), opened(window),
      window.rounds.front().bundle, nullptr);
  EXPECT_TRUE(evidence.empty());
}

TEST_F(MinProtocolTest, SilentProviderChecksNothing) {
  const SignedWindow window = seal(run()).honest;
  const auto evidence = verify_as_provider(kN3, std::nullopt, opened(window),
                                           window.rounds.front().bundle, nullptr);
  EXPECT_TRUE(evidence.empty());
}

// ---- Confidentiality (what flows to whom) ----

TEST_F(MinProtocolTest, ProviderRevealLeaksOnlyOneBit) {
  // The reveal to Ni contains exactly the opening of b_{|r_i|} — one bit —
  // and nothing derived from other providers' routes.
  const ProverResult result = run();
  const RevealToProvider& reveal = result.provider_reveals.at(kN1);
  EXPECT_EQ(reveal.opening.value.size(), 1u);
  EXPECT_EQ(reveal.bit_index, 3u);  // N1's own route length, nothing else
  // No reveal at all goes to the silent provider.
  EXPECT_FALSE(result.provider_reveals.contains(kN3));
}

TEST_F(MinProtocolTest, RecipientLearnsOnlyBitsAndChosenRoute) {
  const ProverResult result = run();
  const RevealToRecipient& reveal = result.recipient_reveal;
  // L single-bit openings; the recipient cannot reconstruct which neighbor
  // provided what, only the length profile the promise already implies.
  for (const auto& opening : reveal.openings) {
    EXPECT_EQ(opening.value.size(), 1u);
  }
  const ExportStatement& statement = result.export_statement;
  // Provenance names the winning provider — exactly what the BGP AS path
  // already reveals (the paper's confidentiality baseline).
  ASSERT_TRUE(statement.provenance.has_value());
  EXPECT_EQ(statement.provenance->signer, kN2);
}

}  // namespace
}  // namespace pvr::core
