// Property suite tying the PVR protocol to the promise semantics of §2:
//
//   For randomized inputs and an honest prover, the exported route always
//   satisfies Promise::holds (soundness of the honest prover), and no
//   verifier finds anything (Accuracy).
//
//   For randomized inputs and a prover that semantically violates the
//   promise, at least one verifier detects (Detection) — the protocol's
//   checks are complete with respect to the promise, not just against the
//   specific misbehavior strategies hard-coded in run_prover.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/bundle_aggregation.h"
#include "core/evidence.h"
#include "core/min_protocol.h"
#include "core/promise.h"
#include "core/verify_context.h"

namespace pvr::core {
namespace {

constexpr bgp::AsNumber kProver = 1;
constexpr bgp::AsNumber kRecipient = 2;
constexpr std::uint32_t kMaxLen = 10;

[[nodiscard]] bgp::Route route_len(std::size_t length, bgp::AsNumber origin_as) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(origin_as);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(9000 + i));
  }
  return bgp::Route{.prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
                    .path = bgp::AsPath(std::move(hops)),
                    .next_hop = origin_as,
                    .local_pref = 100,
                    .med = 0,
                    .origin = bgp::Origin::kIgp,
                    .communities = {}};
}

class ProtocolPromiseProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static void SetUpTestSuite() {
    crypto::Drbg rng(4242, "protocol-promise-keys");
    keys_ = new AsKeyPairs(
        generate_keys({kProver, kRecipient, 101, 102, 103, 104}, rng, 512));
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }
  static const AsKeyPairs& keys() { return *keys_; }

 private:
  static AsKeyPairs* keys_;
};

AsKeyPairs* ProtocolPromiseProperty::keys_ = nullptr;

struct RandomRound {
  ProtocolId id;
  std::map<bgp::AsNumber, std::optional<SignedMessage>> inputs;
  std::map<bgp::AsNumber, InputAnnouncement> announcements;
  Promise::Inputs semantic_inputs;
  std::set<bgp::AsNumber> providers;
};

[[nodiscard]] RandomRound make_round(const AsKeyPairs& keys, crypto::Drbg& rng,
                                     std::uint64_t epoch) {
  RandomRound round;
  round.id = {.prover = kProver,
              .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
              .epoch = epoch};
  for (const bgp::AsNumber provider : {101u, 102u, 103u, 104u}) {
    round.providers.insert(provider);
    if (!rng.coin(0.75)) {
      round.inputs[provider] = std::nullopt;
      round.semantic_inputs[provider] = std::nullopt;
      continue;
    }
    const std::size_t length = 1 + rng.uniform(kMaxLen);
    const InputAnnouncement announcement{
        .id = round.id, .provider = provider, .route = route_len(length, provider)};
    round.announcements.emplace(provider, announcement);
    round.semantic_inputs[provider] = announcement.route;
    round.inputs[provider] = sign_message(
        provider, keys.private_keys.at(provider).priv, announcement.encode());
  }
  return round;
}

// Seals the round as a one-prefix window and runs every verifier over it.
[[nodiscard]] std::vector<Evidence> verify_all(const AsKeyPairs& keys,
                                               const RandomRound& round,
                                               const ProverResult& result) {
  crypto::Drbg salt_rng(round.id.epoch, "protocol-promise-salts");
  const SignedWindow window =
      seal_window(kProver, round.id.epoch, 0, 0, std::span(&result, 1),
                  keys.private_keys.at(kProver).priv, salt_rng)
          .honest;
  const SignedWindow::Round& sealed = window.rounds.front();
  const VerifyContext ctx(&keys.directory);
  const VerifiedWindow verified = open_window(ctx, window.signed_root).value();
  std::vector<Evidence> all;
  for (const bgp::AsNumber provider : round.providers) {
    const auto announcement = round.announcements.find(provider);
    const auto reveal = sealed.provider_reveals.find(provider);
    auto found = verify_as_provider(
        provider,
        announcement == round.announcements.end()
            ? std::nullopt
            : std::optional(announcement->second),
        verified, sealed.bundle,
        reveal == sealed.provider_reveals.end() ? nullptr : &reveal->second);
    all.insert(all.end(), found.begin(), found.end());
  }
  auto found = verify_as_recipient(ctx, kRecipient, verified, sealed.bundle,
                                   &sealed.recipient_reveal,
                                   &sealed.export_statement);
  all.insert(all.end(), found.begin(), found.end());
  return all;
}

// Extracts the semantic output (the input route that was exported, i.e. the
// exported route with the prover's prepended hop removed).
[[nodiscard]] std::optional<bgp::Route> semantic_output(
    const ProverResult& result) {
  const ExportStatement& statement = result.export_statement;
  if (!statement.has_route || !statement.provenance.has_value()) {
    return std::nullopt;
  }
  return InputAnnouncement::decode(statement.provenance->payload).route;
}

TEST_P(ProtocolPromiseProperty, HonestProverSatisfiesPromiseAndPassesChecks) {
  crypto::Drbg rng(GetParam(), "honest-rounds");
  const Promise promise{.type = PromiseType::kShortestOfSubset,
                        .subset = {101, 102, 103, 104}};
  for (std::uint64_t epoch = 1; epoch <= 20; ++epoch) {
    const RandomRound round = make_round(keys(), rng, epoch);
    const ProverResult result =
        run_prover(round.id, OperatorKind::kMinimum, round.inputs, kMaxLen,
                   rng, {});
    // Soundness: the honest export satisfies the §2 promise semantics.
    EXPECT_TRUE(promise.holds(round.semantic_inputs, semantic_output(result)))
        << "epoch " << epoch;
    // Accuracy: nobody detects anything.
    const auto evidence = verify_all(keys(), round, result);
    EXPECT_TRUE(evidence.empty())
        << "epoch " << epoch << ": " << evidence.front().to_string();
  }
}

TEST_P(ProtocolPromiseProperty, SemanticViolationsAreAlwaysDetected) {
  crypto::Drbg rng(GetParam() + 1000, "byzantine-rounds");
  const Promise promise{.type = PromiseType::kShortestOfSubset,
                        .subset = {101, 102, 103, 104}};
  const ProverMisbehavior strategies[] = {
      {.export_nonminimal = true},
      {.export_nonminimal = true, .bits_match_lie = true},
      {.suppress_export = true},
      {.fabricate_route = true},
  };
  int violating_rounds = 0;
  for (std::uint64_t epoch = 1; epoch <= 40; ++epoch) {
    const RandomRound round = make_round(keys(), rng, epoch);
    const ProverMisbehavior& strategy =
        strategies[rng.uniform(std::size(strategies))];
    const ProverResult result =
        run_prover(round.id, OperatorKind::kMinimum, round.inputs, kMaxLen,
                   rng, strategy);

    // Ground truth: did the prover actually violate the promise this round?
    // (A "lie" that coincides with the honest answer is not a violation.)
    const bool violated =
        !promise.holds(round.semantic_inputs, semantic_output(result));
    if (!violated) continue;
    violating_rounds += 1;
    const auto evidence = verify_all(keys(), round, result);
    EXPECT_FALSE(evidence.empty())
        << "epoch " << epoch << ": semantic violation went undetected";
  }
  // The strategies and 75%-provide probability make real violations common.
  EXPECT_GT(violating_rounds, 10);
}

// Detection is complete even against a "smart" adversary that bypasses
// run_prover's canned strategies: here the prover hand-crafts a consistent
// transcript around an arbitrary chosen output. If the output is not the
// minimum, some check must fire regardless of how the bits were chosen.
TEST_P(ProtocolPromiseProperty, HandCraftedTranscriptsCannotCheatTheMinimum) {
  crypto::Drbg rng(GetParam() + 2000, "handcrafted");
  for (int trial = 0; trial < 10; ++trial) {
    const RandomRound round = make_round(keys(), rng, 500 + trial);
    if (round.announcements.size() < 2) continue;

    // Adversary picks a NON-minimal provider to export, then builds bits
    // that are any monotone vector of its choice.
    const auto minimum = std::min_element(
        round.announcements.begin(), round.announcements.end(),
        [](const auto& a, const auto& b) {
          return a.second.route.path.length() < b.second.route.path.length();
        });
    const auto victim = std::max_element(
        round.announcements.begin(), round.announcements.end(),
        [](const auto& a, const auto& b) {
          return a.second.route.path.length() < b.second.route.path.length();
        });
    if (minimum->second.route.path.length() ==
        victim->second.route.path.length()) {
      continue;  // vacuous round
    }

    // Try both bit strategies: honest bits, and bits matching the lie.
    for (const bool forge_bits : {false, true}) {
      const ProverMisbehavior strategy{
          .export_nonminimal = true, .bits_match_lie = forge_bits};
      const ProverResult result =
          run_prover(round.id, OperatorKind::kMinimum, round.inputs, kMaxLen,
                     rng, strategy);
      const auto evidence = verify_all(keys(), round, result);
      ASSERT_FALSE(evidence.empty()) << "forge_bits=" << forge_bits;
      // And the evidence (when of a safety kind) convinces the auditor.
      const VerifyContext ctx(&keys().directory);
      const Auditor auditor(&ctx);
      const bool any_provable = std::any_of(
          evidence.begin(), evidence.end(),
          [&](const Evidence& e) { return auditor.validate(e); });
      EXPECT_TRUE(any_provable) << "forge_bits=" << forge_bits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolPromiseProperty,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace pvr::core
