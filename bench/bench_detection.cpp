// Experiment E7 (paper §2.3): the Detection and Accuracy properties,
// measured over randomized rounds.
//
//   Detection — every misbehavior class is caught in 100% of rounds by at
//               least one correct neighbor;
//   Evidence  — for the safety classes, the evidence convinces the auditor
//               in 100% of detected rounds;
//   Accuracy  — honest rounds produce zero violations (0% false positives).
#include <cstdio>

#include "bench_common.h"
#include "core/evidence.h"

namespace pvr::bench {
namespace {

constexpr std::uint32_t kMaxLen = 12;
constexpr int kRounds = 150;
constexpr std::size_t kProviders = 4;

struct Scenario {
  const char* name;
  core::ProverMisbehavior misbehavior;
  bool expect_detection;
  bool expect_provable;
};

struct Tally {
  int rounds = 0;
  int detected = 0;
  int provable = 0;
  int false_positive = 0;  // honest rounds flagged
};

[[nodiscard]] Tally run_scenario(const Scenario& scenario,
                                 const core::AsKeyPairs& keys,
                                 const std::vector<bgp::AsNumber>& providers,
                                 crypto::Drbg& rng) {
  Tally tally;
  const core::VerifyContext ctx(&keys.directory);
  const core::Auditor auditor(&ctx);

  for (int round = 0; round < kRounds; ++round) {
    tally.rounds += 1;
    const core::ProtocolId id{
        .prover = 1,
        .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
        .epoch = static_cast<std::uint64_t>(round + 1)};

    // Randomized inputs: each provider supplies a route with probability
    // 0.8, with a random length in [1, kMaxLen]. At least two providers
    // (with two *distinct* lengths) are forced, so every misbehavior class
    // produces a genuine violation rather than a vacuous lie — a prover
    // that "exports the longest route" when all routes are equally long has
    // not actually broken the promise, and the Detection property only
    // covers incorrect results.
    std::map<bgp::AsNumber, std::optional<core::SignedMessage>> inputs;
    std::map<bgp::AsNumber, core::InputAnnouncement> announcements;
    std::size_t provided = 0;
    std::size_t first_length = 0;
    for (const bgp::AsNumber provider : providers) {
      const bool provides = provided < 2 || rng.coin(0.8);
      if (!provides) {
        inputs[provider] = std::nullopt;
        continue;
      }
      provided += 1;
      std::size_t length = 1 + rng.uniform(kMaxLen);
      if (provided == 1) {
        first_length = length;
      } else if (provided == 2 && length == first_length) {
        length = first_length == kMaxLen ? first_length - 1 : first_length + 1;
      }
      const core::InputAnnouncement announcement{
          .id = id, .provider = provider, .route = route_len(length, provider)};
      announcements.emplace(provider, announcement);
      inputs[provider] = core::sign_message(
          provider, keys.private_keys.at(provider).priv, announcement.encode());
    }

    // Randomize per-round misbehavior targets where applicable.
    core::ProverMisbehavior misbehavior = scenario.misbehavior;
    if (misbehavior.wrong_opening_for.has_value() && !announcements.empty()) {
      misbehavior.wrong_opening_for = announcements.begin()->first;
    }
    if (misbehavior.skip_reveal_for.has_value() && !announcements.empty()) {
      misbehavior.skip_reveal_for = announcements.begin()->first;
    }

    const core::ProverResult result = core::run_prover(
        id, core::OperatorKind::kMinimum, inputs, kMaxLen, rng, misbehavior);
    const core::SealedWindow sealed = core::seal_window(
        id.prover, id.epoch, 0, 0, std::span(&result, 1),
        keys.private_keys.at(1).priv, rng);

    core::RoundFindings findings = verify_neighborhood(
        ctx, sealed.honest, announcements, {2});
    std::vector<core::Evidence>& evidence = findings.evidence;
    if (sealed.variant.has_value()) {
      if (auto conflict = core::check_root_equivocation(
              providers.front(), open_sealed(ctx, sealed.honest),
              open_sealed(ctx, *sealed.variant))) {
        evidence.push_back(std::move(*conflict));
      }
    }

    if (!evidence.empty()) {
      if (scenario.expect_detection) {
        tally.detected += 1;
      } else {
        tally.false_positive += 1;
      }
      for (const core::Evidence& item : evidence) {
        if (auditor.validate(item)) {
          tally.provable += 1;
          break;
        }
      }
    }
  }
  return tally;
}

}  // namespace
}  // namespace pvr::bench

int main(int argc, char** argv) {
  using namespace pvr;
  using namespace pvr::bench;

  const BenchArgs args = parse_bench_args(&argc, argv);
  std::vector<bgp::AsNumber> all = {1, 2};
  std::vector<bgp::AsNumber> providers;
  for (std::size_t i = 0; i < kProviders; ++i) {
    providers.push_back(1001 + static_cast<bgp::AsNumber>(i));
    all.push_back(providers.back());
  }
  crypto::Drbg key_rng(99 + args.seed, "detection-keys");
  const core::AsKeyPairs keys = core::generate_keys(all, key_rng, 512);

  const Scenario scenarios[] = {
      {"honest", {}, false, false},
      {"export_nonminimal", {.export_nonminimal = true}, true, true},
      {"nonminimal_forged_bits",
       {.export_nonminimal = true, .bits_match_lie = true}, true, true},
      {"suppress_export", {.suppress_export = true}, true, true},
      {"fabricate_route", {.fabricate_route = true}, true, true},
      {"nonmonotone_bits", {.nonmonotone_bits = true}, true, true},
      {"wrong_opening", {.wrong_opening_for = 1001}, true, true},
      {"skip_reveal", {.skip_reveal_for = 1001}, true, false},
      {"equivocate", {.equivocate = true}, true, true},
  };

  std::printf("E7: detection over %d randomized rounds per class "
              "(%zu providers, L=%u)\n\n",
              kRounds, kProviders, kMaxLen);
  std::printf("%-24s %-10s %-12s %-12s %-14s\n", "misbehavior", "rounds",
              "detected", "provable", "false_pos");

  bool all_ok = true;
  crypto::Drbg rng(7 + args.seed, "detection-rounds");
  for (const Scenario& scenario : scenarios) {
    const Tally tally = run_scenario(scenario, keys, providers, rng);
    const double detect_rate =
        100.0 * tally.detected / std::max(tally.rounds, 1);
    const double provable_rate =
        tally.detected == 0 ? 0.0 : 100.0 * tally.provable / tally.detected;
    std::printf("%-24s %-10d %-11.1f%% %-11.1f%% %-14d\n", scenario.name,
                tally.rounds, detect_rate, provable_rate, tally.false_positive);

    if (scenario.expect_detection && tally.detected != tally.rounds) all_ok = false;
    if (!scenario.expect_detection && tally.false_positive != 0) all_ok = false;
    if (scenario.expect_provable && tally.provable != tally.detected) all_ok = false;
  }

  std::printf("\nexpected shape: 100%% detection for every misbehavior class, "
              "0 false positives,\nauditor-provable for all safety classes "
              "(skip_reveal is a liveness fault).\n");
  std::printf("result: %s\n", all_ok ? "PASS" : "FAIL");
  std::printf("{\"bench\":\"detection\",\"seed\":%llu,\"rounds_per_class\":%d,"
              "\"all_ok\":%s}\n",
              static_cast<unsigned long long>(args.seed), kRounds,
              all_ok ? "true" : "false");
  pvr::bench::emit_obs_snapshot("detection");
  return all_ok ? 0 : 1;
}
