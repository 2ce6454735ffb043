// Engine throughput: rounds/sec vs. worker count, and the shared-context
// signature verification rate.
//
// Workload: `--rounds=N` precomputed (prover, prefix, epoch) minimum-
// operator rounds (default 10000: 25 prefixes x 400 epochs, 3 providers,
// RSA-512 to keep the single-machine run short). Every 7th round injects a
// Byzantine prover so the Evidence stream is non-trivial; the drained
// evidence must be byte-identical across worker counts (the engine's
// determinism contract).
//
// Two measurements:
//   1. worker sweep  — full round verification through the engine at
//      1/2/4/8 workers, rounds spread over 25 prefixes (cross-round
//      parallelism; thread-level speedup tracks physical cores);
//   2. verify rate   — one shared cache-off core::VerifyContext over the
//      rounds' signed window roots, the path engine workers and nodes run.
//
// Exits nonzero when the evidence diverges across worker counts.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pvr_speaker.h"
#include "crypto/sha256.h"
#include "engine/verification_engine.h"

namespace pvr::bench {
namespace {

constexpr std::size_t kPrefixes = 25;
constexpr std::size_t kDefaultRounds = 10'000;
constexpr std::size_t kProviders = 3;
constexpr std::size_t kKeyBits = 512;
constexpr std::uint32_t kMaxLen = 16;

struct Round {
  core::ProtocolId id;
  core::SignedWindow window;  // the round sealed alone under one signed root
  std::map<bgp::AsNumber, core::InputAnnouncement> announcements;
};

struct Workload {
  core::AsKeyPairs keys;
  std::vector<bgp::AsNumber> providers;
  bgp::AsNumber prover = 1;
  bgp::AsNumber recipient = 2;
  std::vector<Round> rounds;
};

[[nodiscard]] Workload build_workload(std::size_t round_count,
                                      std::uint64_t seed) {
  Workload w;
  std::vector<bgp::AsNumber> all = {w.prover, w.recipient};
  for (std::size_t i = 0; i < kProviders; ++i) {
    w.providers.push_back(1001 + static_cast<bgp::AsNumber>(i));
    all.push_back(w.providers.back());
  }
  crypto::Drbg key_rng(97 + seed, "engine-bench-keys");
  w.keys = core::generate_keys(all, key_rng, kKeyBits);

  crypto::Drbg len_rng(3 + seed, "engine-bench-lengths");
  w.rounds.reserve(round_count);
  for (std::size_t r = 0; r < round_count; ++r) {
    Round round;
    round.id = core::ProtocolId{
        .prover = w.prover,
        .prefix = bgp::Ipv4Prefix(
            0xCB007100u + (static_cast<std::uint32_t>(r % kPrefixes) << 8), 24),
        .epoch = 1 + r / kPrefixes};

    std::map<bgp::AsNumber, std::optional<core::SignedMessage>> inputs;
    for (const bgp::AsNumber provider : w.providers) {
      const std::size_t length = 1 + len_rng.uniform(kMaxLen);
      const core::InputAnnouncement announcement{
          .id = round.id,
          .provider = provider,
          .route = route_len(length, provider)};
      round.announcements.emplace(provider, announcement);
      inputs[provider] = core::sign_message(
          provider, w.keys.private_keys.at(provider).priv, announcement.encode());
    }

    // Every 7th round misbehaves (rotating strategy) so verification finds
    // real violations and the determinism check has bytes to compare.
    core::ProverMisbehavior misbehavior;
    if (r % 7 == 6) {
      switch ((r / 7) % 3) {
        case 0: misbehavior.suppress_export = true; break;
        case 1: misbehavior.nonmonotone_bits = true; break;
        default: misbehavior.wrong_opening_for = w.providers[0]; break;
      }
    }
    crypto::Drbg round_rng(1000 + r, "engine-bench-round");
    round.window = seal_round(
        core::run_prover(round.id, core::OperatorKind::kMinimum, inputs,
                         kMaxLen, round_rng, misbehavior),
        w.keys.private_keys.at(w.prover).priv, round_rng);
    w.rounds.push_back(std::move(round));
  }
  return w;
}

// Full verification of one round: all providers + the recipient.
[[nodiscard]] core::RoundFindings check_round(const Workload& w,
                                              const core::VerifyContext& ctx,
                                              const Round& round) {
  return verify_neighborhood(ctx, round.window, round.announcements,
                             {w.recipient});
}

[[nodiscard]] std::string evidence_digest(
    const std::vector<engine::RoundOutcome>& outcomes) {
  crypto::Sha256 hasher;
  for (const engine::RoundOutcome& outcome : outcomes) {
    for (const core::Evidence& item : outcome.findings.evidence) {
      hasher.update(item.to_string());
      for (const core::SignedMessage& message : item.messages) {
        const std::vector<std::uint8_t> encoded = message.encode();
        hasher.update(encoded);
      }
      for (const core::LeafOpening& opening : item.leaves) {
        hasher.update(opening.leaf.encode());
      }
    }
  }
  return crypto::digest_hex(hasher.finalize());
}

[[nodiscard]] double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepResult {
  double rounds_per_sec = 0;
  std::string digest;
};

// Drains every round through one engine.
[[nodiscard]] SweepResult run_sweep(const Workload& w,
                                    const core::VerifyContext& ctx,
                                    std::size_t workers) {
  engine::VerificationEngine engine(workers);
  const double t0 = now_seconds();
  for (const Round& round : w.rounds) {
    engine.submit(round.id,
                  [&w, &ctx, &round] { return check_round(w, ctx, round); });
  }
  const engine::EngineReport report = engine.drain();
  const double elapsed = now_seconds() - t0;
  return SweepResult{
      .rounds_per_sec = static_cast<double>(report.rounds) / elapsed,
      .digest = evidence_digest(report.outcomes)};
}

}  // namespace
}  // namespace pvr::bench

int main(int argc, char** argv) {
  using namespace pvr;
  using namespace pvr::bench;

  // parse_bench_args dies on malformed --rounds/--seed values: a typo
  // silently shrinking the sweep would feed garbage rounds/sec into the
  // regression gate's baseline comparison. Unknown flags (e.g. the
  // runner's --benchmark_min_time) are ignored.
  const BenchArgs args = parse_bench_args(&argc, argv);
  const std::size_t rounds =
      std::max<std::size_t>(kPrefixes, args.rounds.value_or(kDefaultRounds));
  std::printf("engine throughput: %zu rounds (%zu prefixes x %zu epochs), "
              "%zu providers, RSA-%zu, seed %llu\n\n",
              rounds, kPrefixes, rounds / kPrefixes, kProviders, kKeyBits,
              static_cast<unsigned long long>(args.seed));
  const double t_build = now_seconds();
  const Workload w = build_workload(rounds, args.seed);
  std::printf("workload built in %.1f s (prover CPU, untimed below)\n\n",
              now_seconds() - t_build);
  // One cache-off context shared by both measurements (per-key precompute
  // built once), as every node and engine worker of a world shares one.
  const core::VerifyContext ctx(&w.keys.directory);

  // --- 1. Worker sweep over full round verification (cross-round) -----------
  std::printf("%-8s %-10s %-12s %-9s  evidence_digest\n", "workers",
              "rounds", "rounds/sec", "speedup");
  std::string digest_at_1;
  double rps_at_1 = 0;
  double rps_at_8 = 0;
  bool deterministic = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const SweepResult result = run_sweep(w, ctx, workers);
    if (workers == 1) {
      digest_at_1 = result.digest;
      rps_at_1 = result.rounds_per_sec;
    }
    if (workers == 8) rps_at_8 = result.rounds_per_sec;
    if (result.digest != digest_at_1) deterministic = false;
    std::printf("%-8zu %-10zu %-12.1f %-9.2f  %.16s\n", workers, rounds,
                result.rounds_per_sec, result.rounds_per_sec / rps_at_1,
                result.digest.c_str());
    // One JSON row per sweep cell, each carrying hw_threads so a reader
    // can tell a genuine scaling loss from a host that never had the cores
    // to scale on.
    std::printf("{\"bench\":\"engine_sweep\",\"seed\":%llu,\"workers\":%zu,"
                "\"rounds\":%zu,\"rounds_per_sec\":%.1f,\"speedup\":%.2f,"
                "\"hw_threads\":%u}\n",
                static_cast<unsigned long long>(args.seed), workers, rounds,
                result.rounds_per_sec, result.rounds_per_sec / rps_at_1,
                std::thread::hardware_concurrency());
  }
  std::printf("(thread-level speedup is bounded by physical cores: this host "
              "has %u)\n\n",
              std::thread::hardware_concurrency());

  // --- 2. Shared-context verification rate ---------------------------------
  // The shared cache-off VerifyContext (per-key precompute built once):
  // what engine workers and nodes actually pay, and the verifies_per_sec
  // the regression gate tracks.
  std::vector<core::SignedMessage> roots;
  for (const Round& round : w.rounds) roots.push_back(round.window.signed_root);
  // Repeat the loop until the sample is large enough for a stable rate,
  // and take the best of several passes: on a shared host one unlucky
  // scheduling quantum otherwise dominates a single pass.
  const std::size_t reps =
      roots.empty() ? 0 : (2000 + roots.size() - 1) / roots.size();
  constexpr std::size_t kPasses = 3;

  double shared_vps = 0;
  std::size_t valid = 0;
  const double per_pass = static_cast<double>(roots.size()) * reps;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    const double t_single = now_seconds();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (const core::SignedMessage& message : roots) {
        if (ctx.verify(message)) valid += 1;
      }
    }
    shared_vps = std::max(shared_vps, per_pass / (now_seconds() - t_single));
  }
  std::printf("verify: %zu roots x%zu x%zu passes  shared-ctx %.0f/s  "
              "(%zu valid)\n\n",
              roots.size(), reps, kPasses, shared_vps, valid);

  // Crypto profile row (ROADMAP item 3: profile before accelerating).
  // verifies_per_sec is wall-clock measured over the shared-context loop
  // so it stays meaningful under -DPVR_OBS=OFF; the quantiles come from the
  // crypto.* wall histograms and read 0 in that flavor.
  const obs::HotMetrics& hot = obs::MetricsRegistry::global().hot;
  std::printf("{\"bench\":\"crypto_profile\",\"seed\":%llu,"
              "\"verifies_per_sec\":%.1f,"
              "\"rsa_verify_p50_us\":%llu,\"rsa_verify_p99_us\":%llu,"
              "\"mulmod_p99_us\":%llu,\"hw_threads\":%u}\n",
              static_cast<unsigned long long>(args.seed), shared_vps,
              static_cast<unsigned long long>(
                  hot.crypto_rsa_verify_us.quantile(0.5)),
              static_cast<unsigned long long>(
                  hot.crypto_rsa_verify_us.quantile(0.99)),
              static_cast<unsigned long long>(
                  hot.crypto_mulmod_us.quantile(0.99)),
              std::thread::hardware_concurrency());

  std::printf("{\"bench\":\"engine_throughput\",\"seed\":%llu,\"rounds\":%zu,"
              "\"rounds_per_sec_1w\":%.1f,\"rounds_per_sec_8w\":%.1f,"
              "\"speedup_8v1\":%.2f,"
              "\"deterministic\":%s,\"hw_threads\":%u}\n",
              static_cast<unsigned long long>(args.seed), rounds, rps_at_1,
              rps_at_8, rps_at_8 / rps_at_1, deterministic ? "true" : "false",
              std::thread::hardware_concurrency());
  pvr::bench::emit_obs_snapshot("engine_throughput");
  return deterministic ? 0 : 1;
}
