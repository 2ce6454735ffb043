// Engine throughput: rounds/sec vs. worker count and aggregation batch
// size.
//
// Workload: `--rounds=N` precomputed (prover, prefix, epoch) minimum-
// operator rounds (default 10000: 25 prefixes x 400 epochs, 3 providers,
// RSA-512 to keep the single-machine run short). Every 7th round injects a
// Byzantine prover so the Evidence stream is non-trivial; the drained
// evidence must be byte-identical across worker counts (the engine's
// determinism contract).
//
// Three measurements:
//   1. worker sweep  — full round verification through the engine at
//      1/2/4/8 workers, rounds spread over 25 prefixes (cross-round
//      parallelism; thread-level speedup tracks physical cores);
//   2. aggregation   — bundle authentications/sec when the prover signs one
//      Merkle root per epoch instead of one bundle per prefix (algorithmic
//      speedup, independent of core count);
//   3. batch verify  — BatchVerifier vs. per-message verify_message on
//      same-signer reveal batches.
//
// Exits nonzero when the evidence diverges across worker counts, batched
// verdicts diverge from per-message ones, or batch_speedup < 0.9.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pvr_speaker.h"
#include "crypto/sha256.h"
#include "engine/batch_verifier.h"
#include "engine/verification_engine.h"

namespace pvr::bench {
namespace {

constexpr std::size_t kPrefixes = 25;
constexpr std::size_t kDefaultRounds = 10'000;
constexpr std::size_t kProviders = 3;
constexpr std::size_t kKeyBits = 512;
constexpr std::uint32_t kMaxLen = 16;
// Floor for batched / per-call-rebuild verification throughput.
constexpr double kMinBatchSpeedup = 0.9;

struct Round {
  core::ProtocolId id;
  core::ProverResult result;
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
    round.result = core::run_prover(round.id, core::OperatorKind::kMinimum,
                                    inputs, kMaxLen,
                                    w.keys.private_keys.at(w.prover).priv,
                                    round_rng, misbehavior);
    w.rounds.push_back(std::move(round));
  }
  return w;
}

// Full verification of one round: all providers + the recipient.
[[nodiscard]] core::RoundFindings check_round(const Workload& w,
                                              const Round& round) {
  return verify_neighborhood(w.keys.directory, round.result,
                             round.announcements, {w.recipient});
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
[[nodiscard]] SweepResult run_sweep(const Workload& w, std::size_t workers) {
  engine::VerificationEngine engine(workers);
  const double t0 = now_seconds();
  for (const Round& round : w.rounds) {
    engine.submit(round.id, [&w, &round] { return check_round(w, round); });
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

  // --- 1. Worker sweep over full round verification (cross-round) -----------
  std::printf("%-8s %-10s %-12s %-9s  evidence_digest\n", "workers",
              "rounds", "rounds/sec", "speedup");
  std::string digest_at_1;
  double rps_at_1 = 0;
  double rps_at_8 = 0;
  bool deterministic = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const SweepResult result = run_sweep(w, workers);
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

  // --- 2. Merkle-aggregated bundle mode ------------------------------------
  // Naive (batch=1): one signed bundle per (prefix, epoch) -> one RSA verify
  // per round. Aggregated: within each epoch the prover signs one Merkle
  // root per group of `batch` prefixes and reveals each prefix with a
  // log-size proof -> one RSA verify per group. Groups never span epochs
  // (the (prover, epoch) binding is part of the signed statement).
  std::printf("%-8s %-14s %-12s %-9s\n", "batch", "bundle_auths", "auths/sec",
              "speedup");
  std::vector<core::CommitmentBundle> bundles;
  bundles.reserve(rounds);
  for (const Round& round : w.rounds) {
    bundles.push_back(
        core::CommitmentBundle::decode(round.result.signed_bundle.payload));
  }
  double naive_aps = 0;
  double agg_aps_best = 0;
  for (const std::size_t batch : {1u, 5u, 25u}) {
    std::size_t auths = 0;
    std::size_t failures = 0;
    double elapsed = 0;
    if (batch == 1) {
      const double t0 = now_seconds();
      for (const Round& round : w.rounds) {
        if (!core::verify_message(w.keys.directory, round.result.signed_bundle)) {
          failures += 1;
        }
        auths += 1;
      }
      elapsed = now_seconds() - t0;
    } else {
      // Prover side (untimed): per epoch, aggregate each `batch`-prefix
      // group into one signed Merkle root.
      std::vector<std::pair<core::SignedMessage,
                            std::vector<engine::AggregatedOpening>>>
          groups;
      for (std::size_t epoch_start = 0; epoch_start < bundles.size();
           epoch_start += kPrefixes) {
        const std::uint64_t epoch = 1 + epoch_start / kPrefixes;
        const std::size_t epoch_count =
            std::min(kPrefixes, bundles.size() - epoch_start);
        for (std::size_t offset = 0; offset < epoch_count; offset += batch) {
          const std::size_t count = std::min(batch, epoch_count - offset);
          engine::AggregatedCommitment commitment = engine::aggregate_bundles(
              w.prover, epoch,
              std::span(bundles).subspan(epoch_start + offset, count),
              w.keys.private_keys.at(w.prover).priv);
          groups.emplace_back(std::move(commitment.signed_root),
                              std::move(commitment.openings));
        }
      }
      const double t0 = now_seconds();
      for (const auto& [signed_root, openings] : groups) {
        const std::vector<bool> ok = engine::verify_aggregated_openings(
            w.keys.directory, signed_root, openings);
        for (const bool valid : ok) {
          if (!valid) failures += 1;
          auths += 1;
        }
      }
      elapsed = now_seconds() - t0;
    }
    const double aps = static_cast<double>(auths) / elapsed;
    if (batch == 1) naive_aps = aps;
    agg_aps_best = std::max(agg_aps_best, aps);
    std::printf("%-8zu %-14zu %-12.0f %-9.2f%s\n", batch, auths, aps,
                aps / naive_aps, failures == 0 ? "" : "  FAILURES!");
  }
  std::printf("\n");

  // --- 3. Stateless vs shared-context vs batched verification ---------------
  //
  // Three measurements over the same signed reveals:
  //   stateless — crypto::rsa_verify, which rebuilds the per-key Montgomery
  //               context on EVERY call (the pre-context cost model);
  //   shared    — core::verify_message through the directory's
  //               VerifyContext (per-key precompute built once) — this is
  //               what engine workers and nodes actually pay, and the
  //               verifies_per_sec the regression gate tracks;
  //   batched   — engine::BatchVerifier over the shared context, messages
  //               grouped by signer per drain batch.
  // batch_speedup = batched / stateless: the honest end-to-end win of the
  // amortized path over per-call setup. Before the shared context, the
  // "batched" loop redid the same per-call work and the ratio pinned at
  // ~1.0 — the no-op batching this section now exists to catch.
  std::vector<core::SignedMessage> reveals;
  for (const Round& round : w.rounds) {
    for (const auto& [provider, reveal] : round.result.provider_reveals) {
      reveals.push_back(reveal);
    }
  }
  // Repeat each loop until the sample is large enough for a stable rate,
  // and take the best of several interleaved passes per mode: on a shared
  // host one unlucky scheduling quantum otherwise dominates a single pass
  // and the inter-mode ratio swings by tens of percent run to run.
  const std::size_t reps =
      reveals.empty() ? 0 : (2000 + reveals.size() - 1) / reveals.size();
  constexpr std::size_t kPasses = 3;

  double stateless_vps = 0;
  double shared_vps = 0;
  double batched_vps = 0;
  std::size_t valid_stateless = 0;
  std::size_t valid_single = 0;
  std::size_t valid_batch = 0;
  engine::BatchVerifier batch_verifier(&w.keys.directory);
  const double per_pass = static_cast<double>(reveals.size()) * reps;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    const double t_stateless = now_seconds();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (const core::SignedMessage& message : reveals) {
        const crypto::RsaPublicKey* key = w.keys.directory.find(message.signer);
        if (key != nullptr &&
            crypto::rsa_verify(*key,
                               core::message_signing_input(message.signer,
                                                           message.payload),
                               message.signature)) {
          valid_stateless += 1;
        }
      }
    }
    stateless_vps =
        std::max(stateless_vps, per_pass / (now_seconds() - t_stateless));

    const double t_single = now_seconds();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (const core::SignedMessage& message : reveals) {
        if (core::verify_message(w.keys.directory, message)) valid_single += 1;
      }
    }
    shared_vps = std::max(shared_vps, per_pass / (now_seconds() - t_single));

    const double t_batch = now_seconds();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const std::vector<bool> batch_results = batch_verifier.verify(reveals);
      for (const bool ok : batch_results) valid_batch += ok ? 1 : 0;
    }
    batched_vps = std::max(batched_vps, per_pass / (now_seconds() - t_batch));
  }

  const double batch_speedup = batched_vps / stateless_vps;
  const bool verdicts_agree =
      valid_single == valid_batch && valid_stateless == valid_single;
  std::printf("batch verifier: %zu reveals x%zu x%zu passes  stateless %.0f/s  "
              "shared-ctx %.0f/s  batched %.0f/s  batch_speedup %.2f  "
              "(results %s)\n\n",
              reveals.size(), reps, kPasses, stateless_vps, shared_vps,
              batched_vps, batch_speedup,
              verdicts_agree ? "identical" : "DIVERGED!");

  // Crypto profile row (ROADMAP item 3: profile before accelerating).
  // verifies_per_sec is wall-clock measured over the shared-context loop
  // so it stays meaningful under -DPVR_OBS=OFF; the quantiles come from the
  // crypto.* wall histograms and read 0 in that flavor.
  const obs::HotMetrics& hot = obs::MetricsRegistry::global().hot;
  std::printf("{\"bench\":\"crypto_profile\",\"seed\":%llu,"
              "\"verifies_per_sec\":%.1f,\"batched_verifies_per_sec\":%.1f,"
              "\"stateless_verifies_per_sec\":%.1f,\"batch_speedup\":%.2f,"
              "\"rsa_verify_p50_us\":%llu,\"rsa_verify_p99_us\":%llu,"
              "\"mulmod_p99_us\":%llu,\"hw_threads\":%u}\n",
              static_cast<unsigned long long>(args.seed),
              shared_vps, batched_vps, stateless_vps, batch_speedup,
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
              "\"deterministic\":%s,"
              "\"agg_speedup\":%.2f,\"hw_threads\":%u}\n",
              static_cast<unsigned long long>(args.seed), rounds, rps_at_1,
              rps_at_8, rps_at_8 / rps_at_1, deterministic ? "true" : "false", agg_aps_best / naive_aps,
              std::thread::hardware_concurrency());
  pvr::bench::emit_obs_snapshot("engine_throughput");
  // batch_speedup is host-relative, so its floor needs no baseline: the
  // grouped batch path must not be slower than rebuilding the per-key
  // context on every call.
  const bool batch_ok = batch_speedup >= kMinBatchSpeedup;
  if (!batch_ok) {
    std::fprintf(stderr,
                 "bench_engine_throughput: batch_speedup %.2f < floor %.2f\n",
                 batch_speedup, kMinBatchSpeedup);
  }
  return deterministic && verdicts_agree && batch_ok ? 0 : 1;
}
