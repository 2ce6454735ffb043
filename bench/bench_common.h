// Shared helpers for the experiment harnesses.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "core/bundle_aggregation.h"
#include "core/keys.h"
#include "core/min_protocol.h"
#include "core/pvr_speaker.h"
#include "core/verify_context.h"
#include "obs/metrics.h"

namespace pvr::bench {

// Every bench accepts --seed=N (and --rounds=N where it makes sense) and
// records the seed in each JSON line it emits, so any BENCH_*.json row can
// be reproduced from the file alone.
struct BenchArgs {
  std::uint64_t seed = 1;
  std::optional<std::size_t> rounds;
};

// The seed the current bench process runs under (set by parse_bench_args;
// fixtures fold it into their DRBG seeds).
[[nodiscard]] inline std::uint64_t& bench_seed() {
  static std::uint64_t seed = 1;
  return seed;
}

// Parses and REMOVES --seed / --rounds from argv, so flag parsers that run
// afterwards (benchmark::Initialize rejects flags it does not know) never
// see them. Unknown flags are left in place. A malformed value exits with
// an error: a typo silently falling back to the default seed would label
// the emitted rows with a seed that did not produce them.
[[nodiscard]] inline BenchArgs parse_bench_args(int* argc, char** argv) {
  BenchArgs args;
  const auto parse_or_die = [](const char* text, const char* flag,
                               bool allow_zero) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || (!allow_zero && value == 0)) {
      std::fprintf(stderr, "bench: bad %s value '%s'\n", flag, text);
      std::exit(2);
    }
    return static_cast<std::uint64_t>(value);
  };
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      args.seed = parse_or_die(argv[i] + 7, "--seed", true);
    } else if (arg == "--seed") {
      if (i + 1 >= *argc) parse_or_die("", "--seed", true);  // bare flag: die
      args.seed = parse_or_die(argv[++i], "--seed", true);
    } else if (arg.rfind("--rounds=", 0) == 0) {
      args.rounds = parse_or_die(argv[i] + 9, "--rounds", false);
    } else if (arg == "--rounds") {
      if (i + 1 >= *argc) parse_or_die("", "--rounds", false);
      args.rounds = parse_or_die(argv[++i], "--rounds", false);
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
  argv[kept] = nullptr;  // keep the argv[argc] == NULL guarantee intact
  bench_seed() = args.seed;
  return args;
}

// Emits the process-wide metrics snapshot as one JSON row, tagged with the
// bench that produced it — the `obs_snapshot` row bench/run_all.sh requires
// from every bench so BENCH_*.json carries the counters alongside the
// bench's own rows. Printed in both obs build flavors (all-zero counters
// under -DPVR_OBS=OFF keep the run_all.sh contract build-independent).
inline void emit_obs_snapshot(const char* bench_name) {
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::global().snapshot();
  std::printf("{\"bench\":\"obs_snapshot\",\"source\":\"%s\",\"seed\":%llu,"
              "\"obs_enabled\":%s,%s}\n",
              bench_name, static_cast<unsigned long long>(bench_seed()),
              obs::kCompiledIn ? "true" : "false",
              snapshot.to_json_fields().c_str());
}

// Shared main for the Google-Benchmark benches: strips --seed (which
// benchmark::Initialize would reject) before the benchmark flag parser
// runs, then emits the one JSON row bench/run_all.sh requires from every
// bench, carrying the seed for reproducibility. Expanding this macro means
// the bench provides its own main — CMake links only benchmark::benchmark
// for it, not benchmark_main.
#define PVR_GBENCH_MAIN(name)                                       \
  int main(int argc, char** argv) {                                 \
    const pvr::bench::BenchArgs args =                              \
        pvr::bench::parse_bench_args(&argc, argv);                  \
    benchmark::Initialize(&argc, argv);                             \
    benchmark::RunSpecifiedBenchmarks();                            \
    benchmark::Shutdown();                                          \
    std::printf("{\"bench\":\"" name "\",\"seed\":%llu}\n",         \
                static_cast<unsigned long long>(args.seed));        \
    pvr::bench::emit_obs_snapshot(name);                            \
    return 0;                                                       \
  }

// Seals one round as a one-prefix window (batch 0): the statements of
// `result` as leaves under one signed root, as a PvrNode would ship them.
[[nodiscard]] inline core::SignedWindow seal_round(
    const core::ProverResult& result, const crypto::RsaPrivateKey& key,
    crypto::Drbg& rng) {
  return core::seal_window(result.bundle.id.prover, result.bundle.id.epoch, 0,
                           0, std::span(&result, 1), key, rng)
      .honest;
}

// The window root as one verifier accepts it. Every window a bench seals
// is genuine, so a root that does not open is a harness bug.
[[nodiscard]] inline core::VerifiedWindow open_sealed(
    const core::VerifyContext& ctx, const core::SignedWindow& window) {
  auto opened = core::open_window(ctx, window.signed_root);
  if (!opened) throw std::logic_error("bench: sealed window does not open");
  return std::move(*opened);
}

// The canonical neighborhood check used by the experiment harnesses: every
// announcing provider verifies its reveal, every recipient verifies the
// reveal + export, all as leaves of one sealed round. Each verifier opens
// the window root itself, as each node of a deployment does. One shared
// definition keeps the sequential and engine-backed measurement paths
// comparing identical work.
[[nodiscard]] inline core::RoundFindings verify_neighborhood(
    const core::VerifyContext& ctx, const core::SignedWindow& window,
    const std::map<bgp::AsNumber, core::InputAnnouncement>& announcements,
    const std::vector<bgp::AsNumber>& recipients) {
  core::RoundFindings findings;
  const core::SignedWindow::Round& round = window.rounds.front();
  for (const auto& [provider, announcement] : announcements) {
    const auto it = round.provider_reveals.find(provider);
    auto found = core::verify_as_provider(
        provider, announcement, open_sealed(ctx, window), round.bundle,
        it == round.provider_reveals.end() ? nullptr : &it->second);
    findings.evidence.insert(findings.evidence.end(), found.begin(),
                             found.end());
  }
  for (const bgp::AsNumber recipient : recipients) {
    auto found = core::verify_as_recipient(
        ctx, recipient, open_sealed(ctx, window),
        round.bundle, &round.recipient_reveal, &round.export_statement);
    findings.evidence.insert(findings.evidence.end(), found.begin(),
                             found.end());
  }
  return findings;
}

[[nodiscard]] inline bgp::Route route_len(std::size_t length,
                                          bgp::AsNumber origin_as) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(origin_as);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(50000 + i));
  }
  return bgp::Route{.prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
                    .path = bgp::AsPath(std::move(hops)),
                    .next_hop = origin_as,
                    .local_pref = 100,
                    .med = 0,
                    .origin = bgp::Origin::kIgp,
                    .communities = {}};
}

// A cached Figure-1 protocol instance: prover AS 1, providers 1001..1000+k,
// recipient 2. Key generation is expensive, so instances are memoized per
// (provider count, key bits, seed).
struct Fig1Instance {
  core::AsKeyPairs keys;
  // Cache-off context over keys.directory, built once the instance has its
  // final address in the memo, so its per-key precompute is shared by
  // every benchmark iteration.
  std::unique_ptr<core::VerifyContext> ctx;
  core::ProtocolId id;
  std::vector<bgp::AsNumber> providers;
  std::map<bgp::AsNumber, std::optional<core::SignedMessage>> inputs;
  std::map<bgp::AsNumber, core::InputAnnouncement> announcements;
};

[[nodiscard]] inline const Fig1Instance& fig1_instance(std::size_t provider_count,
                                                       std::size_t key_bits,
                                                       std::uint32_t max_len) {
  static std::map<std::tuple<std::size_t, std::size_t, std::uint32_t,
                             std::uint64_t>,
                  Fig1Instance>
      cache;
  const std::uint64_t seed = bench_seed();
  const auto key = std::tuple{provider_count, key_bits, max_len, seed};
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  Fig1Instance instance;
  std::vector<bgp::AsNumber> all = {1, 2};
  for (std::size_t i = 0; i < provider_count; ++i) {
    instance.providers.push_back(1001 + static_cast<bgp::AsNumber>(i));
    all.push_back(instance.providers.back());
  }
  crypto::Drbg key_rng(provider_count * 131 + key_bits + seed,
                       "bench-fig1-keys");
  instance.keys = core::generate_keys(all, key_rng, key_bits);
  instance.id = {.prover = 1,
                 .prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24"),
                 .epoch = 1};

  crypto::Drbg len_rng(7 + seed, "bench-fig1-lengths");
  for (const bgp::AsNumber provider : instance.providers) {
    const std::size_t length = 1 + len_rng.uniform(max_len);
    const core::InputAnnouncement announcement{
        .id = instance.id, .provider = provider, .route = route_len(length, provider)};
    instance.announcements.emplace(provider, announcement);
    instance.inputs[provider] = core::sign_message(
        provider, instance.keys.private_keys.at(provider).priv,
        announcement.encode());
  }
  Fig1Instance& stored = cache.emplace(key, std::move(instance)).first->second;
  stored.ctx = std::make_unique<core::VerifyContext>(&stored.keys.directory);
  return stored;
}

}  // namespace pvr::bench
