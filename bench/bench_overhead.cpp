// Experiment E4 (paper §3.8 "Overhead"): the primitive costs the paper's
// feasibility argument rests on — "the most expensive operations we have
// used are a cryptographic hash-function (such as SHA-256), which are
// relatively cheap, and a public-key signature scheme (such as RSA). A
// RSA-1024 signature takes about two milliseconds on current hardware."
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "crypto/commitment.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace pvr::crypto {
namespace {

const RsaKeyPair& rsa_key(std::size_t bits) {
  static std::map<std::size_t, RsaKeyPair> cache;
  const auto it = cache.find(bits);
  if (it != cache.end()) return it->second;
  Drbg rng(bits, "bench-overhead-keys");
  return cache.emplace(bits, generate_rsa_keypair(bits, rng)).first->second;
}

void BM_Sha256(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Drbg rng(1, "bench-sha");
  const std::vector<std::uint8_t> data = rng.bytes(size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  Drbg rng(2, "bench-hmac");
  const std::vector<std::uint8_t> key = rng.bytes(32);
  const std::vector<std::uint8_t> data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(1024);

void BM_BitCommitment(benchmark::State& state) {
  Drbg rng(3, "bench-commit");
  for (auto _ : state) {
    benchmark::DoNotOptimize(commit_bit(true, rng));
  }
}
BENCHMARK(BM_BitCommitment);

void BM_CommitmentVerify(benchmark::State& state) {
  Drbg rng(4, "bench-commit-verify");
  const auto [commitment, opening] = commit_bit(true, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_commitment(commitment, opening));
  }
}
BENCHMARK(BM_CommitmentVerify);

void BM_RsaSign(benchmark::State& state) {
  const RsaKeyPair& key = rsa_key(static_cast<std::size_t>(state.range(0)));
  Drbg rng(5, "bench-sign");
  const std::vector<std::uint8_t> message = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key.priv, message));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_RsaVerify(benchmark::State& state) {
  const RsaKeyPair& key = rsa_key(static_cast<std::size_t>(state.range(0)));
  Drbg rng(6, "bench-verify");
  const std::vector<std::uint8_t> message = rng.bytes(256);
  const auto signature = rsa_sign(key.priv, message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify(key.pub, message, signature));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Arg(2048);

void BM_RsaKeygen(benchmark::State& state) {
  std::uint64_t seed = 1000;
  for (auto _ : state) {
    Drbg rng(seed++, "bench-keygen");
    benchmark::DoNotOptimize(generate_rsa_keypair(
        static_cast<std::size_t>(state.range(0)), rng));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(1024)->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace
}  // namespace pvr::crypto

PVR_GBENCH_MAIN("overhead")
