// Experiment E1 (paper Figure 1 + §3.3): cost of one minimum-operator PVR
// round, per role, as the number of providers k and the bit-vector length L
// grow. RSA-1024 keys as in §3.8.
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace pvr::bench {
namespace {

constexpr std::size_t kKeyBits = 1024;

void BM_Fig1_ProverRound(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::uint32_t max_len = static_cast<std::uint32_t>(state.range(1));
  const Fig1Instance& instance = fig1_instance(k, kKeyBits, max_len);
  crypto::Drbg rng(1, "bench-prover");

  std::size_t wire_bytes = 0;
  for (auto _ : state) {
    const core::SignedWindow window = seal_round(
        core::run_prover(instance.id, core::OperatorKind::kMinimum,
                         instance.inputs, max_len, rng, {}),
        instance.keys.private_keys.at(1).priv, rng);
    benchmark::DoNotOptimize(window);
    // One pvr.bundle.agg message per neighbor.
    wire_bytes = window.message_for_recipient().encode().size();
    for (const bgp::AsNumber provider : instance.providers) {
      wire_bytes += window.message_for_provider(provider).encode().size();
    }
  }
  state.counters["wire_bytes"] = static_cast<double>(wire_bytes);
  state.counters["providers"] = static_cast<double>(k);
}
BENCHMARK(BM_Fig1_ProverRound)
    ->ArgsProduct({{2, 4, 8, 16, 32, 64}, {16}})
    ->ArgsProduct({{8}, {8, 32}})
    ->Unit(benchmark::kMillisecond);

void BM_Fig1_VerifyAsProvider(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const Fig1Instance& instance = fig1_instance(k, kKeyBits, 16);
  crypto::Drbg rng(2, "bench-verify-n");
  const core::SignedWindow window = seal_round(
      core::run_prover(instance.id, core::OperatorKind::kMinimum,
                       instance.inputs, 16, rng, {}),
      instance.keys.private_keys.at(1).priv, rng);
  const bgp::AsNumber provider = instance.providers.front();
  const core::InputAnnouncement& own = instance.announcements.at(provider);
  const core::SignedWindow::Round& round = window.rounds.front();
  const core::LeafOpening& reveal = round.provider_reveals.at(provider);

  // The timed round includes the verifier opening the window root.
  for (auto _ : state) {
    const auto evidence = core::verify_as_provider(
        provider, own, open_sealed(*instance.ctx, window),
        round.bundle, &reveal);
    benchmark::DoNotOptimize(evidence);
  }
}
BENCHMARK(BM_Fig1_VerifyAsProvider)
    ->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_Fig1_VerifyAsRecipient(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::uint32_t max_len = static_cast<std::uint32_t>(state.range(1));
  const Fig1Instance& instance = fig1_instance(k, kKeyBits, max_len);
  crypto::Drbg rng(3, "bench-verify-b");
  const core::SignedWindow window = seal_round(
      core::run_prover(instance.id, core::OperatorKind::kMinimum,
                       instance.inputs, max_len, rng, {}),
      instance.keys.private_keys.at(1).priv, rng);
  const core::SignedWindow::Round& round = window.rounds.front();

  for (auto _ : state) {
    const auto evidence = core::verify_as_recipient(
        *instance.ctx, 2, open_sealed(*instance.ctx, window), round.bundle,
        &round.recipient_reveal, &round.export_statement);
    benchmark::DoNotOptimize(evidence);
  }
}
BENCHMARK(BM_Fig1_VerifyAsRecipient)
    ->ArgsProduct({{2, 8, 32}, {16}})
    ->ArgsProduct({{8}, {8, 32}})
    ->Unit(benchmark::kMillisecond);

// The existential operator (§3.2) for comparison: a single bit, so the
// prover cost is dominated by one signature.
void BM_Fig1_ExistentialProverRound(benchmark::State& state) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const Fig1Instance& instance = fig1_instance(k, kKeyBits, 16);
  crypto::Drbg rng(4, "bench-exists");
  for (auto _ : state) {
    const core::SignedWindow window = seal_round(
        core::run_prover(instance.id, core::OperatorKind::kExistential,
                         instance.inputs, 1, rng, {}),
        instance.keys.private_keys.at(1).priv, rng);
    benchmark::DoNotOptimize(window);
  }
}
BENCHMARK(BM_Fig1_ExistentialProverRound)
    ->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pvr::bench

PVR_GBENCH_MAIN("fig1_minimum")
