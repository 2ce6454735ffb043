// Experiment E3 (paper §3.1): the SMC strawman vs PVR.
//
// "Even with only five players, state-of-the-art SMC systems take about 15
// seconds of computation time for a simple task like voting, and such a
// task would have to be performed for every single BGP update."
//
// Both systems compute/verify the same function — the minimum of k
// providers' path lengths — under the same threat model. SMC costs are the
// measured GMW share arithmetic plus modeled WAN latency (rounds x RTT,
// the dominant term for interactive MPC); PVR costs are fully measured.
// We do not expect the paper's absolute 15 s (different machines, and
// FairplayMP's BMR protocol is far heavier than our dealer-assisted GMW);
// the claim being reproduced is the ordering and the 2-3+ order-of-magnitude
// gap, growing with the number of players and circuit depth. With a real
// (dealer-free, OT-based) SMC the gap widens back toward the paper's ~4
// orders.
#include <chrono>
#include <cstdio>

#include "baseline/smc/gmw.h"
#include "bench_common.h"

namespace pvr::bench {
namespace {

constexpr std::uint32_t kMaxLen = 16;   // path-length domain (bits of input)
constexpr std::size_t kWidth = 5;       // bits to encode a length <= 16
constexpr double kWanRtt = 0.1;         // 100 ms RTT between ASes

struct Row {
  std::size_t parties;
  double pvr_ms;
  double smc_cpu_ms;
  double smc_modeled_s;
  std::size_t smc_rounds;
  std::size_t smc_and_gates;
  std::size_t smc_bytes;
};

[[nodiscard]] Row run_comparison(std::size_t parties) {
  Row row{};
  row.parties = parties;

  // --- PVR: full prover round + both verifier roles, measured. ---
  const Fig1Instance& instance = fig1_instance(parties, 1024, kMaxLen);
  crypto::Drbg rng(parties, "smc-strawman-pvr");
  const auto t0 = std::chrono::steady_clock::now();
  const core::SignedWindow window = seal_round(
      core::run_prover(instance.id, core::OperatorKind::kMinimum,
                       instance.inputs, kMaxLen, rng, {}),
      instance.keys.private_keys.at(1).priv, rng);
  (void)verify_neighborhood(*instance.ctx, window,
                            instance.announcements, {2});
  row.pvr_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();

  // --- SMC: GMW over the equivalent minimum circuit. ---
  const baseline::smc::Circuit circuit =
      baseline::smc::build_minimum_circuit(parties, kWidth);
  std::vector<bool> inputs;
  crypto::Drbg smc_rng(parties, "smc-strawman-gmw");
  for (std::size_t p = 0; p < parties; ++p) {
    const std::uint64_t value = 1 + smc_rng.uniform(kMaxLen);
    for (std::size_t b = 0; b < kWidth; ++b) inputs.push_back((value >> b) & 1);
  }
  const baseline::smc::GmwResult gmw =
      baseline::smc::gmw_evaluate(circuit, inputs, parties, smc_rng);
  row.smc_cpu_ms = gmw.stats.cpu_seconds * 1000.0;
  row.smc_modeled_s = gmw.stats.modeled_seconds(kWanRtt);
  row.smc_rounds = gmw.stats.rounds;
  row.smc_and_gates = gmw.stats.and_gates;
  row.smc_bytes = gmw.stats.bytes;
  return row;
}

}  // namespace
}  // namespace pvr::bench

int main(int argc, char** argv) {
  using namespace pvr;
  using namespace pvr::bench;
  const BenchArgs args = parse_bench_args(&argc, argv);
  std::printf("E3: SMC strawman (GMW, %zu-bit inputs, %.0f ms WAN RTT) vs PVR\n",
              kWidth, kWanRtt * 1000);
  std::printf("%-8s %-12s %-12s %-14s %-8s %-10s %-10s %-10s\n", "parties",
              "pvr_ms", "smc_cpu_ms", "smc_wall_s", "rounds", "and_gates",
              "smc_bytes", "ratio");
  for (const std::size_t parties : {2u, 3u, 4u, 5u, 6u, 8u}) {
    const Row row = run_comparison(parties);
    const double ratio = row.smc_modeled_s * 1000.0 / row.pvr_ms;
    std::printf("%-8zu %-12.2f %-12.3f %-14.2f %-8zu %-10zu %-10zu %-10.0fx\n",
                row.parties, row.pvr_ms, row.smc_cpu_ms, row.smc_modeled_s,
                row.smc_rounds, row.smc_and_gates, row.smc_bytes, ratio);
  }
  std::printf("\nshape check (paper: SMC ~15 s for 5 players; PVR a few ms):\n");
  const Row five = run_comparison(5);
  std::printf("  5 players: PVR %.1f ms vs SMC %.1f s modeled wall clock "
              "(%.0fx slower)\n",
              five.pvr_ms, five.smc_modeled_s,
              five.smc_modeled_s * 1000.0 / five.pvr_ms);
  std::printf("{\"bench\":\"smc_strawman\",\"seed\":%llu,"
              "\"pvr_ms_5p\":%.2f,\"smc_modeled_s_5p\":%.2f}\n",
              static_cast<unsigned long long>(args.seed), five.pvr_ms,
              five.smc_modeled_s);
  pvr::bench::emit_obs_snapshot("smc_strawman");
  return 0;
}
