// Stress tests for the pipelined (double-buffered) online drain — DESIGN.md
// §12 — and the epoch-keyed seen-root GC that rides on its harvest step:
//
//   1. seeded-random drain cadences against bursty traffic: the pipelined
//      schedule must reproduce BOTH the offline fingerprint and the offline
//      evidence digest (the digest pins application ORDER, so batch N+1's
//      findings landing before batch N's would show up even when the
//      counts agree);
//   2. a drain cadence fine enough that the trace ends with a sealed batch
//      still in flight: the tail barrier must harvest it and preserve
//      parity (harvest_pending_at_end is the forced state);
//   3. epoch rotation on a long trace: the per-node root-dedup footprint
//      must track concurrently-OPEN epochs, not trace length, and every
//      epoch must be retired once the tail barrier runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "crypto/drbg.h"
#include "scenario/runner.h"

namespace pvr::scenario {
namespace {

[[nodiscard]] ScenarioSpec bursty_spec(std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = "pipeline_stress";
  spec.seed = seed;
  spec.adversary = "equivocator";
  spec.topology.as_count = 400;
  spec.topology.tier1_count = 6;
  spec.neighborhoods = 2;
  spec.min_providers = 4;
  spec.max_providers = 4;
  spec.rounds = 120;
  spec.attacked_fraction = 0.5;
  // Bursts slam several windows shut near-simultaneously, so single drain
  // ticks seal multi-round batches — the workload where an ordering bug
  // between the two slots has the most rounds to scramble.
  spec.traffic.process = ArrivalProcess::kBursty;
  spec.traffic.burst_size = 8;
  spec.traffic.mean_interarrival_us = 9000;
  spec.batch_deadline = 10'000;
  return spec;
}

// Randomized (seeded) drain cadences: at every cadence, the pipelined
// two-slot schedule must match the offline fingerprint byte-for-byte AND
// apply findings in exactly the order the offline run does.
TEST(PipelineStressTest, RandomDrainCadencesPreserveOrderUnderBurstyTraffic) {
  const ScenarioReport offline = run_scenario(bursty_spec(91));
  ASSERT_EQ(offline.detection_rate, 1.0);
  ASSERT_EQ(offline.false_evidence, 0u);
  ASSERT_EQ(offline.verify_failures, 0u);
  ASSERT_FALSE(offline.evidence_digest.empty());

  crypto::Drbg rng(91, "pipeline-stress-cadence");
  for (int draw = 0; draw < 4; ++draw) {
    // 1..16 collection windows per drain tick, seeded so the sweep is
    // reproducible but not hand-picked around the batching boundaries.
    const net::SimTime windows = 1 + rng.uniform(16);
    ScenarioSpec spec = bursty_spec(91);
    spec.online = true;
    spec.drain_interval_us = spec.collect_window * windows;

    const ScenarioReport piped = run_scenario(spec);
    const std::string label =
        "drain interval " + std::to_string(windows) + " windows";

    EXPECT_EQ(piped.fingerprint(), offline.fingerprint()) << label;
    EXPECT_EQ(piped.verify_failures, 0u) << label;
    // The evidence digest pins that the two-slot buffer applied batch N
    // fully before batch N+1, in the order the offline drain applies them.
    EXPECT_EQ(piped.evidence_digest, offline.evidence_digest) << label;
  }
}

// Forces the harvest-pending tail state: with a drain tick every collection
// window, the final tick seals a batch the simulator never gets another
// tick to harvest — the tail barrier must collect it (and the rounds whose
// settle horizon outlived the trace) without breaking parity.
TEST(PipelineStressTest, TailBarrierFlushesTheInFlightBatchAtTraceEnd) {
  // Uniform 2 ms arrivals keep windows closing at a fixed cadence all the
  // way to the last simulated event, so the final per-window drain tick
  // seals a batch by construction. (Random arrivals can end on a gap
  // longer than the settle horizon, and then the final tick finds nothing
  // settled.)
  ScenarioSpec base = bursty_spec(92);
  base.traffic.process = ArrivalProcess::kUniform;
  base.traffic.mean_interarrival_us = 2000;
  const ScenarioReport offline = run_scenario(base);

  ScenarioSpec spec = base;
  spec.online = true;
  spec.drain_interval_us = spec.collect_window;
  const ScenarioReport online = run_scenario(spec);

  EXPECT_TRUE(online.harvest_pending_at_end)
      << "per-window drain cadence was expected to leave the final batch "
         "in flight at trace end — the state this test exists to force";
  EXPECT_EQ(online.fingerprint(), offline.fingerprint());
  EXPECT_EQ(online.verify_failures, 0u);
  EXPECT_GT(online.drain_batches, 2u);

  EXPECT_EQ(online.evidence_digest, offline.evidence_digest);

  // An offline run never ends with an in-flight batch.
  EXPECT_FALSE(offline.harvest_pending_at_end);
}

// Epoch-keyed seen-root GC: rotating epochs over a long trace must keep
// each node's root-dedup digest set sized by the epochs that can still be
// OPEN (inside the settle span) — not by the trace — and the tail barrier
// must retire every epoch.
TEST(PipelineStressTest, RootDedupFootprintTracksOpenEpochsOnLongTrace) {
  const auto long_spec = [](std::size_t rounds_per_epoch) {
    ScenarioSpec spec;
    spec.name = "pipeline_epoch_gc";
    spec.seed = 17;
    spec.adversary = "equivocator";
    spec.topology.as_count = 400;
    spec.topology.tier1_count = 6;
    spec.neighborhoods = 2;
    spec.min_providers = 2;
    spec.max_providers = 2;
    spec.attacked_fraction = 0.5;
    spec.rounds = 2000;
    spec.traffic.process = ArrivalProcess::kUniform;
    spec.traffic.mean_interarrival_us = 400;
    spec.traffic.rounds_per_epoch = rounds_per_epoch;
    spec.batch_deadline = 8'000;
    spec.online = true;
    spec.drain_interval_us = 20'000;
    return spec;
  };

  // Rotate an epoch every 100 rounds (20 epochs) vs the legacy single
  // epoch, whose digests cannot retire before the whole trace settles.
  const ScenarioReport rotated = run_scenario(long_spec(100));
  const ScenarioReport single = run_scenario(long_spec(0));

  for (const ScenarioReport* report : {&rotated, &single}) {
    EXPECT_EQ(report->verify_failures, 0u);
    EXPECT_EQ(report->detection_rate, 1.0);
    EXPECT_EQ(report->false_evidence, 0u);
    // The tail barrier harvested every round, so every epoch (20 or 1)
    // finished retiring — no digest set survives the run.
    EXPECT_EQ(report->final_root_epochs, 0u);
  }
  ASSERT_GT(single.peak_root_digests, 0u);

  // "Tracks open epochs": an epoch spans rounds_per_epoch x interarrival
  // of sim time; an epoch stays open for at most that span plus the
  // settle span (collection window + batching deadline + settle horizon +
  // one drain tick). The single-epoch peak is the whole trace's digest
  // population, so scaling it to the open-epoch fraction bounds what the
  // rotated run may hold at once; 4x absorbs jitter and partial batches.
  ASSERT_GT(rotated.settle_horizon_us, 0u);
  const double epoch_span_us = 100 * 400.0;
  const double open_span_us = epoch_span_us + 4000 + 8000 +
                              static_cast<double>(rotated.settle_horizon_us) +
                              20'000;
  const double open_fraction =
      open_span_us / (2000 * 400.0);  // trace spans rounds x interarrival
  const auto bound = static_cast<std::uint64_t>(
      4.0 * open_fraction * static_cast<double>(single.peak_root_digests));
  EXPECT_LE(rotated.peak_root_digests, bound)
      << "rotated peak " << rotated.peak_root_digests
      << " vs single-epoch peak " << single.peak_root_digests;
  // And the headline: rotation + GC must beat the unrotated footprint by a
  // wide margin on a trace 20 epochs long.
  EXPECT_LT(rotated.peak_root_digests, single.peak_root_digests / 2);
}

}  // namespace
}  // namespace pvr::scenario
