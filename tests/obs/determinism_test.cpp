// The two obs determinism contracts, gated end-to-end through the scenario
// runner (DESIGN.md §11):
//
//  1. SIM-domain metrics are pure functions of the spec: the global
//     registry's sim_fingerprint() — and the settle-latency quantiles the
//     bench gate regresses on — must be byte-identical at 1/2/8 engine
//     workers.
//
//  2. Instrumentation never perturbs the system under test: the report
//     fingerprint must be byte-identical with tracing armed or idle, and
//     must equal the golden constant below, which the obs-ON and obs-OFF
//     CI builds BOTH assert — the cross-build half of the ON==OFF parity
//     gate (no shared state between those builds, so a hook that leaked
//     into a DRBG or the simulated schedule breaks one of them).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/runner.h"

namespace pvr::scenario {
namespace {

// Fixed spec for the golden/determinism runs: online mode so the settle
// pipeline (the part the obs wiring instruments hardest) is exercised.
// Every field pinned — the golden fingerprint below is a function of this.
[[nodiscard]] ScenarioSpec golden_spec() {
  ScenarioSpec spec;
  spec.name = "obs_golden";
  spec.seed = 21;
  spec.adversary = "equivocator";
  spec.topology.as_count = 400;
  spec.topology.tier1_count = 6;
  spec.neighborhoods = 2;
  spec.min_providers = 4;
  spec.max_providers = 4;
  spec.rounds = 16;
  spec.attacked_fraction = 0.5;
  spec.traffic.mean_interarrival_us = 2000;
  spec.batch_deadline = 10'000;
  spec.workers = 2;
  spec.online = true;
  return spec;
}

// The report fingerprint of golden_spec(), pinned. Regenerate (and review
// the diff as a behavior change!) with:
//   run_scenario(golden_spec()).fingerprint()
constexpr char kGoldenFingerprint[] =
    "obs_golden|equivocator|seed=21|ases=400|hoods=2|nodes=12|started=16|"
    "windows=9|coalesced=1|attacked=8|detected=8|evidence=56|false=0|"
    "audit_fail=0|in=12064|bundle=99119|gossip=48910|total=160093|"
    "gossip_msgs=250|roots=14|proof=24112";

TEST(ObsDeterminismTest, SimMetricsIdenticalAcrossWorkerCounts) {
  std::string fingerprint_at_1;
  std::uint64_t p50_at_1 = 0;
  std::uint64_t p99_at_1 = 0;
  for (const std::size_t workers : {1u, 2u, 8u}) {
    ScenarioSpec spec = golden_spec();
    spec.workers = workers;
    obs::MetricsRegistry::global().reset();
    const ScenarioReport report = run_scenario(spec);
    const std::string sim_metrics =
        obs::MetricsRegistry::global().snapshot().sim_fingerprint();

    if (workers == 1) {
      fingerprint_at_1 = sim_metrics;
      p50_at_1 = report.p50_settle_us;
      p99_at_1 = report.p99_settle_us;
      if (obs::kCompiledIn) {
        // Sanity that the fingerprint is live, not a vacuous all-zeros
        // match: the run must have counted RSA work and settle latencies.
        // (rsa_signs, not rsa_verifies: verify exponentiations are kSched
        // since the world verdict cache made their count schedule-shaped.)
        EXPECT_NE(sim_metrics.find("crypto.rsa_signs="), std::string::npos);
        EXPECT_EQ(sim_metrics.find("crypto.rsa_signs=0|"),
                  std::string::npos);
        EXPECT_EQ(sim_metrics.find("scenario.settle_us=[]"),
                  std::string::npos);
      }
      // Online runs settle rounds strictly after their windows close, so
      // the quantiles are nonzero in either build flavor (the runner
      // aggregates through a local histogram, not the global registry).
      EXPECT_GT(p50_at_1, 0u);
      EXPECT_GE(p99_at_1, p50_at_1);
    } else {
      EXPECT_EQ(sim_metrics, fingerprint_at_1)
          << "sim metrics diverged at " << workers << " workers";
      EXPECT_EQ(report.p50_settle_us, p50_at_1) << workers << " workers";
      EXPECT_EQ(report.p99_settle_us, p99_at_1) << workers << " workers";
    }
  }
}

TEST(ObsDeterminismTest, TracingDoesNotPerturbTheRun) {
  const ScenarioReport quiet = run_scenario(golden_spec());

  const std::string path = ::testing::TempDir() + "obs_parity_trace.json";
  obs::TraceWriter& tracer = obs::TraceWriter::global();
  ASSERT_EQ(tracer.open(path), obs::kCompiledIn);
  const ScenarioReport traced = run_scenario(golden_spec());
  if (obs::kCompiledIn) {
    EXPECT_GT(tracer.event_count(), 0u);  // capture actually saw the run
  }
  tracer.close();
  std::remove(path.c_str());

  EXPECT_EQ(traced.fingerprint(), quiet.fingerprint());
}

// Both CI build flavors (-DPVR_OBS=ON and OFF) assert this exact constant:
// transitively, the two flavors agree with each other byte-for-byte.
TEST(ObsDeterminismTest, GoldenFingerprintHoldsAcrossWorkersAndDrains) {
  for (const std::size_t workers : {2u, 8u}) {
    for (const net::SimTime drain_us : {net::SimTime{7'000},
                                        net::SimTime{64'000}}) {
      ScenarioSpec spec = golden_spec();
      spec.workers = workers;
      spec.drain_interval_us = drain_us;
      const ScenarioReport report = run_scenario(spec);
      EXPECT_EQ(report.fingerprint(), kGoldenFingerprint)
          << "workers=" << workers << " drain_interval_us=" << drain_us;
    }
  }
}

}  // namespace
}  // namespace pvr::scenario
