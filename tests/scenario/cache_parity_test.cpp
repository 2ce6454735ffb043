// World verdict-cache parity (DESIGN.md §15): the same ScenarioSpec run
// with the world-level verified-signature cache ON and OFF must produce a
// byte-identical report fingerprint AND evidence digest at every worker
// count, in both offline and online mode — the cache may only change how
// much RSA work was done, never a verdict, an evidence log, or the
// SIM-domain metrics fingerprint.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "scenario/runner.h"

namespace pvr::scenario {
namespace {

[[nodiscard]] ScenarioSpec cache_spec(bool online, bool world_sig_cache,
                                      std::size_t workers) {
  ScenarioSpec spec;
  spec.name = "cache_parity";
  spec.seed = 77;
  spec.adversary = "equivocator";  // gossip duplicates = real cache traffic
  spec.topology.as_count = 400;
  spec.topology.tier1_count = 6;
  spec.neighborhoods = 2;
  spec.min_providers = 4;
  spec.max_providers = 4;
  spec.rounds = 60;
  spec.attacked_fraction = 0.5;
  spec.traffic.mean_interarrival_us = 2000;
  spec.batch_deadline = 10'000;
  spec.online = online;
  spec.workers = workers;
  spec.world_sig_cache = world_sig_cache;
  return spec;
}

TEST(CacheParityTest, FingerprintAndEvidenceIdenticalCacheOnVsOff) {
  for (const bool online : {false, true}) {
    obs::MetricsRegistry::global().reset();
    const ScenarioReport off = run_scenario(cache_spec(online, false, 1));
    const std::string off_obs =
        obs::MetricsRegistry::global().snapshot().sim_fingerprint();
    ASSERT_EQ(off.world_cache_hits, 0u);
    ASSERT_EQ(off.verify_failures, 0u);

    for (const std::size_t workers : {1u, 2u, 8u}) {
      obs::MetricsRegistry::global().reset();
      const ScenarioReport on = run_scenario(cache_spec(online, true, workers));
      const std::string on_obs =
          obs::MetricsRegistry::global().snapshot().sim_fingerprint();
      EXPECT_EQ(on.fingerprint(), off.fingerprint())
          << "online=" << online << " workers=" << workers;
      EXPECT_EQ(on.evidence_digest, off.evidence_digest)
          << "online=" << online << " workers=" << workers;
      EXPECT_EQ(on_obs, off_obs)
          << "online=" << online << " workers=" << workers;
      EXPECT_EQ(on.verify_failures, 0u);
      if (obs::kCompiledIn) {
        // Every verifier in the mesh verifies the same signed roots, so
        // the cache must actually fire...
        EXPECT_GT(on.world_cache_hits, 0u)
            << "online=" << online << " workers=" << workers;
        // ...and every hit is an exponentiation the cache-off run paid:
        // hits + misses-that-exponentiated == the cache-off verify count.
        EXPECT_EQ(on.rsa_verifies + on.world_cache_hits, off.rsa_verifies)
            << "online=" << online << " workers=" << workers;
      }
    }
  }
}

}  // namespace
}  // namespace pvr::scenario
