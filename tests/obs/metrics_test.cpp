// The metrics layer's two contracts: order-independence (the same multiset
// of recordings from any thread interleaving reaches identical state — the
// property that makes SIM-domain metrics deterministic at any worker
// count) and stable export (fixed bucket layout, canonical fingerprint,
// flat JSON fields).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace pvr::obs {
namespace {

TEST(HistogramTest, BucketLayoutIsFixedPowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);
}

TEST(HistogramTest, QuantileReportsCoveringBucketUpperEdge) {
  Histogram hist;
  EXPECT_EQ(hist.quantile(0.5), 0u);  // empty
  for (int i = 0; i < 99; ++i) hist.record(5);   // bucket 3: [4, 8)
  hist.record(1000);                             // bucket 10: [512, 1024)
  EXPECT_EQ(hist.quantile(0.5), 7u);    // upper edge of [4, 8)
  EXPECT_EQ(hist.quantile(0.99), 7u);   // rank 99 still in bucket 3
  EXPECT_EQ(hist.quantile(1.0), 1023u); // the outlier's bucket edge
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_EQ(hist.sum(), 99u * 5 + 1000);
}

TEST(HistogramTest, SnapshotTrimsTrailingEmptyBuckets) {
  Histogram hist;
  hist.record(0);
  hist.record(6);
  const HistogramSnapshot snap = hist.snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);  // buckets 0..3, bucket 3 last nonzero
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snapshot_quantile(snap, 0.5), 0u);
  EXPECT_EQ(snapshot_quantile(snap, 1.0), 7u);
}

// The determinism property the scenario gates lean on: the recorded
// MULTISET fixes the state — recording order and thread assignment do not.
TEST(HistogramTest, StateIsOrderAndThreadIndependent) {
  std::vector<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 4096; ++i) values.push_back(i * 37 % 2048);

  Histogram forward;
  for (const std::uint64_t value : values) forward.record(value);

  Histogram reversed;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    reversed.record(*it);
  }

  Histogram threaded;
  {
    std::vector<std::thread> threads;
    const std::size_t per_thread = values.size() / 8;
    for (std::size_t t = 0; t < 8; ++t) {
      threads.emplace_back([&threaded, &values, t, per_thread] {
        for (std::size_t i = t * per_thread; i < (t + 1) * per_thread; ++i) {
          threaded.record(values[i]);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  EXPECT_EQ(forward.snapshot(), reversed.snapshot());
  EXPECT_EQ(forward.snapshot(), threaded.snapshot());
}

TEST(CounterTest, ConcurrentAddsSumExactly) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < 10000; ++i) counter.add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), 80000u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(RegistryTest, SimFingerprintCoversSimSectionOnly) {
  MetricsRegistry registry;
  registry.hot.crypto_rsa_signs.add(7);
  registry.hot.scenario_settle_us.record(100);
  const std::string base = registry.snapshot().sim_fingerprint();
  EXPECT_NE(base.find("crypto.rsa_signs=7"), std::string::npos);
  EXPECT_NE(base.find("scenario.settle_us="), std::string::npos);
  EXPECT_EQ(base.find("engine.task_us"), std::string::npos);  // WALL domain

  // Sched-domain counts (rsa_verifies went kSched with the world verdict
  // cache — WHICH duplicate hits is a worker race) and wall-domain
  // recordings must not move the deterministic fingerprint.
  registry.hot.crypto_rsa_verifies.add(7);
  registry.hot.crypto_world_cache_hits.add(3);
  registry.hot.engine_task_us.record(12345);
  EXPECT_EQ(registry.snapshot().sim_fingerprint(), base);
}

TEST(RegistryTest, JsonFieldsSplitWallSection) {
  MetricsRegistry registry;
  registry.hot.sim_events.add(2);
  registry.hot.engine_task_us.record(9);
  const std::string json = registry.snapshot().to_json_fields();
  EXPECT_NE(json.find("\"sim_events\":2"), std::string::npos);
  EXPECT_NE(json.find("\"wall_engine_task_us_count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"wall_engine_task_us_p50\":15"), std::string::npos);
  // The body must drop into a JSON object verbatim: bare key-value pairs,
  // no braces of its own.
  EXPECT_EQ(json.find('{'), std::string::npos);
  EXPECT_EQ(json.find('}'), std::string::npos);
}

TEST(RegistryTest, GlobalRegistryHooksRecordWhenCompiledIn) {
  MetricsRegistry& global = MetricsRegistry::global();
  const std::uint64_t before = global.hot.crypto_mulmod_calls.value();
  PVR_OBS_COUNT(crypto_mulmod_calls, 5);
  const std::uint64_t expected = kCompiledIn ? before + 5 : before;
  EXPECT_EQ(global.hot.crypto_mulmod_calls.value(), expected);
}

}  // namespace
}  // namespace pvr::obs
