// The cross-process export contracts (DESIGN.md §14): the snapshot wire
// codec round-trips exactly, merge() is the commutative/associative shard
// sum the conductor relies on, version or domain skew fails loudly, and
// merge_traces() stitches per-process shards with flow ids intact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pvr::obs {
namespace {

[[nodiscard]] bool snapshots_equal(const MetricsSnapshot& a,
                                   const MetricsSnapshot& b) {
  if (a.scalars.size() != b.scalars.size() ||
      a.histograms.size() != b.histograms.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.scalars.size(); ++i) {
    if (a.scalars[i].name != b.scalars[i].name ||
        a.scalars[i].domain != b.scalars[i].domain ||
        a.scalars[i].value != b.scalars[i].value) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.histograms.size(); ++i) {
    if (a.histograms[i].name != b.histograms[i].name ||
        a.histograms[i].domain != b.histograms[i].domain ||
        !(a.histograms[i].hist == b.histograms[i].hist)) {
      return false;
    }
  }
  return true;
}

// A populated registry snapshot exercising scalars, histograms, every
// domain, and named (non-hot) metrics.
[[nodiscard]] MetricsSnapshot sample_snapshot(std::uint64_t scale) {
  MetricsRegistry registry;
  registry.hot.crypto_rsa_verifies.add(7 * scale);
  registry.hot.sim_messages.add(3 * scale);
  registry.hot.engine_drains.add(scale);  // kSched
  for (std::uint64_t i = 0; i < scale; ++i) {
    registry.hot.scenario_settle_us.record(100 * (i + 1));
    registry.hot.engine_task_us.record(i);  // kWall
  }
  registry.counter("test.named", Domain::kSim).add(11 * scale);
  registry.histogram("test.named_us", Domain::kWall).record(scale);
  return registry.snapshot();
}

TEST(SnapshotCodecTest, RoundTripIdentity) {
  const MetricsSnapshot original = sample_snapshot(5);
  const std::vector<std::uint8_t> wire = original.encode();
  const MetricsSnapshot decoded = MetricsSnapshot::decode(wire);
  EXPECT_TRUE(snapshots_equal(original, decoded));
  EXPECT_EQ(original.sim_fingerprint(), decoded.sim_fingerprint());
  EXPECT_EQ(original.to_json_fields(), decoded.to_json_fields());
}

TEST(SnapshotCodecTest, EmptySnapshotRoundTrips) {
  const MetricsSnapshot empty;
  const MetricsSnapshot decoded = MetricsSnapshot::decode(empty.encode());
  EXPECT_TRUE(decoded.scalars.empty());
  EXPECT_TRUE(decoded.histograms.empty());
  EXPECT_EQ(decoded.sim_fingerprint(), "");
}

TEST(SnapshotCodecTest, VersionMismatchRejected) {
  std::vector<std::uint8_t> wire = sample_snapshot(1).encode();
  wire[0] = 0xFF;  // clobber the big-endian version field
  EXPECT_THROW((void)MetricsSnapshot::decode(wire), std::invalid_argument);
}

TEST(SnapshotCodecTest, TruncatedInputRejected) {
  std::vector<std::uint8_t> wire = sample_snapshot(2).encode();
  wire.resize(wire.size() / 2);
  EXPECT_THROW((void)MetricsSnapshot::decode(wire), std::out_of_range);
}

TEST(SnapshotCodecTest, BadDomainByteRejected) {
  MetricsSnapshot snapshot;
  snapshot.scalars.push_back({.name = "x", .domain = Domain::kSim, .value = 1});
  std::vector<std::uint8_t> wire = snapshot.encode();
  // The domain byte of the single entry sits right after the name bytes:
  // [u16 ver][u32 n][u32 len]["x"][u8 domain]...
  wire[2 + 4 + 4 + 1] = 0x7F;
  EXPECT_THROW((void)MetricsSnapshot::decode(wire), std::invalid_argument);
}

TEST(SnapshotMergeTest, MergeIsCommutative) {
  MetricsSnapshot ab = sample_snapshot(2);
  ab.merge(sample_snapshot(3));
  MetricsSnapshot ba = sample_snapshot(3);
  ba.merge(sample_snapshot(2));
  EXPECT_TRUE(snapshots_equal(ab, ba));
  EXPECT_EQ(ab.sim_fingerprint(), ba.sim_fingerprint());
}

TEST(SnapshotMergeTest, MergeIsAssociative) {
  MetricsSnapshot left = sample_snapshot(1);
  left.merge(sample_snapshot(2));
  left.merge(sample_snapshot(4));
  MetricsSnapshot bc = sample_snapshot(2);
  bc.merge(sample_snapshot(4));
  MetricsSnapshot right = sample_snapshot(1);
  right.merge(bc);
  EXPECT_TRUE(snapshots_equal(left, right));
}

TEST(SnapshotMergeTest, MergeAddsValuesAndBuckets) {
  MetricsSnapshot merged = sample_snapshot(2);
  merged.merge(sample_snapshot(3));
  const MetricsSnapshot expected = sample_snapshot(5);
  // Counters add exactly; the settle histogram recorded different value
  // multisets (100..200 vs 100..300), so only total count/sum-style
  // invariants hold there — check the pure counters against the scale-5
  // registry instead.
  for (const auto& entry : expected.scalars) {
    for (const auto& got : merged.scalars) {
      if (got.name == entry.name) {
        EXPECT_EQ(got.value, entry.value) << entry.name;
      }
    }
  }
}

TEST(SnapshotMergeTest, MergeWithEmptyIsIdentity) {
  MetricsSnapshot merged = sample_snapshot(4);
  merged.merge(MetricsSnapshot{});
  EXPECT_TRUE(snapshots_equal(merged, sample_snapshot(4)));
  MetricsSnapshot from_empty;
  from_empty.merge(sample_snapshot(4));
  EXPECT_TRUE(snapshots_equal(from_empty, sample_snapshot(4)));
}

TEST(SnapshotMergeTest, DomainConflictThrows) {
  MetricsSnapshot a;
  a.scalars.push_back({.name = "x", .domain = Domain::kSim, .value = 1});
  MetricsSnapshot b;
  b.scalars.push_back({.name = "x", .domain = Domain::kWall, .value = 1});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(SnapshotDeltaTest, DeltaSubtractsBaseline) {
  const MetricsSnapshot earlier = sample_snapshot(2);
  const MetricsSnapshot later = sample_snapshot(5);
  const MetricsSnapshot diff = MetricsSnapshot::delta(later, earlier);
  for (const auto& entry : diff.scalars) {
    for (const auto& was : earlier.scalars) {
      if (was.name != entry.name) continue;
      for (const auto& now : later.scalars) {
        if (now.name == entry.name) {
          EXPECT_EQ(entry.value, now.value - was.value) << entry.name;
        }
      }
    }
  }
  // Deltaing a snapshot against itself zeroes everything.
  const MetricsSnapshot zero = MetricsSnapshot::delta(earlier, earlier);
  for (const auto& entry : zero.scalars) EXPECT_EQ(entry.value, 0u);
  for (const auto& entry : zero.histograms) {
    EXPECT_EQ(entry.hist.count, 0u);
    EXPECT_TRUE(entry.hist.counts.empty());
  }
}

TEST(SnapshotDeltaTest, SchedDomainSurvivesMergeButNotFingerprint) {
  // engine.drains is kSched: each shard reports its own drain, the merge
  // sums them, and the sim fingerprint ignores the sum — the exact
  // property that lets N-process runs fingerprint-match 1-process runs.
  MetricsSnapshot merged = sample_snapshot(1);
  merged.merge(sample_snapshot(1));
  bool found = false;
  for (const auto& entry : merged.scalars) {
    if (entry.name == "engine.drains") {
      found = true;
      EXPECT_EQ(entry.domain, Domain::kSched);
      EXPECT_EQ(entry.value, 2u);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(merged.sim_fingerprint().find("engine.drains"), std::string::npos);
  // ...but the JSON export still carries it, unprefixed, so the
  // obs_snapshot row shape is unchanged.
  EXPECT_NE(merged.to_json_fields().find("\"engine_drains\":2"),
            std::string::npos);
}

[[nodiscard]] std::string slurp(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  EXPECT_NE(file, nullptr) << path;
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while (file != nullptr && (n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    out.append(buf, n);
  }
  if (file != nullptr) std::fclose(file);
  return out;
}

TEST(MergeTracesTest, StitchesShardsOntoPerProcessTracks) {
  if constexpr (!kCompiledIn) GTEST_SKIP() << "tracing compiled out";
  TraceWriter& writer = TraceWriter::global();

  // Shard 0: a span plus the sending half of a flow.
  ASSERT_TRUE(writer.open("merge_test_a.json"));
  writer.complete("work", "test", Track::kWall, 1, 10, 5);
  writer.flow('s', "msg.flow", "flow", Track::kSim, 7, 20, 0xABCD);
  ASSERT_TRUE(writer.close());

  // Shard 1: the receiving half of the same flow id.
  ASSERT_TRUE(writer.open("merge_test_b.json"));
  writer.flow('f', "msg.flow", "flow", Track::kSim, 9, 30, 0xABCD);
  ASSERT_TRUE(writer.close());

  const std::size_t merged = merge_traces(
      {{.path = "merge_test_a.json", .label = "proc0"},
       {.path = "merge_test_b.json", .label = "proc1"}},
      "merge_test_out.json");
  EXPECT_EQ(merged, 3u);

  const std::string out = slurp("merge_test_out.json");
  // Shard 0's tracks land on pids 1/2, shard 1's sim track on pid 12.
  EXPECT_NE(out.find("\"args\":{\"name\":\"proc0/wall-clock\"}"),
            std::string::npos);
  EXPECT_NE(out.find("\"args\":{\"name\":\"proc1/sim-time\"}"),
            std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);
  // Both halves of the flow still carry the same id after the pid remap.
  const std::uint64_t id = 0xABCD;
  std::size_t id_count = 0;
  const std::string needle = "\"id\":" + std::to_string(id);
  for (std::size_t at = out.find(needle); at != std::string::npos;
       at = out.find(needle, at + 1)) {
    ++id_count;
  }
  EXPECT_EQ(id_count, 2u);
  std::remove("merge_test_a.json");
  std::remove("merge_test_b.json");
  std::remove("merge_test_out.json");
}

TEST(MergeTracesTest, MissingShardThrows) {
  EXPECT_THROW((void)merge_traces({{.path = "does_not_exist_12345.json",
                                    .label = "x"}},
                                  "unused.json"),
               std::runtime_error);
}

}  // namespace
}  // namespace pvr::obs
