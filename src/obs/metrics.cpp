#include "obs/metrics.h"

#include <algorithm>
#include <chrono>

namespace pvr::obs {

namespace detail {

std::uint64_t steady_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t cell_index() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kCells;
  return index;
}

}  // namespace detail

namespace {

// Upper edge of bucket b: 0 for bucket 0, else 2^b - 1 (the largest value
// the bucket holds; saturates at the top bucket).
[[nodiscard]] std::uint64_t bucket_upper_edge(std::size_t b) noexcept {
  if (b == 0) return 0;
  if (b >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << b) - 1;
}

}  // namespace

std::uint64_t snapshot_quantile(const HistogramSnapshot& hist,
                                double q) noexcept {
  if (hist.count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based, ceiling): the smallest bucket
  // whose cumulative count reaches it covers the quantile.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1,
      static_cast<std::uint64_t>(q * static_cast<double>(hist.count) + 0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < hist.counts.size(); ++b) {
    seen += hist.counts[b];
    if (seen >= rank) return bucket_upper_edge(b);
  }
  // counts were trimmed of trailing zeros, so the last non-empty bucket
  // always absorbs the tail rank.
  return bucket_upper_edge(hist.counts.empty() ? 0 : hist.counts.size() - 1);
}

std::uint64_t Histogram::quantile(double q) const {
  return snapshot_quantile(snapshot(), q);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.count = count();
  out.sum = sum();
  // Trailing empty buckets are trimmed so the snapshot (and its
  // fingerprint) stays compact and layout-stable.
  std::size_t last = 0;
  std::array<std::uint64_t, kBuckets> counts{};
  for (std::size_t b = 0; b < kBuckets; ++b) {
    counts[b] = buckets_[b].value.load(std::memory_order_relaxed);
    if (counts[b] != 0) last = b + 1;
  }
  out.counts.assign(counts.begin(), counts.begin() + last);
  return out;
}

void Histogram::reset() noexcept {
  for (detail::Cell& bucket : buckets_) {
    bucket.value.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

// The canonical names of the HotMetrics members, in registry order.
struct HotScalar {
  const char* name;
  Domain domain;
  Counter HotMetrics::* member;
};
struct HotHist {
  const char* name;
  Domain domain;
  Histogram HotMetrics::* member;
};

constexpr HotScalar kHotScalars[] = {
    {"crypto.bytes_hashed", Domain::kSim, &HotMetrics::crypto_bytes_hashed},
    // kSched: Montgomery ladders run wherever the verify landed, and the
    // world verdict cache (core/verify_context.h) elides whole
    // exponentiations depending on which thread or process verified a
    // digest first — so exponentiation COUNTS are schedule-shaped even
    // though every verdict is deterministic.
    {"crypto.mont_powmods", Domain::kSched, &HotMetrics::crypto_mont_powmods},
    {"crypto.mulmod_calls", Domain::kSim, &HotMetrics::crypto_mulmod_calls},
    {"crypto.rsa_signs", Domain::kSim, &HotMetrics::crypto_rsa_signs},
    // kSched since the world verdict cache: a cache hit skips the RSA
    // exponentiation entirely, and WHICH lookup hits depends on the
    // execution schedule (the verdicts do not).
    {"crypto.rsa_verifies", Domain::kSched, &HotMetrics::crypto_rsa_verifies},
    {"crypto.sig_cache_hits", Domain::kSim, &HotMetrics::crypto_sig_cache_hits},
    {"crypto.world_cache_hits", Domain::kSched,
     &HotMetrics::crypto_world_cache_hits},
    // kSched: one drain per offline run, but one per child process in a
    // multiprocess deployment — schedule-shaped, so fingerprint-exempt.
    {"engine.drains", Domain::kSched, &HotMetrics::engine_drains},
    {"engine.tasks", Domain::kSim, &HotMetrics::engine_tasks},
    {"node.root_epochs_gced", Domain::kSim, &HotMetrics::node_root_epochs_gced},
    {"node.rounds_gced", Domain::kSim, &HotMetrics::node_rounds_gced},
    {"node.windows_closed", Domain::kSim, &HotMetrics::node_windows_closed},
    {"sim.events", Domain::kSim, &HotMetrics::sim_events},
    {"sim.messages", Domain::kSim, &HotMetrics::sim_messages},
    {"sim.ticks", Domain::kSim, &HotMetrics::sim_ticks},
};

constexpr HotHist kHotHists[] = {
    {"crypto.mulmod_us", Domain::kWall, &HotMetrics::crypto_mulmod_us},
    {"crypto.rsa_verify_us", Domain::kWall, &HotMetrics::crypto_rsa_verify_us},
    {"engine.overlap_us", Domain::kWall, &HotMetrics::engine_overlap_us},
    {"engine.task_us", Domain::kWall, &HotMetrics::engine_task_us},
    // kSched: batch sizes depend on how rounds were sharded over processes.
    {"scenario.drain_rounds", Domain::kSched,
     &HotMetrics::scenario_drain_rounds},
    {"scenario.settle_us", Domain::kSim, &HotMetrics::scenario_settle_us},
};

[[nodiscard]] std::string json_key(const std::string& name, Domain domain) {
  // Dots become underscores so every key is a plain JSON identifier, and
  // wall metrics are prefixed so consumers can split sections mechanically.
  std::string key = domain == Domain::kWall ? "wall_" : "";
  key += name;
  std::replace(key.begin(), key.end(), '.', '_');
  return key;
}

}  // namespace

std::string MetricsSnapshot::sim_fingerprint() const {
  std::string out;
  for (const Entry& entry : scalars) {
    if (entry.domain != Domain::kSim) continue;
    out += entry.name;
    out += '=';
    out += std::to_string(entry.value);
    out += '|';
  }
  for (const HistEntry& entry : histograms) {
    if (entry.domain != Domain::kSim) continue;
    out += entry.name;
    out += "=[";
    for (std::size_t b = 0; b < entry.hist.counts.size(); ++b) {
      if (entry.hist.counts[b] == 0) continue;
      out += std::to_string(b);
      out += ':';
      out += std::to_string(entry.hist.counts[b]);
      out += ',';
    }
    out += "]n=";
    out += std::to_string(entry.hist.count);
    out += ",sum=";
    out += std::to_string(entry.hist.sum);
    out += '|';
  }
  return out;
}

std::string MetricsSnapshot::to_json_fields() const {
  std::string out;
  const auto append = [&out](const std::string& key, std::uint64_t value) {
    if (!out.empty()) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
  };
  for (const Entry& entry : scalars) {
    append(json_key(entry.name, entry.domain), entry.value);
  }
  for (const HistEntry& entry : histograms) {
    const std::string key = json_key(entry.name, entry.domain);
    append(key + "_count", entry.hist.count);
    append(key + "_sum", entry.hist.sum);
    append(key + "_p50", snapshot_quantile(entry.hist, 0.5));
    append(key + "_p99", snapshot_quantile(entry.hist, 0.99));
  }
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  for (const HotScalar& scalar : kHotScalars) {
    out.scalars.push_back(MetricsSnapshot::Entry{
        .name = scalar.name,
        .domain = scalar.domain,
        .value = (hot.*scalar.member).value()});
  }
  for (const HotHist& hist : kHotHists) {
    out.histograms.push_back(MetricsSnapshot::HistEntry{
        .name = hist.name,
        .domain = hist.domain,
        .hist = (hot.*hist.member).snapshot()});
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.scalars.begin(), out.scalars.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

void MetricsRegistry::reset() {
  for (const HotScalar& scalar : kHotScalars) (hot.*scalar.member).reset();
  for (const HotHist& hist : kHotHists) (hot.*hist.member).reset();
}

MetricsRegistry& MetricsRegistry::global() {
  // Leaked on purpose: instrumented code (worker pools, static
  // destructors) may record until the very end of the process.
  static MetricsRegistry* const instance = new MetricsRegistry();
  return *instance;
}

}  // namespace pvr::obs
