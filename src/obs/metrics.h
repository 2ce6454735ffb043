// Deterministic metrics: counters and fixed-log-bucket histograms.
//
// This is the measurement layer the throughput ROADMAP items regress
// against (overlap proof for item 1, the crypto profile item 3 demands,
// the p99 settle latency item 4 gates on). Two hard requirements shape it:
//
//  1. Determinism. Metrics in the SIM domain are pure functions of the
//     scenario spec: identical at any engine worker count, because every
//     mutation is a commutative add and the recorded multiset of values is
//     fixed by the simulated schedule. `MetricsSnapshot::sim_fingerprint()`
//     canonicalizes exactly that section; the obs tests gate it across
//     workers {1,2,8}. WALL-domain metrics (task durations) depend on the
//     host and are exported in a separate, gate-exempt section.
//
//  2. Zero perturbation. Instrumentation must never touch a DRBG, reorder
//     a simulator event, or change a wire byte — report fingerprints are
//     byte-identical with obs compiled in or out (-DPVR_OBS=OFF), which CI
//     enforces via the golden-fingerprint test both build flavors run.
//
// Thread safety: counters and histogram buckets are sharded over
// cache-line-padded relaxed atomics (engine workers bump them from the
// pool), so hot-path cost is one relaxed add with no sharing. Sums are
// exact on read after the pool quiesces (drain() is the natural read
// point); reads DURING concurrent writes are racy-accurate like any
// statistical counter.
//
// Hot call sites use the PVR_OBS_* macros below, which compile to nothing
// under -DPVR_OBS=OFF. The data structures themselves stay available in
// both build flavors (the scenario runner aggregates settle latencies
// through a local Histogram, and tests exercise them directly); only the
// global-registry instrumentation hooks vanish.
//
// Naming scheme (DESIGN.md §11): `<layer>.<what>[_<unit>]`, layers
// crypto | engine | sim | node | scenario. Units suffix the name only for
// non-count metrics (`_us`, `_bytes`).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#ifndef PVR_OBS_ENABLED
#define PVR_OBS_ENABLED 1
#endif

namespace pvr::obs {

// True when instrumentation call sites are compiled in (-DPVR_OBS=ON, the
// default). The classes below work either way; this only gates the hooks.
inline constexpr bool kCompiledIn = PVR_OBS_ENABLED != 0;

namespace detail {
// One cache line per shard so concurrent workers never false-share.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
};

inline constexpr std::size_t kCells = 8;

// Stable small index for the calling thread, spreading threads over the
// cells. Thread-local so the hot path is an array index, not a hash.
[[nodiscard]] std::size_t cell_index() noexcept;
}  // namespace detail

// Monotonic event counter. add() is one relaxed atomic add on a
// thread-sharded cell; value() sums the cells.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    cells_[detail::cell_index()].value.fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const detail::Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() noexcept {
    for (detail::Cell& cell : cells_) {
      cell.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<detail::Cell, detail::kCells> cells_;
};

// Deterministic view of one histogram: the state two runs must agree on.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  // counts[i] covers [2^(i-1), 2^i) for i >= 1; counts[0] is value 0.
  std::vector<std::uint64_t> counts;

  [[nodiscard]] bool operator==(const HistogramSnapshot&) const = default;
};

// Fixed-log-bucket histogram over uint64 values. Bucket b holds values in
// [2^(b-1), 2^b) (bucket 0 holds exactly 0), so the layout needs no
// configuration and two histograms fed the same multiset of values — in
// ANY order, from ANY number of threads — reach identical bucket counts
// and sum. Quantiles report the upper edge of the covering bucket, i.e.
// an at-most-2x overestimate; good enough to gate p99 regressions, and
// deterministic, which an exact-but-sampled sketch would not be.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // 0 plus one per bit

  void record(std::uint64_t value) noexcept {
    buckets_[bucket_of(value)].value.fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  // Upper edge of the bucket containing the q-quantile (q in [0,1]) of the
  // recorded values; 0 when empty. quantile(0.5) -> p50, (0.99) -> p99.
  [[nodiscard]] std::uint64_t quantile(double q) const;

  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset() noexcept;

  // Index of the bucket holding `value` (exposed for tests asserting the
  // layout): 0 for 0, else 1 + floor(log2(value)).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept {
    return value == 0
               ? 0
               : 64 - static_cast<std::size_t>(__builtin_clzll(value));
  }

 private:
  std::array<detail::Cell, kBuckets> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

// Quantile over a captured snapshot — same semantics (bucket upper edge)
// as Histogram::quantile, usable after the live histogram moved on.
[[nodiscard]] std::uint64_t snapshot_quantile(const HistogramSnapshot& hist,
                                              double q) noexcept;
// (snapshot_quantile never allocates; Histogram::quantile snapshots first.)

namespace detail {
[[nodiscard]] std::uint64_t steady_now_us() noexcept;
}  // namespace detail

// Steady-clock µs for WALL-domain timings (arbitrary epoch — subtract two
// readings). Constant 0 under -DPVR_OBS=OFF so timing code folds away with
// the PVR_OBS_RECORD that consumes it.
[[nodiscard]] inline std::uint64_t wall_clock_us() noexcept {
  if constexpr (!kCompiledIn) return 0;
  return detail::steady_now_us();
}

// Which export section a metric belongs to (DESIGN.md §11, §14): kSim
// metrics are deterministic functions of the spec and join
// sim_fingerprint(); kWall metrics are host timings and are exported but
// never gated on determinism. kSched metrics are deterministic for a FIXED
// execution schedule but depend on how the run was partitioned (drain
// cadence, process count) — e.g. engine.drains is 1 for a single offline
// drain but N when N child processes each drain their shard — so they are
// exported unprefixed like kSim yet excluded from the fingerprint that the
// distributed-aggregation parity gate compares.
enum class Domain : std::uint8_t { kSim, kWall, kSched };

// The well-known hot-path metrics, addressable as direct members so the
// crypto and engine hot paths never pay a name lookup. All are kSim unless
// the comment says wall. Registered (with their canonical names) in every
// MetricsRegistry.
struct HotMetrics {
  // Crypto profile (ROADMAP item 3's "profile first").
  Counter crypto_rsa_verifies;    // RSA verify exponentiations performed
  Counter crypto_rsa_signs;       // RSA signatures produced
  Counter crypto_sig_cache_hits;  // verified-root dedup hits (RSA skipped)
  Counter crypto_world_cache_hits;  // world verdict-cache hits (RSA skipped)
  Counter crypto_mulmod_calls;    // Bignum::mulmod invocations
  Counter crypto_mont_powmods;    // Montgomery-ladder exponentiations
  Counter crypto_bytes_hashed;    // bytes fed through SHA-256 update()
  Histogram crypto_rsa_verify_us;  // WALL: per-verify exponentiation time
  Histogram crypto_mulmod_us;      // WALL: per-mulmod time (item 3 profile)
  // Engine.
  Counter engine_tasks;           // engine check tasks executed
  Counter engine_drains;          // batches sealed (begin_drain / drain)
  Histogram engine_task_us;       // WALL: per-task execution time
  Histogram engine_overlap_us;    // WALL: per-batch verification overlapped
                                  // with the submitting thread being away
  // Simulator.
  Counter sim_events;             // events dispatched by run_until
  Counter sim_messages;           // Simulator::send calls
  Counter sim_ticks;              // periodic tick firings
  // Node / round lifecycle.
  Counter node_windows_closed;    // prover collection windows fired
  Counter node_rounds_gced;       // rounds released by gc_finalized
  Counter node_root_epochs_gced;  // root-dedup epochs retired by gc_epoch_roots
  // Scenario pipeline.
  Histogram scenario_settle_us;   // sim-time window-close -> settled
  Histogram scenario_drain_rounds;  // rounds submitted per drain batch
};

struct MetricsSnapshot {
  struct Entry {
    std::string name;
    Domain domain = Domain::kSim;
    std::uint64_t value = 0;
  };
  struct HistEntry {
    std::string name;
    Domain domain = Domain::kSim;
    HistogramSnapshot hist;
  };
  std::vector<Entry> scalars;      // sorted by name
  std::vector<HistEntry> histograms;  // sorted by name

  // Canonical string over the kSim section only: the byte-identity the
  // worker-count determinism tests compare.
  [[nodiscard]] std::string sim_fingerprint() const;
  // One flat JSON object body (no braces): "k":v pairs for every scalar,
  // plus count/sum/p50/p99 per histogram. Wall metrics get a "wall_"
  // prefix so consumers can split the sections mechanically.
  [[nodiscard]] std::string to_json_fields() const;

  // Cross-process export (src/obs/export.cpp, DESIGN.md §14). The wire
  // format is versioned; decode() rejects an unknown version with
  // std::invalid_argument rather than misparse.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static MetricsSnapshot decode(const std::uint8_t* data,
                                              std::size_t size);
  [[nodiscard]] static MetricsSnapshot decode(
      const std::vector<std::uint8_t>& bytes) {
    return decode(bytes.data(), bytes.size());
  }

  // Commutative, associative shard union: entries with the same name add
  // (scalars by value, histograms bucketwise); entries unique to either
  // side carry over. A name carrying different domains on the two sides is
  // a schema bug and throws std::invalid_argument.
  void merge(const MetricsSnapshot& other);

  // Counter-style difference `later - earlier` (missing-in-earlier reads
  // as 0; subtraction saturates at 0): the per-run delta that isolates a
  // child's grant-loop work from process-lifetime noise like keygen.
  [[nodiscard]] static MetricsSnapshot delta(const MetricsSnapshot& later,
                                             const MetricsSnapshot& earlier);
};

// Registry: the fixed HotMetrics, every one a direct member so hot paths
// never pay a name lookup. reset() zeroes values but never invalidates
// references.
class MetricsRegistry {
 public:
  HotMetrics hot;

  [[nodiscard]] MetricsSnapshot snapshot() const;
  void reset();

  // The process-wide registry every PVR_OBS_* macro records into.
  [[nodiscard]] static MetricsRegistry& global();
};

}  // namespace pvr::obs

// Hot-path hooks. `member` is a HotMetrics field name. Under
// -DPVR_OBS=OFF these expand to nothing: no atomic, no global access, no
// clock read.
#if PVR_OBS_ENABLED
#define PVR_OBS_COUNT(member, delta) \
  (::pvr::obs::MetricsRegistry::global().hot.member.add(delta))
#define PVR_OBS_RECORD(member, value) \
  (::pvr::obs::MetricsRegistry::global().hot.member.record(value))
#else
#define PVR_OBS_COUNT(member, delta) ((void)0)
#define PVR_OBS_RECORD(member, value) ((void)0)
#endif
