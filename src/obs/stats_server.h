// Live introspection for distributed deployments (DESIGN.md §14).
//
// A StatsServer is a passive sampler a transport host installs: when a
// one-frame `kFrameStats` request arrives (the conductor's per-grant poll
// in the lockstep deployment), the host calls sample() and ships the
// encoded StatsSample back. The sample is a
// point-in-time view — the process's metrics delta since the server was
// armed, its transport byte accounting, and the protocol gauges (open
// rounds / peak) — so a conductor polling every grant cycle accumulates a
// per-process time series without the children ever pushing.
//
// Nothing here touches a hot path: sampling happens only on request, on
// the single transport/event-loop thread of the sampled process.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"

namespace pvr::net {
struct SimStats;
}  // namespace pvr::net

namespace pvr::obs {

// One polled observation of one process.
struct StatsSample {
  std::uint32_t rank = 0;      // process rank (conductor-assigned index)
  std::uint64_t at_us = 0;     // sampled-at transport time
  std::int64_t open_rounds = 0;
  std::int64_t peak_open_rounds = 0;
  // Transport byte accounting at sample time (SimStats totals).
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  // Metrics since the server armed (delta, so process startup noise like
  // keygen never pollutes the time series).
  MetricsSnapshot metrics;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  [[nodiscard]] static StatsSample decode(const std::uint8_t* data,
                                          std::size_t size);
  [[nodiscard]] static StatsSample decode(
      const std::vector<std::uint8_t>& bytes) {
    return decode(bytes.data(), bytes.size());
  }
};

// The sampler. Gauges (open rounds, peak) are host-protocol state the
// server cannot see, so the host provides them through a callback.
class StatsServer {
 public:
  struct Gauges {
    std::int64_t open_rounds = 0;
    std::int64_t peak_open_rounds = 0;
  };
  using GaugeFn = std::function<Gauges()>;

  // `rank` stamps every sample; arm() captures the metrics baseline that
  // sample() deltas against.
  explicit StatsServer(std::uint32_t rank) : rank_(rank) {}

  void arm() { baseline_ = MetricsRegistry::global().snapshot(); }
  void set_gauges(GaugeFn fn) { gauges_ = std::move(fn); }

  // Builds one sample at transport time `at_us` with `stats` as the
  // transport accounting section.
  [[nodiscard]] StatsSample sample(std::uint64_t at_us,
                                   const net::SimStats& stats) const;

 private:
  std::uint32_t rank_;
  MetricsSnapshot baseline_;
  GaugeFn gauges_;
};

}  // namespace pvr::obs
