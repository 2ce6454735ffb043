// The message-plane abstraction every protocol endpoint programs against.
//
// PvrNode, the BGP speakers and the scenario adversaries' hooks run their
// handlers against `net::Transport`: four calls (send, connected, now,
// schedule) that every deployment of a world backs (DESIGN.md §13):
//
//   * `net::SimTransport` — a thin adapter over a `Simulator`. Zero behavior
//     change: `Simulator::transport()` returns the canonical instance and
//     every delivery callback receives it (the simulated run).
//   * `ReplayTransport` (scenario/replay.cpp) — a clock with the send side
//     sunk, re-verifying a recorded `net::MessageTrace` offline.
//   * `LockstepTransport` (scenario/multiprocess.cpp) — a node process's
//     plane in the multiprocess deployment, executing conductor grants.
//
// World construction and its instruments — node registration, link
// wiring, the wire interceptor, periodic ticks and byte accounting — are
// not part of the interface. They are `net::Simulator` API, applied by the
// simulator that carries a deployment's messages (the runner's, the
// multiprocess conductor's); a replay reads the recorded stats from its
// trace.
//
// What callers may assume of the plane that carries messages (the
// simulator's; the lockstep backend mirrors each send into the conductor's
// simulator, and tests/net/transport_conformance_test.cpp holds it to this):
//
//   * Per peer-pair FIFO: two messages sent A→B on the same transport are
//     delivered in send order (absent interceptor delays and drops).
//   * send() to a pair without a link throws std::logic_error.
//   * The interceptor runs once per send, before any loss, and its drop
//     decision is counted in the simulator's stats().messages_dropped.
//   * now() is monotone and handlers observe the time their event fired.
//
// What callers may NOT assume: cross-pair ordering. Determinism comes from
// the one Simulator event queue each deployment runs (the replay clock and
// the multiprocess conductor are Simulators too), not from the interface.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pvr::net {

using NodeId = std::uint32_t;
using SimTime = std::uint64_t;  // microseconds

// Payloads larger than one chunk (aggregated commitment bundles routinely
// exceed 64 KiB) are carried in multiple chunks, each with its own header.
inline constexpr std::size_t kWireChunkPayload = 64 * 1024;
inline constexpr std::size_t kWireChunkHeader = 6;  // 4B offset + 2B length

struct Message {
  NodeId from = 0;
  NodeId to = 0;
  std::string channel;  // protocol multiplexing key, e.g. "bgp.update"
  std::vector<std::uint8_t> payload;
  // In-memory trace-flow id: a multiprocess node process tags each send
  // with it, so the Chrome trace's cross-process flow arrow joins the send,
  // the conductor's relay and the delivery (DESIGN.md §14). Never part of
  // the message encoding or wire_size(); 0 everywhere else.
  std::uint64_t cookie = 0;

  [[nodiscard]] std::size_t wire_size() const noexcept {
    // 8B addressing + 2B channel length + channel + 4B payload length
    // (a 2B field could not frame an aggregated bundle) + payload, plus one
    // chunk header per 64 KiB chunk beyond the first.
    const std::size_t base = 8 + 2 + channel.size() + 4 + payload.size();
    const std::size_t extra_chunks =
        payload.empty() ? 0 : (payload.size() - 1) / kWireChunkPayload;
    return base + extra_chunks * kWireChunkHeader;
  }
};

class Transport;

// Verdict of a wire interceptor for one message (scenario adversaries:
// selective droppers, delayers). Replay is built on top of this — the hook
// may capture the message and call Transport::send again later.
struct InterceptDecision {
  bool drop = false;        // swallow the message (counted as dropped)
  SimTime extra_delay = 0;  // added on top of the link latency
};

// Installed on the net::Simulator that carries a deployment's messages.
// Runs inside its send for every message on an existing link,
// BEFORE any backend loss (the simulator's random drop draw), so
// adversarial interference is deterministic and independent of link loss.
// The hook may itself call send()/schedule() on the transport (e.g. to
// replay a captured message); such re-sends pass through the interceptor
// again, so replay loops must be bounded by the hook's own state.
using Interceptor = std::function<InterceptDecision(Transport&, const Message&)>;

// Base class for protocol endpoints. Handlers run inside the backend's
// event loop (Simulator::run, or a conductor grant in a node process).
class Node {
 public:
  virtual ~Node() = default;
  // Called once before the first event is dispatched.
  virtual void on_start(Transport& transport) { (void)transport; }
  virtual void on_message(Transport& transport, const Message& message) = 0;
};

struct LinkConfig {
  SimTime latency = 1000;  // one-way, microseconds
  double drop_probability = 0.0;
};

// Wire accounting, kept by net::Simulator (Simulator::stats()) and carried
// in a recorded MessageTrace: bytes are Message::wire_size() regardless of
// physical overhead, so byte totals are fingerprint-identical across the
// simulated, replayed and multiprocess runs of a world.
struct ChannelStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
};

struct SimStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  // Per-channel breakdown so experiments can attribute bytes to BGP vs.
  // PVR vs. gossip traffic (keys are Message::channel values).
  std::map<std::string, ChannelStats> per_channel;

  // Sums the stats of every channel whose name starts with `prefix`
  // (e.g. "pvr." covers input/bundle/reveal/export/gossip).
  [[nodiscard]] ChannelStats channel_group(std::string_view prefix) const {
    ChannelStats total;
    for (const auto& [channel, stats] : per_channel) {
      if (channel.rfind(prefix, 0) != 0) continue;
      total.messages_sent += stats.messages_sent;
      total.messages_delivered += stats.messages_delivered;
      total.messages_dropped += stats.messages_dropped;
      total.bytes_sent += stats.bytes_sent;
    }
    return total;
  }
};

// The abstract message plane. One instance serves every node the backend
// hosts; Message::from/to address endpoints. World construction (node
// registration, link wiring) stays backend-specific — this interface is
// the surface PROTOCOL code runs on once the world exists.
class Transport {
 public:
  virtual ~Transport() = default;

  // Sends over an existing link; throws std::logic_error if none exists.
  virtual void send(Message message) = 0;

  // Link query (the gossip relays consult connected() before each hop).
  [[nodiscard]] virtual bool connected(NodeId a, NodeId b) const = 0;

  // The clock: simulated µs (a node process sees the granted event time).
  [[nodiscard]] virtual SimTime now() const = 0;

  // Runs `fn` at absolute transport time `at` (>= now()).
  virtual void schedule(SimTime at, std::function<void()> fn) = 0;
};

class Simulator;  // net/simulator.h

// The simulator-backed Transport. A pure forwarder: every call lands on
// the identical Simulator method the pre-Transport code called directly,
// so behavior (event order, stats, rng consumption) is bit-for-bit
// unchanged. `Simulator::transport()` owns the canonical instance.
class SimTransport final : public Transport {
 public:
  explicit SimTransport(Simulator& sim) noexcept : sim_(&sim) {}

  void send(Message message) override;
  [[nodiscard]] bool connected(NodeId a, NodeId b) const override;
  [[nodiscard]] SimTime now() const override;
  void schedule(SimTime at, std::function<void()> fn) override;

 private:
  Simulator* sim_;  // not owned
};

}  // namespace pvr::net
