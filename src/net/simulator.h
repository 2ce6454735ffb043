// Deterministic discrete-event network simulator.
//
// This is the substrate on which the BGP speakers and the PVR protocol run
// (DESIGN.md §2.2). Nodes exchange messages over point-to-point links with
// configurable latency and drop probability; all randomness is drawn from a
// seeded DRBG, so a (seed, topology, workload) triple always replays the
// exact same execution.
//
// The message-plane surface (Message, Node, Interceptor, stats) lives in
// net/transport.h; the simulator is one BACKEND of that interface, exposed
// through the `SimTransport` returned by transport(). World construction —
// add_node, connect, the interceptor, periodic ticks, run — remains
// concrete simulator API.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "crypto/drbg.h"
#include "net/transport.h"

namespace pvr::net {

class MessageTrace;  // net/message_trace.h

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed);

  // The canonical Transport view of this simulator — what delivery
  // callbacks receive and what Transport-typed APIs should be handed
  // (`node.provide_input(sim.transport(), ...)`).
  [[nodiscard]] SimTransport& transport() noexcept { return transport_; }

  // Registers a node. Throws std::invalid_argument on duplicate id.
  void add_node(NodeId id, std::unique_ptr<Node> node);
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] bool has_node(NodeId id) const noexcept;
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  // Creates a bidirectional link. Replaces the config if already linked.
  void connect(NodeId a, NodeId b, LinkConfig config = {});
  void disconnect(NodeId a, NodeId b);
  [[nodiscard]] bool connected(NodeId a, NodeId b) const noexcept;
  [[nodiscard]] std::vector<NodeId> neighbors_of(NodeId id) const;

  // Sends over an existing link; throws std::logic_error if none exists.
  // Delivery happens at now + latency unless the link drops the message.
  // The active interceptor (set_interceptor) runs first: its
  // drop/extra_delay verdict is applied BEFORE the link's random drop draw,
  // so adversarial interference never perturbs the link-loss RNG stream.
  void send(Message message);

  // Installs (or clears, with nullptr) the wire interceptor. At most one is
  // active; scenario adversaries compose their behaviors inside one hook,
  // installed on the simulator that carries the deployment's messages (the
  // runner's, or the multiprocess conductor's). The hook receives the
  // canonical SimTransport, never the Simulator itself.
  void set_interceptor(Interceptor interceptor);

  // Attaches a delivery trace recorder: every delivered message is
  // appended in delivery order. The pointer is borrowed and must outlive
  // the attachment; nullptr detaches.
  void set_trace(MessageTrace* trace) noexcept { trace_ = trace; }

  // Runs `fn` at absolute simulated time `at` (>= now).
  void schedule(SimTime at, std::function<void()> fn);
  void schedule_after(SimTime delay, std::function<void()> fn);

  // Runs `fn` every `interval` µs of simulated time, first at now + interval.
  // The tick re-arms itself only while OTHER events remain queued (periodic
  // ticks don't count each other as work), so an armed periodic task never
  // keeps run() from terminating: the tick after the last real event is the
  // final one. Callbacks run interleaved with message delivery in the
  // deterministic event order and may submit external work (e.g. an engine
  // drain), but anything they schedule back into the simulator counts as
  // real work and extends the ticking. Throws std::invalid_argument on a
  // zero interval.
  void schedule_periodic(SimTime interval, std::function<void()> fn);

  // Dispatches events until the queue is empty or `until` is reached.
  void run();
  void run_until(SimTime until);

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] const SimStats& stats() const noexcept { return stats_; }
  [[nodiscard]] crypto::Drbg& rng() noexcept { return rng_; }

 private:
  struct Event {
    SimTime at;
    std::uint64_t sequence;  // FIFO tiebreak for same-time events
    std::function<void()> action;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.at != b.at) return a.at > b.at;
      return a.sequence > b.sequence;
    }
  };

  struct PeriodicTask {
    SimTime interval;
    std::function<void()> fn;
  };

  void start_pending_nodes();
  void arm_periodic(std::size_t index, SimTime at);
  [[nodiscard]] const LinkConfig* link_between(NodeId a, NodeId b) const noexcept;

  crypto::Drbg rng_;
  SimTransport transport_{*this};
  Interceptor interceptor_;
  MessageTrace* trace_ = nullptr;  // not owned
  SimTime now_ = 0;
  std::uint64_t next_sequence_ = 0;
  bool started_ = false;
  std::map<NodeId, std::unique_ptr<Node>> nodes_;
  std::map<std::pair<NodeId, NodeId>, LinkConfig> links_;  // key: minmax order
  std::vector<Event> queue_;  // binary heap under EventOrder
  // deque: a periodic callback may itself call schedule_periodic, and the
  // push_back must not relocate the PeriodicTask whose fn is mid-execution.
  std::deque<PeriodicTask> periodic_;
  std::size_t armed_periodic_ = 0;  // periodic tick events now in queue_
  SimStats stats_;
};

}  // namespace pvr::net
