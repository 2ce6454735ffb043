#include "net/simulator.h"

#include <algorithm>
#include <stdexcept>

#include "net/message_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pvr::net {

namespace {

[[nodiscard]] std::pair<NodeId, NodeId> link_key(NodeId a, NodeId b) noexcept {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace

Simulator::Simulator(std::uint64_t seed) : rng_(seed, "pvr-net-simulator") {}

void Simulator::add_node(NodeId id, std::unique_ptr<Node> node) {
  if (!node) throw std::invalid_argument("Simulator::add_node: null node");
  const auto [it, inserted] = nodes_.emplace(id, std::move(node));
  (void)it;
  if (!inserted) {
    throw std::invalid_argument("Simulator::add_node: duplicate node id");
  }
}

Node& Simulator::node(NodeId id) {
  const auto it = nodes_.find(id);
  if (it == nodes_.end()) throw std::out_of_range("Simulator::node: unknown id");
  return *it->second;
}

bool Simulator::has_node(NodeId id) const noexcept { return nodes_.contains(id); }

std::vector<NodeId> Simulator::node_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) out.push_back(id);
  return out;
}

void Simulator::connect(NodeId a, NodeId b, LinkConfig config) {
  if (a == b) throw std::invalid_argument("Simulator::connect: self link");
  links_[link_key(a, b)] = config;
}

void Simulator::disconnect(NodeId a, NodeId b) { links_.erase(link_key(a, b)); }

bool Simulator::connected(NodeId a, NodeId b) const noexcept {
  return links_.contains(link_key(a, b));
}

std::vector<NodeId> Simulator::neighbors_of(NodeId id) const {
  std::vector<NodeId> out;
  for (const auto& [key, config] : links_) {
    if (key.first == id) out.push_back(key.second);
    if (key.second == id) out.push_back(key.first);
  }
  return out;
}

const LinkConfig* Simulator::link_between(NodeId a, NodeId b) const noexcept {
  const auto it = links_.find(link_key(a, b));
  return it == links_.end() ? nullptr : &it->second;
}

void Simulator::send(Message message) {
  const LinkConfig* link = link_between(message.from, message.to);
  if (link == nullptr) {
    throw std::logic_error("Simulator::send: no link between nodes");
  }
  // std::map nodes are stable, so the delivery holds its channel's stats.
  ChannelStats* channel_stats = &stats_.per_channel[message.channel];
  const std::size_t wire_size = message.wire_size();
  PVR_OBS_COUNT(sim_messages, 1);
  stats_.messages_sent += 1;
  stats_.bytes_sent += wire_size;
  channel_stats->messages_sent += 1;
  channel_stats->bytes_sent += wire_size;
  InterceptDecision intercept;
  if (interceptor_) intercept = interceptor_(transport_, message);
  if (intercept.drop) {
    stats_.messages_dropped += 1;
    channel_stats->messages_dropped += 1;
    return;
  }
  if (link->drop_probability > 0.0 && rng_.coin(link->drop_probability)) {
    stats_.messages_dropped += 1;
    channel_stats->messages_dropped += 1;
    return;
  }
  const NodeId to = message.to;
  schedule(now_ + link->latency + intercept.extra_delay,
           [this, channel_stats, to, msg = std::move(message)]() mutable {
             const auto it = nodes_.find(to);
             if (it == nodes_.end()) return;  // node removed mid-flight
             stats_.messages_delivered += 1;
             channel_stats->messages_delivered += 1;
             if (trace_ != nullptr) trace_->record_delivery(now_, msg);
             it->second->on_message(transport_, msg);
           });
}

void Simulator::set_interceptor(Interceptor interceptor) {
  interceptor_ = std::move(interceptor);
}

void Simulator::schedule(SimTime at, std::function<void()> fn) {
  if (at < now_) throw std::invalid_argument("Simulator::schedule: time in the past");
  queue_.push_back(
      Event{.at = at, .sequence = next_sequence_++, .action = std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), EventOrder{});
}

void Simulator::schedule_after(SimTime delay, std::function<void()> fn) {
  schedule(now_ + delay, std::move(fn));
}

void Simulator::schedule_periodic(SimTime interval, std::function<void()> fn) {
  if (interval == 0) {
    throw std::invalid_argument("Simulator::schedule_periodic: zero interval");
  }
  periodic_.push_back(PeriodicTask{.interval = interval, .fn = std::move(fn)});
  arm_periodic(periodic_.size() - 1, now_ + interval);
}

void Simulator::arm_periodic(std::size_t index, SimTime at) {
  armed_periodic_ += 1;
  schedule(at, [this, index] {
    armed_periodic_ -= 1;
    PVR_OBS_COUNT(sim_ticks, 1);
    if (obs::TraceWriter::global().active()) {
      obs::TraceWriter::global().sim_instant("sim.tick", index,
                                             static_cast<std::uint64_t>(now_));
    }
    periodic_[index].fn();
    // Re-arm only while real work remains. Counting armed periodic ticks out
    // of the queue keeps two periodic tasks from ticking forever on each
    // other's events once every message has been delivered.
    if (queue_.size() > armed_periodic_) {
      arm_periodic(index, now_ + periodic_[index].interval);
    }
  });
}

void Simulator::start_pending_nodes() {
  if (started_) return;
  started_ = true;
  for (auto& [id, node] : nodes_) node->on_start(transport_);
}

void Simulator::run() { run_until(~SimTime{0}); }

void Simulator::run_until(SimTime until) {
  start_pending_nodes();
  while (!queue_.empty() && queue_.front().at <= until) {
    // The event is moved out of the heap before its action runs (handlers
    // may schedule new events). (at, sequence) is a strict total order, so
    // the dispatch order does not depend on the heap's shape.
    std::pop_heap(queue_.begin(), queue_.end(), EventOrder{});
    Event event = std::move(queue_.back());
    queue_.pop_back();
    now_ = event.at;
    PVR_OBS_COUNT(sim_events, 1);
    event.action();
  }
  if (queue_.empty() && until != ~SimTime{0}) now_ = until;
}

}  // namespace pvr::net
