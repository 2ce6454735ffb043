#include "net/transport.h"

#include "net/simulator.h"

namespace pvr::net {

void Transport::schedule_after(SimTime delay, std::function<void()> fn) {
  schedule(now() + delay, std::move(fn));
}

void SimTransport::send(Message message) { sim_->send(std::move(message)); }

bool SimTransport::connected(NodeId a, NodeId b) const {
  return sim_->connected(a, b);
}

std::vector<NodeId> SimTransport::neighbors_of(NodeId id) const {
  return sim_->neighbors_of(id);
}

void SimTransport::set_interceptor(Interceptor interceptor) {
  sim_->set_interceptor(std::move(interceptor));
}

SimTime SimTransport::now() const { return sim_->now(); }

void SimTransport::schedule(SimTime at, std::function<void()> fn) {
  sim_->schedule(at, std::move(fn));
}

void SimTransport::schedule_periodic(SimTime interval, std::function<void()> fn) {
  sim_->schedule_periodic(interval, std::move(fn));
}

}  // namespace pvr::net
