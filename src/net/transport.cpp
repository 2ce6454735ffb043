#include "net/transport.h"

#include "net/simulator.h"

namespace pvr::net {

void SimTransport::send(Message message) { sim_->send(std::move(message)); }

bool SimTransport::connected(NodeId a, NodeId b) const {
  return sim_->connected(a, b);
}

SimTime SimTransport::now() const { return sim_->now(); }

void SimTransport::schedule(SimTime at, std::function<void()> fn) {
  sim_->schedule(at, std::move(fn));
}

}  // namespace pvr::net
