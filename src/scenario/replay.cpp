#include "scenario/replay.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/simulator.h"
#include "scenario/world.h"

namespace pvr::scenario {

namespace {

// The replay message plane: a clock and an event queue (borrowed from a
// node-less Simulator), with the send side sunk. Every message a replayed
// node emits was already recorded as a delivery in the trace, so re-sending
// would double-deliver; connected() == false and empty neighbors_of()
// additionally keep the root-gossip relays quiet (their local state
// transitions — root dedup, attachment — still happen exactly as in the
// recorded run, where the sends DID go out and were recorded).
class ReplayTransport final : public net::Transport {
 public:
  explicit ReplayTransport(net::Simulator& clock) noexcept : clock_(&clock) {}

  void send(net::Message message) override { (void)message; }
  [[nodiscard]] bool connected(net::NodeId a, net::NodeId b) const override {
    (void)a;
    (void)b;
    return false;
  }
  [[nodiscard]] std::vector<net::NodeId> neighbors_of(
      net::NodeId id) const override {
    (void)id;
    return {};
  }
  void set_interceptor(net::Interceptor interceptor) override {
    (void)interceptor;  // no wire to intercept — trace deliveries are final
  }
  [[nodiscard]] net::SimTime now() const override { return clock_->now(); }
  void schedule(net::SimTime at, std::function<void()> fn) override {
    clock_->schedule(at, std::move(fn));
  }
  void schedule_periodic(net::SimTime interval,
                         std::function<void()> fn) override {
    clock_->schedule_periodic(interval, std::move(fn));
  }

 private:
  net::Simulator* clock_;  // not owned
};

}  // namespace

ScenarioReport replay_trace(const ScenarioSpec& spec,
                            const net::MessageTrace& trace,
                            std::size_t workers) {
  if (!trace.scenario.empty() &&
      (trace.scenario != spec.name || trace.seed != spec.seed)) {
    throw std::invalid_argument(
        "replay_trace: trace identity does not match the spec");
  }
  const WorldPlan plan = plan_world(spec);
  World world(spec, plan, workers);

  // The Simulator serves purely as clock + ordered event queue here: no
  // nodes are registered with it and nothing sends through it, so its rng
  // and stats stay untouched. Events are scheduled in the canonical order
  // (app inputs first, then trace deliveries in recorded global order), so
  // its FIFO tiebreak reproduces the recorded same-time ordering.
  net::Simulator clock(spec.seed);
  ReplayTransport transport(clock);

  // Provider own-input state: verify-as-provider compares the revealed
  // input against what the provider itself supplied, so the plan's input
  // events re-run as World::record_input, which records the input and
  // neither signs nor sends it (the prover learns the input from the trace
  // delivery, exactly like the recorded run). start_round events
  // deliberately do NOT re-run: the prover's window machinery would
  // schedule dynamic events that cannot reproduce the recorded sequence
  // interleaving, and every message it produced is in the trace already.
  for (const AppEvent& event : plan.app_events) {
    if (!event.is_input) continue;
    clock.schedule(event.at, [&world, &event] { world.record_input(event); });
  }

  // Deliveries in recorded global order. The trace is borrowed, not copied:
  // each event refers to its entry, and the entries are ordered through a
  // vector of pointers.
  std::vector<const net::TraceEntry*> entries;
  entries.reserve(trace.entries.size());
  for (const net::TraceEntry& entry : trace.entries) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const net::TraceEntry* a, const net::TraceEntry* b) {
              return a->sequence < b->sequence;
            });
  net::SimTime last_at = 0;
  for (const net::TraceEntry* entry : entries) {
    if (entry->at < last_at) {
      throw std::invalid_argument("replay_trace: trace timestamps regress");
    }
    last_at = entry->at;
    clock.schedule(entry->at, [&world, &transport, entry] {
      world.deliver(transport, entry->message);
    });
  }

  clock.run();
  world.finish();

  // Prover counters and wire accounting come from the recorded run — the
  // replay neither runs prover windows nor re-sends bytes.
  ScenarioReport report;
  world.fill_report(trace.stats, trace.provers, report);
  return report;
}

}  // namespace pvr::scenario
