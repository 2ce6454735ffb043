// The deterministic world plan shared by every scenario entry point, and
// the World built from it.
//
// run_scenario (runner.cpp), the trace replayer (replay.h), and the
// multiprocess conductor/participants (multiprocess.h) must all construct
// the SAME world from a ScenarioSpec: same topology, same neighborhoods,
// same keys, same link latencies, same jittered arrival schedule — or the
// fingerprint parity the transport work is gated on would be vacuous.
// plan_world() is that single derivation: a pure function of the spec
// (every DRBG stream it consumes is seeded from spec.seed with a fixed
// personalization string), producing a value two processes can re-derive
// independently and agree on byte for byte. World then builds the nodes,
// the engine and the verification schedule from the plan, once for all
// three entry points.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/pvr_speaker.h"
#include "core/verify_context.h"
#include "engine/verification_engine.h"
#include "net/message_trace.h"
#include "net/simulator.h"
#include "obs/metrics.h"
#include "scenario/runner.h"

namespace pvr::scenario {

// The runner's link latencies are drawn from [kMinScenarioLatency,
// kMaxScenarioLatency); collect_window must exceed the ceiling so a
// provider input sent at the prover's start instant still lands inside the
// collection window.
inline constexpr net::SimTime kMinScenarioLatency = 500;
inline constexpr net::SimTime kMaxScenarioLatency = 1500;

struct PlannedLink {
  bgp::AsNumber a = 0;
  bgp::AsNumber b = 0;
  net::LinkConfig config;
};

// One harness-driven protocol action: a provider's provide_input or the
// prover's start_round, with every jitter/length draw already materialized
// so two processes schedule identical closures at identical times. The
// vector order IS the runner's historical scheduling order (per arrival:
// each provider's input, then the prover start), which pins the simulator
// event-sequence tiebreak for same-time events.
struct AppEvent {
  net::SimTime at = 0;
  bool is_input = false;           // true: provide_input, false: start_round
  std::size_t hood = 0;
  std::size_t provider_index = 0;  // inputs: index into hoods[hood].providers
  bgp::AsNumber actor = 0;         // the provider or prover ASN
  std::uint64_t epoch = 1;
  bgp::Ipv4Prefix prefix;
  std::size_t route_length = 0;    // inputs only
};

struct WorldPlan {
  GeneratedTopology topology;
  std::vector<Neighborhood> hoods;
  std::unique_ptr<AdversaryStrategy> adversary;
  core::ProverMisbehavior misbehavior;  // applied to attacked provers
  std::vector<bool> attacked;           // per hood
  std::set<bgp::AsNumber> attacked_provers;
  std::set<bgp::AsNumber> colluders;
  std::vector<bgp::AsNumber> participants;  // sorted, every hood member
  core::AsKeyPairs keys;
  std::vector<PlannedLink> links;
  std::vector<RoundArrival> arrivals;
  std::vector<AppEvent> app_events;
};

// Derives the full plan. Throws like run_scenario: std::invalid_argument
// on unworkable timing, std::runtime_error when the topology yields no
// qualifying neighborhood.
[[nodiscard]] WorldPlan plan_world(const ScenarioSpec& spec);

// Builds the simulated wire every simulator-driven run shares: one
// `endpoint(asn)` per participant, the planned links, the adversary's
// interceptor, and one event per planned app event, in canonical order, that
// calls `on_event` with its element of plan.app_events. run_scenario wires
// World-owned nodes; the multiprocess conductor wires proxies that grant
// each delivery to the owning node process. Both get the same latency
// draws, interception and sequence tiebreaks. `plan` must outlive `sim`'s
// run; `on_event` is copied into each scheduled event.
void wire_simulator(
    const WorldPlan& plan, std::uint64_t seed, net::Simulator& sim,
    const std::function<std::unique_ptr<net::Node>(bgp::AsNumber)>& endpoint,
    const std::function<void(const AppEvent&)>& on_event);

// Evidence accessor: the log of hoods[hood].verifiers()[verifier_index],
// however the caller stores it (a live node, or evidence shipped back from
// a node process).
using EvidenceAccessor = std::function<const std::vector<core::Evidence>&(
    std::size_t hood, std::size_t verifier_index)>;

// The canonical report assembly, wherever the evidence logs, prover
// counters and wire stats were produced: identity and world-shape fields,
// prover counters and `coalesced`, the scoring pass (walks every verifier's
// evidence log in (hood, verifier) order: evidence_total / false_evidence /
// audit_failures / attacked_rounds / detected_rounds / detection_rate /
// evidence_digest), per-channel byte accounting and hw_threads. Identical
// logs in identical order produce identical fields, which is how a
// replayed or distributed run proves it reproduced the simulated one.
void assemble_report(const ScenarioSpec& spec, const WorldPlan& plan,
                     std::size_t workers, const EvidenceAccessor& evidence_of,
                     const std::vector<net::TraceProverMeta>& provers,
                     const net::SimStats& stats, ScenarioReport& report);

// One process's share of the planned world, and the one verification
// schedule every entry point shares (DESIGN.md §9). It owns the world-shared
// VerifyContext, the PvrNodes this process owns, their per-hood role
// index, one VerificationEngine and the drain accounting. run_scenario,
// replay_trace and the multiprocess node process each supply only a
// transport and an event source (simulator app events, trace deliveries,
// conductor grants) and pick one of two drain schedules:
//
//   online — arm_online(): each prover window close queues its rounds;
//            a periodic pipelined tick harvests the previous batch (apply,
//            GC, epoch retirement) and seals the next; finish() is the
//            tail barrier (DESIGN.md §10, §12).
//   tail   — finish() alone: plan.arrivals submitted for every local
//            verifier, then one drain.
//
// Both schedules apply findings in the same order, so the report
// fingerprint AND evidence_digest are identical between them.
class World {
 public:
  // Builds a node for every participant `owns` accepts (all of them when
  // `owns` is empty) and an engine with `workers` workers. `spec` and
  // `plan` must outlive the World.
  World(const ScenarioSpec& spec, const WorldPlan& plan, std::size_t workers,
        const std::function<bool(bgp::AsNumber)>& owns = {});
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // The local nodes, and hoods[hood].verifiers()[index] (nullptr when
  // another process owns it).
  [[nodiscard]] const std::map<bgp::AsNumber,
                               std::unique_ptr<core::PvrNode>>&
  nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] const core::PvrNode* verifier(std::size_t hood,
                                              std::size_t index) const {
    return hoods_.at(hood).verifiers.at(index);
  }

  // Event sources. apply() runs a planned app event on its actor, which
  // must be local; deliver() hands a message to its recipient if local.
  // record_input() is the state half of an input event's apply(): the
  // provider records its own input without signing or sending it (a trace
  // replay, where the prover's copy is already a recorded delivery).
  void apply(net::Transport& transport, const AppEvent& event) const;
  void record_input(const AppEvent& event) const;
  void deliver(net::Transport& transport, const net::Message& message) const;

  // Selects the online schedule, driven by `sim`'s clock and periodic tick
  // (`sim` must outlive the World). Throws std::invalid_argument on a zero
  // spec.drain_interval_us.
  void arm_online(net::Simulator& sim);
  // Runs the armed schedule's tail: the online barrier, or the whole
  // offline verification.
  void finish();

  // Sim-thread wall time spent verifying so far.
  [[nodiscard]] double verify_blocked_ms() const noexcept {
    return verify_blocked_ms_;
  }
  [[nodiscard]] std::uint64_t verify_failures() const noexcept {
    return verify_failures_;
  }
  // The local provers' round counters, in hood order.
  [[nodiscard]] std::vector<net::TraceProverMeta> prover_counters() const;

  // assemble_report over the verifiers (every node must be local), plus
  // the drain accounting (online, verify_failures, drain_batches, settle
  // quantiles and horizon, verify_ms, pipeline_overlap_ratio) and the
  // nodes' memory peaks. `provers` and `stats` come from the caller, since
  // a replay takes them from the recorded run.
  void fill_report(const net::SimStats& stats,
                   const std::vector<net::TraceProverMeta>& provers,
                   ScenarioReport& report) const;

 private:
  struct Hood {
    core::PvrNode* prover = nullptr;        // nullptr when not local
    std::vector<core::PvrNode*> verifiers;  // Neighborhood::verifiers() order
    std::vector<core::PvrNode*> members;    // the local prover + verifiers
  };
  struct SettledEntry {
    net::SimTime settled_at = 0;
    std::size_t hood = 0;
    core::ProtocolId id;
  };

  // The local node that runs `event`; throws std::logic_error if remote.
  [[nodiscard]] core::PvrNode& actor(const AppEvent& event) const;
  // Submits round `id` for every local verifier of hoods_[hood].
  void submit_round(std::size_t hood, const core::ProtocolId& id);
  void consume(const engine::EngineReport& drained);
  void harvest();
  void submit_settled(bool flush_all);

  const ScenarioSpec* spec_;
  const WorldPlan* plan_;
  std::size_t workers_;
  const core::VerifyContext ctx_;
  std::map<bgp::AsNumber, std::unique_ptr<core::PvrNode>> nodes_;
  std::vector<Hood> hoods_;
  engine::VerificationEngine engine_;

  std::uint64_t verify_failures_ = 0;
  std::uint64_t drain_batches_ = 0;
  double verify_blocked_ms_ = 0;  // sim-thread wall time spent verifying
  double overlapped_ms_ = 0;      // verify time that overlapped the simulation
  double batch_window_ms_ = 0;    // total async batch window across batches
  // Settle latencies aggregate here so the report carries them in both obs
  // build flavors.
  obs::Histogram settle_hist_;

  // Online schedule (sim_ != nullptr once armed). `pending_` is in
  // window-close order, which is settle order. The two-slot batch buffer
  // (DESIGN.md §12): `batch_` is gathered and sealed this tick; `inflight_`
  // is the previous batch, owned by the engine's workers until the next
  // tick harvests it.
  net::Simulator* sim_ = nullptr;
  net::SimTime settle_horizon_ = 0;
  std::deque<SettledEntry> pending_;
  std::vector<SettledEntry> batch_;
  std::vector<SettledEntry> inflight_;
  bool harvest_pending_at_end_ = false;
  // Rounds left to harvest per (hood, epoch); at zero the epoch's
  // seen-root dedup digests retire.
  std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t>
      epoch_rounds_left_;
};

}  // namespace pvr::scenario
