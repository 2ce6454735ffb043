// Deterministic re-verification of a recorded delivery trace.
//
// replay_trace() re-derives the world plan from the spec, rebuilds every
// PvrNode, and re-delivers the trace's messages — at their recorded times,
// in their recorded global order — through a replay Transport whose send()
// is a sink (every message a node would emit is already in the trace as a
// delivery). Verifier-side protocol state is a pure function of delivery
// order, so the replayed evidence logs are byte-identical to the recorded
// run's; verifying them through the engine at ANY worker count and scoring
// with the shared scenario::assemble_report pass reproduces the original
// ScenarioReport::fingerprint() exactly (DESIGN.md §13).
//
// Prover-side dynamic state (round windows, coalescing timers) is NOT
// replayed: the prover's outputs are already in the trace, and its
// rounds_started/windows_fired counters travel in MessageTrace::provers.
// Provider own-input state IS replayed, because verify-as-provider consults
// it: the plan's input events run World::record_input, which records each
// input and neither signs nor sends it, so a replay signs nothing.
#pragma once

#include <cstddef>

#include "net/message_trace.h"
#include "scenario/runner.h"

namespace pvr::scenario {

// Replays `trace` (recorded by run_scenario(spec, &trace) — or merged from
// multiprocess shards of the same spec) and re-verifies it offline with
// `workers` engine workers. Throws like run_scenario on a bad spec, and
// std::invalid_argument when the trace's identity (scenario name, seed)
// contradicts the spec.
[[nodiscard]] ScenarioReport replay_trace(const ScenarioSpec& spec,
                                          const net::MessageTrace& trace,
                                          std::size_t workers);

}  // namespace pvr::scenario
