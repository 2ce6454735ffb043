// Pluggable adversary strategies for the scenario harness.
//
// Every strategy drives misbehavior through the SHIPPED machinery — the
// prover's ProverMisbehavior knobs and wire-level interference via the
// simulator's interceptor hook — never through bespoke test code, so
// an attack a strategy mounts can only be caught by the evidence checks
// the production verifiers actually run. The strategy also states its
// contract: which ViolationKind(s) must catch the attack (the runner
// scores detection against exactly these), and which verifiers are
// colluding (their evidence must not count toward detection).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/evidence.h"
#include "core/min_protocol.h"
#include "net/simulator.h"
#include "scenario/topology_gen.h"

namespace pvr::scenario {

class AdversaryStrategy {
 public:
  virtual ~AdversaryStrategy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  // True when every attacked round must end with validatable evidence of
  // one of expected_kinds() against the attacked prover; false for
  // strategies whose whole point is that they must yield NOTHING (replay
  // against honest provers must not produce false evidence).
  [[nodiscard]] virtual bool expects_detection() const = 0;
  [[nodiscard]] virtual std::vector<core::ViolationKind> expected_kinds()
      const {
    return {core::ViolationKind::kEquivocation};
  }

  // Misbehavior knobs applied to every ATTACKED neighborhood's prover.
  [[nodiscard]] virtual core::ProverMisbehavior prover_misbehavior() const {
    return {};
  }

  // Verifiers of an attacked neighborhood that are in on the attack; the
  // runner ignores their evidence when scoring detection (a colluder
  // "detecting" its accomplice proves nothing about the honest verifiers).
  [[nodiscard]] virtual std::vector<bgp::AsNumber> colluders(
      const Neighborhood& hood) const {
    (void)hood;
    return {};
  }

  // Wire-interference bounds the ONLINE runner folds into its settle
  // horizon (how long after a window closes a round's messages can still
  // be in flight). max_extra_delay() bounds the extra µs the interceptor
  // can add to any single message; max_replay_lag() bounds how long after
  // capturing a message the strategy can re-inject a copy (the copy then
  // propagates under max_extra_delay again). A strategy that understates
  // these breaks the online==offline fingerprint parity gate, which is
  // exactly how an understatement is caught.
  [[nodiscard]] virtual net::SimTime max_extra_delay() const { return 0; }
  [[nodiscard]] virtual net::SimTime max_replay_lag() const { return 0; }

  // Installs wire-level interference (drop/delay/replay) on the simulator
  // that carries the world's messages, once the world is built.
  // `attacked[h]` says whether hoods[h]'s prover mounts the attack: pure
  // wire chaos (drops, delays, replays) deliberately hits honest
  // neighborhoods too — they must stay evidence-silent under it — but
  // anything tied to the attack itself (e.g. muting a colluding verifier)
  // must be scoped to the attacked neighborhoods the runner scores
  // against. Default: none.
  virtual void install(net::Simulator& sim,
                       const std::vector<Neighborhood>& hoods,
                       const std::vector<bool>& attacked, std::uint64_t seed) {
    (void)sim;
    (void)hoods;
    (void)attacked;
    (void)seed;
  }
};

// Factory over the strategy registry. Throws std::invalid_argument on an
// unknown name. Names: "honest", "equivocator", "batch_split",
// "selective_drop", "delay_replay", "colluding_pair", "replay_relay".
[[nodiscard]] std::unique_ptr<AdversaryStrategy> make_adversary(
    std::string_view name);
[[nodiscard]] std::vector<std::string_view> adversary_names();

}  // namespace pvr::scenario
