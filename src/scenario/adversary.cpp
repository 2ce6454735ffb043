#include "scenario/adversary.h"

#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "core/pvr_speaker.h"
#include "crypto/drbg.h"
#include "net/simulator.h"

namespace pvr::scenario {

namespace {

// Replayed copies of a captured root are re-injected at
// kReplayStepUs * (1 + i) after the capture (i-th replay of that message),
// so a strategy replaying up to R copies per message has a replay lag of
// exactly kReplayStepUs * R — the max_replay_lag() overrides below quote
// that product and must stay in sync with the schedule in
// make_chaos_interceptor.
constexpr net::SimTime kReplayStepUs = 10'000;

// Shared interceptor state. Strategies compose drop/delay/replay rules on
// top of it; kept in a shared_ptr because net::Interceptor is copyable.
struct WireChaosState {
  crypto::Drbg rng;
  // Verifier-pair gossip links eligible for dropping (never pairs that
  // involve a recipient, so the mesh provably stays connected through it).
  std::set<std::pair<bgp::AsNumber, bgp::AsNumber>> droppable;
  std::set<bgp::AsNumber> muted;  // colluders whose gossip is swallowed
  // Envelope bytes (hops byte stripped) already captured for replay: the
  // replayed copy passes through the interceptor again, and this set is
  // what keeps the replay fan-out finite.
  std::set<std::vector<std::uint8_t>> captured;
  std::size_t replay_budget = 0;  // total replays left to schedule
  std::size_t replays_per_message = 0;
  net::SimTime max_delay = 0;
  double drop_fraction = 0.0;

  explicit WireChaosState(std::uint64_t seed)
      : rng(seed, "scenario-wire-chaos") {}
};

// One interceptor serving every strategy: mute colluders, deterministically
// drop a fraction of provider-to-provider gossip, delay gossip, and replay
// captured gossip roots with the hop byte reset to zero (the strongest
// replay: the budget and first-seen dedup must stop it, not the hop count).
[[nodiscard]] net::Interceptor make_chaos_interceptor(
    std::shared_ptr<WireChaosState> state) {
  return [state](net::Transport& sim,
                 const net::Message& message) -> net::InterceptDecision {
    if (message.channel != core::kGossipRootChannel) return {};
    if (state->muted.contains(message.from)) return {.drop = true};
    const auto pair = message.from < message.to
                          ? std::pair{message.from, message.to}
                          : std::pair{message.to, message.from};
    if (state->drop_fraction > 0.0 && state->droppable.contains(pair) &&
        state->rng.coin(state->drop_fraction)) {
      return {.drop = true};
    }
    if (state->replay_budget > 0 && message.payload.size() > 1) {
      std::vector<std::uint8_t> envelope(message.payload.begin() + 1,
                                         message.payload.end());
      if (state->captured.insert(std::move(envelope)).second) {
        for (std::size_t i = 0;
             i < state->replays_per_message && state->replay_budget > 0; ++i) {
          state->replay_budget -= 1;
          net::Message replay = message;
          replay.payload[0] = 0;  // stale copy reinjected as if fresh
          replay.cookie = 0;      // a new send, not part of the original's flow
          const net::SimTime at =
              sim.now() + kReplayStepUs * (1 + static_cast<net::SimTime>(i));
          sim.schedule(at, [&sim, replay = std::move(replay)]() mutable {
            sim.send(std::move(replay));
          });
        }
      }
    }
    const net::SimTime delay =
        state->max_delay == 0 ? 0 : state->rng.uniform(state->max_delay);
    return {.extra_delay = delay};
  };
}

// Fills `droppable` with the provider-provider pairs of every hood.
void collect_droppable_pairs(WireChaosState& state,
                             const std::vector<Neighborhood>& hoods) {
  for (const Neighborhood& hood : hoods) {
    for (std::size_t i = 0; i < hood.providers.size(); ++i) {
      for (std::size_t j = i + 1; j < hood.providers.size(); ++j) {
        state.droppable.emplace(
            std::min(hood.providers[i], hood.providers[j]),
            std::max(hood.providers[i], hood.providers[j]));
      }
    }
  }
}

class HonestStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "honest"; }
  [[nodiscard]] bool expects_detection() const override { return false; }
  [[nodiscard]] std::vector<core::ViolationKind> expected_kinds()
      const override {
    return {};
  }
};

class EquivocatorStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "equivocator"; }
  [[nodiscard]] bool expects_detection() const override { return true; }
  [[nodiscard]] core::ProverMisbehavior prover_misbehavior() const override {
    return {.equivocate = true};
  }
};

class BatchSplitStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] std::string_view name() const override { return "batch_split"; }
  [[nodiscard]] bool expects_detection() const override { return true; }
  [[nodiscard]] core::ProverMisbehavior prover_misbehavior() const override {
    return {.equivocate = true, .batch_split = true};
  }
};

class SelectiveDropStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "selective_drop";
  }
  [[nodiscard]] bool expects_detection() const override { return true; }
  [[nodiscard]] core::ProverMisbehavior prover_misbehavior() const override {
    return {.equivocate = true};
  }
  void install(net::Simulator& sim, const std::vector<Neighborhood>& hoods,
               const std::vector<bool>& attacked, std::uint64_t seed) override {
    (void)attacked;  // the hostile wire does not spare honest neighborhoods
    auto state = std::make_shared<WireChaosState>(seed);
    collect_droppable_pairs(*state, hoods);
    state->drop_fraction = 0.5;
    sim.set_interceptor(make_chaos_interceptor(std::move(state)));
  }
};

class DelayReplayStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "delay_replay";
  }
  [[nodiscard]] bool expects_detection() const override { return true; }
  [[nodiscard]] core::ProverMisbehavior prover_misbehavior() const override {
    return {.equivocate = true};
  }
  [[nodiscard]] net::SimTime max_extra_delay() const override {
    return 5'000;
  }
  [[nodiscard]] net::SimTime max_replay_lag() const override {
    return kReplayStepUs * 2;  // replays_per_message below
  }
  void install(net::Simulator& sim, const std::vector<Neighborhood>& hoods,
               const std::vector<bool>& attacked, std::uint64_t seed) override {
    (void)attacked;  // the hostile wire does not spare honest neighborhoods
    auto state = std::make_shared<WireChaosState>(seed);
    collect_droppable_pairs(*state, hoods);
    state->drop_fraction = 0.3;
    state->max_delay = 5'000;
    state->replay_budget = 256;
    state->replays_per_message = 2;
    sim.set_interceptor(make_chaos_interceptor(std::move(state)));
  }
};

class ColludingPairStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "colluding_pair";
  }
  [[nodiscard]] bool expects_detection() const override { return true; }
  [[nodiscard]] core::ProverMisbehavior prover_misbehavior() const override {
    return {.equivocate = true};
  }
  [[nodiscard]] std::vector<bgp::AsNumber> colluders(
      const Neighborhood& hood) const override {
    // The accomplice is the first provider: it receives the conflicting
    // variant directly (first-half fan-out) and then stays silent.
    if (hood.providers.empty()) return {};
    return {hood.providers.front()};
  }
  void install(net::Simulator& sim, const std::vector<Neighborhood>& hoods,
               const std::vector<bool>& attacked, std::uint64_t seed) override {
    auto state = std::make_shared<WireChaosState>(seed);
    // Only attacked neighborhoods HAVE an accomplice: muting a provider in
    // an honest neighborhood would contaminate the false-positive control
    // group the runner scores against an untouched wire.
    for (std::size_t h = 0; h < hoods.size(); ++h) {
      if (!attacked[h]) continue;
      for (const bgp::AsNumber colluder : colluders(hoods[h])) {
        state->muted.insert(colluder);
      }
    }
    sim.set_interceptor(make_chaos_interceptor(std::move(state)));
  }
};

// Honest provers + an aggressive replaying relay. The contract is the
// inverse of the attacks above: the hop budget and the first-seen slots
// must stop the storm, and NO evidence may appear against anyone.
class ReplayRelayStrategy final : public AdversaryStrategy {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "replay_relay";
  }
  [[nodiscard]] bool expects_detection() const override { return false; }
  [[nodiscard]] std::vector<core::ViolationKind> expected_kinds()
      const override {
    return {};
  }
  [[nodiscard]] net::SimTime max_replay_lag() const override {
    return kReplayStepUs * 3;  // replays_per_message below
  }
  void install(net::Simulator& sim, const std::vector<Neighborhood>& hoods,
               const std::vector<bool>& attacked, std::uint64_t seed) override {
    (void)hoods;
    (void)attacked;
    auto state = std::make_shared<WireChaosState>(seed);
    state->replay_budget = 512;
    state->replays_per_message = 3;
    sim.set_interceptor(make_chaos_interceptor(std::move(state)));
  }
};

}  // namespace

std::unique_ptr<AdversaryStrategy> make_adversary(std::string_view name) {
  if (name == "honest") return std::make_unique<HonestStrategy>();
  if (name == "equivocator") return std::make_unique<EquivocatorStrategy>();
  if (name == "batch_split") return std::make_unique<BatchSplitStrategy>();
  if (name == "selective_drop") {
    return std::make_unique<SelectiveDropStrategy>();
  }
  if (name == "delay_replay") return std::make_unique<DelayReplayStrategy>();
  if (name == "colluding_pair") {
    return std::make_unique<ColludingPairStrategy>();
  }
  if (name == "replay_relay") return std::make_unique<ReplayRelayStrategy>();
  throw std::invalid_argument("make_adversary: unknown strategy '" +
                              std::string(name) + "'");
}

std::vector<std::string_view> adversary_names() {
  return {"honest",       "equivocator",  "batch_split", "selective_drop",
          "delay_replay", "colluding_pair", "replay_relay"};
}

}  // namespace pvr::scenario
