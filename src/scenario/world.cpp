#include "scenario/world.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/bundle_aggregation.h"
#include "crypto/sha256.h"
#include "obs/trace.h"

namespace pvr::scenario {

namespace {

// Evidence is self-contained signed artifacts; recovering which rounds an
// item covers means decoding them. Leaf evidence names its round in its
// bundle leaf; equivocation evidence is two roots, each naming
// (prover, epoch) plus every claimed prefix. Undecodable items contribute
// nothing.
void append_covered_rounds(const core::Evidence& item,
                           std::vector<core::ProtocolId>& out) {
  if (!item.leaves.empty()) {
    try {
      out.push_back(
          core::CommitmentBundle::decode(item.leaves.front().leaf.payload).id);
    } catch (const std::out_of_range&) {
    }
    return;
  }
  for (const core::SignedMessage& message : item.messages) {
    try {
      const core::AggregatedBundle root =
          core::AggregatedBundle::decode(message.payload);
      for (const bgp::Ipv4Prefix& prefix : root.prefixes) {
        out.push_back(core::ProtocolId{
            .prover = root.prover, .prefix = prefix, .epoch = root.epoch});
      }
    } catch (const std::out_of_range&) {
    }
  }
}

// Liveness classes are detectable but not third-party provable; everything
// else must convince the Auditor (audit_failures counts the exceptions).
[[nodiscard]] bool auditor_provable(core::ViolationKind kind) {
  return kind != core::ViolationKind::kMissingReveal &&
         kind != core::ViolationKind::kBadSignature;
}

// Evenly spreads `fraction` of `count` indices (floor-difference trick):
// attacked and honest neighborhoods interleave instead of clustering.
[[nodiscard]] std::vector<bool> spread_attacked(std::size_t count,
                                                double fraction) {
  std::vector<bool> attacked(count, false);
  const double f = std::clamp(fraction, 0.0, 1.0);
  for (std::size_t i = 0; i < count; ++i) {
    attacked[i] = static_cast<std::size_t>(static_cast<double>(i + 1) * f) >
                  static_cast<std::size_t>(static_cast<double>(i) * f);
  }
  return attacked;
}

bgp::Route provider_route(const bgp::Ipv4Prefix& prefix,
                          bgp::AsNumber provider, std::size_t length) {
  std::vector<bgp::AsNumber> hops;
  hops.push_back(provider);
  for (std::size_t i = 1; i < length; ++i) {
    hops.push_back(static_cast<bgp::AsNumber>(60000 + i));
  }
  return bgp::Route{.prefix = prefix,
                    .path = bgp::AsPath(std::move(hops)),
                    .next_hop = provider,
                    .local_pref = 100,
                    .med = 0,
                    .origin = bgp::Origin::kIgp,
                    .communities = {}};
}

// Conservative bound on how long after its window closes a round can still
// be referenced by an in-flight message. After the prover's fan-out (one
// hop), the signed root floods the verifier mesh (the hop budget bounds
// each chain), and the adversary may re-inject one captured copy after its
// replay lag, which floods again from a reset hop count: two cascades.
// Every hop costs at most the runner's latency ceiling plus the
// adversary's per-message delay bound. Soundness is enforced empirically:
// an understated horizon snapshots a round before its last message and
// breaks the online==offline fingerprint parity the tests and bench gate
// on.
net::SimTime settle_horizon_for(const ScenarioSpec& spec,
                                const AdversaryStrategy& adversary) {
  const net::SimTime per_hop = kMaxScenarioLatency + adversary.max_extra_delay();
  const net::SimTime chain =
      static_cast<net::SimTime>(spec.gossip_hop_budget) + 1;
  constexpr net::SimTime kCascades = 2;
  return per_hop * (chain * kCascades + 1) + adversary.max_replay_lag();
}

[[nodiscard]] double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

WorldPlan plan_world(const ScenarioSpec& spec) {
  if (spec.collect_window <= kMaxScenarioLatency) {
    throw std::invalid_argument(
        "plan_world: collect_window must exceed the max link latency");
  }
  WorldPlan plan;

  // 1. Topology and neighborhoods.
  plan.topology = generate_topology(spec.topology, spec.seed);
  plan.hoods = select_neighborhoods(plan.topology, spec.neighborhoods,
                                    spec.min_providers, spec.max_providers);
  if (plan.hoods.empty()) {
    throw std::runtime_error(
        "plan_world: topology yielded no qualifying neighborhood");
  }

  // 2. Adversary plan.
  plan.adversary = make_adversary(spec.adversary);
  plan.misbehavior = plan.adversary->prover_misbehavior();
  plan.attacked = spread_attacked(
      plan.hoods.size(),
      plan.misbehavior.honest() ? 0.0 : spec.attacked_fraction);
  for (std::size_t h = 0; h < plan.hoods.size(); ++h) {
    if (!plan.attacked[h]) continue;
    plan.attacked_provers.insert(plan.hoods[h].prover);
    for (const bgp::AsNumber colluder : plan.adversary->colluders(plan.hoods[h])) {
      plan.colluders.insert(colluder);
    }
  }

  // 3. Keys for every participant.
  for (const Neighborhood& hood : plan.hoods) {
    const std::vector<bgp::AsNumber> members = hood.members();
    plan.participants.insert(plan.participants.end(), members.begin(),
                             members.end());
  }
  std::sort(plan.participants.begin(), plan.participants.end());
  crypto::Drbg key_rng(spec.seed, "scenario-keys");
  plan.keys = core::generate_keys(plan.participants, key_rng, spec.key_bits);

  // 4. Link latencies, drawn in the canonical per-hood order (prover star,
  // then the verifier mesh upper triangle) so the DRBG stream matches the
  // historical runner draw for draw.
  crypto::Drbg link_rng(spec.seed, "scenario-links");
  const auto jittered = [&link_rng] {
    return net::LinkConfig{
        .latency = kMinScenarioLatency +
                   link_rng.uniform(kMaxScenarioLatency - kMinScenarioLatency)};
  };
  for (const Neighborhood& hood : plan.hoods) {
    const std::vector<bgp::AsNumber> verifiers = hood.verifiers();
    for (const bgp::AsNumber verifier : verifiers) {
      plan.links.push_back(PlannedLink{hood.prover, verifier, jittered()});
    }
    for (std::size_t i = 0; i < verifiers.size(); ++i) {
      for (std::size_t j = i + 1; j < verifiers.size(); ++j) {
        plan.links.push_back(PlannedLink{verifiers[i], verifiers[j], jittered()});
      }
    }
  }

  // 5. Jittered round traffic, one AppEvent per scheduled closure in the
  // canonical order (per arrival: each provider's input, then the prover
  // start) with every jitter/length draw materialized.
  plan.arrivals = generate_arrivals(spec.traffic, plan.hoods.size(),
                                    spec.rounds, spec.seed);
  crypto::Drbg input_rng(spec.seed, "scenario-inputs");
  for (const RoundArrival& arrival : plan.arrivals) {
    const Neighborhood& hood = plan.hoods[arrival.neighborhood];
    for (std::size_t p = 0; p < hood.providers.size(); ++p) {
      const net::SimTime jitter =
          spec.traffic.input_jitter_us == 0
              ? 0
              : input_rng.uniform(spec.traffic.input_jitter_us);
      const std::size_t length = 1 + input_rng.uniform(spec.max_len);
      plan.app_events.push_back(AppEvent{.at = arrival.at + jitter,
                                         .is_input = true,
                                         .hood = arrival.neighborhood,
                                         .provider_index = p,
                                         .actor = hood.providers[p],
                                         .epoch = arrival.epoch,
                                         .prefix = arrival.prefix,
                                         .route_length = length});
    }
    plan.app_events.push_back(AppEvent{.at = arrival.at +
                                             spec.traffic.input_jitter_us,
                                       .is_input = false,
                                       .hood = arrival.neighborhood,
                                       .actor = hood.prover,
                                       .epoch = arrival.epoch,
                                       .prefix = arrival.prefix});
  }
  return plan;
}

void wire_simulator(
    const WorldPlan& plan, std::uint64_t seed, net::Simulator& sim,
    const std::function<std::unique_ptr<net::Node>(bgp::AsNumber)>& endpoint,
    const std::function<void(const AppEvent&)>& on_event) {
  for (const bgp::AsNumber asn : plan.participants) {
    sim.add_node(asn, endpoint(asn));
  }
  for (const PlannedLink& link : plan.links) {
    sim.connect(link.a, link.b, link.config);
  }
  plan.adversary->install(sim, plan.hoods, plan.attacked, seed);
  for (const AppEvent& event : plan.app_events) {
    sim.schedule(event.at, [on_event, &event] { on_event(event); });
  }
}

void assemble_report(const ScenarioSpec& spec, const WorldPlan& plan,
                     std::size_t workers, const EvidenceAccessor& evidence_of,
                     const std::vector<net::TraceProverMeta>& provers,
                     const net::SimStats& stats, ScenarioReport& report) {
  report.scenario = spec.name;
  report.adversary = spec.adversary;
  report.seed = spec.seed;
  report.workers = workers;
  report.as_count = plan.topology.graph.as_count();
  report.neighborhoods = plan.hoods.size();
  report.pvr_nodes = plan.participants.size();
  report.hw_threads = std::thread::hardware_concurrency();
  bool honest_window_seen = false;
  for (const net::TraceProverMeta& prover : provers) {
    report.rounds_started += prover.rounds_started;
    report.windows_fired += prover.windows_fired;
    report.roots_signed += prover.roots_signed;
    report.proof_bytes += prover.proof_bytes;
    if (!plan.attacked_provers.contains(prover.node) && prover.windows_fired > 0) {
      const double ratio = static_cast<double>(prover.roots_signed) /
                           static_cast<double>(prover.windows_fired);
      if (!honest_window_seen ||
          std::abs(ratio - 1.0) > std::abs(report.honest_signs_per_window - 1.0)) {
        report.honest_signs_per_window = ratio;
      }
      honest_window_seen = true;
    }
  }
  report.coalesced = report.windows_fired < report.rounds_started;

  // Byte accounting.
  report.bytes_input = stats.channel_group(core::kInputChannel).bytes_sent;
  report.bytes_bundle = stats.channel_group(core::kBundleAggChannel).bytes_sent;
  const net::ChannelStats gossip = stats.channel_group(core::kGossipRootChannel);
  report.bytes_gossip = gossip.bytes_sent;
  report.gossip_messages = gossip.messages_sent;
  report.bytes_total = stats.channel_group("pvr.").bytes_sent;

  // Scoring, over every verifier's evidence log in (hood, verifier) order.
  // The Auditor verifies through its own cache-off context: independent of
  // the nodes' (possibly caching) one, so every score re-checks each
  // signature it relies on.
  const core::VerifyContext scoring_ctx(&plan.keys.directory);
  const core::Auditor auditor(&scoring_ctx);
  const std::vector<core::ViolationKind> expected =
      plan.adversary->expected_kinds();
  std::set<core::ProtocolId> attacked_rounds;
  for (const RoundArrival& arrival : plan.arrivals) {
    const Neighborhood& hood = plan.hoods[arrival.neighborhood];
    if (!plan.attacked_provers.contains(hood.prover)) continue;
    attacked_rounds.insert(core::ProtocolId{.prover = hood.prover,
                                            .prefix = arrival.prefix,
                                            .epoch = arrival.epoch});
  }

  std::set<core::ProtocolId> detected;
  crypto::Sha256 evidence_hasher;
  for (std::size_t h = 0; h < plan.hoods.size(); ++h) {
    const std::vector<bgp::AsNumber> verifier_asns = plan.hoods[h].verifiers();
    for (std::size_t v = 0; v < verifier_asns.size(); ++v) {
      const bgp::AsNumber verifier = verifier_asns[v];
      for (const core::Evidence& item : evidence_of(h, v)) {
        report.evidence_total += 1;
        // Hash the evidence log IN ORDER (node order, then log order): the
        // digest pins the application order the two-slot pipeline must
        // preserve, not just the counts the fingerprint covers.
        evidence_hasher.update(item.to_string());
        for (const core::SignedMessage& msg : item.messages) {
          evidence_hasher.update(std::span<const std::uint8_t>(msg.payload));
        }
        for (const core::LeafOpening& opening : item.leaves) {
          evidence_hasher.update(opening.leaf.encode());
        }
        if (!plan.attacked_provers.contains(item.accused)) {
          report.false_evidence += 1;
          continue;
        }
        if (auditor_provable(item.kind) && !auditor.validate(item)) {
          report.audit_failures += 1;
        }
        if (plan.colluders.contains(verifier)) continue;
        if (std::find(expected.begin(), expected.end(), item.kind) ==
            expected.end()) {
          continue;
        }
        std::vector<core::ProtocolId> covered;
        append_covered_rounds(item, covered);
        for (const core::ProtocolId& id : covered) {
          if (attacked_rounds.contains(id)) detected.insert(id);
        }
      }
    }
  }
  report.evidence_digest = crypto::digest_hex(evidence_hasher.finalize());
  report.attacked_rounds = attacked_rounds.size();
  report.detected_rounds = detected.size();
  report.detection_rate =
      attacked_rounds.empty()
          ? 1.0
          : static_cast<double>(detected.size()) /
                static_cast<double>(attacked_rounds.size());
}

World::World(const ScenarioSpec& spec, const WorldPlan& plan,
             std::size_t workers,
             const std::function<bool(bgp::AsNumber)>& owns)
    : spec_(&spec),
      plan_(&plan),
      workers_(workers),
      // Every node and engine worker verifies through this one context,
      // sharing per-key Montgomery precompute and (spec.world_sig_cache)
      // the verified-signature cache. Verdicts match a cache-off context
      // exactly, so the fingerprint cannot see it.
      ctx_(&plan.keys.directory, spec.world_sig_cache),
      hoods_(plan.hoods.size()),
      engine_(workers) {
  for (std::size_t h = 0; h < plan.hoods.size(); ++h) {
    const Neighborhood& neighborhood = plan.hoods[h];
    const auto add = [&](bgp::AsNumber asn,
                         core::PvrRole role) -> core::PvrNode* {
      if (owns && !owns(asn)) return nullptr;
      auto node = std::make_unique<core::PvrNode>(core::PvrConfig{
          .asn = asn,
          .role = role,
          .verify_ctx = &ctx_,
          .private_key = &plan.keys.private_keys.at(asn).priv,
          .op = core::OperatorKind::kMinimum,
          .max_len = spec.max_len,
          .prover = neighborhood.prover,
          .providers = neighborhood.providers,
          .recipient = neighborhood.recipient,
          .collect_window = spec.collect_window,
          .batch_deadline = spec.batch_deadline,
          .misbehavior = role == core::PvrRole::kProver && plan.attacked[h]
                             ? plan.misbehavior
                             : core::ProverMisbehavior{},
          .rng_seed = spec.seed,
          .gossip_hop_budget = spec.gossip_hop_budget,
      });
      core::PvrNode* raw = node.get();
      nodes_.emplace(asn, std::move(node));
      return raw;
    };
    Hood& hood = hoods_[h];
    hood.prover = add(neighborhood.prover, core::PvrRole::kProver);
    for (const bgp::AsNumber provider : neighborhood.providers) {
      hood.verifiers.push_back(add(provider, core::PvrRole::kProvider));
    }
    hood.verifiers.push_back(
        add(neighborhood.recipient, core::PvrRole::kRecipient));
    for (core::PvrNode* member : hood.verifiers) {
      if (member != nullptr) hood.members.push_back(member);
    }
    if (hood.prover != nullptr) hood.members.push_back(hood.prover);
  }
}

core::PvrNode& World::actor(const AppEvent& event) const {
  const Hood& hood = hoods_[event.hood];
  core::PvrNode* node =
      event.is_input ? hood.verifiers[event.provider_index] : hood.prover;
  if (node == nullptr) {
    throw std::logic_error("World: the event's actor is not local");
  }
  return *node;
}

void World::apply(net::Transport& transport, const AppEvent& event) const {
  if (event.is_input) {
    actor(event).provide_input(
        transport, event.epoch, event.prefix,
        provider_route(event.prefix, event.actor, event.route_length));
  } else {
    actor(event).start_round(transport, event.epoch, event.prefix);
  }
}

void World::record_input(const AppEvent& event) const {
  actor(event).record_input(
      event.epoch, event.prefix,
      provider_route(event.prefix, event.actor, event.route_length));
}

void World::deliver(net::Transport& transport,
                    const net::Message& message) const {
  const auto it = nodes_.find(message.to);
  if (it != nodes_.end()) it->second->on_message(transport, message);
}

void World::arm_online(net::Simulator& sim) {
  if (spec_->drain_interval_us == 0) {
    throw std::invalid_argument(
        "World::arm_online: online mode needs a nonzero drain_interval_us");
  }
  sim_ = &sim;
  settle_horizon_ = settle_horizon_for(*spec_, *plan_->adversary);
  for (const RoundArrival& arrival : plan_->arrivals) {
    epoch_rounds_left_[{arrival.neighborhood, arrival.epoch}] += 1;
  }
  for (std::size_t h = 0; h < hoods_.size(); ++h) {
    if (hoods_[h].prover == nullptr) continue;
    const bgp::AsNumber prover = plan_->hoods[h].prover;
    hoods_[h].prover->set_window_close_handler(
        [this, h, prover](std::uint64_t epoch,
                          const std::vector<bgp::Ipv4Prefix>& prefixes) {
          const net::SimTime settled_at = sim_->now() + settle_horizon_;
          for (const bgp::Ipv4Prefix& prefix : prefixes) {
            pending_.push_back(SettledEntry{
                .settled_at = settled_at,
                .hood = h,
                .id = core::ProtocolId{
                    .prover = prover, .prefix = prefix, .epoch = epoch}});
          }
        });
  }
  // Pipelined tick: harvest batch N (findings applied one tick late), then
  // seal batch N+1 — the workers verify it while the simulator advances
  // toward the next tick.
  sim.schedule_periodic(spec_->drain_interval_us, [this] {
    harvest();
    submit_settled(false);
  });
}

void World::finish() {
  if (sim_ != nullptr) {
    // Tail barrier: harvest whatever the final tick left in flight, then
    // flush the rounds whose settle horizon outlived the trace (plus any
    // final partial batch) and harvest those too. The world is quiescent,
    // so these submit against exactly the state the tail schedule sees —
    // after this barrier, online == offline.
    harvest_pending_at_end_ = engine_.has_pending();
    harvest();
    submit_settled(true);
    harvest();
    return;
  }
  // Tail schedule: every planned round, in arrival order, for every local
  // verifier, then one drain. The engine's evidence is byte-identical at
  // any worker count (DESIGN.md §8.2).
  const double t0 = now_ms();
  const obs::TraceSpan span("scenario.verify_tail", "scenario");
  for (const RoundArrival& arrival : plan_->arrivals) {
    const core::ProtocolId id{.prover = plan_->hoods[arrival.neighborhood].prover,
                              .prefix = arrival.prefix,
                              .epoch = arrival.epoch};
    submit_round(arrival.neighborhood, id);
  }
  consume(engine_.drain(/*rethrow_errors=*/false));
  verify_blocked_ms_ += now_ms() - t0;
}

void World::submit_round(std::size_t hood, const core::ProtocolId& id) {
  for (core::PvrNode* verifier : hoods_[hood].verifiers) {
    if (verifier != nullptr) (void)engine_.submit_node_round(*verifier, id);
  }
}

// Every drain runs with rethrow_errors = false: a round whose closure threw
// is COUNTED (report.verify_failures, gated nonzero-fatal by the bench and
// CI) instead of silently discarded or aborting the whole trace.
void World::consume(const engine::EngineReport& drained) {
  verify_failures_ += drained.failed_rounds;
  drain_batches_ += 1;
  overlapped_ms_ += drained.overlapped_ms;
  batch_window_ms_ += drained.verify_wall_ms;
}

// Harvest the in-flight batch: collect() applies its findings to
// the nodes (one tick after submission), then the settled state is GC'd
// and fully-harvested epochs retire their root-dedup digests.
void World::harvest() {
  if (!engine_.has_pending()) return;
  const double t0 = now_ms();
  const obs::TraceSpan span("scenario.harvest", "scenario");
  consume(engine_.collect(/*rethrow_errors=*/false));
  for (const SettledEntry& entry : inflight_) {
    for (core::PvrNode* member : hoods_[entry.hood].members) {
      (void)member->gc_finalized(entry.id);
    }
    const auto left = epoch_rounds_left_.find({entry.hood, entry.id.epoch});
    if (left != epoch_rounds_left_.end() && --left->second == 0) {
      // The settle horizon bounds gossip chains AND the adversary's replay
      // lag, so with every round of this (hood, epoch) harvested, no
      // message referencing the epoch's roots can still arrive — a late
      // replay after this retirement would miss the dedup and re-create
      // round state, which the fingerprint-parity gates would catch (same
      // empirical enforcement as the horizon itself).
      const bgp::AsNumber prover = plan_->hoods[entry.hood].prover;
      for (core::PvrNode* member : hoods_[entry.hood].members) {
        (void)member->gc_epoch_roots(prover, entry.id.epoch);
      }
      epoch_rounds_left_.erase(left);
    }
  }
  inflight_.clear();
  verify_blocked_ms_ += now_ms() - t0;
}

// Gather every settled round and seal them as the next batch: submit all
// verifier rounds, then begin_drain hands the batch to the workers WITHOUT
// blocking (the next tick harvests it). Entries are immutable after
// sealing — the engine verifies over the RoundState copies
// defer_finalize_checks took at submit time, so the simulator mutating
// live node state in between cannot race the checks.
void World::submit_settled(bool flush_all) {
  const net::SimTime now = sim_->now();
  batch_.clear();
  while (!pending_.empty() &&
         (flush_all || pending_.front().settled_at <= now)) {
    batch_.push_back(pending_.front());
    pending_.pop_front();
  }
  if (batch_.empty()) return;
  const double t0 = now_ms();
  const obs::TraceSpan flush_span("scenario.drain_flush", "scenario");
  obs::TraceWriter& tracer = obs::TraceWriter::global();
  for (const SettledEntry& entry : batch_) {
    submit_round(entry.hood, entry.id);
    // Settle latency in SIM time, recorded at SUBMISSION: the round's
    // window closed at settled_at - settle_horizon and this tick is when
    // its verification was sealed. Identical at any worker count (the
    // drain schedule is simulated); the harvest landing one tick later
    // must not widen the gated quantiles.
    const net::SimTime close_at = entry.settled_at - settle_horizon_;
    const auto latency = static_cast<std::uint64_t>(now - close_at);
    settle_hist_.record(latency);
    PVR_OBS_RECORD(scenario_settle_us, latency);
    if (tracer.active()) {
      tracer.sim_span("round.settle", entry.hood,
                      static_cast<std::uint64_t>(close_at),
                      static_cast<std::uint64_t>(now));
    }
  }
  engine_.begin_drain();
  inflight_.swap(batch_);
  verify_blocked_ms_ += now_ms() - t0;
}

std::vector<net::TraceProverMeta> World::prover_counters() const {
  std::vector<net::TraceProverMeta> provers;
  for (std::size_t h = 0; h < hoods_.size(); ++h) {
    const core::PvrNode* prover = hoods_[h].prover;
    if (prover == nullptr) continue;
    provers.push_back(
        net::TraceProverMeta{.node = plan_->hoods[h].prover,
                             .rounds_started = prover->rounds_started(),
                             .windows_fired = prover->windows_fired(),
                             .roots_signed = prover->roots_signed(),
                             .proof_bytes = prover->proof_bytes_sent()});
  }
  return provers;
}

void World::fill_report(const net::SimStats& stats,
                        const std::vector<net::TraceProverMeta>& provers,
                        ScenarioReport& report) const {
  assemble_report(*spec_, *plan_, workers_,
                  [this](std::size_t h, std::size_t v)
                      -> const std::vector<core::Evidence>& {
                    return hoods_[h].verifiers[v]->evidence();
                  },
                  provers, stats, report);
  report.online = sim_ != nullptr;
  report.verify_failures = verify_failures_;
  report.drain_batches = drain_batches_;
  report.harvest_pending_at_end = harvest_pending_at_end_;
  report.settle_horizon_us = settle_horizon_;
  report.p50_settle_us = settle_hist_.quantile(0.5);
  report.p99_settle_us = settle_hist_.quantile(0.99);
  report.verify_ms = verify_blocked_ms_ + overlapped_ms_;
  report.pipeline_overlap_ratio =
      batch_window_ms_ > 0 ? overlapped_ms_ / batch_window_ms_ : 0.0;
  for (const auto& [asn, node] : nodes_) {
    report.peak_open_rounds =
        std::max(report.peak_open_rounds,
                 static_cast<std::uint64_t>(node->peak_open_rounds()));
    report.peak_root_digests =
        std::max(report.peak_root_digests,
                 static_cast<std::uint64_t>(node->peak_seen_root_digests()));
    report.final_root_epochs =
        std::max(report.final_root_epochs,
                 static_cast<std::uint64_t>(node->seen_root_epochs()));
  }
}

}  // namespace pvr::scenario
