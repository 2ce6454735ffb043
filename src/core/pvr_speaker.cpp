#include "core/pvr_speaker.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "core/verify_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pvr::core {

namespace {

// Gossip payloads carry a 1-byte relay hop count ahead of the signed
// envelope so the flood is bounded by PvrConfig::gossip_hop_budget.
[[nodiscard]] std::vector<std::uint8_t> wrap_hops(
    std::uint8_t hops, const std::vector<std::uint8_t>& envelope) {
  std::vector<std::uint8_t> payload;
  payload.reserve(1 + envelope.size());
  payload.push_back(hops);
  payload.insert(payload.end(), envelope.begin(), envelope.end());
  return payload;
}

struct UnwrappedGossip {
  std::uint8_t hops = 0;
  SignedMessage envelope;
};

[[nodiscard]] std::optional<UnwrappedGossip> unwrap_hops(
    const std::vector<std::uint8_t>& payload) {
  if (payload.empty()) return std::nullopt;
  try {
    return UnwrappedGossip{
        .hops = payload.front(),
        .envelope = SignedMessage::decode(
            std::span(payload).subspan(1))};
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

}  // namespace

PvrNode::PvrNode(PvrConfig config)
    : config_(std::move(config)),
      rng_(config_.rng_seed ^ config_.asn, "pvr-node") {
  if (config_.verify_ctx == nullptr || config_.private_key == nullptr) {
    throw std::invalid_argument("PvrNode: missing verify context or key");
  }
}

PvrNode::RoundState& PvrNode::round_state(const ProtocolId& id) {
  const auto [it, inserted] = rounds_.try_emplace(id);
  if (inserted) peak_open_rounds_ = std::max(peak_open_rounds_, rounds_.size());
  return it->second;
}

void PvrNode::send(net::Transport& sim, bgp::AsNumber to, const char* channel,
                   std::vector<std::uint8_t> payload) {
  net::Message message{.from = config_.asn,
                       .to = to,
                       .channel = channel,
                       .payload = std::move(payload)};
  bytes_sent_ += message.wire_size();
  sim.send(std::move(message));
}

std::vector<bgp::AsNumber> PvrNode::gossip_peers() const {
  std::vector<bgp::AsNumber> peers;
  for (const bgp::AsNumber provider : config_.providers) {
    if (provider != config_.asn) peers.push_back(provider);
  }
  if (config_.recipient != 0 && config_.recipient != config_.asn) {
    peers.push_back(config_.recipient);
  }
  return peers;
}

void PvrNode::provide_input(net::Transport& sim, std::uint64_t epoch,
                            const bgp::Ipv4Prefix& prefix,
                            const std::optional<bgp::Route>& route) {
  const std::optional<InputAnnouncement>& announcement =
      record_input(epoch, prefix, route);
  if (!announcement.has_value()) return;
  const SignedMessage signed_input =
      sign_message(config_.asn, *config_.private_key, announcement->encode());
  send(sim, config_.prover, kInputChannel, signed_input.encode());
}

const std::optional<InputAnnouncement>& PvrNode::record_input(
    std::uint64_t epoch, const bgp::Ipv4Prefix& prefix,
    const std::optional<bgp::Route>& route) {
  if (config_.role != PvrRole::kProvider) {
    throw std::logic_error("record_input: not a provider");
  }
  const ProtocolId id{.prover = config_.prover, .prefix = prefix, .epoch = epoch};
  std::optional<InputAnnouncement>& own_input = round_state(id).own_input;
  if (route.has_value()) {
    own_input = InputAnnouncement{.id = id, .provider = config_.asn, .route = *route};
  } else {
    own_input = std::nullopt;
  }
  return own_input;
}

void PvrNode::start_round(net::Transport& sim, std::uint64_t epoch,
                          const bgp::Ipv4Prefix& prefix) {
  if (config_.role != PvrRole::kProver) {
    throw std::logic_error("start_round: not the prover");
  }
  const ProtocolId id{.prover = config_.asn, .prefix = prefix, .epoch = epoch};
  // A round already run must never be re-committed: a second window
  // claiming the same prefix would be self-equivocation.
  if (rounds_run_.contains(id)) return;
  collected_inputs_.try_emplace(id);

  auto& windows = open_windows_[epoch];
  for (const auto& window : windows) {
    if (std::find(window->prefixes.begin(), window->prefixes.end(), prefix) !=
        window->prefixes.end()) {
      return;  // already pending in an open window
    }
  }
  // Per-prefix collection: this prefix needs collect_window µs of input
  // collection measured from ITS OWN start, so it may only join a window
  // that can wait that long without blowing the window's batching
  // deadline. (The pre-deadline design shared one epoch-wide window, so a
  // prefix started late in the window got an arbitrarily truncated
  // collection phase.)
  const net::SimTime now = sim.now();
  const net::SimTime ready_at = now + config_.collect_window;
  rounds_started_ += 1;
  for (auto& window : windows) {
    if (ready_at <= window->deadline) {
      window->prefixes.push_back(prefix);
      window->fire_at = std::max(window->fire_at, ready_at);
      return;
    }
  }
  const net::SimTime deadline_span =
      std::max(config_.batch_deadline, config_.collect_window);
  auto window = std::make_shared<CollectionWindow>();
  window->deadline = now + deadline_span;
  window->fire_at = ready_at;
  window->prefixes.push_back(prefix);
  windows.push_back(window);
  schedule_window_fire(sim, epoch, std::move(window));
}

void PvrNode::schedule_window_fire(net::Transport& sim, std::uint64_t epoch,
                                   std::shared_ptr<CollectionWindow> window) {
  sim.schedule(window->fire_at, [this, &sim, epoch, window] {
    if (sim.now() < window->fire_at) {
      // A later joiner pushed fire_at out (still within the deadline);
      // re-arm for the new time.
      schedule_window_fire(sim, epoch, window);
      return;
    }
    const auto epoch_it = open_windows_.find(epoch);
    if (epoch_it != open_windows_.end()) {
      auto& windows = epoch_it->second;
      windows.erase(std::remove(windows.begin(), windows.end(), window),
                    windows.end());
      if (windows.empty()) open_windows_.erase(epoch_it);
    }
    run_prover_batch(sim, epoch, window->prefixes);
  });
}

void PvrNode::run_prover_batch(net::Transport& sim, std::uint64_t epoch,
                               const std::vector<bgp::Ipv4Prefix>& prefixes) {
  std::vector<ProverResult> batch;
  batch.reserve(prefixes.size());
  for (const bgp::Ipv4Prefix& prefix : prefixes) {
    const ProtocolId id{.prover = config_.asn, .prefix = prefix, .epoch = epoch};

    // Normalize the collected inputs: one entry per configured provider.
    std::map<bgp::AsNumber, std::optional<SignedMessage>> inputs;
    const auto& collected = collected_inputs_[id];
    for (const bgp::AsNumber provider : config_.providers) {
      const auto it = collected.find(provider);
      inputs[provider] = it == collected.end() ? std::nullopt : it->second;
    }

    rounds_run_.insert(id);
    batch.push_back(run_prover(id, config_.op, inputs, config_.max_len, rng_,
                               config_.misbehavior));
  }
  if (batch.empty()) return;
  windows_fired_ += 1;
  PVR_OBS_COUNT(node_windows_closed, 1);
  if (obs::TraceWriter::global().active()) {
    obs::TraceWriter::global().sim_instant(
        "window.close", config_.asn, static_cast<std::uint64_t>(sim.now()),
        "{\"epoch\":" + std::to_string(epoch) +
            ",\"prefixes\":" + std::to_string(batch.size()) + "}");
  }

  // Every statement of the window becomes a leaf under ONE signed root
  // (pvr.bundle.agg, DESIGN.md §8.4). When equivocating, the first half of
  // the providers get the variant root over the conflicting bundles.
  // Batch-split evasion: the variant gets its OWN window number, so no two
  // signed roots share a batch — only the common prefixes they both claim
  // betray the equivocation (roots_conflict's second rule).
  const bool equivocating =
      std::any_of(batch.begin(), batch.end(), [](const ProverResult& round) {
        return round.equivocating_bundle.has_value();
      });
  const std::uint32_t window = next_batch_[epoch]++;
  const std::uint32_t variant_window =
      equivocating && config_.misbehavior.batch_split ? next_batch_[epoch]++
                                                      : window;
  const SealedWindow sealed = seal_window(config_.asn, epoch, window,
                                          variant_window, batch,
                                          *config_.private_key, rng_);
  roots_signed_ += sealed.variant.has_value() ? 2 : 1;
  const auto send_window = [&](bgp::AsNumber to,
                               const AggregatedBundleMessage& message) {
    for (const LeafOpening& opening : message.openings) {
      proof_bytes_sent_ += opening.proof.encoded_size();
    }
    send(sim, to, kBundleAggChannel, message.encode());
  };
  const std::size_t half = config_.providers.size() / 2;
  for (std::size_t i = 0; i < config_.providers.size(); ++i) {
    const SignedWindow& tree =
        (sealed.variant.has_value() && i < half) ? *sealed.variant : sealed.honest;
    send_window(config_.providers[i],
                tree.message_for_provider(config_.providers[i]));
  }
  send_window(config_.recipient, sealed.honest.message_for_recipient());

  // Window-closed event, after every message of the batch is on the wire:
  // subscribers (the online scenario pipeline) learn exactly which rounds
  // this window committed, in deterministic simulated-time order.
  if (on_window_closed_) on_window_closed_(epoch, prefixes);
}

void PvrNode::observe_root(net::Transport& sim, const SignedMessage& signed_root,
                           bgp::AsNumber origin, std::uint8_t hops,
                           std::shared_ptr<const VerifiedWindow> window) {
  if (signed_root.signer != config_.prover) return;
  // Dedup BEFORE decoding or verifying: every relayed/replayed copy of an
  // already-seen root costs one hash and one lookup (a mesh of V verifiers
  // delivers each root O(V) times). The first copy of a payload still has
  // to open — a forged root (claimed signer, garbage signature) is dropped
  // before it can enter the dedup, pollute round state, or get relayed
  // onward, so seen_roots_, which only gc_epoch_roots prunes, never grows
  // on unverified traffic.
  const crypto::Digest digest = crypto::sha256(std::span(signed_root.payload));
  if (seen_roots_.contains(digest)) {
    PVR_OBS_COUNT(crypto_sig_cache_hits, 1);
    return;
  }
  if (window == nullptr) {
    auto opened = open_window(*config_.verify_ctx, signed_root);
    if (!opened) return;
    window = std::make_shared<const VerifiedWindow>(std::move(*opened));
  }
  const AggregatedBundle& root = window->root();
  seen_roots_.emplace(digest, RootKey{root.prover, root.epoch});
  peak_seen_root_digests_ = std::max(peak_seen_root_digests_, seen_roots_.size());
  attach_root(window);
  if (hops < config_.gossip_hop_budget) {
    // One encoding serves every peer: the relayed bytes are the same. It is
    // built at the first connected peer, so a plane without links (trace
    // replay) never builds it.
    std::vector<std::uint8_t> relayed;
    for (const bgp::AsNumber peer : gossip_peers()) {
      if (peer == origin || !sim.connected(config_.asn, peer)) continue;
      if (relayed.empty()) {
        relayed = wrap_hops(static_cast<std::uint8_t>(hops + 1),
                            signed_root.encode());
      }
      send(sim, peer, kGossipRootChannel, relayed);
    }
  }
}

void PvrNode::attach_root(const std::shared_ptr<const VerifiedWindow>& window) {
  // Attach to the round of every prefix this window claims. The signed
  // prefix list names those rounds exactly, so each is one map lookup —
  // with thousands of simultaneously open rounds per node this must never
  // scan them all (tests/core/root_attachment_test.cpp is the regression).
  // State is CREATED for claimed rounds this node has not heard of yet
  // (e.g. its direct agg message is still in flight or was lost), so a
  // witnessed root conflict is provable at finalize without any deferred
  // scan — the old finalize-time walk over every root the epoch ever saw
  // was O(windows) per round and unusable on long traces.
  const AggregatedBundle& root = window->root();
  for (const bgp::Ipv4Prefix& prefix : root.prefixes) {
    const ProtocolId id{
        .prover = root.prover, .prefix = prefix, .epoch = root.epoch};
    round_state(id).observed_windows.push_back(window);
  }
}

void PvrNode::open_aggregated(net::Transport& sim,
                              const AggregatedBundleMessage& message,
                              bgp::AsNumber origin) {
  auto opened = open_window(*config_.verify_ctx, message.signed_root);
  if (!opened) return;
  const auto window = std::make_shared<const VerifiedWindow>(std::move(*opened));
  const AggregatedBundle& root = window->root();
  // Rounds whose bundle leaf THIS message delivered first: only their other
  // leaves are taken from it, so a round's leaves all hang off one root.
  // Leaves are filed by what they claim; the one inclusion check of each
  // runs at finalize (verify_as_provider / verify_as_recipient), and a
  // leaf that fails it is reported there against the root's signer, the
  // only node that can send on this channel.
  std::set<ProtocolId> opened_rounds;
  for (const LeafOpening& opening : message.openings) {
    switch (opening.leaf.kind) {
      case LeafKind::kBundle: {
        const auto bundle = decode_leaf<CommitmentBundle>(root, opening);
        if (!bundle) break;
        RoundState& round = round_state(bundle->id);
        if (round.bundle.has_value()) break;
        round.window = window;
        round.bundle = opening;
        opened_rounds.insert(bundle->id);
        break;
      }
      case LeafKind::kProviderReveal: {
        const auto reveal = decode_leaf<RevealToProvider>(root, opening);
        if (!reveal || reveal->provider != config_.asn ||
            !opened_rounds.contains(reveal->id)) {
          break;
        }
        round_state(reveal->id).provider_reveal = opening;
        break;
      }
      case LeafKind::kRecipientReveal: {
        const auto reveal = decode_leaf<RevealToRecipient>(root, opening);
        if (!reveal || !opened_rounds.contains(reveal->id)) break;
        round_state(reveal->id).recipient_reveal = opening;
        break;
      }
      case LeafKind::kExport: {
        const auto statement = decode_leaf<ExportStatement>(root, opening);
        if (!statement || !opened_rounds.contains(statement->id)) break;
        round_state(statement->id).export_statement = opening;
        break;
      }
    }
  }
  observe_root(sim, message.signed_root, origin, 0, window);
}

void PvrNode::on_message(net::Transport& sim, const net::Message& message) {
  if (message.channel == kInputChannel && config_.role == PvrRole::kProver) {
    SignedMessage envelope;
    try {
      envelope = SignedMessage::decode(message.payload);
    } catch (const std::out_of_range&) {
      return;
    }
    if (!config_.verify_ctx->verify(envelope) ||
        envelope.signer != message.from) {
      return;  // unauthenticated input: ignored
    }
    try {
      const InputAnnouncement announcement =
          InputAnnouncement::decode(envelope.payload);
      if (announcement.provider != message.from) return;
      if (announcement.id.prover != config_.asn) return;
      collected_inputs_[announcement.id][message.from] = envelope;
    } catch (const std::out_of_range&) {
    }
    return;
  }

  if (message.channel == kBundleAggChannel) {
    // Window messages come straight from the prover; anything else could
    // overwrite round state with attacker-chosen leaves.
    if (message.from != config_.prover) return;
    try {
      const AggregatedBundleMessage decoded =
          AggregatedBundleMessage::decode(message.payload);
      if (decoded.signed_root.signer != config_.prover) return;
      open_aggregated(sim, decoded, message.from);
    } catch (const std::out_of_range&) {
    }
    return;
  }
  if (message.channel == kGossipRootChannel) {
    if (const auto gossip = unwrap_hops(message.payload)) {
      observe_root(sim, gossip->envelope, message.from, gossip->hops);
    }
  }
}

RoundFindings PvrNode::check_round(const PvrConfig& config,
                                   const RoundState& round) {
  RoundFindings findings;
  // Conflicting windows for this round are equivocation: one root commits
  // to one bundle per round, so this is also how two bundles for the round
  // surface. Both windows are verified already; each pair is a compare.
  const auto& windows = round.observed_windows;
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    for (std::size_t j = i + 1; j < windows.size(); ++j) {
      if (auto conflict =
              check_root_equivocation(config.asn, *windows[i], *windows[j])) {
        findings.evidence.push_back(std::move(*conflict));
      }
    }
  }

  if (!round.bundle.has_value()) {
    // Nothing to verify: with an honest prover this only happens when the
    // node neither provided input nor expected output.
    if (round.own_input.has_value()) {
      findings.evidence.push_back(
          Evidence{.kind = ViolationKind::kMissingReveal,
                   .accused = config.prover,
                   .reporter = config.asn,
                   .index = 0,
                   .messages = {},
                   .leaves = {},
                   .detail = "no commitment bundle received"});
    }
    return findings;
  }

  const auto leaf = [](const std::optional<LeafOpening>& slot) {
    return slot.has_value() ? &*slot : nullptr;
  };
  if (config.role == PvrRole::kProvider) {
    auto found = verify_as_provider(config.asn, round.own_input, *round.window,
                                    *round.bundle, leaf(round.provider_reveal));
    findings.evidence.insert(findings.evidence.end(), found.begin(), found.end());
  } else if (config.role == PvrRole::kRecipient) {
    auto found = verify_as_recipient(*config.verify_ctx, config.asn,
                                     *round.window, *round.bundle,
                                     leaf(round.recipient_reveal),
                                     leaf(round.export_statement));
    findings.evidence.insert(findings.evidence.end(), found.begin(), found.end());
    // Accept the exported route only when every check passed (which
    // includes the export leaf decoding under the root).
    if (found.empty()) {
      const ExportStatement statement =
          ExportStatement::decode(round.export_statement->leaf.payload);
      if (statement.has_route) findings.accepted = statement.route;
    }
  }
  return findings;
}

void PvrNode::finalize_round(const ProtocolId& id) {
  RoundState& round = round_state(id);
  if (round.finalized) return;
  round.finalized = true;
  apply_round_findings(id, check_round(config_, round));
}

std::function<RoundFindings()> PvrNode::defer_finalize_checks(
    const ProtocolId& id) {
  RoundState& round = round_state(id);
  if (round.finalized) return {};
  round.finalized = true;
  // The closure takes the round's state, so a worker can check it while the
  // simulator keeps running. Nothing reads a finalized round again: the
  // moved-from leaf optionals stay engaged, so a late window message still
  // stops at `round.bundle.has_value()`, and gc_finalized drops the entry.
  return [config = &config_, snapshot = std::move(round)] {
    return check_round(*config, snapshot);
  };
}

void PvrNode::apply_round_findings(const ProtocolId& id, RoundFindings findings) {
  evidence_.insert(evidence_.end(),
                   std::make_move_iterator(findings.evidence.begin()),
                   std::make_move_iterator(findings.evidence.end()));
  if (findings.accepted.has_value()) accepted_[id] = *findings.accepted;
}

bool PvrNode::gc_finalized(const ProtocolId& id) {
  // The prover holds no RoundState for its own rounds — its per-round
  // weight is the collected-inputs table, released unconditionally once a
  // settled round is collected (rounds_run_ keeps re-commit protection).
  collected_inputs_.erase(id);
  const auto it = rounds_.find(id);
  if (it == rounds_.end()) return false;
  // Retention: unfinalized rounds still owe their checks.
  if (!it->second.finalized) return false;
  rounds_.erase(it);
  PVR_OBS_COUNT(node_rounds_gced, 1);
  return true;
}

bool PvrNode::gc_epoch_roots(bgp::AsNumber prover, std::uint64_t epoch) {
  const RootKey key{prover, epoch};
  if (std::erase_if(seen_roots_, [&](const auto& seen) {
        return seen.second == key;
      }) == 0) {
    return false;
  }
  PVR_OBS_COUNT(node_root_epochs_gced, 1);
  return true;
}

std::size_t PvrNode::seen_root_epochs() const {
  std::set<RootKey> epochs;
  for (const auto& seen : seen_roots_) epochs.insert(seen.second);
  return epochs.size();
}

std::optional<bgp::Route> PvrNode::accepted_route(const ProtocolId& id) const {
  const auto it = accepted_.find(id);
  if (it == accepted_.end()) return std::nullopt;
  return it->second;
}

Figure1Handles make_figure1_world(const Figure1Setup& setup) {
  Figure1Handles handles;
  handles.world = std::make_unique<Figure1World>(setup.seed);
  handles.prefix = bgp::Ipv4Prefix::parse("203.0.113.0/24");

  Figure1World& world = *handles.world;
  world.prover = setup.asn_base + 100;
  world.recipient = setup.asn_base + 200;
  for (std::size_t i = 0; i < setup.provider_count; ++i) {
    world.providers.push_back(setup.asn_base + 300 +
                              static_cast<bgp::AsNumber>(i));
  }

  std::vector<bgp::AsNumber> all = {world.prover, world.recipient};
  all.insert(all.end(), world.providers.begin(), world.providers.end());
  crypto::Drbg key_rng(setup.seed, "fig1-keys");
  handles.keys =
      std::make_unique<AsKeyPairs>(generate_keys(all, key_rng, setup.key_bits));
  handles.verify_ctx = std::make_unique<VerifyContext>(&handles.keys->directory);

  auto make_node = [&](bgp::AsNumber asn, PvrRole role) {
    PvrConfig config{
        .asn = asn,
        .role = role,
        .verify_ctx = handles.verify_ctx.get(),
        .private_key = &handles.keys->private_keys.at(asn).priv,
        .op = setup.op,
        .max_len = setup.max_len,
        .prover = world.prover,
        .providers = world.providers,
        .recipient = world.recipient,
        .collect_window = 10'000,
        .misbehavior = role == PvrRole::kProver ? setup.misbehavior
                                                : ProverMisbehavior{},
        .rng_seed = setup.seed,
    };
    world.sim.add_node(asn, std::make_unique<PvrNode>(std::move(config)));
  };

  make_node(world.prover, PvrRole::kProver);
  make_node(world.recipient, PvrRole::kRecipient);
  for (const bgp::AsNumber provider : world.providers) {
    make_node(provider, PvrRole::kProvider);
  }

  // Star links to the prover plus a verifier mesh for gossip.
  std::vector<bgp::AsNumber> verifiers = world.providers;
  verifiers.push_back(world.recipient);
  for (const bgp::AsNumber verifier : verifiers) {
    world.sim.connect(world.prover, verifier, {.latency = 1000});
  }
  for (std::size_t i = 0; i < verifiers.size(); ++i) {
    for (std::size_t j = i + 1; j < verifiers.size(); ++j) {
      world.sim.connect(verifiers[i], verifiers[j], {.latency = 1000});
    }
  }
  return handles;
}

}  // namespace pvr::core
