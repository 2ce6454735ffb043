// PVR protocol endpoints. Nodes program against the abstract net::Transport
// (net/transport.h) — the simulator, trace replay and the multiprocess
// lockstep plane all drive the same code.
//
// One PvrNode per AS in the Figure-1 scenario: the prover A, the providers
// N1..Nk, and the recipient B. The harness drives rounds:
//
//   1. providers call provide_input() (their signed route for this epoch),
//   2. the prover's start_round() opens a collection window; every prefix
//      started inside the window joins one aggregation batch. When the
//      window closes the prover runs run_prover per prefix, makes every
//      statement a leaf of one tree, signs its root ONCE, and sends each
//      neighbor ONE pvr.bundle.agg message: the signed root, every bundle
//      leaf and that neighbor's own reveal (or reveal + export) leaves,
//   3. verifiers gossip the small signed roots among themselves
//      ("pvr.gossip.root"); two signed roots that claim one round are
//      provable equivocation,
//   4. after the simulator quiesces, the rounds are finalized — by default
//      through engine::VerificationEngine (see finalize_world_round), with
//      sequential finalize_round() as the fallback path.
//
// All per-round node state is keyed by the full core::ProtocolId
// (prover, prefix, epoch), so concurrent rounds for different prefixes —
// or different provers — in the same epoch never collide.
//
// Byzantine behavior is injected via PvrConfig::misbehavior on the prover.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/bundle_aggregation.h"
#include "core/min_protocol.h"
#include "core/verify_context.h"
#include "crypto/sha256.h"
#include "net/simulator.h"

namespace pvr::core {

inline constexpr const char* kInputChannel = "pvr.input";
inline constexpr const char* kBundleAggChannel = "pvr.bundle.agg";
inline constexpr const char* kGossipRootChannel = "pvr.gossip.root";

enum class PvrRole : std::uint8_t { kProver, kProvider, kRecipient };

struct PvrConfig {
  bgp::AsNumber asn = 0;
  PvrRole role = PvrRole::kProvider;
  // The context every verification in this node goes through, shared by
  // the engine workers and every node of a world (core/verify_context.h).
  // Required: PvrNode's constructor throws std::invalid_argument on null.
  const VerifyContext* verify_ctx = nullptr;      // not owned
  const crypto::RsaPrivateKey* private_key = nullptr;  // not owned
  OperatorKind op = OperatorKind::kMinimum;
  std::uint32_t max_len = 16;
  bgp::AsNumber prover = 0;                 // A (verifiers need to know it)
  std::vector<bgp::AsNumber> providers;     // N1..Nk
  bgp::AsNumber recipient = 0;              // B
  net::SimTime collect_window = 10'000;     // µs the prover waits for inputs
  // Max µs a collection window stays open past its first prefix to batch
  // later start_round arrivals (0 = collect_window, i.e. only simultaneous
  // arrivals share a window). A prefix joins an open window only if it
  // still gets its full collect_window of input collection before the
  // window's deadline — otherwise it opens its own window, so staggered
  // arrivals never get a truncated collection phase (DESIGN.md §6).
  net::SimTime batch_deadline = 0;
  ProverMisbehavior misbehavior;            // prover only
  std::uint64_t rng_seed = 1;
  // Max times a gossiped signed root is relayed peer-to-peer. Bounds the
  // flood; must be >= the verifier mesh diameter for full convergence.
  std::uint8_t gossip_hop_budget = 8;
};

// Result of running one round's verifier checks (finalize_round, or its
// deferred form executed on an engine worker).
struct RoundFindings {
  std::vector<Evidence> evidence;
  std::optional<bgp::Route> accepted;  // recipient-side accepted route
};

// Prover-side notification that one collection window just fired: the
// epoch and the prefixes whose rounds were run and fanned out as one
// aggregation batch. Fires inside the simulator event that closed the
// window, AFTER every wire message of the batch has been sent, so a
// subscriber observes window closes in deterministic simulated-time order.
using WindowCloseHandler = std::function<void(
    std::uint64_t epoch, const std::vector<bgp::Ipv4Prefix>& prefixes)>;

class PvrNode : public net::Node {
 public:
  explicit PvrNode(PvrConfig config);

  void on_message(net::Transport& sim, const net::Message& message) override;

  // Subscribes to window-close events (prover role only fires them). The
  // online scenario pipeline uses this to learn which rounds exist without
  // polling; at most one handler is active (nullptr clears).
  void set_window_close_handler(WindowCloseHandler handler) {
    on_window_closed_ = std::move(handler);
  }

  // Provider-side: record_input, then sign and send `route` to the prover
  // for round (prover, prefix, epoch). Pass nullopt to explicitly provide
  // nothing (bookkeeping only).
  void provide_input(net::Transport& sim, std::uint64_t epoch,
                     const bgp::Ipv4Prefix& prefix,
                     const std::optional<bgp::Route>& route);

  // Provider-side state half of provide_input: records `route` as this
  // provider's own input for the round, which verify-as-provider compares
  // the prover's reveal against. Signs and sends nothing, so a trace
  // replay, whose prover already received the signed input, calls this
  // alone. Returns the recorded announcement (nullopt for no route).
  const std::optional<InputAnnouncement>& record_input(
      std::uint64_t epoch, const bgp::Ipv4Prefix& prefix,
      const std::optional<bgp::Route>& route);

  // Prover-side: adds (prefix, epoch) to the current collection window for
  // `epoch` (opening one if none is pending). When the window elapses, the
  // prover runs every pending prefix of the epoch as one aggregation batch
  // and fans out the results.
  void start_round(net::Transport& sim, std::uint64_t epoch,
                   const bgp::Ipv4Prefix& prefix);

  // Verifier-side sequential fallback: runs all checks for round `id` over
  // the messages received so far. Call after the simulator has quiesced.
  // The default path routes through engine::VerificationEngine instead
  // (defer_finalize_checks below, or engine::finalize_world_round).
  void finalize_round(const ProtocolId& id);

  // Engine-backed finalize: packages the checks for round `id` as one
  // closure that takes the round's state (nothing checks a finalized round
  // again), safe to run on a worker thread, and marks the round finalized
  // so a later finalize_round is a no-op. Returns an empty function if the round is already finalized.
  // The closure computes exactly what finalize_round would; the engine
  // delivers its findings via apply_round_findings.
  [[nodiscard]] std::function<RoundFindings()> defer_finalize_checks(
      const ProtocolId& id);

  // Delivers the outcome of a deferred round back into this node's evidence
  // log and accepted-route table. Must be called from the thread that owns
  // the node (i.e. after the engine has drained).
  void apply_round_findings(const ProtocolId& id, RoundFindings findings);

  // Online-mode GC: releases the per-round state of a round the CALLER
  // knows is settled (no message referencing it can still arrive — the
  // scenario runner waits out a conservative propagation horizon after the
  // window closes). A round that was never finalized is retained (its
  // checks still need the state). Prunes the RoundState and (on the
  // prover) the collected inputs. Deliverables — evidence_, accepted_ —
  // and the tiny re-commit / root-dedup guards are never touched, so a
  // duplicate or replayed message arriving for a pruned round is still
  // recognized and dropped instead of re-creating state. Returns true when
  // the round's state was released.
  bool gc_finalized(const ProtocolId& id);

  // Epoch-keyed GC of the verified-root dedup (the last unbounded
  // per-window residual): releases every seen-root digest of
  // (prover, epoch) at once. Only safe when the CALLER knows the epoch has
  // fully settled — every one of its rounds past the settle horizon, which
  // by construction includes the adversary's replay lag — because a
  // replayed root arriving after retirement would miss the dedup, re-enter
  // attach_root, re-create round state, and re-gossip. The online runner
  // retires an epoch when its last settled round is harvested; the
  // fingerprint-parity gates enforce the timing empirically. Returns true
  // when the epoch held digests.
  bool gc_epoch_roots(bgp::AsNumber prover, std::uint64_t epoch);

  // Root-dedup footprint: epochs currently holding digests, digests held
  // across them, and the high-water digest count since construction — the
  // numbers the epoch-GC test bounds by open epochs on a long trace.
  [[nodiscard]] std::size_t seen_root_epochs() const;
  [[nodiscard]] std::size_t seen_root_digests() const noexcept {
    return seen_roots_.size();
  }
  [[nodiscard]] std::size_t peak_seen_root_digests() const noexcept {
    return peak_seen_root_digests_;
  }

  // Rounds currently holding state, and the high-water mark since
  // construction. The online pipeline's memory claim is exactly
  // "peak_open_rounds() stays bounded by concurrently-open windows, not
  // trace length" (tests/scenario/online_pipeline_test.cpp asserts it).
  [[nodiscard]] std::size_t open_rounds() const noexcept {
    return rounds_.size();
  }
  [[nodiscard]] std::size_t peak_open_rounds() const noexcept {
    return peak_open_rounds_;
  }

  [[nodiscard]] const std::vector<Evidence>& evidence() const noexcept {
    return evidence_;
  }
  // The route B accepted in round `id` (nullopt if none / not recipient).
  [[nodiscard]] std::optional<bgp::Route> accepted_route(const ProtocolId& id) const;
  [[nodiscard]] bgp::AsNumber asn() const noexcept { return config_.asn; }
  // Messages and bytes this node pushed onto the wire (for experiments).
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  // Prover-side workload counters: rounds admitted to a collection window
  // and windows actually fired. windows_fired < rounds_started proves that
  // staggered arrivals coalesced into shared windows (batch_deadline >
  // collect_window) — the scenario reports assert on exactly this.
  [[nodiscard]] std::uint64_t rounds_started() const noexcept {
    return rounds_started_;
  }
  [[nodiscard]] std::uint64_t windows_fired() const noexcept {
    return windows_fired_;
  }
  // Prover-side signing and proof cost: window roots signed (one per
  // window when honest, two for an equivocating one), and the encoded
  // Merkle-proof bytes in the pvr.bundle.agg messages sent — the bandwidth
  // the single signature per window costs (paper §3.8).
  [[nodiscard]] std::uint64_t roots_signed() const noexcept {
    return roots_signed_;
  }
  [[nodiscard]] std::uint64_t proof_bytes_sent() const noexcept {
    return proof_bytes_sent_;
  }

 private:
  struct RoundState {
    // The window whose message first delivered this round's bundle leaf,
    // and the round's leaves from that same message.
    std::shared_ptr<const VerifiedWindow> window;
    std::optional<LeafOpening> bundle;
    std::optional<LeafOpening> provider_reveal;    // reveal addressed to us
    std::optional<LeafOpening> recipient_reveal;
    std::optional<LeafOpening> export_statement;
    std::optional<InputAnnouncement> own_input;    // what we provided
    // Every verified window whose signed prefix list claims this round, in
    // arrival order. The node's root dedup attaches each distinct root
    // once, and the round shares the window with every other round it
    // claims. Two conflicting entries prove equivocation: one root commits
    // to exactly one bundle per round, so two bundles always mean two
    // roots.
    std::vector<std::shared_ptr<const VerifiedWindow>> observed_windows;
    bool finalized = false;
  };

  // Every check of finalize_round, as a pure function of the round's
  // state: the root pairs in arrival order, then the role checks.
  [[nodiscard]] static RoundFindings check_round(const PvrConfig& config,
                                                 const RoundState& round);

  void send(net::Transport& sim, bgp::AsNumber to, const char* channel,
            std::vector<std::uint8_t> payload);
  // Records a signed aggregation root and relays it on pvr.gossip.root.
  // Copies already seen cost one hash and one lookup; only a first copy is
  // opened, unless the caller already opened it (`window`).
  void observe_root(net::Transport& sim, const SignedMessage& signed_root,
                    bgp::AsNumber origin, std::uint8_t hops,
                    std::shared_ptr<const VerifiedWindow> window = nullptr);
  // Unpacks a pvr.bundle.agg message from the prover into per-round state:
  // the first message to deliver a round's bundle leaf supplies all of the
  // round's leaves.
  void open_aggregated(net::Transport& sim, const AggregatedBundleMessage& message,
                       bgp::AsNumber origin);
  // Attaches a verified window to the round of every prefix it claims,
  // creating round state as needed (the claimed rounds are exactly the
  // rounds this neighborhood's prover ran, so creation is bounded by the
  // prover's own signing rate and GC'd like any other round state).
  void attach_root(const std::shared_ptr<const VerifiedWindow>& window);
  void run_prover_batch(net::Transport& sim, std::uint64_t epoch,
                        const std::vector<bgp::Ipv4Prefix>& prefixes);
  [[nodiscard]] std::vector<bgp::AsNumber> gossip_peers() const;

  // Prover-side: one open collection window. `fire_at` extends as prefixes
  // join (each needs collect_window µs of input collection) but never past
  // `deadline`; a prefix that cannot make the deadline opens a new window.
  struct CollectionWindow {
    net::SimTime deadline = 0;
    net::SimTime fire_at = 0;
    std::vector<bgp::Ipv4Prefix> prefixes;
  };
  void schedule_window_fire(net::Transport& sim, std::uint64_t epoch,
                            std::shared_ptr<CollectionWindow> window);

  // All round-state creation funnels through here so peak_open_rounds_
  // tracks every insertion.
  [[nodiscard]] RoundState& round_state(const ProtocolId& id);

  PvrConfig config_;
  crypto::Drbg rng_;
  // All per-round state, keyed by the full round identity. An ordered map
  // keeps deterministic iteration for replay.
  std::map<ProtocolId, RoundState> rounds_;
  // Prover-side: inputs collected per round.
  std::map<ProtocolId, std::map<bgp::AsNumber, std::optional<SignedMessage>>>
      collected_inputs_;
  // Prover-side: open collection windows per epoch (several can be in
  // flight when staggered start_round arrivals miss an earlier window's
  // deadline), and the next batch number per epoch.
  std::map<std::uint64_t, std::vector<std::shared_ptr<CollectionWindow>>>
      open_windows_;
  std::map<std::uint64_t, std::uint32_t> next_batch_;
  // Prover-side: rounds already run, so a re-announced prefix can never
  // make an honest prover commit to one round twice.
  std::set<ProtocolId> rounds_run_;
  // Verifier-side first-seen dedup of signed roots: the SHA-256 of each
  // verified root payload, mapped to the (prover, epoch) its window
  // belongs to. The digest names the payload, so a relayed or replayed
  // copy is recognized before anything is decoded or verified. Roots
  // attach to their claimed rounds ON ARRIVAL (attach_root creates round
  // state as needed), so this keeps no windows. NOT pruned per round by
  // gc_finalized: a stale replayed root must keep hitting the dedup (and
  // not re-create state or re-gossip) while any of its epoch's rounds can
  // still legally receive messages. Instead gc_epoch_roots retires a whole
  // epoch at a time, once the caller has waited out the settle horizon
  // (which bounds replay lag) for ALL of that epoch's rounds — so the
  // dedup footprint tracks OPEN epochs, not trace length
  // (peak_seen_root_digests() gates it alongside peak_open_rounds()).
  using RootKey = std::pair<bgp::AsNumber, std::uint64_t>;
  std::map<crypto::Digest, RootKey> seen_roots_;
  std::size_t peak_seen_root_digests_ = 0;
  std::vector<Evidence> evidence_;
  std::map<ProtocolId, bgp::Route> accepted_;
  WindowCloseHandler on_window_closed_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t rounds_started_ = 0;
  std::uint64_t windows_fired_ = 0;
  std::uint64_t roots_signed_ = 0;
  std::uint64_t proof_bytes_sent_ = 0;
  std::size_t peak_open_rounds_ = 0;
};

// Convenience: builds the full Figure-1 world (star topology links between
// every participant and the prover, plus a verifier mesh for gossip).
struct Figure1World {
  net::Simulator sim;
  bgp::AsNumber prover;
  std::vector<bgp::AsNumber> providers;
  bgp::AsNumber recipient;

  explicit Figure1World(std::uint64_t seed) : sim(seed), prover(0), recipient(0) {}

  [[nodiscard]] PvrNode& node(bgp::AsNumber asn) {
    return dynamic_cast<PvrNode&>(sim.node(asn));
  }
};

// Assembles the world: prover AS `asn_base`+100, providers `asn_base`+300..,
// recipient B at `asn_base`+200. All keys are generated from `seed`.
struct Figure1Setup {
  std::uint64_t seed = 1;
  std::size_t provider_count = 3;
  OperatorKind op = OperatorKind::kMinimum;
  std::uint32_t max_len = 16;
  ProverMisbehavior misbehavior;
  std::size_t key_bits = 512;  // small keys keep tests fast; benches use 1024
  // Offset applied to every ASN, so several neighborhoods (distinct
  // provers) can run in the same epoch without ASN collisions.
  bgp::AsNumber asn_base = 0;
};

struct Figure1Handles {
  std::unique_ptr<Figure1World> world;
  std::unique_ptr<AsKeyPairs> keys;
  // The one cache-off context every node of the world verifies through.
  std::unique_ptr<VerifyContext> verify_ctx;
  bgp::Ipv4Prefix prefix;

  // The identity of the round the harness drives for `epoch` over the
  // default prefix.
  [[nodiscard]] ProtocolId round_id(std::uint64_t epoch) const {
    return ProtocolId{.prover = world->prover, .prefix = prefix, .epoch = epoch};
  }
};

[[nodiscard]] Figure1Handles make_figure1_world(const Figure1Setup& setup);

}  // namespace pvr::core
