// Facade tying the engine together: scheduler + batch verifier + sink.
//
// This is the DEFAULT verification path for simulator-driven rounds
// (sequential PvrNode::finalize_round is the fallback):
//
//   engine::VerificationEngine engine({.workers = 8}, &keys.directory);
//   finalize_world_round(engine, world, handles.round_id(epoch));
//   // or, node by node:
//   for (PvrNode* node : verifiers) engine.submit_node_round(*node, id);
//   engine.drain();   // findings delivered back to each node, evidence
//                     // aggregated into engine.sink() in submission order
//
// Usage (standalone rounds, e.g. benches):
//   engine.submit(id, [&] { return check(...); });
//   EngineReport report = engine.drain();
//
// Rounds are identified by the full core::ProtocolId (prover, prefix,
// epoch) throughout — submission tickets, shard assignment, and findings
// delivery — so concurrent rounds for different prefixes or provers in the
// same epoch never collide.
//
// Intra-round parallelism (DESIGN.md §8.1): submit_node_round splits a
// round into one task per check (PvrNode::defer_finalize_checks) and the
// salted scheduler spreads them across shards, so even a single round's
// n+1 verifier checks run concurrently. drain() folds each round's partial
// findings back together in enumeration order (core::fold_round_findings)
// — the same reduction the sequential check_round performs — before
// delivering them, so Evidence stays byte-identical to the sequential path
// at any worker count.
//
// Determinism: outcomes are applied in submission order after the pool has
// quiesced, so node evidence logs and the sink's log are byte-identical
// across worker counts (see DESIGN.md §"Engine").
//
// Pipelined (two-phase) drain — DESIGN.md §12: begin_drain() seals the
// current batch and hands it to the worker pool WITHOUT blocking; the
// worker that finishes the batch's last task folds every round's partial
// findings (submission-ordered, the same core::fold_round_findings
// reduction) into a completed-batch buffer. collect() then blocks only
// until that fold is ready and performs the thread-owning half — node
// apply_round_findings, sink recording — on the calling thread. drain()
// remains the blocking composition begin_drain() + collect(), so every
// legacy call site keeps the "after drain() returns, findings are applied"
// contract; only callers that interleave simulation between the two phases
// (the online scenario runner) migrate to the split protocol. At most one
// batch is in flight: submit/begin_drain while one is pending throws.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/evidence_sink.h"
#include "engine/round_scheduler.h"

namespace pvr::engine {

struct EngineConfig {
  std::size_t workers = 0;  // 0 = hardware concurrency
  std::size_t shards = 64;
};

struct EngineReport {
  // One outcome per ROUND (split checks are folded back), submission order.
  std::vector<RoundOutcome> outcomes;
  std::uint64_t rounds = 0;
  std::uint64_t violations = 0;
  std::uint64_t signatures_verified = 0;
  // Rounds whose closure threw (their outcomes carry the exception and no
  // findings). Long-lived online pipelines drain with rethrow_errors =
  // false and GATE on this count instead of unwinding mid-simulation.
  std::uint64_t failed_rounds = 0;
  // Wall-clock profile of the batch's async window (begin_drain to the
  // last fold), and the portion of it that elapsed BEFORE the caller came
  // back to collect — i.e. verification that overlapped whatever the
  // caller did in between. A blocking drain() reports ~0 overlap; the
  // pipelined runner sums these into pipeline_overlap_ratio.
  double verify_wall_ms = 0;
  double overlapped_ms = 0;
};

class VerificationEngine {
 public:
  // Shares `ctx` (not owned, must outlive the engine) across all workers —
  // the per-key Montgomery precompute and, when the context caches
  // verdicts, the world-level verified-signature cache.
  VerificationEngine(EngineConfig config, const core::VerifyContext* ctx);
  // Compatibility: uses the directory's shared cache-off context.
  VerificationEngine(EngineConfig config, const core::KeyDirectory* directory);

  // Packages node's deferred finalize for round `id` (no-op if already
  // finalized). The findings are handed back to the node during drain().
  bool submit_node_round(core::PvrNode& node, const core::ProtocolId& id);

  // A free-standing round; its evidence goes only to the sink.
  std::size_t submit(const core::ProtocolId& id,
                     std::function<core::RoundFindings()> work);

  // Blocks until all submitted rounds have run; applies node findings back
  // to their nodes, records all evidence into the sink (submission order),
  // and returns the aggregate report. Incremental by design: a long-lived
  // engine alternates submit batches and drains, each drain returning that
  // batch's findings. If any round's closure threw it is counted in
  // EngineReport::failed_rounds and, when `rethrow_errors` (the default),
  // the first exception is rethrown AFTER every successful round's
  // findings were delivered and owner bookkeeping was reset — a failed
  // round loses only its own findings (its node stays finalized with
  // none). Online pipelines pass rethrow_errors = false and gate on the
  // count: a mid-simulation unwind would abandon every not-yet-submitted
  // round, which is worse than finishing the trace with one round short.
  // Equivalent to begin_drain() + collect(rethrow_errors).
  EngineReport drain(bool rethrow_errors = true);

  // Phase one of the pipelined drain: seals the submitted batch and hands
  // it to the worker pool, returning immediately. The submission-ordered
  // fold runs on the worker that completes the batch's last task. Throws
  // std::logic_error if a batch is already in flight. Safe on an empty
  // batch (collect() then returns an empty report).
  void begin_drain();

  // Phase two: blocks until the in-flight batch's fold is ready, then — on
  // the calling thread, which must be the thread that owns the submitted
  // nodes — applies findings back to their nodes, records evidence into
  // the sink (submission order), and returns the batch's report. Error
  // semantics match drain(). Throws std::logic_error when no batch is in
  // flight.
  EngineReport collect(bool rethrow_errors = true);

  // True between begin_drain() and the matching collect().
  [[nodiscard]] bool has_pending() const noexcept { return pending_; }

  [[nodiscard]] EvidenceSink& sink() noexcept { return sink_; }
  [[nodiscard]] const core::KeyDirectory& directory() const noexcept;
  [[nodiscard]] const core::VerifyContext& verify_context() const noexcept {
    return *ctx_;
  }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return scheduler_.worker_count();
  }
  [[nodiscard]] const RoundScheduler& scheduler() const noexcept {
    return scheduler_;
  }

 private:
  // One submitted round: `parts` consecutive scheduler tickets starting at
  // `first_ticket`, folded back into one RoundOutcome during drain and
  // delivered to `node` (nullptr for free-standing rounds).
  struct TaskGroup {
    core::PvrNode* node = nullptr;
    core::ProtocolId id;
    std::size_t first_ticket = 0;
    std::size_t parts = 1;
  };

  // One folded batch parked between the worker-side fold and collect():
  // the immutable hand-off unit of the two-slot pipeline. `folded` holds
  // one fully-reduced RoundOutcome per group (same order as `groups`).
  struct CompletedBatch {
    std::vector<TaskGroup> groups;
    std::vector<RoundOutcome> folded;
    double begin_ms = 0;  // wall clock at begin_drain
    double done_ms = 0;   // wall clock when the fold finished
  };

  const core::VerifyContext* ctx_;  // not owned
  RoundScheduler scheduler_;
  EvidenceSink sink_;
  std::vector<TaskGroup> groups_;  // submission order
  // Pipelined-drain state. `pending_` is only touched by the submitting
  // thread (begin_drain/collect are thread-compatible like submit); the
  // completed batch crosses threads under `done_mutex_`.
  bool pending_ = false;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
  std::optional<CompletedBatch> done_;
};

// Submits every verifier of `world` (providers, then the recipient) for
// round `id` WITHOUT draining. Returns how many rounds were actually
// deferred. Every check of every round lands on its own salted shard;
// submit several rounds before one drain() to also batch cross-round work.
std::size_t submit_world_round(VerificationEngine& engine,
                               core::Figure1World& world,
                               const core::ProtocolId& id);

// The engine-default finalize for a simulator-driven Figure-1 round:
// submit_world_round + drain. Safe to call for several rounds back to
// back — each call is one drained batch.
EngineReport finalize_world_round(VerificationEngine& engine,
                                  core::Figure1World& world,
                                  const core::ProtocolId& id);

}  // namespace pvr::engine
