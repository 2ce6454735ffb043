// The parallel verification engine: one flat worker pool that runs round
// checks off the simulator thread and hands each round's findings back.
//
// This is the DEFAULT verification path for simulator-driven rounds
// (sequential PvrNode::finalize_round is the fallback):
//
//   engine::VerificationEngine engine(8);
//   finalize_world_round(engine, world, handles.round_id(epoch));
//   // or, node by node:
//   for (PvrNode* node : verifiers) engine.submit_node_round(*node, id);
//   engine.drain();   // findings delivered back to each node
//
// Usage (standalone rounds, e.g. benches):
//   engine.submit(id, [&] { return check(...); });
//   EngineReport report = engine.drain();  // report.outcomes in
//                                          // submission order
//
// Rounds are identified by the full core::ProtocolId (prover, prefix,
// epoch) for submission and findings delivery, so concurrent rounds for
// different prefixes or provers in the same epoch never collide.
//
// One task per round (DESIGN.md §8.1): submit_node_round packages a
// node's round as one closure (PvrNode::defer_finalize_checks). Every task
// goes into one FIFO indexed by its ticket and any idle worker takes the
// next one, so a batch's rounds run concurrently. Each closure computes
// exactly what the sequential finalize_round would, so Evidence is
// byte-identical to the sequential path at any worker count.
//
// Determinism: findings are applied in submission order on the calling
// thread, so node evidence logs and EngineReport::outcomes are
// byte-identical across worker counts (see DESIGN.md §8.2).
//
// Pipelined (two-phase) drain — DESIGN.md §12: begin_drain() seals the
// current batch WITHOUT blocking; the worker that finishes the batch's
// last task publishes the batch's outcomes into a completed-batch slot.
// collect() then blocks only until that batch is complete and performs
// the thread-owning half — node apply_round_findings — on the calling
// thread. drain() is the blocking composition begin_drain() + collect().
// At most one batch is in flight: submit/begin_drain while one is pending
// throws.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/pvr_speaker.h"

namespace pvr::engine {

// One drained round: the findings plus the identity of the round that
// produced them. A round whose closure threw carries the exception instead
// of findings — one failing round never discards the results of the others.
struct RoundOutcome {
  core::ProtocolId id;
  core::RoundFindings findings;
  std::exception_ptr error;  // null on success
};

struct EngineReport {
  // One outcome per round, submission order.
  std::vector<RoundOutcome> outcomes;
  std::uint64_t rounds = 0;
  std::uint64_t violations = 0;
  // Rounds whose closure threw (their outcomes carry the exception and no
  // findings). Long-lived online pipelines drain with rethrow_errors =
  // false and GATE on this count instead of unwinding mid-simulation.
  std::uint64_t failed_rounds = 0;
  // Wall-clock profile of the batch's async window (begin_drain to the
  // last task), and the portion of it that elapsed BEFORE the caller came
  // back to collect — i.e. verification that overlapped whatever the
  // caller did in between. A blocking drain() reports ~0 overlap; the
  // pipelined runner sums these into pipeline_overlap_ratio.
  double verify_wall_ms = 0;
  double overlapped_ms = 0;
};

class VerificationEngine {
 public:
  // Starts `workers` worker threads (0 = hardware concurrency). Tasks
  // verify through whatever context their closures captured.
  explicit VerificationEngine(std::size_t workers);
  // Stops and joins the pool before any other member goes away; tasks
  // already submitted still run, and a sealed batch is still published.
  ~VerificationEngine();

  VerificationEngine(const VerificationEngine&) = delete;
  VerificationEngine& operator=(const VerificationEngine&) = delete;

  // Packages node's deferred finalize for round `id` (no-op if already
  // finalized). The findings are handed back to the node during drain().
  bool submit_node_round(core::PvrNode& node, const core::ProtocolId& id);

  // A free-standing round; its findings are returned only in the report.
  // Returns the round's ticket. Thread-compatible: submit from one thread.
  std::size_t submit(const core::ProtocolId& id,
                     std::function<core::RoundFindings()> work);

  // Blocks until all submitted rounds have run; applies node findings back
  // to their nodes (submission order) and returns the aggregate report.
  // Incremental by design: a long-lived engine alternates submit batches
  // and drains, each drain returning that batch's findings. If any round's
  // closure threw it is counted in EngineReport::failed_rounds and, when
  // `rethrow_errors` (the default), the first exception is rethrown AFTER
  // every successful round's findings were delivered — a failed round
  // loses only its own findings (its node stays finalized with none).
  // Online pipelines pass rethrow_errors = false and gate on the count: a
  // mid-simulation unwind would abandon every not-yet-submitted round,
  // which is worse than finishing the trace with one round short.
  // Equivalent to begin_drain() + collect(rethrow_errors).
  EngineReport drain(bool rethrow_errors = true);

  // Phase one of the pipelined drain: seals the submitted batch and
  // returns immediately. The worker that completes the batch's last task
  // publishes it. Throws std::logic_error if a
  // batch is already in flight. Safe on an empty batch (collect() then
  // returns an empty report).
  void begin_drain();

  // Phase two: blocks until the in-flight batch is complete, then — on
  // the calling thread, which must be the thread that owns the submitted
  // nodes — applies findings back to their nodes (submission order) and
  // returns the batch's report. Error semantics match drain(). Throws
  // std::logic_error when no batch is in flight.
  EngineReport collect(bool rethrow_errors = true);

  // True between begin_drain() and the matching collect().
  [[nodiscard]] bool has_pending() const noexcept { return pending_; }

 private:
  // A sealed batch on its way from begin_drain through its workers to
  // collect(): the node each round's findings go back to (nullptr for
  // free-standing rounds), indexed by ticket, and once every task has run,
  // the outcomes in the same order.
  struct Batch {
    std::vector<core::PvrNode*> nodes;
    std::vector<RoundOutcome> outcomes;
    double begin_ms = 0;  // wall clock at begin_drain
    double done_ms = 0;   // wall clock when the last task finished
  };

  void worker_loop();
  void throw_if_pending(const char* where) const;
  // Queues one round's closure; `node` receives its findings at collect().
  std::size_t enqueue(const core::ProtocolId& id,
                      std::function<core::RoundFindings()> work,
                      core::PvrNode* node);
  // Takes the sealed batch and its task outputs, resets the task vector
  // for the next batch, and publishes the batch to collect(). Caller holds
  // `mutex_`, a batch is sealed, and all of its tasks have finished.
  void publish_sealed_batch();

  // Submitting-thread state: the open batch's destination nodes, and
  // whether a sealed batch awaits collect().
  std::vector<core::PvrNode*> nodes_;
  bool pending_ = false;

  // Everything below crosses threads under `mutex_`: the task vector
  // (indexed by ticket), its outcomes, the next ticket a worker takes, and
  // the sealed and completed batch slots.
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stopping_ = false;
  std::vector<std::function<core::RoundFindings()>> tasks_;
  std::vector<RoundOutcome> results_;
  std::size_t next_ticket_ = 0;
  std::size_t completed_ = 0;
  std::optional<Batch> sealed_;
  std::optional<Batch> done_;

  std::vector<std::thread> workers_;
};

// Submits every verifier of `world` (providers, then the recipient) for
// round `id` WITHOUT draining. Returns how many rounds were actually
// deferred. Submit several rounds before one drain() to also batch
// cross-round work.
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
