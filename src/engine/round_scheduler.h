// Sharded worker pool for (prover, prefix, epoch) verification rounds.
//
// The paper's feasibility argument (§4) needs one commitment/reveal round
// per (prover, prefix, epoch) at Internet scale; this scheduler drains
// thousands of such rounds through a bounded thread pool.
//
// Shard assignment (DESIGN.md §8.1): every submission's shard key is
// SALTED with its submission ticket, so even two tasks of the SAME round —
// e.g. the n+1 verifier checks of one (prover, prefix, epoch) — land on
// different shards and run concurrently. This is safe because submitted
// closures are self-contained snapshots (they share no mutable state), and
// it is what keeps one hot prefix from pinning a single worker.
//
// Determinism guarantee (DESIGN.md §"Engine"): drain() returns outcomes in
// submission order, and each round closure only reads its own snapshot, so
// the drained sequence — and therefore any Evidence log built from it — is
// byte-identical for every worker count.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/pvr_speaker.h"

namespace pvr::engine {

struct SchedulerConfig {
  // 0 = std::thread::hardware_concurrency(). The pool is created once in
  // the constructor and joined in the destructor.
  std::size_t workers = 0;
  std::size_t shards = 64;
};

// One drained round: the findings plus the identity of the round that
// produced them, in submission order. A round whose closure threw carries
// the exception instead of findings — one failing round never discards the
// results of the others.
struct RoundOutcome {
  core::ProtocolId id;
  core::RoundFindings findings;
  std::exception_ptr error;  // null on success
};

class RoundScheduler {
 public:
  explicit RoundScheduler(SchedulerConfig config = {});
  ~RoundScheduler();

  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  // Enqueues one round. Returns the submission ticket (index into the
  // vector drain() returns). Thread-compatible: submit from one thread.
  std::size_t submit(const core::ProtocolId& id,
                     std::function<core::RoundFindings()> work);

  // Blocks until every submitted round has run, then returns all outcomes
  // in submission order and resets the scheduler for the next batch.
  // Never throws for round failures: inspect RoundOutcome::error.
  // Throws std::logic_error while an async batch (begin_drain) is pending.
  [[nodiscard]] std::vector<RoundOutcome> drain();

  // Async half of the pipelined drain protocol: seals the current batch
  // and registers `on_complete` to receive its outcomes (submission order,
  // same contract as drain()). Non-blocking — if the batch already
  // quiesced the callback runs synchronously on the calling thread;
  // otherwise the WORKER that completes the batch's last task invokes it
  // (with the scheduler lock released), which is where the engine's
  // submission-ordered fold runs off the simulator thread. Until the
  // callback has run, submit(), drain(), and a second begin_drain() throw
  // std::logic_error: tickets restart at 0 per batch, so interleaving a
  // new submission into an unfinished batch would corrupt the
  // ticket-to-result mapping. At most ONE batch is ever in flight — the
  // two-slot buffer the online runner builds on top (DESIGN.md §12).
  void begin_drain(std::function<void(std::vector<RoundOutcome>)> on_complete);

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shard_queues_.size();
  }
  // The shard of a submission with ticket `salt`: hashes the (prover,
  // prefix) projection and mixes in the ticket, so every submission — same
  // round or not — gets an independent shard.
  [[nodiscard]] std::size_t shard_of(const core::ProtocolId& id,
                                     std::size_t salt) const;

  // Rounds submitted per shard since construction (for balance tests).
  [[nodiscard]] std::vector<std::uint64_t> shard_loads() const;

 private:
  struct Task {
    core::ProtocolId id;
    std::function<core::RoundFindings()> work;
  };

  void worker_loop();
  // Runs one queued task if any shard is runnable. Returns false when
  // nothing was runnable. Caller must hold `mutex_` (released while the
  // task body runs, reacquired before returning).
  bool run_one(std::unique_lock<std::mutex>& lock);
  // Extracts the finished batch's outcomes and resets per-batch state.
  // Caller must hold `mutex_` and have checked completed_ == tasks_.size().
  [[nodiscard]] std::vector<RoundOutcome> take_outcomes_locked();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  bool stopping_ = false;

  std::vector<Task> tasks_;                        // indexed by ticket
  std::vector<std::optional<RoundOutcome>> results_;
  std::vector<std::deque<std::size_t>> shard_queues_;  // tickets, FIFO
  std::vector<bool> shard_busy_;
  std::vector<std::uint64_t> shard_totals_;
  std::size_t completed_ = 0;
  // Non-null while an async batch is in flight (begin_drain registered a
  // callback the batch has not yet delivered to).
  std::function<void(std::vector<RoundOutcome>)> async_callback_;

  std::vector<std::thread> workers_;
};

}  // namespace pvr::engine
