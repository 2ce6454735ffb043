#include "engine/round_scheduler.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pvr::engine {

RoundScheduler::RoundScheduler(SchedulerConfig config) {
  const std::size_t shards = std::max<std::size_t>(1, config.shards);
  shard_queues_.resize(shards);
  shard_busy_.assign(shards, false);
  shard_totals_.assign(shards, 0);

  std::size_t workers = config.workers;
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

RoundScheduler::~RoundScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t RoundScheduler::shard_of(const core::ProtocolId& id,
                                     std::size_t salt) const {
  // Hash the (prover, prefix) projection, not the epoch.
  core::ProtocolId projection = id;
  projection.epoch = 0;
  // splitmix64-style finalizer over (key hash ⊕ salt): tickets are
  // sequential, so the mix must decorrelate low bits or salted loads
  // would stripe the shards.
  std::uint64_t mixed =
      static_cast<std::uint64_t>(core::ProtocolIdHash{}(projection)) ^
      (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(salt) + 1));
  mixed ^= mixed >> 30;
  mixed *= 0xbf58476d1ce4e5b9ull;
  mixed ^= mixed >> 27;
  mixed *= 0x94d049bb133111ebull;
  mixed ^= mixed >> 31;
  return static_cast<std::size_t>(mixed % shard_queues_.size());
}

std::size_t RoundScheduler::submit(const core::ProtocolId& id,
                                   std::function<core::RoundFindings()> work) {
  std::size_t ticket;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (async_callback_) {
      throw std::logic_error(
          "RoundScheduler::submit: a begin_drain batch is still in flight "
          "(tickets restart per batch — collect it first)");
    }
    ticket = tasks_.size();
    const std::size_t shard = shard_of(id, ticket);
    tasks_.push_back(Task{.id = id, .work = std::move(work)});
    results_.emplace_back();
    shard_queues_[shard].push_back(ticket);
    shard_totals_[shard] += 1;
  }
  work_cv_.notify_one();
  return ticket;
}

bool RoundScheduler::run_one(std::unique_lock<std::mutex>& lock) {
  // Find a shard that is idle and has queued work. Same-shard tasks are
  // FIFO and never run concurrently.
  for (std::size_t shard = 0; shard < shard_queues_.size(); ++shard) {
    if (shard_busy_[shard] || shard_queues_[shard].empty()) continue;
    shard_busy_[shard] = true;
    const std::size_t ticket = shard_queues_[shard].front();
    shard_queues_[shard].pop_front();
    Task task = std::move(tasks_[ticket]);

    lock.unlock();
    RoundOutcome outcome{.id = task.id, .findings = {}, .error = nullptr};
    {
      // The span brackets only the work closure: one lane per worker
      // thread, so an open trace shows engine occupancy directly.
      const obs::TraceSpan span("engine.task", "engine");
      const std::uint64_t start_us = obs::wall_clock_us();
      try {
        outcome.findings = task.work();
      } catch (...) {
        outcome.error = std::current_exception();
      }
      PVR_OBS_COUNT(engine_tasks, 1);
      PVR_OBS_RECORD(engine_task_us, obs::wall_clock_us() - start_us);
    }
    lock.lock();

    results_[ticket] = std::move(outcome);
    shard_busy_[shard] = false;
    completed_ += 1;
    // The shard may have more queued work another worker can now take.
    if (!shard_queues_[shard].empty()) work_cv_.notify_one();
    drain_cv_.notify_all();
    if (async_callback_ && completed_ == tasks_.size()) {
      // This worker just finished the async batch's last task: it extracts
      // the outcomes, resets the batch, and runs the completion callback
      // with the lock released — the engine's fold executes HERE, on a
      // worker thread, while the submitting thread is free to advance.
      std::vector<RoundOutcome> outcomes = take_outcomes_locked();
      std::function<void(std::vector<RoundOutcome>)> callback =
          std::move(async_callback_);
      async_callback_ = nullptr;
      lock.unlock();
      callback(std::move(outcomes));
      lock.lock();
    }
    return true;
  }
  return false;
}

void RoundScheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (run_one(lock)) continue;
    if (stopping_) return;
    work_cv_.wait(lock);
  }
}

std::vector<RoundOutcome> RoundScheduler::take_outcomes_locked() {
  std::vector<RoundOutcome> outcomes;
  outcomes.reserve(results_.size());
  for (std::optional<RoundOutcome>& result : results_) {
    outcomes.push_back(std::move(*result));
  }
  tasks_.clear();
  results_.clear();
  completed_ = 0;
  return outcomes;
}

std::vector<RoundOutcome> RoundScheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (async_callback_) {
    throw std::logic_error(
        "RoundScheduler::drain: a begin_drain batch is still in flight");
  }
  drain_cv_.wait(lock, [this] { return completed_ == tasks_.size(); });
  return take_outcomes_locked();
}

void RoundScheduler::begin_drain(
    std::function<void(std::vector<RoundOutcome>)> on_complete) {
  std::vector<RoundOutcome> ready;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (async_callback_) {
      throw std::logic_error(
          "RoundScheduler::begin_drain: a batch is already in flight — at "
          "most one async batch may be pending");
    }
    if (completed_ != tasks_.size()) {
      // Workers still own tasks of this batch: the last one to finish
      // invokes the callback (see run_one).
      async_callback_ = std::move(on_complete);
      return;
    }
    ready = take_outcomes_locked();
  }
  // Already quiesced (or empty batch): deliver synchronously, outside the
  // lock so the callback may submit the next batch immediately.
  on_complete(std::move(ready));
}

std::vector<std::uint64_t> RoundScheduler::shard_loads() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return shard_totals_;
}

}  // namespace pvr::engine
