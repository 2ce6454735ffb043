#include "engine/verification_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pvr::engine {

namespace {

[[nodiscard]] double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

VerificationEngine::VerificationEngine(std::size_t workers) {
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

VerificationEngine::~VerificationEngine() {
  // Join in the body, while every member is still alive: the worker that
  // finishes a sealed batch's last task folds it into done_ on its way
  // out.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void VerificationEngine::throw_if_pending(const char* where) const {
  if (pending_) {
    throw std::logic_error(std::string("VerificationEngine::") + where +
                           ": a begin_drain batch is in flight — collect() "
                           "it first");
  }
}

bool VerificationEngine::submit_node_round(core::PvrNode& node,
                                           const core::ProtocolId& id) {
  throw_if_pending("submit_node_round");
  // One task per check, all over one shared snapshot, so this round's
  // checks run concurrently; the fold puts the parts back in order.
  std::optional<core::DeferredRoundChecks> deferred =
      node.defer_finalize_checks(id);
  if (!deferred.has_value()) return false;
  TaskGroup group{.node = &node,
                  .id = id,
                  .first_ticket = 0,
                  .parts = deferred->checks.size()};
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    group.first_ticket = tasks_.size();
    for (auto& check : deferred->checks) tasks_.push_back(std::move(check));
    results_.resize(tasks_.size());
  }
  work_cv_.notify_all();
  groups_.push_back(group);
  return true;
}

std::size_t VerificationEngine::submit(
    const core::ProtocolId& id, std::function<core::RoundFindings()> work) {
  throw_if_pending("submit");
  std::size_t ticket;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ticket = tasks_.size();
    tasks_.push_back(std::move(work));
    results_.emplace_back();
  }
  work_cv_.notify_one();
  groups_.push_back(TaskGroup{
      .node = nullptr, .id = id, .first_ticket = ticket, .parts = 1});
  return ticket;
}

void VerificationEngine::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (next_ticket_ == tasks_.size()) {
      // Queued work outlives stopping_: the pool finishes what was
      // submitted before it exits.
      if (stopping_) return;
      work_cv_.wait(lock);
      continue;
    }
    const std::size_t ticket = next_ticket_++;
    std::function<core::RoundFindings()> work = std::move(tasks_[ticket]);
    lock.unlock();
    RoundOutcome outcome;
    {
      // The span brackets only the work closure: one lane per worker
      // thread, so an open trace shows engine occupancy directly.
      const obs::TraceSpan span("engine.task", "engine");
      const std::uint64_t start_us = obs::wall_clock_us();
      try {
        outcome.findings = work();
      } catch (...) {
        outcome.error = std::current_exception();
      }
      PVR_OBS_COUNT(engine_tasks, 1);
      PVR_OBS_RECORD(engine_task_us, obs::wall_clock_us() - start_us);
    }
    work = nullptr;  // release the closure's snapshot outside the lock
    lock.lock();
    results_[ticket] = std::move(outcome);
    completed_ += 1;
    if (sealed_ && completed_ == tasks_.size()) fold_sealed_batch(lock);
  }
}

void VerificationEngine::fold_sealed_batch(std::unique_lock<std::mutex>& lock) {
  Batch batch = std::move(*sealed_);
  sealed_.reset();
  std::vector<RoundOutcome> raw = std::move(results_);
  tasks_.clear();
  results_.clear();
  next_ticket_ = 0;
  completed_ = 0;
  lock.unlock();

  // Runs on whichever worker finished the batch's last task (or on the
  // submitting thread when the batch had already quiesced). Only touches
  // the self-contained task outputs — nodes stay with collect().
  batch.folded.reserve(batch.groups.size());
  for (const TaskGroup& group : batch.groups) {
    // Deterministic per-round reducer: fold the group's partial findings
    // in ticket order — the enumeration order check_round uses — so the
    // folded round is byte-identical to the sequential path regardless
    // of which workers ran which parts.
    RoundOutcome folded{.id = group.id, .findings = {}, .error = nullptr};
    for (std::size_t part = 0; part < group.parts; ++part) {
      RoundOutcome& outcome = raw[group.first_ticket + part];
      if (outcome.error) {
        if (!folded.error) folded.error = outcome.error;
        continue;
      }
      core::fold_round_findings(folded.findings, std::move(outcome.findings));
    }
    if (folded.error) {
      // A failed round contributes no findings (its node stays finalized
      // with none) — even the parts that succeeded.
      folded.findings = core::RoundFindings{};
    }
    batch.folded.push_back(std::move(folded));
  }
  batch.done_ms = now_ms();

  lock.lock();
  done_ = std::move(batch);
  // Notify while still holding the mutex: the waiter in collect() may
  // destroy this engine the moment it returns, and it cannot reacquire the
  // mutex (and so cannot return) until this thread has finished touching
  // done_cv_.
  done_cv_.notify_all();
}

void VerificationEngine::begin_drain() {
  throw_if_pending("begin_drain");
  pending_ = true;
  PVR_OBS_COUNT(engine_drains, 1);
  PVR_OBS_RECORD(scenario_drain_rounds, groups_.size());
  // Group bookkeeping must never survive into the next batch (tickets
  // restart at 0) — the sealed batch owns it from here on.
  Batch batch{.groups = std::move(groups_),
              .folded = {},
              .begin_ms = now_ms(),
              .done_ms = 0};
  groups_.clear();
  std::unique_lock<std::mutex> lock(mutex_);
  sealed_ = std::move(batch);
  // Already quiesced (or empty): fold here. Otherwise the worker that
  // finishes the last task does.
  if (completed_ == tasks_.size()) fold_sealed_batch(lock);
}

EngineReport VerificationEngine::collect(bool rethrow_errors) {
  if (!pending_) {
    throw std::logic_error(
        "VerificationEngine::collect: no batch in flight (call begin_drain "
        "first)");
  }
  const double arrive_ms = now_ms();
  Batch batch;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return done_.has_value(); });
    batch = std::move(*done_);
    done_.reset();
  }
  pending_ = false;

  const obs::TraceSpan collect_span("engine.collect", "engine");
  EngineReport report;
  report.outcomes.reserve(batch.folded.size());
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < batch.folded.size(); ++i) {
    const TaskGroup& group = batch.groups[i];
    RoundOutcome& folded = batch.folded[i];
    if (folded.error) {
      report.failed_rounds += 1;
      if (!first_error) first_error = folded.error;
    } else {
      report.violations += folded.findings.evidence.size();
      report.signatures_verified += folded.findings.signatures_verified;
      if (group.node != nullptr) {
        group.node->apply_round_findings(group.id, folded.findings);
      }
    }
    report.outcomes.push_back(std::move(folded));
  }
  report.rounds = report.outcomes.size();
  PVR_OBS_COUNT(engine_rounds_folded, report.rounds);

  // Overlap accounting: the batch's async window is [begin, done]; the
  // slice of it that elapsed before the caller arrived here is work that
  // overlapped whatever the caller did in between (simulation, in the
  // online runner). A blocking drain arrives almost immediately, so its
  // overlap is ~0 by construction.
  report.verify_wall_ms = std::max(0.0, batch.done_ms - batch.begin_ms);
  report.overlapped_ms =
      std::max(0.0, std::min(batch.done_ms, arrive_ms) - batch.begin_ms);
  PVR_OBS_RECORD(engine_overlap_us,
                 static_cast<std::uint64_t>(report.overlapped_ms * 1000.0));
  obs::TraceWriter& tracer = obs::TraceWriter::global();
  if (tracer.active()) {
    // Per-batch overlap span (wall track, one shared lane): the window the
    // pool verified batch N while the submitting thread was elsewhere.
    const std::uint64_t now_us = tracer.wall_now_us();
    const std::uint64_t dur_us =
        static_cast<std::uint64_t>(report.overlapped_ms * 1000.0);
    const std::uint64_t since_begin_us =
        static_cast<std::uint64_t>((now_ms() - batch.begin_ms) * 1000.0);
    tracer.complete("engine.pipeline.overlap", "engine", obs::Track::kWall,
                    /*tid=*/0,
                    now_us >= since_begin_us ? now_us - since_begin_us : 0,
                    dur_us);
  }
  // Rethrow only after every successful round's findings were delivered.
  if (first_error && rethrow_errors) std::rethrow_exception(first_error);
  return report;
}

EngineReport VerificationEngine::drain(bool rethrow_errors) {
  const obs::TraceSpan drain_span("engine.drain", "engine");
  begin_drain();
  return collect(rethrow_errors);
}

std::size_t submit_world_round(VerificationEngine& engine,
                               core::Figure1World& world,
                               const core::ProtocolId& id) {
  std::size_t submitted = 0;
  for (const bgp::AsNumber provider : world.providers) {
    submitted += engine.submit_node_round(world.node(provider), id) ? 1 : 0;
  }
  submitted += engine.submit_node_round(world.node(world.recipient), id) ? 1 : 0;
  return submitted;
}

EngineReport finalize_world_round(VerificationEngine& engine,
                                  core::Figure1World& world,
                                  const core::ProtocolId& id) {
  (void)submit_world_round(engine, world, id);
  return engine.drain();
}

}  // namespace pvr::engine
