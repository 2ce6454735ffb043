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
  // finishes a sealed batch's last task publishes it into done_ on its way
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
  std::function<core::RoundFindings()> check = node.defer_finalize_checks(id);
  if (!check) return false;
  (void)enqueue(id, std::move(check), &node);
  return true;
}

std::size_t VerificationEngine::submit(
    const core::ProtocolId& id, std::function<core::RoundFindings()> work) {
  throw_if_pending("submit");
  return enqueue(id, std::move(work), nullptr);
}

std::size_t VerificationEngine::enqueue(const core::ProtocolId& id,
                                        std::function<core::RoundFindings()> work,
                                        core::PvrNode* node) {
  std::size_t ticket;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ticket = tasks_.size();
    tasks_.push_back(std::move(work));
    results_.push_back(RoundOutcome{.id = id, .findings = {}, .error = nullptr});
  }
  work_cv_.notify_one();
  nodes_.push_back(node);
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
    core::RoundFindings findings;
    std::exception_ptr error;
    {
      // The span brackets only the work closure: one lane per worker
      // thread, so an open trace shows engine occupancy directly.
      const obs::TraceSpan span("engine.task", "engine");
      const std::uint64_t start_us = obs::wall_clock_us();
      try {
        findings = work();
      } catch (...) {
        error = std::current_exception();
      }
      PVR_OBS_COUNT(engine_tasks, 1);
      PVR_OBS_RECORD(engine_task_us, obs::wall_clock_us() - start_us);
    }
    work = nullptr;  // release the closure's snapshot outside the lock
    lock.lock();
    // A failed round contributes no findings (its node stays finalized
    // with none).
    results_[ticket].findings = std::move(findings);
    results_[ticket].error = error;
    completed_ += 1;
    if (sealed_ && completed_ == tasks_.size()) publish_sealed_batch();
  }
}

void VerificationEngine::publish_sealed_batch() {
  Batch batch = std::move(*sealed_);
  sealed_.reset();
  batch.outcomes = std::move(results_);
  tasks_.clear();
  results_.clear();
  next_ticket_ = 0;
  completed_ = 0;
  batch.done_ms = now_ms();

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
  PVR_OBS_RECORD(scenario_drain_rounds, nodes_.size());
  // Node bookkeeping must never survive into the next batch (tickets
  // restart at 0) — the sealed batch owns it from here on.
  Batch batch{.nodes = std::move(nodes_),
              .outcomes = {},
              .begin_ms = now_ms(),
              .done_ms = 0};
  nodes_.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  sealed_ = std::move(batch);
  // Already quiesced (or empty): publish here. Otherwise the worker that
  // finishes the last task does.
  if (completed_ == tasks_.size()) publish_sealed_batch();
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
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
    const RoundOutcome& outcome = batch.outcomes[i];
    if (outcome.error) {
      report.failed_rounds += 1;
      if (!first_error) first_error = outcome.error;
    } else {
      report.violations += outcome.findings.evidence.size();
      if (batch.nodes[i] != nullptr) {
        batch.nodes[i]->apply_round_findings(outcome.id, outcome.findings);
      }
    }
  }
  report.outcomes = std::move(batch.outcomes);
  report.rounds = report.outcomes.size();

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
