#include "engine/verification_engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/verify_context.h"
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

VerificationEngine::VerificationEngine(EngineConfig config,
                                       const core::VerifyContext* ctx)
    : ctx_(ctx),
      scheduler_(SchedulerConfig{.workers = config.workers,
                                 .shards = config.shards}) {}

VerificationEngine::VerificationEngine(EngineConfig config,
                                       const core::KeyDirectory* directory)
    : VerificationEngine(config, &directory->verify_context()) {}

const core::KeyDirectory& VerificationEngine::directory() const noexcept {
  return ctx_->directory();
}

bool VerificationEngine::submit_node_round(core::PvrNode& node,
                                           const core::ProtocolId& id) {
  if (pending_) {
    throw std::logic_error(
        "VerificationEngine::submit_node_round: a begin_drain batch is in "
        "flight — collect() it before submitting the next batch");
  }
  // One task per check, all over one shared snapshot. The salted scheduler
  // spreads them across shards, so this round's checks run concurrently;
  // drain() folds the parts back in order.
  std::optional<core::DeferredRoundChecks> deferred =
      node.defer_finalize_checks(id);
  if (!deferred.has_value()) return false;
  TaskGroup group{.node = &node,
                  .id = id,
                  .first_ticket = 0,
                  .parts = deferred->checks.size()};
  for (std::size_t part = 0; part < deferred->checks.size(); ++part) {
    const std::size_t ticket =
        scheduler_.submit(id, std::move(deferred->checks[part]));
    if (part == 0) group.first_ticket = ticket;
  }
  groups_.push_back(group);
  return true;
}

std::size_t VerificationEngine::submit(
    const core::ProtocolId& id, std::function<core::RoundFindings()> work) {
  if (pending_) {
    throw std::logic_error(
        "VerificationEngine::submit: a begin_drain batch is in flight — "
        "collect() it before submitting the next batch");
  }
  const std::size_t ticket = scheduler_.submit(id, std::move(work));
  groups_.push_back(TaskGroup{
      .node = nullptr, .id = id, .first_ticket = ticket, .parts = 1});
  return ticket;
}

void VerificationEngine::begin_drain() {
  if (pending_) {
    throw std::logic_error(
        "VerificationEngine::begin_drain: a batch is already in flight — "
        "collect() it before sealing the next one");
  }
  pending_ = true;
  PVR_OBS_COUNT(engine_drains, 1);
  PVR_OBS_RECORD(scenario_drain_rounds, groups_.size());
  // Group bookkeeping must never survive into the next batch (tickets
  // restart at 0) — the sealed batch owns it from here on.
  std::vector<TaskGroup> groups = std::move(groups_);
  groups_.clear();
  const double begin_ms = now_ms();
  scheduler_.begin_drain([this, groups = std::move(groups),
                          begin_ms](std::vector<RoundOutcome> raw) mutable {
    // Runs on whichever worker finishes the batch's last task (or on the
    // submitting thread when the batch already quiesced). Only touches the
    // self-contained task outputs — node and sink stay with collect().
    CompletedBatch batch;
    batch.begin_ms = begin_ms;
    batch.folded.reserve(groups.size());
    for (const TaskGroup& group : groups) {
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
        core::fold_round_findings(folded.findings,
                                  std::move(outcome.findings));
      }
      if (folded.error) {
        // A failed round contributes no findings (its node stays finalized
        // with none) — even the parts that succeeded.
        folded.findings = core::RoundFindings{};
      }
      batch.folded.push_back(std::move(folded));
    }
    batch.groups = std::move(groups);
    batch.done_ms = now_ms();
    {
      const std::lock_guard<std::mutex> lock(done_mutex_);
      done_ = std::move(batch);
      // Notify while still holding the mutex: the waiter in collect()
      // may destroy this engine the moment it returns, and it cannot
      // reacquire the mutex (and so cannot return) until this worker has
      // finished touching done_cv_. Notifying after unlock races the
      // broadcast against ~VerificationEngine's pthread_cond_destroy.
      done_cv_.notify_all();
    }
  });
}

EngineReport VerificationEngine::collect(bool rethrow_errors) {
  if (!pending_) {
    throw std::logic_error(
        "VerificationEngine::collect: no batch in flight (call begin_drain "
        "first)");
  }
  const double arrive_ms = now_ms();
  CompletedBatch batch;
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
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
      sink_.record_all(folded.findings.evidence);  // copy into ordered log
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
