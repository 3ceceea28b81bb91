#include "psm/task.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace psmsys::psm {

util::WorkCounters counters_delta(const util::WorkCounters& before,
                                  const util::WorkCounters& after) noexcept {
  util::WorkCounters d;
  d.match_cost = after.match_cost - before.match_cost;
  d.alpha_tests = after.alpha_tests - before.alpha_tests;
  d.alpha_activations = after.alpha_activations - before.alpha_activations;
  d.join_probes = after.join_probes - before.join_probes;
  d.tokens_created = after.tokens_created - before.tokens_created;
  d.tokens_deleted = after.tokens_deleted - before.tokens_deleted;
  d.resolve_cost = after.resolve_cost - before.resolve_cost;
  d.rhs_cost = after.rhs_cost - before.rhs_cost;
  d.firings = after.firings - before.firings;
  d.rhs_actions = after.rhs_actions - before.rhs_actions;
  d.wmes_added = after.wmes_added - before.wmes_added;
  d.wmes_removed = after.wmes_removed - before.wmes_removed;
  d.cycles = after.cycles - before.cycles;
  return d;
}

TaskRunner::TaskRunner(const TaskProcessFactory& factory,
                       std::optional<std::size_t> match_threads,
                       std::optional<ops5::MatchCostSource> match_cost_source) {
  if (!factory.make_engine) throw std::invalid_argument("factory needs make_engine");
  engine_ = factory.make_engine();
  if (match_threads || match_cost_source) {
    ops5::EngineConfig config = engine_->config();
    if (match_cost_source) config.match_cost_source = *match_cost_source;
    if (match_threads) config.match_threads = *match_threads;
    engine_->reconfigure(config);
  }
  if (factory.base_init) factory.base_init(*engine_);
  // Base-WM loading is initialization, not task work; its cycle records (none
  // should exist, the engine has not run) and counters are excluded by the
  // per-task delta measurement.
  cycle_offset_ = engine_->cycle_records().size();
}

TaskMeasurement TaskRunner::measure_from(const Task& task, const util::WorkCounters& before) {
  TaskMeasurement m;
  m.task_id = task.id;
  m.counters = counters_delta(before, engine_->counters());
  const auto records = engine_->cycle_records();
  m.cycles.assign(records.begin() + static_cast<std::ptrdiff_t>(cycle_offset_), records.end());
  cycle_offset_ = records.size();
  return m;
}

TaskMeasurement TaskRunner::run(const Task& task) {
  const util::WorkCounters before = engine_->counters();
  task.inject(*engine_);
  (void)engine_->run();
  return measure_from(task, before);
}

TaskRunner::Scope TaskRunner::open_scope() {
  if (stream_active_) return engine_->undo_checkpoint();
  engine_->begin_undo_log();
  return std::nullopt;
}

void TaskRunner::close_scope(const Scope& scope, bool keep) {
  if (scope) {
    if (!keep) engine_->rollback_to_checkpoint(*scope);
    engine_->release_checkpoint(*scope);
  } else if (keep) {
    engine_->commit_undo_log();
  } else {
    engine_->rollback_undo_log();
  }
  if (!keep) cycle_offset_ = engine_->cycle_records().size();
}

// Runs the injected task to quiescence, in cancellation-polled slices when
// asked to. Returns true when the cycle deadline (or the engine's own
// max_cycles ceiling) cut the run off; throws TaskAborted when the predicate
// turns true between slices. The caller owns the rollback scope.
bool TaskRunner::run_sliced(const AttemptLimits& limits, std::uint64_t task_id) {
  const std::uint64_t cycle_deadline = limits.cycle_deadline;
  if (limits.cancelled == nullptr || limits.poll_every == 0) {
    return engine_->run(cycle_deadline).cycle_limited;
  }
  const std::uint64_t start = engine_->counters().cycles;
  while (true) {
    if ((*limits.cancelled)()) throw TaskAborted(task_id);
    std::uint64_t slice = limits.poll_every;
    if (cycle_deadline != 0) {
      const std::uint64_t used = engine_->counters().cycles - start;
      if (used >= cycle_deadline) return true;
      slice = std::min(slice, cycle_deadline - used);
    }
    const std::uint64_t before = engine_->counters().cycles;
    if (!engine_->run(slice).cycle_limited) return false;  // quiesced or halted
    // cycle_limited with less progress than the slice budget means the
    // engine's max_cycles ceiling stopped it — no further slice can advance.
    if (engine_->counters().cycles - before < slice) return true;
  }
}

TaskMeasurement TaskRunner::attempt(const Task& task, const AttemptLimits& limits) {
  const util::WorkCounters before = engine_->counters();
  const Scope scope = open_scope();
  bool deadline_hit = false;
  try {
    task.inject(*engine_);
    deadline_hit = run_sliced(limits, task.id);
    if (!deadline_hit && limits.collect != nullptr) (*limits.collect)(*engine_);
  } catch (...) {
    close_scope(scope, /*keep=*/false);
    throw;
  }
  if (deadline_hit) {
    close_scope(scope, /*keep=*/false);
    throw TaskDeadlineExceeded(task.id, limits.cycle_deadline);
  }
  close_scope(scope, /*keep=*/true);
  return measure_from(task, before);
}

void TaskRunner::crash(const Task& task, std::uint64_t cycles) {
  const Scope scope = open_scope();
  try {
    task.inject(*engine_);
    (void)engine_->run(cycles == 0 ? 1 : cycles);
  } catch (...) {
    close_scope(scope, /*keep=*/false);
    throw;
  }
  close_scope(scope, /*keep=*/false);
}

void TaskRunner::begin_stream() {
  if (stream_active_) throw std::logic_error("stream already active");
  engine_->begin_undo_log();
  stream_active_ = true;
}

void TaskRunner::end_stream() {
  if (!stream_active_) throw std::logic_error("no active stream to end");
  stream_active_ = false;
  engine_->rollback_undo_log();
  cycle_offset_ = engine_->cycle_records().size();
}

// ---------------------------------------------------------------------------
// Attempt loop
// ---------------------------------------------------------------------------

namespace {

/// Cycles an injected mid-task crash executes before dying: enough to leave
/// partial working-memory state behind, so recovery genuinely depends on
/// the rollback.
constexpr std::uint64_t kCrashAfterCycles = 2;

/// Fill in a failed attempt's result and error text from what it threw.
void describe_failure(AttemptOutcome& out) {
  try {
    std::rethrow_exception(out.exception);
  } catch (const TaskAborted& e) {
    out.result = AttemptResult::Aborted;
    out.error = e.what();
  } catch (const TaskDeadlineExceeded& e) {
    out.result = AttemptResult::DeadlineExceeded;
    out.error = e.what();
  } catch (const std::exception& e) {
    out.result = AttemptResult::Fault;
    out.error = e.what();
  } catch (...) {
    out.result = AttemptResult::Fault;
    out.error = "non-standard exception";
  }
}

}  // namespace

std::uint64_t attempt_deadline(std::uint64_t first, std::uint32_t attempt) noexcept {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  if (first == 0) return 0;
  const std::uint32_t doublings = attempt == 0 ? 0 : attempt - 1;
  if (doublings >= 64 || first > (kMax >> doublings)) return kMax;
  return first << doublings;
}

const char* to_string(AttemptResult result) noexcept {
  switch (result) {
    case AttemptResult::Completed: return "completed";
    case AttemptResult::Fault: return "fault";
    case AttemptResult::DeadlineExceeded: return "deadline_exceeded";
    case AttemptResult::Aborted: return "aborted";
    case AttemptResult::WorkerDied: return "worker_died";
  }
  return "unknown";
}

AttemptOutcome run_attempts(TaskRunner& runner, const Task& task, const AttemptPolicy& policy,
                            const FaultInjector* injector, AttemptLimits limits,
                            const AttemptHook& on_attempt, std::uint32_t attempts_before) {
  const std::size_t max_attempts = std::max<std::size_t>(policy.max_attempts, 1);
  AttemptOutcome out;
  for (std::uint32_t number = attempts_before + 1;; ++number) {
    out.attempts = number;
    try {
      if (injector != nullptr && injector->fails(task.id, number)) {
        // Mid-task crash: really execute a couple of cycles, roll back,
        // then fail.
        runner.crash(task, kCrashAfterCycles);
        throw InjectedTaskFault(task.id, number);
      }
      limits.cycle_deadline = injector != nullptr && injector->overruns(task.id, number)
                                  ? 1  // livelock: the deadline machinery must cut it off
                                  : attempt_deadline(policy.cycle_deadline, number);
      out.measurement = runner.attempt(task, limits);
      out.result = AttemptResult::Completed;
      out.error.clear();
      out.exception = nullptr;
    } catch (...) {
      out.exception = std::current_exception();
      describe_failure(out);
    }
    if (on_attempt) on_attempt(out);
    if (out.result == AttemptResult::Completed || out.result == AttemptResult::Aborted ||
        number >= max_attempts) {
      return out;
    }
  }
}

}  // namespace psmsys::psm
