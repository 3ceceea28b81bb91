#pragma once

// SPAM/PSM task abstraction (Section 5.1).
//
// A task "is just a working memory element, which initializes the production
// system of the process": here, an inject function that adds the task WME(s)
// to a task process's engine. A task process is an Engine plus the base
// working memory copied from the control process; it executes tasks one
// after another, measuring each task's work-unit cost and per-cycle records.

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ops5/engine.hpp"
#include "psm/faults.hpp"
#include "util/counters.hpp"

namespace psmsys::psm {

struct Task {
  std::uint64_t id = 0;        ///< dense index; also the FIFO queue position
  std::string label;
  std::function<void(ops5::Engine&)> inject;
};

/// What executing one task cost (deltas over the task process's engine).
struct TaskMeasurement {
  std::uint64_t task_id = 0;
  util::WorkCounters counters;                ///< cost/ops delta for this task
  std::vector<ops5::CycleRecord> cycles;      ///< per-cycle records (if enabled)

  [[nodiscard]] util::WorkUnits cost() const noexcept { return counters.total_cost(); }
};

[[nodiscard]] util::WorkCounters counters_delta(const util::WorkCounters& before,
                                                const util::WorkCounters& after) noexcept;

/// Builds engines for task processes. The engine must come preconfigured
/// (program, externals, user data); `base_init` loads the control process's
/// initial working memory. Both run at task-process startup — the paper's
/// measurement interval starts only after "all the task processes have
/// performed their initializations" (Section 5.2), and ours does too.
struct TaskProcessFactory {
  std::function<std::unique_ptr<ops5::Engine>()> make_engine;
  std::function<void(ops5::Engine&)> base_init;
};

/// Thrown by TaskRunner::attempt when an attempt exceeds its cycle deadline.
/// The attempt's working-memory effects have already been rolled back when
/// this escapes.
class TaskDeadlineExceeded : public std::runtime_error {
 public:
  TaskDeadlineExceeded(std::uint64_t task_id, std::uint64_t cycle_deadline)
      : std::runtime_error("task " + std::to_string(task_id) + " exceeded its deadline of " +
                           std::to_string(cycle_deadline) + " cycles"),
        task_id(task_id),
        cycle_deadline(cycle_deadline) {}

  std::uint64_t task_id;
  std::uint64_t cycle_deadline;
};

/// Thrown by TaskRunner::attempt when the caller's cancellation predicate
/// turns true between execution slices (the serve watchdog's wall-clock
/// abort). The attempt's working-memory effects have already been rolled
/// back when this escapes.
class TaskAborted : public std::runtime_error {
 public:
  explicit TaskAborted(std::uint64_t task_id)
      : std::runtime_error("task " + std::to_string(task_id) + " aborted"), task_id(task_id) {}

  std::uint64_t task_id;
};

/// Bounds on one TaskRunner::attempt. The functions are borrowed, not
/// copied; either may be null.
struct AttemptLimits {
  /// Recognize-act cycles before the attempt is cut off (0 = unlimited).
  std::uint64_t cycle_deadline = 0;
  /// Polled between slices of `poll_every` cycles; true rolls the attempt
  /// back and throws TaskAborted. Slicing changes neither firing order nor
  /// measurements — the conflict set carries over between run() calls.
  const std::function<bool()>* cancelled = nullptr;
  std::uint64_t poll_every = 0;  ///< 0 = never poll
  /// Reads results out of working memory after the task quiesces, before
  /// the attempt's scope is closed. A throw rolls the attempt back.
  const std::function<void(ops5::Engine&)>* collect = nullptr;
};

/// One task process: engine + base WM, executing tasks sequentially.
///
/// An attempt's rollback scope follows from the runner's state. With no
/// stream open, an attempt opens the undo journal, commits it on success
/// and rolls the whole log back on failure (psm::run). Inside a stream
/// (begin_stream() .. end_stream()), an attempt opens a checkpoint, keeps
/// its effects on success and rolls back to the checkpoint on failure,
/// earlier ticks' effects surviving (serve). Either rollback restores
/// working memory, timetags, recency and the conflict set bit-identically.
class TaskRunner {
 public:
  /// `match_threads`: when set, the engine is rebuilt with that many match
  /// workers (0 = serial) *before* base_init loads the base working memory —
  /// the only point where the matcher can still be swapped. nullopt leaves
  /// the factory's engine configuration untouched. `match_cost_source`, when
  /// set, selects how partition weights are estimated (static analyzer vs.
  /// condition-count heuristic) and is applied before the matcher rebuild.
  explicit TaskRunner(const TaskProcessFactory& factory,
                      std::optional<std::size_t> match_threads = std::nullopt,
                      std::optional<ops5::MatchCostSource> match_cost_source = std::nullopt);

  /// Inject the task, run to quiescence, and return the measured deltas.
  TaskMeasurement run(const Task& task);

  /// Fault-tolerant attempt under `limits`. If the deadline cuts the run
  /// off, the predicate cancels it, or the task's inject/rules/collect
  /// throw, the attempt is rolled back and the error propagates
  /// (TaskDeadlineExceeded / TaskAborted / the original exception). On
  /// success the measurement is exactly what run() would have produced.
  TaskMeasurement attempt(const Task& task, const AttemptLimits& limits = {});

  /// Fault-simulation helper: start the task for real, execute at most
  /// `cycles` recognize-act cycles, then roll back — the mid-task crash the
  /// injector uses to prove recovery leaves no partial state.
  void crash(const Task& task, std::uint64_t cycles);

  /// Open the stream journal: until end_stream(), attempts keep their
  /// effects. Throws if a stream (or any undo log) is already active.
  void begin_stream();

  /// Close the stream: roll back every tick's effects so the engine is
  /// bit-identical to its pre-begin_stream() state.
  void end_stream();

  [[nodiscard]] ops5::Engine& engine() noexcept { return *engine_; }
  [[nodiscard]] const ops5::Engine& engine() const noexcept { return *engine_; }

 private:
  /// The scope of one attempt: a checkpoint inside a stream, else nullopt
  /// for the whole journal.
  using Scope = std::optional<ops5::Engine::UndoCheckpoint>;
  Scope open_scope();
  void close_scope(const Scope& scope, bool keep);
  TaskMeasurement measure_from(const Task& task, const util::WorkCounters& before);
  bool run_sliced(const AttemptLimits& limits, std::uint64_t task_id);

  std::unique_ptr<ops5::Engine> engine_;
  std::size_t cycle_offset_ = 0;
  bool stream_active_ = false;
};

// ------------------------------ attempt loop -------------------------------
//
// The paper's tasks are independent OPS5 runs, which is what lets a failed
// one be rolled back and run again. One loop does that for both executors:
// psm::run's batch tasks (journal scope) and the server's ticks (checkpoint
// scope).

/// How many attempts a task gets, and under what cycle budget.
struct AttemptPolicy {
  /// Attempts before the task is quarantined (0 is read as 1).
  std::size_t max_attempts = 3;
  /// Recognize-act cycles for the first attempt (0 = unlimited). Each retry
  /// doubles it, so a task that was merely slow (not livelocked) can still
  /// complete before quarantine.
  std::uint64_t cycle_deadline = 0;
};

/// The cycle budget of attempt `attempt` (1-based): `first` doubled per
/// retry, saturating at UINT64_MAX; 0 stays unlimited.
[[nodiscard]] std::uint64_t attempt_deadline(std::uint64_t first, std::uint32_t attempt) noexcept;

/// Why a task attempt ended.
enum class AttemptResult : std::uint8_t {
  Completed,         ///< ran to quiescence; measurement recorded
  Fault,             ///< the attempt threw (injected or real); rolled back
  DeadlineExceeded,  ///< cut off by the cycle deadline; rolled back
  Aborted,           ///< cancelled between slices; rolled back, never retried
  WorkerDied,        ///< psm::run: the executing process died; task requeued
};

[[nodiscard]] const char* to_string(AttemptResult result) noexcept;

/// The loop's state after each attempt (what its hook sees) and at its end.
struct AttemptOutcome {
  AttemptResult result = AttemptResult::Completed;  ///< of the latest attempt
  std::uint32_t attempts = 0;                       ///< number of the latest attempt
  TaskMeasurement measurement;                      ///< valid when Completed
  std::string error;             ///< what() of the latest attempt, if it failed
  std::exception_ptr exception;  ///< the latest attempt's failure
};

using AttemptHook = std::function<void(const AttemptOutcome&)>;

/// Attempt `task` on `runner` until an attempt completes, a TaskAborted
/// ends the loop (never retried), or an attempt numbered max_attempts or
/// more fails by fault or deadline overrun — the task is then quarantined.
/// Numbering continues after `attempts_before` earlier attempts. Before
/// each attempt the injector (may be null) is asked first: `fails` crashes
/// the attempt mid-run, `overruns` gives it a 1-cycle deadline; otherwise
/// the deadline is attempt_deadline(policy.cycle_deadline, number).
/// `on_attempt` (may be empty) runs after every attempt.
[[nodiscard]] AttemptOutcome run_attempts(TaskRunner& runner, const Task& task,
                                          const AttemptPolicy& policy,
                                          const FaultInjector* injector, AttemptLimits limits,
                                          const AttemptHook& on_attempt,
                                          std::uint32_t attempts_before = 0);

}  // namespace psmsys::psm
