#pragma once

// The unified PSM executor surface.
//
// One entry point — psm::run(factory, tasks, options) — replaced the old
// run_threaded / run_robust pair (PR 3; the deprecated shims are gone now
// that every caller goes through here). Strict mode is sugar over the
// robust core: a single attempt per task, the worker stops at its first
// failure, and the run throws instead of degrading. Every run returns a
// RunResult carrying the full RunReport, an obs::RunMetrics snapshot
// (aggregated engine counters + executor accounting + the OBS-only peak
// gauges), and the host wall-clock. Attaching an obs::Tracer yields a Chrome
// trace_event timeline: one always-recorded span per task attempt on the
// executing worker's lane, plus sampled per-cycle engine spans.
//
// simulate_tlp(costs, options) adopts the same options struct, so a measured
// run and its virtual-time replay are configured by one object.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "psm/faults.hpp"
#include "psm/sim.hpp"
#include "psm/task.hpp"

namespace psmsys::obs {
class Tracer;
}

namespace psmsys::psm {

/// Called once per task process after the queue is drained, from that
/// worker's thread, so the control process can collect results from the
/// process's working memory (Section 5.1: the control process "collects
/// from them the results"). Must synchronize its own sink.
using CollectFn = std::function<void(std::size_t process, ops5::Engine& engine)>;

/// Thrown by strict-mode runs when workers fail: carries *every* worker's
/// error, not just the first, so multi-worker failures are diagnosable.
class WorkerFailure : public std::runtime_error {
 public:
  explicit WorkerFailure(std::vector<std::exception_ptr> worker_errors);

  std::vector<std::exception_ptr> errors;
};

/// One attempt in a task's history (RunReport::attempts).
struct TaskAttempt {
  std::size_t process = 0;
  std::uint32_t number = 0;  ///< 1-based attempt number
  AttemptResult result = AttemptResult::Completed;
  std::string error;  ///< what() for Fault / DeadlineExceeded
};

/// Terminal disposition of a task in a run.
enum class TaskStatus : std::uint8_t {
  Completed,    ///< measurement + collected WM are valid
  Quarantined,  ///< failed max_attempts times; reported, not lost
  Abandoned,    ///< every worker died before it could run (no survivors)
};

/// Graceful degradation: what a robust run produced instead of an
/// all-or-nothing result. Every task id appears exactly once in
/// completed_ids ∪ quarantined_ids ∪ abandoned_ids.
struct RunReport {
  // Partial results (valid for completed tasks).
  std::vector<TaskMeasurement> measurements;   ///< by task id; final attempt's
  std::vector<std::size_t> executed_by;        ///< process of the final completion
  std::vector<std::size_t> tasks_per_process;  ///< surviving results per process
  std::chrono::nanoseconds wall{};

  // Accounting.
  std::vector<TaskStatus> status;                 ///< by task id
  std::vector<std::vector<TaskAttempt>> attempts; ///< by task id, in order
  std::vector<std::uint64_t> completed_ids;
  std::vector<std::uint64_t> quarantined_ids;
  std::vector<std::uint64_t> abandoned_ids;
  std::vector<std::size_t> dead_workers;       ///< processes that died mid-run
  std::uint64_t retries = 0;                   ///< attempts beyond each task's first
  std::uint64_t requeues = 0;                  ///< strandings recovered from dead workers
  /// Errors from quarantined tasks' final attempts (diagnosable, aggregated).
  std::vector<std::exception_ptr> errors;

  [[nodiscard]] bool complete() const noexcept {
    return quarantined_ids.empty() && abandoned_ids.empty();
  }
  [[nodiscard]] bool degraded() const noexcept {
    return !complete() || !dead_workers.empty();
  }
};

/// Options for psm::run (and, via the overload below, simulate_tlp).
struct RunOptions {
  std::size_t task_processes = 1;

  /// Strict mode: one attempt per task, the failing worker stops, and run()
  /// throws (the single error with its original type, or a WorkerFailure
  /// aggregating several). Fault injection is ignored in strict mode.
  /// Robust mode (default) never throws for task/worker failures — the
  /// degradation is reported in RunResult::report.
  bool strict = false;

  /// Attempts per task and the first attempt's cycle deadline (robust
  /// mode; strict mode makes one attempt under the same deadline).
  AttemptPolicy attempts{};

  /// Deterministic fault injection (robust mode only); may be null. Not
  /// owned; must outlive the run.
  const FaultInjector* injector = nullptr;

  /// Post-drain result collection, per worker.
  CollectFn collect{};

  /// Span sink: one "task" span per attempt plus sampled engine "cycle"
  /// spans (see obs::Tracer::set_sample_every). Null = no tracing. Not
  /// owned; must outlive the run.
  obs::Tracer* tracer = nullptr;

  // --- intra-task match parallelism ---

  /// Match workers inside each task-process engine (rete::ParallelMatcher).
  /// 0 = leave the factory's engine configuration untouched; N >= 1 rebuilds
  /// every task-process engine with N match threads before base init, so the
  /// run composes K TLP workers × M match threads.
  std::size_t match_threads = 0;

  /// Cap on total match threads across all task processes (0 = uncapped).
  /// The per-process count is clamped to max(1, budget / task_processes) so
  /// K × M never oversubscribes a host that cannot carry it — the explicit
  /// analog of the paper's "more processes than processors" caveat. The cap
  /// is a policy knob, not hardware detection: determinism tests on small
  /// hosts deliberately run more threads than cores.
  std::size_t match_thread_budget = 0;

  /// How per-production partition weights are estimated when match_threads
  /// rebuilds engines with a parallel matcher: the Rete static analyzer's
  /// join-cost model (default) or the legacy condition-count heuristic.
  /// Ignored when match_threads == 0 (the factory's engine config rules).
  ops5::MatchCostSource match_cost_source = ops5::MatchCostSource::Analyzer;

  /// match_threads after applying match_thread_budget.
  [[nodiscard]] std::size_t effective_match_threads() const noexcept {
    if (match_threads == 0) return 0;
    if (match_thread_budget == 0) return match_threads;
    const std::size_t per_process =
        match_thread_budget / (task_processes == 0 ? 1 : task_processes);
    return std::max<std::size_t>(1, std::min(match_threads, per_process));
  }

  // --- virtual-time replay (simulate_tlp overload) ---
  SchedulePolicy policy = SchedulePolicy::Fifo;
  util::WorkUnits queue_overhead_per_task = 40;

  /// The TlpConfig this options object denotes.
  [[nodiscard]] TlpConfig tlp() const noexcept {
    return TlpConfig{task_processes, queue_overhead_per_task, policy};
  }
};

/// Everything a run produced: the per-task report, the aggregated metrics
/// snapshot, and the host wall-clock (same value as report.wall).
struct RunResult {
  RunReport report;
  obs::RunMetrics metrics;
  std::chrono::nanoseconds elapsed{};

  // Forwarding accessors for the common fields.
  [[nodiscard]] const std::vector<TaskMeasurement>& measurements() const noexcept {
    return report.measurements;
  }
  [[nodiscard]] const std::vector<std::size_t>& executed_by() const noexcept {
    return report.executed_by;
  }
  [[nodiscard]] const std::vector<std::size_t>& tasks_per_process() const noexcept {
    return report.tasks_per_process;
  }
  [[nodiscard]] bool complete() const noexcept { return report.complete(); }
  [[nodiscard]] bool degraded() const noexcept { return report.degraded(); }
};

/// Execute a task decomposition on real threads. See RunOptions for the
/// strict/robust contract. Task ids must be dense 0..n-1.
[[nodiscard]] RunResult run(const TaskProcessFactory& factory, std::vector<Task> tasks,
                            const RunOptions& options = {});

/// Aggregate a report into a metrics snapshot (sums completed tasks'
/// counters; executor accounting; no OBS gauges — run() fills those from the
/// live engines).
[[nodiscard]] obs::RunMetrics metrics_from(const RunReport& report,
                                           std::size_t task_processes);

/// Virtual-time replay configured by the same options object as the real
/// run: schedules measured task costs over options.task_processes processes
/// under options.policy / options.queue_overhead_per_task.
[[nodiscard]] TlpSimResult simulate_tlp(std::span<const util::WorkUnits> task_costs,
                                        const RunOptions& options);

}  // namespace psmsys::psm
