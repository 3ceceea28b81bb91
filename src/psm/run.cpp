#include "psm/run.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"

namespace psmsys::psm {

namespace {

[[nodiscard]] std::string describe_errors(const std::vector<std::exception_ptr>& errors) {
  std::string msg = std::to_string(errors.size()) + " worker(s) failed:";
  for (const auto& e : errors) {
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& ex) {
      msg += std::string(" [") + ex.what() + "]";
    } catch (...) {
      msg += " [non-standard exception]";
    }
  }
  return msg;
}

void validate_tasks(const std::vector<Task>& tasks, std::size_t task_processes) {
  if (task_processes == 0) throw std::invalid_argument("need at least one task process");
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].id != i) throw std::invalid_argument("task ids must be dense 0..n-1");
  }
}

/// The central task queue (Figure 5), blocking: a robust worker must not
/// exit while another worker still holds a task — if that worker dies, its
/// task is requeued and somebody has to be around to drain it. pop()
/// therefore blocks while work is in flight and returns nullptr only when
/// every task is resolved (or no live worker can ever resolve the remainder).
class Coordinator {
 public:
  Coordinator(const std::vector<Task>& tasks, std::size_t workers)
      : tasks_(tasks), live_workers_(workers) {}

  /// Next task to execute, or nullptr when all work is provably done.
  [[nodiscard]] const Task* pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      if (next_ < tasks_.size()) {
        ++in_flight_;
        return &tasks_[next_++];
      }
      if (!requeued_.empty()) {
        const std::uint64_t id = requeued_.front();
        requeued_.pop_front();
        ++in_flight_;
        return &tasks_[id];
      }
      if (in_flight_ == 0 || live_workers_ == 0) return nullptr;
      cv_.wait(lock);
    }
  }

  /// The held task is resolved (completed or quarantined), or — if
  /// `requeue_it` — stranded by the caller's death and back on the queue.
  void finish(std::uint64_t id, bool requeue_it) {
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
    if (requeue_it) requeued_.push_back(id);
    cv_.notify_all();
  }

  /// Results lost with a dead worker's WM: schedule re-execution.
  void requeue_lost(const std::vector<std::uint64_t>& ids) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto id : ids) requeued_.push_back(id);
    cv_.notify_all();
  }

  void worker_exited() {
    const std::lock_guard<std::mutex> lock(mutex_);
    --live_workers_;
    cv_.notify_all();
  }

 private:
  const std::vector<Task>& tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t next_ = 0;
  std::deque<std::uint64_t> requeued_;
  std::size_t in_flight_ = 0;
  std::size_t live_workers_ = 0;
};

enum class Disposition : std::uint8_t { Pending, Completed, Quarantined };

}  // namespace

WorkerFailure::WorkerFailure(std::vector<std::exception_ptr> worker_errors)
    : std::runtime_error(describe_errors(worker_errors)), errors(std::move(worker_errors)) {}

obs::RunMetrics metrics_from(const RunReport& report, std::size_t task_processes) {
  obs::RunMetrics m;
  m.task_processes = task_processes;
  for (const auto id : report.completed_ids) {
    m.add_counters(report.measurements[id].counters);
  }
  m.tasks = report.completed_ids.size();
  m.retries = report.retries;
  m.requeues = report.requeues;
  m.quarantined = report.quarantined_ids.size();
  m.abandoned = report.abandoned_ids.size();
  m.dead_workers = report.dead_workers.size();
  m.wall_ns = report.wall.count();
  return m;
}

TlpSimResult simulate_tlp(std::span<const util::WorkUnits> task_costs,
                          const RunOptions& options) {
  return simulate_tlp(task_costs, options.tlp());
}

RunResult run(const TaskProcessFactory& factory, std::vector<Task> tasks,
              const RunOptions& options) {
  const std::size_t task_processes = options.task_processes;
  validate_tasks(tasks, task_processes);
  const std::size_t n_tasks = tasks.size();
  const bool strict = options.strict;
  // Fault injection models recoverable faults; strict mode has no recovery.
  const FaultInjector* injector = strict ? nullptr : options.injector;
  obs::Tracer* tracer = options.tracer;
  AttemptPolicy policy = options.attempts;
  if (strict) policy.max_attempts = 1;
  // K TLP workers × M match threads, with M clamped by the thread budget so
  // the composition never oversubscribes beyond what the caller allowed.
  const std::size_t match_threads = options.effective_match_threads();
  const std::optional<std::size_t> match_override =
      match_threads > 0 ? std::optional<std::size_t>(match_threads) : std::nullopt;
  const std::optional<ops5::MatchCostSource> cost_source_override =
      match_threads > 0 ? std::optional<ops5::MatchCostSource>(options.match_cost_source)
                        : std::nullopt;

  RunResult result;
  RunReport& report = result.report;
  report.measurements.resize(n_tasks);
  report.executed_by.assign(n_tasks, 0);
  report.tasks_per_process.assign(task_processes, 0);
  report.attempts.assign(n_tasks, {});

  std::vector<Disposition> state(n_tasks, Disposition::Pending);
  std::vector<std::uint32_t> attempt_count(n_tasks, 0);
  std::mutex report_mutex;  // guards report bookkeeping + state + attempt_count
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> requeues{0};
  // Run-wide maxima of the per-engine OBS gauges (0 when compiled out).
  std::atomic<std::uint64_t> peak_conflict_set{0};
  std::atomic<std::uint64_t> peak_live_tokens{0};
  // Match-thread utilization, summed over workers at drain time.
  std::atomic<std::uint64_t> match_pool_threads{0};
  std::atomic<std::uint64_t> match_parallel_ops{0};
  std::atomic<std::uint64_t> match_busy_ns{0};
  std::atomic<std::uint64_t> match_wall_ns{0};
  // Partition-balance work units, folded over every engine at drain time.
  std::atomic<std::uint64_t> match_partitions{0};
  std::atomic<std::uint64_t> match_partition_cost_sum{0};
  std::atomic<std::uint64_t> match_partition_cost_max{0};

  [[maybe_unused]] const auto fold_peak = [](std::atomic<std::uint64_t>& peak,
                                             std::uint64_t v) {
    std::uint64_t cur = peak.load(std::memory_order_relaxed);
    while (v > cur &&
           !peak.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  };

  Coordinator coordinator(tasks, task_processes);

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    workers.reserve(task_processes);
    for (std::size_t p = 0; p < task_processes; ++p) {
      workers.emplace_back([&, p] {
        std::uint64_t my_pops = 0;
        std::vector<std::uint64_t> my_results;  // ids whose results live in this WM
        bool died = false;
        bool strict_failed = false;

        std::unique_ptr<TaskRunner> runner;
        try {
          runner = std::make_unique<TaskRunner>(factory, match_override,
                                                cost_source_override);
        } catch (...) {
          // A task process that cannot even initialize is a dead worker.
          const std::lock_guard<std::mutex> lock(report_mutex);
          report.dead_workers.push_back(p);
          report.errors.push_back(std::current_exception());
          coordinator.worker_exited();
          return;
        }
        if (tracer != nullptr) {
          runner->engine().set_tracer(tracer, static_cast<std::uint32_t>(p));
        }

        while (const Task* task = coordinator.pop()) {
          const std::uint64_t id = task->id;
          ++my_pops;

          if (injector != nullptr && injector->kills(p, my_pops)) {
            // The process dies holding `id`: the held task plus every result
            // in this WM are stranded. Requeue them all for re-execution.
            {
              const std::lock_guard<std::mutex> lock(report_mutex);
              report.dead_workers.push_back(p);
              report.attempts[id].push_back(
                  {p, attempt_count[id], AttemptResult::WorkerDied, "worker killed"});
              for (const auto lost : my_results) {
                state[lost] = Disposition::Pending;
                --report.tasks_per_process[p];
                report.attempts[lost].push_back(
                    {p, attempt_count[lost], AttemptResult::WorkerDied,
                     "result lost with worker"});
              }
            }
            requeues.fetch_add(1 + my_results.size(), std::memory_order_relaxed);
            coordinator.requeue_lost(my_results);
            coordinator.finish(id, /*requeue_it=*/true);
            died = true;
            break;
          }

          // Every failed attempt is rolled back, so the engine state a
          // successful attempt sees is bit-identical to a fault-free run's.
          // Attempt numbers continue across requeues of a lost result.
          std::uint32_t attempts_before = 0;
          {
            const std::lock_guard<std::mutex> lock(report_mutex);
            attempts_before = attempt_count[id];
          }
          auto attempt_begin = tracer != nullptr ? obs::Tracer::Clock::now()
                                                 : obs::Tracer::Clock::time_point{};
          const auto on_attempt = [&](const AttemptOutcome& attempt) {
            if (tracer != nullptr) {
              // One span per attempt, on the worker's lane, whatever the
              // outcome — the per-worker timeline is the point of the trace.
              const bool ok = attempt.result == AttemptResult::Completed;
              obs::json::Object args;
              args.emplace_back("task", obs::json::Value(id));
              if (!task->label.empty()) {
                args.emplace_back("label", obs::json::Value(task->label));
              }
              args.emplace_back("attempt", obs::json::Value(attempt.attempts));
              args.emplace_back("result", obs::json::Value(to_string(attempt.result)));
              args.emplace_back("cost_wu", obs::json::Value(
                                               ok ? attempt.measurement.counters.total_cost() : 0));
              args.emplace_back("cycles",
                                obs::json::Value(ok ? attempt.measurement.counters.cycles : 0));
              const auto attempt_end = obs::Tracer::Clock::now();
              tracer->record_span(
                  task->label.empty() ? ("task " + std::to_string(id)) : task->label,
                  "task", attempt_begin, attempt_end, static_cast<std::uint32_t>(p),
                  std::move(args));
              attempt_begin = attempt_end;
            }
#if PSMSYS_OBS
            // Engine gauges reset per task (peak_conflict_set) or survive
            // (rete token peak); sampling after every attempt keeps the
            // run-wide maxima exact either way.
            fold_peak(peak_conflict_set, runner->engine().peak_conflict_set());
            fold_peak(peak_live_tokens, runner->engine().network().peak_live_tokens());
#endif
            const std::lock_guard<std::mutex> lock(report_mutex);
            attempt_count[id] = attempt.attempts;
            report.attempts[id].push_back({p, attempt.attempts, attempt.result, attempt.error});
          };
          AttemptOutcome outcome = run_attempts(*runner, *task, policy, injector, {},
                                                on_attempt, attempts_before);
          retries.fetch_add(outcome.attempts - attempts_before - 1, std::memory_order_relaxed);
          {
            const std::lock_guard<std::mutex> lock(report_mutex);
            if (outcome.result == AttemptResult::Completed) {
              report.measurements[id] = std::move(outcome.measurement);
              report.executed_by[id] = p;
              ++report.tasks_per_process[p];
              state[id] = Disposition::Completed;
            } else {
              state[id] = Disposition::Quarantined;
              report.errors.push_back(outcome.exception);
            }
          }
          if (outcome.result == AttemptResult::Completed) {
            my_results.push_back(id);
          } else {
            strict_failed = strict;
          }

          coordinator.finish(id, /*requeue_it=*/false);
          // Strict contract: a worker stops at its first failure (the error
          // is aggregated and thrown after the join).
          if (strict_failed) break;
        }

        coordinator.worker_exited();
        {
          const rete::MatchThreadStats ms = runner->engine().match_thread_stats();
          fold_peak(match_pool_threads, ms.threads);
          match_parallel_ops.fetch_add(ms.ops, std::memory_order_relaxed);
          match_busy_ns.fetch_add(ms.busy_ns, std::memory_order_relaxed);
          match_wall_ns.fetch_add(ms.wall_ns, std::memory_order_relaxed);
          for (const std::uint64_t cost : runner->engine().match_partition_costs()) {
            match_partitions.fetch_add(1, std::memory_order_relaxed);
            match_partition_cost_sum.fetch_add(cost, std::memory_order_relaxed);
            fold_peak(match_partition_cost_max, cost);
          }
        }
        if (!died && !strict_failed && options.collect) {
          try {
            options.collect(p, runner->engine());
          } catch (...) {
            const std::lock_guard<std::mutex> lock(report_mutex);
            report.errors.push_back(std::current_exception());
          }
        }
      });
    }
  }  // jthreads join here
  report.wall = std::chrono::steady_clock::now() - start;

  report.retries = retries.load();
  report.requeues = requeues.load();
  report.status.resize(n_tasks);
  for (std::size_t i = 0; i < n_tasks; ++i) {
    switch (state[i]) {
      case Disposition::Completed:
        report.status[i] = TaskStatus::Completed;
        report.completed_ids.push_back(i);
        break;
      case Disposition::Quarantined:
        report.status[i] = TaskStatus::Quarantined;
        report.quarantined_ids.push_back(i);
        break;
      case Disposition::Pending:
        report.status[i] = TaskStatus::Abandoned;  // every worker died first
        report.abandoned_ids.push_back(i);
        break;
    }
  }

  if (strict && !report.errors.empty()) {
    if (report.errors.size() == 1) std::rethrow_exception(report.errors.front());
    throw WorkerFailure(std::move(report.errors));
  }

  result.elapsed = report.wall;
  result.metrics = metrics_from(report, task_processes);
  result.metrics.peak_conflict_set = peak_conflict_set.load();
  result.metrics.peak_live_tokens = peak_live_tokens.load();
  result.metrics.match_threads = match_pool_threads.load();
  result.metrics.match_parallel_ops = match_parallel_ops.load();
  result.metrics.match_busy_ns = match_busy_ns.load();
  result.metrics.match_wall_ns = match_wall_ns.load();
  result.metrics.match_partitions = match_partitions.load();
  result.metrics.match_partition_cost_sum = match_partition_cost_sum.load();
  result.metrics.match_partition_cost_max = match_partition_cost_max.load();
  return result;
}

}  // namespace psmsys::psm
