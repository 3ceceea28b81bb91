#include <gtest/gtest.h>

#include <mutex>
#include <numeric>
#include <set>

#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::psm {
namespace {

/// Strict-mode options: the run_threaded contract via the unified API.
RunOptions strict_opts(std::size_t procs, CollectFn collect = {}) {
  RunOptions options;
  options.task_processes = procs;
  options.strict = true;
  options.collect = std::move(collect);
  return options;
}

// ---------------------------------------------------------------------------
// Counters delta
// ---------------------------------------------------------------------------

TEST(CountersDelta, SubtractsFieldwise) {
  util::WorkCounters before;
  before.match_cost = 100;
  before.firings = 5;
  before.rhs_cost = 40;
  util::WorkCounters after = before;
  after.match_cost = 180;
  after.firings = 9;
  after.rhs_cost = 65;
  after.cycles = 4;
  const auto d = counters_delta(before, after);
  EXPECT_EQ(d.match_cost, 80u);
  EXPECT_EQ(d.firings, 4u);
  EXPECT_EQ(d.rhs_cost, 25u);
  EXPECT_EQ(d.cycles, 4u);
}

TEST(CountersDelta, AccumulateMatchesPlusEquals) {
  util::WorkCounters a;
  a.match_cost = 10;
  a.firings = 2;
  util::WorkCounters b;
  b.match_cost = 7;
  b.firings = 3;
  util::WorkCounters sum = a;
  sum += b;
  EXPECT_EQ(sum.match_cost, 17u);
  EXPECT_EQ(sum.firings, 5u);
}

// ---------------------------------------------------------------------------
// TaskRunner on a real decomposition
// ---------------------------------------------------------------------------

class PsmTaskTest : public ::testing::Test {
 protected:
  PsmTaskTest()
      : scene_(spam::generate_scene(spam::dc_config())),
        best_(spam::best_fragments(spam::run_rtf(scene_, 3).fragments)),
        decomposition_(spam::lcc_decomposition(3, scene_, best_)) {}

  spam::Scene scene_;
  std::vector<spam::Fragment> best_;
  spam::Decomposition decomposition_;
};

TEST_F(PsmTaskTest, RunnerMeasuresDeltas) {
  TaskRunner runner(decomposition_.factory);
  // Base-WM loading charges the engine before any task runs; task deltas
  // exclude it (the paper's measurement starts after initialization).
  const auto init_cost = runner.engine().counters().total_cost();
  const auto m0 = runner.run(decomposition_.tasks[0]);
  const auto m1 = runner.run(decomposition_.tasks[1]);
  EXPECT_EQ(m0.task_id, 0u);
  EXPECT_EQ(m1.task_id, 1u);
  EXPECT_GT(m0.cost(), 0u);
  EXPECT_GT(m1.cost(), 0u);
  EXPECT_GT(m0.counters.firings, 0u);
  // Engine counters are cumulative; init + task deltas = engine total.
  EXPECT_EQ(runner.engine().counters().total_cost(),
            init_cost + m0.counters.total_cost() + m1.counters.total_cost());
}

TEST_F(PsmTaskTest, FactoryValidation) {
  TaskProcessFactory broken;
  EXPECT_THROW(TaskRunner{broken}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Threaded executor: the asynchronous parallel system must be *equivalent*
// to the baseline for any number of task processes.
// ---------------------------------------------------------------------------

TEST_F(PsmTaskTest, ThreadedResultsIndependentOfProcessCount) {
  // Merged consistency records must be identical for 1, 2, and 5 processes
  // and equal to the single-runner baseline.
  std::vector<std::vector<spam::ConsistencyRecord>> merged_by_run;
  for (const std::size_t procs : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    std::mutex mu;
    std::vector<spam::ConsistencyRecord> merged;
    const auto collect = [&](std::size_t, ops5::Engine& engine) {
      auto records = spam::extract_consistency(engine);
      const std::lock_guard<std::mutex> lock(mu);
      merged.insert(merged.end(), records.begin(), records.end());
    };
    const auto result = run(decomposition_.factory, decomposition_.tasks,
                            strict_opts(procs, collect));
    EXPECT_EQ(result.measurements().size(), decomposition_.tasks.size());
    std::sort(merged.begin(), merged.end());
    merged_by_run.push_back(std::move(merged));
  }
  EXPECT_EQ(merged_by_run[0], merged_by_run[1]);
  EXPECT_EQ(merged_by_run[0], merged_by_run[2]);
  EXPECT_FALSE(merged_by_run[0].empty());
}

TEST_F(PsmTaskTest, ThreadedExecutesEveryTaskExactlyOnce) {
  const auto result = run(decomposition_.factory, decomposition_.tasks, strict_opts(3));
  ASSERT_EQ(result.measurements().size(), decomposition_.tasks.size());
  for (std::size_t i = 0; i < result.measurements().size(); ++i) {
    EXPECT_EQ(result.measurements()[i].task_id, i);
    EXPECT_GT(result.measurements()[i].cost(), 0u);
  }
  const std::size_t executed = std::accumulate(result.tasks_per_process().begin(),
                                               result.tasks_per_process().end(), std::size_t{0});
  EXPECT_EQ(executed, decomposition_.tasks.size());
  for (const std::size_t p : result.executed_by()) EXPECT_LT(p, 3u);
  // The unified result carries an aggregated metrics snapshot.
  EXPECT_EQ(result.metrics.tasks, decomposition_.tasks.size());
  EXPECT_GT(result.metrics.total_cost_wu(), 0u);
  EXPECT_GE(result.elapsed.count(), 0);
}

TEST_F(PsmTaskTest, ThreadedFiringsConserved) {
  // Total production firings are schedule-independent.
  const auto sequential = spam::run_baseline(decomposition_);
  const auto threaded = run(decomposition_.factory, decomposition_.tasks, strict_opts(4));
  std::uint64_t seq_firings = 0;
  std::uint64_t par_firings = 0;
  for (const auto& m : sequential) seq_firings += m.counters.firings;
  for (const auto& m : threaded.measurements()) par_firings += m.counters.firings;
  EXPECT_EQ(seq_firings, par_firings);
}

TEST_F(PsmTaskTest, ThreadedRejectsBadInput) {
  EXPECT_THROW((void)run(decomposition_.factory, decomposition_.tasks, strict_opts(0)),
               std::invalid_argument);
  auto tasks = decomposition_.tasks;
  tasks[0].id = 42;  // non-dense ids
  EXPECT_THROW((void)run(decomposition_.factory, std::move(tasks), strict_opts(2)),
               std::invalid_argument);
}

TEST_F(PsmTaskTest, ThreadedPropagatesWorkerExceptions) {
  std::vector<Task> tasks(2);
  tasks[0].id = 0;
  tasks[0].inject = [](ops5::Engine&) {};
  tasks[1].id = 1;
  tasks[1].inject = [](ops5::Engine&) { throw std::runtime_error("boom"); };
  EXPECT_THROW((void)run(decomposition_.factory, std::move(tasks), strict_opts(2)),
               std::runtime_error);
}

}  // namespace
}  // namespace psmsys::psm
