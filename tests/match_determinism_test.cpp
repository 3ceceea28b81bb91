// Determinism of parallel match (ISSUE 4 satellite).
//
// The ParallelMatcher's canonical delta merge promises that the same program
// and seed produce byte-identical firing logs (a) across repeated runs and
// (b) across match_threads ∈ {1,2,4} — any pool size, any thread schedule.
// These tests pin that promise at the engine level (watch-log comparison)
// and at the executor level (psm::run with K TLP workers × M match threads,
// strict vs robust, with the match-thread budget composing the two).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ops5/parser.hpp"
#include "psm/faults.hpp"
#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/scene_generator.hpp"
#include "util/rng.hpp"

namespace psmsys::psm {
namespace {

// ---------------------------------------------------------------------------
// Engine level: byte-identical firing logs
// ---------------------------------------------------------------------------

// Six productions with negated "already produced" guards, so every run
// terminates and the rule base is wide enough to split 4 ways.
constexpr const char* kJoinSrc = R"(
(literalize item k v)
(literalize pair a b)
(literalize done a)
(p join01 (item ^k 0 ^v <x>) (item ^k 1 ^v <x>) -(pair ^a <x> ^b 1)
   --> (make pair ^a <x> ^b 1))
(p join12 (item ^k 1 ^v <x>) (item ^k 2 ^v <x>) -(pair ^a <x> ^b 2)
   --> (make pair ^a <x> ^b 2))
(p join02 (item ^k 0 ^v <x>) (item ^k 2 ^v <x>) -(pair ^a <x> ^b 3)
   --> (make pair ^a <x> ^b 3))
(p chain (pair ^a <x> ^b 1) (pair ^a <x> ^b 2) -(done ^a <x>)
   --> (make done ^a <x>))
(p big (item ^v {<x> > 4}) -(pair ^a <x> ^b 9)
   --> (make pair ^a <x> ^b 9))
(p prune (done ^a <x>) (item ^k 0 ^v <x>) --> (remove 2))
)";

/// Seeded initial working memory; run to quiescence; return the watch-level-1
/// firing log ("cycle. production timetags...", one line per firing).
std::string firing_log(std::uint64_t seed, std::size_t match_threads) {
  auto program =
      std::make_shared<const ops5::Program>(ops5::parse_program(kJoinSrc));
  ops5::EngineOptions options;
  options.match_threads = match_threads;
  ops5::Engine engine(program, nullptr, options);
  std::string log;
  engine.set_watch(1, [&log](const std::string& line) { log += line + "\n"; });

  util::Rng rng(seed);
  for (int i = 0; i < 40; ++i) {
    engine.make_wme("item",
                    {{"k", ops5::Value(static_cast<double>(rng.next_int(0, 2)))},
                     {"v", ops5::Value(static_cast<double>(rng.next_int(0, 6)))}});
  }
  const auto result = engine.run();
  EXPECT_FALSE(result.cycle_limited);
  EXPECT_GT(result.firings, 0u);
  return log;
}

TEST(MatchDeterminism, FiringLogIdenticalAcrossRepeatedRuns) {
  for (const std::uint64_t seed : {11u, 29u, 83u}) {
    const std::string first = firing_log(seed, 2);
    const std::string second = firing_log(seed, 2);
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(MatchDeterminism, FiringLogIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {11u, 29u, 83u}) {
    const std::string one = firing_log(seed, 1);
    EXPECT_EQ(one, firing_log(seed, 2)) << "seed " << seed;
    EXPECT_EQ(one, firing_log(seed, 4)) << "seed " << seed;
  }
}

TEST(MatchDeterminism, SerialMatcherAgreesOnResults) {
  // Serial (match_threads = 0) may order conflict-set insertions differently
  // where resolution ties down to insertion sequence, so the *log* is not
  // part of the contract — but this confluent rule base must reach the same
  // final working memory.
  auto program =
      std::make_shared<const ops5::Program>(ops5::parse_program(kJoinSrc));
  const auto final_wm = [&](std::size_t match_threads) {
    ops5::EngineOptions options;
    options.match_threads = match_threads;
    ops5::Engine engine(program, nullptr, options);
    util::Rng rng(59);
    for (int i = 0; i < 40; ++i) {
      engine.make_wme("item",
                      {{"k", ops5::Value(static_cast<double>(rng.next_int(0, 2)))},
                       {"v", ops5::Value(static_cast<double>(rng.next_int(0, 6)))}});
    }
    (void)engine.run();
    return std::make_pair(engine.wmes_of_class("pair").size(),
                          engine.wmes_of_class("done").size());
  };
  EXPECT_EQ(final_wm(0), final_wm(2));
}

TEST(MatchDeterminism, ReconfigureMatchThreadsRequiresEmptyWorkingMemory) {
  auto program =
      std::make_shared<const ops5::Program>(ops5::parse_program(kJoinSrc));
  ops5::Engine engine(program, nullptr);
  EXPECT_EQ(engine.match_threads(), 0u);
  ops5::EngineConfig config = engine.config();
  config.match_threads = 2;
  engine.reconfigure(config);
  EXPECT_EQ(engine.match_threads(), 2u);
  engine.make_wme("item", {{"k", ops5::Value(0.0)}, {"v", ops5::Value(1.0)}});
  config.match_threads = 4;
  EXPECT_THROW(engine.reconfigure(config), std::logic_error);
  engine.reset();
  engine.reconfigure(config);  // legal again after reset
  EXPECT_EQ(engine.match_threads(), 4u);
}

// ---------------------------------------------------------------------------
// Executor level: the SPAM LCC workload under K TLP workers × M match threads
// ---------------------------------------------------------------------------

class MatchThreadsLccTest : public ::testing::Test {
 protected:
  MatchThreadsLccTest()
      : scene_(spam::generate_scene(spam::dc_config())),
        best_(spam::best_fragments(spam::run_rtf(scene_, 3).fragments)),
        decomposition_(spam::lcc_decomposition(3, scene_, best_)) {}

  [[nodiscard]] RunOptions opts(std::size_t procs, std::size_t match_threads,
                                bool strict) const {
    RunOptions options;
    options.task_processes = procs;
    options.strict = strict;
    options.match_threads = match_threads;
    return options;
  }

  [[nodiscard]] std::vector<spam::ConsistencyRecord> run_and_merge(RunOptions options,
                                                                   RunResult* out = nullptr) {
    std::mutex mu;
    std::vector<spam::ConsistencyRecord> merged;
    options.collect = [&](std::size_t, ops5::Engine& engine) {
      auto records = spam::extract_consistency(engine);
      const std::lock_guard<std::mutex> lock(mu);
      merged.insert(merged.end(), records.begin(), records.end());
    };
    auto result = run(decomposition_.factory, decomposition_.tasks, options);
    std::sort(merged.begin(), merged.end());
    if (out != nullptr) *out = std::move(result);
    return merged;
  }

  spam::Scene scene_;
  std::vector<spam::Fragment> best_;
  spam::Decomposition decomposition_;
};

TEST_F(MatchThreadsLccTest, ParallelMatchPreservesResultsAndCounts) {
  const auto baseline = run_and_merge(opts(1, 0, /*strict=*/true));
  ASSERT_FALSE(baseline.empty());

  for (const std::size_t match_threads : {std::size_t{1}, std::size_t{2}}) {
    RunResult result;
    const auto merged = run_and_merge(opts(2, match_threads, /*strict=*/true), &result);
    EXPECT_EQ(merged, baseline) << "match_threads=" << match_threads;
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.metrics.match_threads, match_threads);
    EXPECT_GT(result.metrics.match_parallel_ops, 0u);
#if PSMSYS_OBS
    EXPECT_GT(result.metrics.match_wall_ns, 0u);
    EXPECT_GT(result.metrics.match_busy_ns, 0u);
#endif
  }
}

TEST_F(MatchThreadsLccTest, StrictAndRobustEquivalentWithMatchThreadsOn) {
  // robustness_test-style equivalence, now with intra-task match parallelism:
  // strict and fault-free robust runs must produce identical results and
  // per-task measurements.
  RunResult strict_result;
  const auto strict_merged = run_and_merge(opts(1, 2, /*strict=*/true), &strict_result);
  RunResult robust_result;
  const auto robust_merged = run_and_merge(opts(1, 2, /*strict=*/false), &robust_result);

  EXPECT_EQ(strict_merged, robust_merged);
  EXPECT_TRUE(robust_result.complete());
  EXPECT_FALSE(robust_result.degraded());
  const auto& a = strict_result.report.measurements;
  const auto& b = robust_result.report.measurements;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].counters.total_cost(), b[i].counters.total_cost());
    EXPECT_EQ(a[i].counters.firings, b[i].counters.firings);
    EXPECT_EQ(a[i].counters.cycles, b[i].counters.cycles);
  }
}

TEST_F(MatchThreadsLccTest, RecoveryUnderFaultsWithMatchThreadsOn) {
  const auto baseline = run_and_merge(opts(1, 0, /*strict=*/true));

  FaultConfig faults;
  faults.seed = 515;
  faults.transient_rate = 0.25;  // attempts really execute, roll back, retry
  const FaultInjector injector(faults);
  RunOptions options = opts(2, 2, /*strict=*/false);
  options.attempts.max_attempts = 8;
  options.injector = &injector;

  RunResult result;
  const auto merged = run_and_merge(options, &result);
  EXPECT_EQ(merged, baseline);
  EXPECT_TRUE(result.complete());
  EXPECT_GT(result.report.retries, 0u) << "the injector must actually have fired";
}

TEST_F(MatchThreadsLccTest, MatchThreadBudgetClampsComposition) {
  RunOptions options = opts(2, 4, /*strict=*/true);
  options.match_thread_budget = 4;  // 2 procs x 4 requested -> 2 per process
  EXPECT_EQ(options.effective_match_threads(), 2u);

  RunResult result;
  const auto merged = run_and_merge(options, &result);
  EXPECT_EQ(result.metrics.match_threads, 2u);
  EXPECT_EQ(merged, run_and_merge(opts(1, 0, /*strict=*/true)));

  // The clamp never goes below one match thread.
  RunOptions tight = opts(8, 4, /*strict=*/true);
  tight.match_thread_budget = 2;
  EXPECT_EQ(tight.effective_match_threads(), 1u);
}

}  // namespace
}  // namespace psmsys::psm
