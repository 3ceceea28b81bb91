// Differential match oracle for the parallel matcher (ISSUE 4 satellite).
//
// Seeded random rule bases and WME add/remove traces are run through four
// matchers at once — the naive from-scratch oracle, the serial Rete network,
// and ParallelMatcher with 1, 2, and 4 threads — and the match sets must be
// identical after *every* operation. A racy or mis-merged parallel Rete
// cannot survive this: any lost, duplicated, or misordered delta diverges the
// set at the step where it happens.
//
// On top of set equality, the parallel matchers must agree on the exact
// listener *sequence* for every thread count (the canonical-merge determinism
// contract that makes firing logs reproducible).

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ops5/parser.hpp"
#include "rete/naive.hpp"
#include "rete/network.hpp"
#include "rete/parallel.hpp"
#include "util/rng.hpp"

namespace psmsys::rete {
namespace {

using ops5::Program;
using ops5::Value;
using ops5::Wme;

/// Tracks the current match multiset and the full ordered delta log. Multiset
/// because the Rete network may report the same (production, timetags)
/// instantiation once per distinct join path when one WME satisfies several
/// condition elements — activations and deactivations stay balanced, and the
/// engine's conflict set handles the copies symmetrically, so the matcher
/// contract is over the *support* (keys currently active), not the counts.
class OracleListener final : public MatchListener {
 public:
  explicit OracleListener(const Program& program) : program_(program) {}

  void on_activate(const ops5::Production& production,
                   std::span<const Wme* const> wmes) override {
    const std::string key = key_of(production, wmes);
    log_.push_back("+" + key);
    ++matches_[key];
  }

  void on_deactivate(const ops5::Production& production,
                     std::span<const Wme* const> wmes) override {
    const std::string key = key_of(production, wmes);
    log_.push_back("-" + key);
    const auto it = matches_.find(key);
    ASSERT_TRUE(it != matches_.end()) << "deactivation of unknown match: " << key;
    if (--it->second == 0) matches_.erase(it);
  }

  /// Keys with at least one live activation.
  [[nodiscard]] std::set<std::string> support() const {
    std::set<std::string> s;
    for (const auto& [key, count] : matches_) s.insert(key);
    return s;
  }
  [[nodiscard]] const std::vector<std::string>& log() const noexcept { return log_; }

 private:
  [[nodiscard]] std::string key_of(const ops5::Production& production,
                                   std::span<const Wme* const> wmes) const {
    std::string key = program_.symbols().name(production.name());
    for (const auto* w : wmes) key += ":" + std::to_string(w->timetag());
    return key;
  }

  const Program& program_;
  std::map<std::string, std::size_t> matches_;
  std::vector<std::string> log_;
};

/// Random rule base over two joinable classes: wide enough (4..9 productions)
/// that every partition count under test gets non-trivial partitions.
std::string random_program_source(util::Rng& rng) {
  std::string src = "(literalize a k v w)\n(literalize b k v w)\n";
  const int n_prods = static_cast<int>(rng.next_int(4, 9));
  for (int i = 0; i < n_prods; ++i) {
    src += "(p prod" + std::to_string(i) + "\n";
    const int n_ces = static_cast<int>(rng.next_int(1, 3));
    for (int c = 0; c < n_ces; ++c) {
      const bool negated = c > 0 && rng.next_bool(0.3);
      const char* cls = rng.next_bool(0.5) ? "a" : "b";
      src += std::string("   ") + (negated ? "-" : "") + "(" + cls;
      if (rng.next_bool(0.2)) {
        src += " ^k << " + std::to_string(rng.next_int(0, 2)) + " " +
               std::to_string(rng.next_int(0, 2)) + " >>";
      } else if (rng.next_bool(0.75)) {
        src += " ^k " + std::to_string(rng.next_int(0, 2));
      }
      if (c == 0) {
        src += " ^v <x>";
      } else if (rng.next_bool(0.7)) {
        const char* preds[] = {"", "<> ", "> ", "< "};
        src += std::string(" ^v ") + preds[rng.next_below(4)] + "<x>";
      }
      if (rng.next_bool(0.3)) {
        src += " ^w <y" + std::to_string(c) + "> ^v <> <y" + std::to_string(c) + ">";
      }
      src += ")\n";
    }
    src += "   -->\n   (halt))\n";
  }
  return src;
}

class MatchOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(MatchOracleTest, AllMatchersAgreeAtEveryStep) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const std::string src = random_program_source(rng);
  SCOPED_TRACE(src);
  const Program p = ops5::parse_program(src);

  OracleListener naive_l(p);
  OracleListener rete_l(p);
  util::WorkCounters naive_c, rete_c;
  NaiveMatcher naive(p, naive_l, naive_c);
  Network rete(p, rete_l, rete_c);

  constexpr std::size_t kThreadCounts[] = {1, 2, 4};
  std::vector<std::unique_ptr<OracleListener>> par_l;
  std::vector<std::unique_ptr<util::WorkCounters>> par_c;
  std::vector<std::unique_ptr<ParallelMatcher>> par;
  for (const std::size_t t : kThreadCounts) {
    par_l.push_back(std::make_unique<OracleListener>(p));
    par_c.push_back(std::make_unique<util::WorkCounters>());
    ParallelMatcherOptions options;
    options.threads = t;
    par.push_back(
        std::make_unique<ParallelMatcher>(p, *par_l.back(), *par_c.back(), util::CostModel{},
                                          options));
  }

  std::vector<std::unique_ptr<Wme>> owned;
  std::vector<const Wme*> live;
  ops5::TimeTag tag = 1;
  for (int step = 0; step < 150; ++step) {
    const bool remove = !live.empty() && rng.next_bool(0.35);
    if (remove) {
      const auto idx = rng.next_below(live.size());
      const Wme* w = live[idx];
      live[idx] = live.back();
      live.pop_back();
      naive.remove_wme(*w);
      rete.remove_wme(*w);
      for (auto& m : par) m->remove_wme(*w);
    } else {
      const auto cls = static_cast<ops5::ClassIndex>(rng.next_below(2));
      std::vector<Value> slots{Value(static_cast<double>(rng.next_int(0, 2))),
                               Value(static_cast<double>(rng.next_int(0, 4))),
                               Value(static_cast<double>(rng.next_int(0, 2)))};
      const auto cls_sym = *p.symbols().find(cls == 0 ? "a" : "b");
      owned.push_back(std::make_unique<Wme>(cls, cls_sym, std::move(slots), tag++));
      live.push_back(owned.back().get());
      naive.add_wme(*owned.back());
      rete.add_wme(*owned.back());
      for (auto& m : par) m->add_wme(*owned.back());
    }
    const std::set<std::string> oracle = naive_l.support();
    ASSERT_EQ(rete_l.support(), oracle) << "serial Rete diverged at step " << step;
    for (std::size_t i = 0; i < par.size(); ++i) {
      ASSERT_EQ(par_l[i]->support(), oracle)
          << "ParallelMatcher(" << kThreadCounts[i] << ") diverged at step " << step;
    }
    // Thread-count invariance is stronger than set equality: the canonical
    // merge must produce the identical delta *sequence* for every pool size.
    for (std::size_t i = 1; i < par.size(); ++i) {
      ASSERT_EQ(par_l[i]->log(), par_l[0]->log())
          << "delta order differs between 1 and " << kThreadCounts[i]
          << " threads at step " << step;
    }
  }

  // clear() must not throw mid-trace state away inconsistently (it resets
  // everything without listener callbacks; agreement after clear is covered
  // by the engine-level determinism test, which resets between runs).
  naive.clear();
  rete.clear();
  for (auto& m : par) m->clear();
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, MatchOracleTest, ::testing::Range(0, 20));

// ---------------------------------------------------------------------------
// Partitioning properties
// ---------------------------------------------------------------------------

TEST(ParallelMatcherPartitioning, DeterministicDisjointAndComplete) {
  util::Rng rng(42);
  const Program p = ops5::parse_program(random_program_source(rng));
  OracleListener l1(p), l2(p);
  util::WorkCounters c1, c2;
  ParallelMatcherOptions options;
  options.threads = 3;
  ParallelMatcher m1(p, l1, c1, {}, options);
  ParallelMatcher m2(p, l2, c2, {}, options);

  for (const auto& prod : p.productions()) {
    // Every production has exactly one owner, identical across instances.
    EXPECT_LT(m1.partition_of(prod.id()), m1.threads());
    EXPECT_EQ(m1.partition_of(prod.id()), m2.partition_of(prod.id()));
  }
  EXPECT_THROW((void)m1.partition_of(9999), std::out_of_range);
  // Production nodes are partitioned, never duplicated.
  EXPECT_EQ(m1.stats().production_nodes, p.productions().size());
}

TEST(ParallelMatcherPartitioning, ThreadCountClampedToProductions) {
  const Program p = ops5::parse_program(
      "(literalize a k v w)\n(p only (a ^v <x>) --> (halt))\n");
  OracleListener l(p);
  util::WorkCounters c;
  ParallelMatcherOptions options;
  options.threads = 8;
  ParallelMatcher m(p, l, c, {}, options);
  EXPECT_EQ(m.threads(), 1u);  // one production -> one partition
  EXPECT_EQ(m.stats().production_nodes, 1u);
}

TEST(ParallelMatcherPartitioning, RejectsZeroThreads) {
  const Program p = ops5::parse_program(
      "(literalize a k v w)\n(p only (a ^v <x>) --> (halt))\n");
  OracleListener l(p);
  util::WorkCounters c;
  ParallelMatcherOptions options;
  options.threads = 0;
  EXPECT_THROW((ParallelMatcher{p, l, c, {}, options}), std::invalid_argument);
}

TEST(ParallelMatcherStats, OpsCountedAndThreadsReported) {
  util::Rng rng(7);
  const Program p = ops5::parse_program(random_program_source(rng));
  OracleListener l(p);
  util::WorkCounters c;
  ParallelMatcherOptions options;
  options.threads = 2;
  ParallelMatcher m(p, l, c, {}, options);

  const auto cls = *p.class_index(*p.symbols().find("a"));
  const Wme w(cls, *p.symbols().find("a"),
              {Value(1.0), Value(2.0), Value(0.0)}, 1);
  m.add_wme(w);
  m.remove_wme(w);
  const MatchThreadStats stats = m.thread_stats();
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_EQ(stats.ops, 2u);
#if PSMSYS_OBS
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_GT(stats.busy_ns, 0u);
#endif
}

}  // namespace
}  // namespace psmsys::rete
