// Machine-checked Section 5.1 independence: the static interference checker
// certifies the LCC and RTF task decompositions of all three airport
// datasets, the generated rule bases lint clean, and the certificate is what
// licenses PR 1's rollback-and-retry executor to replay tasks anywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "analysis/interference.hpp"
#include "analysis/lint.hpp"
#include "ops5/parser.hpp"
#include "psm/faults.hpp"
#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/phases.hpp"
#include "spam/scene_generator.hpp"

namespace psmsys::spam {
namespace {

using analysis::check_interference;
using analysis::InterferenceReport;

struct DatasetFixture {
  explicit DatasetFixture(const DatasetConfig& config)
      : name(config.name),
        scene(generate_scene(config)),
        best(best_fragments(run_rtf(scene, 3).fragments)) {}

  std::string name;
  Scene scene;
  std::vector<Fragment> best;
};

[[nodiscard]] std::vector<DatasetFixture>& fixtures() {
  static std::vector<DatasetFixture> all = [] {
    std::vector<DatasetFixture> v;
    for (const auto& cfg : all_datasets()) v.emplace_back(cfg);
    return v;
  }();
  return all;
}

// ---------------------------------------------------------------------------
// Independence certificates (tentpole acceptance)
// ---------------------------------------------------------------------------

TEST(InterferenceCertificate, LccLevels234AllDatasets) {
  for (const auto& fx : fixtures()) {
    for (const int level : {4, 3, 2}) {
      const auto d = lcc_decomposition(level, fx.scene, fx.best);
      ASSERT_EQ(d.spec.tasks.size(), d.tasks.size()) << fx.name << " L" << level;
      const InterferenceReport report = check_interference(d.spec);
      EXPECT_TRUE(report.independent())
          << fx.name << " L" << level << ": " << report.summary(*d.spec.program);
      EXPECT_EQ(report.tasks.size(), d.tasks.size());
      // Certificates are not vacuous: tasks really activate productions and
      // write results.
      std::size_t activatable = 0;
      std::size_t result_writes = 0;
      for (const auto& t : report.tasks) {
        activatable += t.activatable_productions;
        result_writes += t.result_writes;
      }
      EXPECT_GT(activatable, 0u) << fx.name << " L" << level;
      EXPECT_GT(result_writes, 0u) << fx.name << " L" << level;
    }
  }
}

TEST(InterferenceCertificate, LccLevel1SmallestDataset) {
  // Checking every Level 1 pair of the full task set takes minutes; a
  // contiguous slice keeps all the adjacent same-subject / same-constraint
  // pairs (the only candidates for overlap) at test-suite cost. The full set
  // is reachable via `spam_lint --interference sf --level 1`.
  const auto& fx = fixtures().front();  // SF: the paper's smallest dataset
  auto d = lcc_decomposition(1, fx.scene, fx.best);
  ASSERT_GT(d.spec.tasks.size(), 400u);
  d.spec.tasks.resize(400);
  const InterferenceReport report = check_interference(d.spec);
  EXPECT_TRUE(report.independent()) << report.summary(*d.spec.program);
}

TEST(InterferenceCertificate, RtfAllDatasets) {
  for (const auto& fx : fixtures()) {
    const auto d = rtf_decomposition(fx.scene, 3);
    ASSERT_EQ(d.spec.tasks.size(), d.tasks.size()) << fx.name;
    const InterferenceReport report = check_interference(d.spec);
    EXPECT_TRUE(report.independent()) << fx.name << ": " << report.summary(*d.spec.program);
    std::size_t result_writes = 0;
    for (const auto& t : report.tasks) result_writes += t.result_writes;
    EXPECT_GT(result_writes, 0u) << fx.name;
  }
}

TEST(InterferenceCertificate, BrokenLccKeysAreFlagged) {
  // Sanity check against a vacuously-passing checker. Misdescribe the merge:
  // claim consistency WMEs are identified by ^constraint alone. Two tasks
  // applying the same constraint to different subjects now collide, and the
  // checker must say so.
  const auto& fx = fixtures().front();
  auto d = lcc_decomposition(2, fx.scene, fx.best);
  ASSERT_EQ(d.spec.result_classes.size(), 1u);
  d.spec.result_classes[0].key_slots.resize(1);  // keep only ^constraint
  const InterferenceReport report = check_interference(d.spec);
  ASSERT_FALSE(report.independent());
  EXPECT_EQ(report.conflicts[0].kind, analysis::ConflictKind::WriteWrite);
}

TEST(InterferenceCertificate, RtfFactsAreLoadBearing) {
  // The scene facts are what separate rtf-tarmac (paved regions) from
  // rtf-tarmac-weak (mixed regions): both write ^class tarmac fragments, and
  // without the texture facts their region/id key sets are no longer
  // provably disjoint. Clearing the facts must break the certificate.
  const auto& fx = fixtures().front();
  auto d = rtf_decomposition(fx.scene, 3);
  ASSERT_TRUE(check_interference(d.spec).independent());
  d.spec.facts.clear();
  EXPECT_FALSE(check_interference(d.spec).independent());
}

// ---------------------------------------------------------------------------
// Lint of the generated rule bases (satellite b/c)
// ---------------------------------------------------------------------------

struct PhaseLintCase {
  const char* phase;
  std::string source;
  std::vector<const char*> seeds;
};

[[nodiscard]] std::vector<PhaseLintCase> phase_cases() {
  return {
      {"rtf", rtf_source(), {"region", "rtf-task"}},
      {"lcc", lcc_source(), {"fragment", "constraint", "support", "lcc-task"}},
      {"fa", fa_source(), {"fragment", "context", "fa-task"}},
      {"model", model_source(), {"functional-area", "model-task"}},
  };
}

TEST(RuleBaseLint, GeneratedPhasesHaveZeroErrors) {
  for (const auto& c : phase_cases()) {
    const ops5::Program p = ops5::parse_program(c.source);
    analysis::LintOptions options;
    options.seed_classes.emplace();
    for (const char* seed : c.seeds) {
      options.seed_classes->push_back(*p.class_index(*p.symbols().find(seed)));
    }
    const auto diags = analysis::lint_program(p, options);
    EXPECT_EQ(analysis::count_errors(diags), 0u) << c.phase;
    for (const auto& d : diags) {
      SCOPED_TRACE(c.phase);
      EXPECT_EQ(d.severity, analysis::Severity::Warning) << analysis::format_diagnostic(p, d);
    }
  }
}

TEST(RuleBaseLint, KnownWarningsArePinned) {
  // The only warnings across all four phase rule bases are deliberate:
  // bindings kept for LEX specificity (dropping them would reorder conflict
  // resolution). Pin them so new warnings can't creep in silently.
  std::map<std::string, std::set<std::string>> warnings;  // phase -> "CODE production"
  for (const auto& c : phase_cases()) {
    const ops5::Program p = ops5::parse_program(c.source);
    for (const auto& d : analysis::lint_program(p)) {
      warnings[c.phase].insert(std::string(analysis::code_name(d.code)) + " " +
                               p.symbols().name(d.production));
    }
  }
  const std::map<std::string, std::set<std::string>> expected = {
      {"rtf", {"AN002 rtf-abstract-blob", "AN002 rtf-access-road"}},
      {"fa", {"AN002 fa-seed-secondary"}},
  };
  EXPECT_EQ(warnings, expected);
}

// ---------------------------------------------------------------------------
// Certificate => PR 1's rollback/retry replay is safe (satellite d's claim,
// exercised end to end)
// ---------------------------------------------------------------------------

TEST(InterferenceCertificate, LicensesFaultInjectedReplay) {
  // The certificate says: no task reads another's writes, so a task that is
  // rolled back and retried — on any process, after any interleaving —
  // recomputes the same result WMEs. Check the implication on the real
  // executor: transient faults + multi-process execution must reproduce the
  // fault-free single-process merge bit for bit.
  const auto& fx = fixtures().front();
  const auto d = lcc_decomposition(3, fx.scene, fx.best);
  ASSERT_TRUE(check_interference(d.spec).independent());

  const auto run_and_merge = [&](std::size_t procs, const psm::FaultInjector* injector) {
    std::mutex mu;
    std::vector<ConsistencyRecord> merged;
    const auto collect = [&](std::size_t, ops5::Engine& engine) {
      auto records = extract_consistency(engine);
      const std::lock_guard<std::mutex> lock(mu);
      merged.insert(merged.end(), records.begin(), records.end());
    };
    psm::RunOptions options;
    options.task_processes = procs;
    options.attempts.max_attempts = 8;
    options.injector = injector;
    options.collect = collect;
    const auto result = psm::run(d.factory, d.tasks, options);
    EXPECT_TRUE(result.complete());
    std::sort(merged.begin(), merged.end());
    return merged;
  };

  const auto baseline = run_and_merge(1, nullptr);
  ASSERT_FALSE(baseline.empty());

  psm::FaultConfig faults;
  faults.seed = 7;
  faults.transient_rate = 0.25;
  const psm::FaultInjector injector(faults);
  EXPECT_EQ(run_and_merge(3, &injector), baseline);
}

}  // namespace
}  // namespace psmsys::spam
