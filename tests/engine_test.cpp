#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ops5/engine.hpp"
#include "ops5/parser.hpp"

namespace psmsys::ops5 {
namespace {

std::shared_ptr<const Program> parse_shared(std::string_view src) {
  return std::make_shared<const Program>(parse_program(src));
}

// ---------------------------------------------------------------------------
// Recognize-act basics
// ---------------------------------------------------------------------------

TEST(Engine, FiresUntilQuiescence) {
  const auto program = parse_shared(R"(
(literalize region id class)
(literalize fragment region type)
(p classify
   (region ^id <r> ^class linear)
   -(fragment ^region <r>)
   -->
   (make fragment ^region <r> ^type runway))
)");
  Engine engine(program, nullptr);
  const auto linear = Value(*program->symbols().find("linear"));
  engine.make_wme("region", {{"id", Value(1.0)}, {"class", linear}});
  engine.make_wme("region", {{"id", Value(2.0)}, {"class", linear}});
  engine.make_wme("region", {{"id", Value(3.0)}, {"class", Value(99.0)}});

  const RunResult result = engine.run();
  EXPECT_EQ(result.firings, 2u);
  EXPECT_FALSE(result.halted);
  EXPECT_FALSE(result.cycle_limited);
  EXPECT_EQ(engine.wmes_of_class("fragment").size(), 2u);
}

TEST(Engine, MakeActionEvaluatesExpressions) {
  const auto program = parse_shared(R"(
(literalize in x)
(literalize out y)
(p calc (in ^x <v>) --> (make out ^y (compute <v> * 2 + 1)))
)");
  Engine engine(program, nullptr);
  engine.make_wme("in", {{"x", Value(20.0)}});
  engine.run();
  const auto outs = engine.wmes_of_class("out");
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0]->slot(0), Value(41.0));
}

TEST(Engine, RemoveActionRetracts) {
  const auto program = parse_shared(R"(
(literalize item n)
(p consume (item ^n <v>) --> (remove 1))
)");
  Engine engine(program, nullptr);
  for (int i = 0; i < 5; ++i) engine.make_wme("item", {{"n", Value(double(i))}});
  const RunResult result = engine.run();
  EXPECT_EQ(result.firings, 5u);
  EXPECT_EQ(engine.wm_size(), 0u);
}

TEST(Engine, ModifyActionReplacesWme) {
  const auto program = parse_shared(R"(
(literalize counter n)
(p bump (counter ^n < 3) --> (modify 1 ^n (compute 1 + 1 + 1)))
)");
  Engine engine(program, nullptr);
  engine.make_wme("counter", {{"n", Value(0.0)}});
  const RunResult result = engine.run();
  EXPECT_EQ(result.firings, 1u);
  const auto counters = engine.wmes_of_class("counter");
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0]->slot(0), Value(3.0));
  // Modify = remove + make: the replacement has a fresh timetag.
  EXPECT_GT(counters[0]->timetag(), 1u);
}

TEST(Engine, ModifyLoopRunsToFixpoint) {
  const auto program = parse_shared(R"(
(literalize counter n)
(p bump (counter ^n <v> ^n < 10) --> (modify 1 ^n (compute <v> + 1)))
)");
  Engine engine(program, nullptr);
  engine.make_wme("counter", {{"n", Value(0.0)}});
  const RunResult result = engine.run();
  EXPECT_EQ(result.firings, 10u);
  EXPECT_EQ(engine.wmes_of_class("counter")[0]->slot(0), Value(10.0));
}

TEST(Engine, HaltStopsImmediately) {
  const auto program = parse_shared(R"(
(literalize item n)
(p stop (item ^n 1) --> (halt))
(p spin (item ^n <v>) --> (modify 1 ^n (compute <v> + 0)))
)");
  Engine engine(program, nullptr);
  engine.make_wme("item", {{"n", Value(1.0)}});
  const RunResult result = engine.run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.firings, 1u);
}

TEST(Engine, MaxCyclesGuard) {
  const auto program = parse_shared(R"(
(literalize item n)
(p spin (item ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
)");
  EngineOptions options;
  options.max_cycles = 50;
  Engine engine(program, nullptr, options);
  engine.make_wme("item", {{"n", Value(0.0)}});
  const RunResult result = engine.run();
  EXPECT_TRUE(result.cycle_limited);
  EXPECT_EQ(result.cycles, 50u);
}

TEST(Engine, RefractionPreventsInfiniteRefire) {
  // Without refraction this production would fire forever on the same WME.
  const auto program = parse_shared(R"(
(literalize item n)
(literalize log m)
(p note (item ^n <v>) --> (make log ^m <v>))
)");
  Engine engine(program, nullptr);
  engine.make_wme("item", {{"n", Value(7.0)}});
  const RunResult result = engine.run();
  EXPECT_EQ(result.firings, 1u);
  EXPECT_EQ(engine.wmes_of_class("log").size(), 1u);
}

// ---------------------------------------------------------------------------
// Conflict resolution in the loop
// ---------------------------------------------------------------------------

TEST(Engine, RecencyOrderUnderLex) {
  const auto program = parse_shared(R"(
(literalize item n)
(literalize log m)
(p note (item ^n <v>) -(log ^m <v>) --> (make log ^m <v>))
)");
  std::vector<std::string> writes;
  Engine engine(program, nullptr);
  engine.make_wme("item", {{"n", Value(1.0)}});
  engine.make_wme("item", {{"n", Value(2.0)}});
  // LEX: most recent WME (n=2) fires first.
  ASSERT_TRUE(engine.step());
  const auto logs = engine.wmes_of_class("log");
  ASSERT_EQ(logs.size(), 1u);
  EXPECT_EQ(logs[0]->slot(0), Value(2.0));
}

TEST(Engine, StrategySelectable) {
  EngineOptions options;
  options.strategy = Strategy::Mea;
  const auto program = parse_shared(R"(
(literalize goal g)
(literalize item n)
(p act (goal ^g <x>) (item ^n <x>) --> (remove 2))
)");
  Engine engine(program, nullptr, options);
  engine.make_wme("goal", {{"g", Value(1.0)}});
  engine.make_wme("item", {{"n", Value(1.0)}});
  EXPECT_TRUE(engine.step());
}

// ---------------------------------------------------------------------------
// Write output, bind, external functions
// ---------------------------------------------------------------------------

TEST(Engine, WriteHandlerReceivesOutput) {
  const auto program = parse_shared(R"(
(literalize item n)
(p speak (item ^n <v>) --> (write found item <v>))
)");
  Engine engine(program, nullptr);
  std::vector<std::string> lines;
  engine.set_write_handler([&](const std::string& s) { lines.push_back(s); });
  engine.make_wme("item", {{"n", Value(3.0)}});
  engine.run();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "found item 3");
}

TEST(Engine, BindActionThreadsThroughActions) {
  const auto program = parse_shared(R"(
(literalize in x)
(literalize out y z)
(p chain
   (in ^x <v>)
   -->
   (bind <a> (compute <v> * 10))
   (bind <b> (compute <a> + 5))
   (make out ^y <a> ^z <b>))
)");
  Engine engine(program, nullptr);
  engine.make_wme("in", {{"x", Value(2.0)}});
  engine.run();
  const auto outs = engine.wmes_of_class("out");
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0]->slot(0), Value(20.0));
  EXPECT_EQ(outs[0]->slot(1), Value(25.0));
}

TEST(Engine, ExternalFunctionCall) {
  auto program_value = parse_program(R"(
(literalize in x)
(literalize out y)
(p ext (in ^x <v>) --> (make out ^y (call square <v>)))
)");
  ExternalRegistry registry;
  // Interning happens before freeze via parse; "square" is new, so register
  // against an unfrozen copy: rebuild program with the symbol present.
  auto program2 = Program();
  parse_into(program2, R"(
(literalize in x)
(literalize out y)
(p ext (in ^x <v>) --> (make out ^y (call square <v>)))
)");
  register_builtins(registry, program2.symbols());
  registry.register_function(program2.symbols(), "square",
                             [](std::span<const Value> args, ExternalContext& ctx) {
                               ctx.charge_flops(3);
                               return Value(args[0].number() * args[0].number());
                             });
  program2.freeze();
  const auto program = std::make_shared<const Program>(std::move(program2));

  Engine engine(program, &registry);
  engine.make_wme("in", {{"x", Value(7.0)}});
  engine.run();
  const auto outs = engine.wmes_of_class("out");
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0]->slot(0), Value(49.0));
  EXPECT_GT(engine.counters().rhs_cost, 0u);
  (void)program_value;
}

TEST(Engine, UnknownExternalThrows) {
  const auto program = parse_shared(R"(
(literalize in x)
(p bad (in ^x <v>) --> (make in ^x (call nosuch <v>)))
)");
  ExternalRegistry registry;
  Engine engine(program, &registry);
  engine.make_wme("in", {{"x", Value(1.0)}});
  EXPECT_THROW(engine.run(), std::logic_error);
}

TEST(Engine, UserDataReachesExternals) {
  Program builder;
  parse_into(builder, R"(
(literalize in x)
(p touch (in ^x <v>) --> (make in ^x (call poke <v>)))
)");
  ExternalRegistry registry;
  registry.register_function(builder.symbols(), "poke",
                             [](std::span<const Value> args, ExternalContext& ctx) {
                               ctx.user_data_as<int>() += 1;
                               return Value(args[0].number() + 100);
                             });
  builder.freeze();
  Engine engine(std::make_shared<const Program>(std::move(builder)), &registry);
  int touched = 0;
  engine.set_user_data(&touched);
  engine.make_wme("in", {{"x", Value(1.0)}});
  engine.step();
  EXPECT_EQ(touched, 1);
}

// ---------------------------------------------------------------------------
// Instrumentation & reset
// ---------------------------------------------------------------------------

TEST(Engine, CountersTrackFiringsAndActions) {
  const auto program = parse_shared(R"(
(literalize item n)
(literalize log m)
(p note (item ^n <v>) -(log ^m <v>) --> (make log ^m <v>) (write done))
)");
  Engine engine(program, nullptr);
  engine.make_wme("item", {{"n", Value(1.0)}});
  engine.run();
  const auto& counters = engine.counters();
  EXPECT_EQ(counters.firings, 1u);
  EXPECT_EQ(counters.rhs_actions, 2u);  // make + write
  EXPECT_GT(counters.match_cost, 0u);
  EXPECT_GT(counters.rhs_cost, 0u);
  EXPECT_GT(counters.resolve_cost, 0u);
  EXPECT_EQ(counters.cycles, 1u);
  EXPECT_GT(counters.match_fraction(), 0.0);
  EXPECT_LT(counters.match_fraction(), 1.0);
}

TEST(Engine, CycleRecordsWhenEnabled) {
  EngineOptions options;
  options.record_cycles = true;
  const auto program = parse_shared(R"(
(literalize item n)
(p consume (item ^n <v>) --> (remove 1))
)");
  Engine engine(program, nullptr, options);
  engine.make_wme("item", {{"n", Value(1.0)}});
  engine.make_wme("item", {{"n", Value(2.0)}});
  engine.run();
  const auto records = engine.cycle_records();
  ASSERT_GE(records.size(), 2u);
  for (const auto& rec : records) {
    EXPECT_GT(rec.total_cost(), 0u);
  }
}

TEST(Engine, ResetAllowsFreshRun) {
  const auto program = parse_shared(R"(
(literalize item n)
(literalize log m)
(p note (item ^n <v>) -(log ^m <v>) --> (make log ^m <v>))
)");
  Engine engine(program, nullptr);
  engine.make_wme("item", {{"n", Value(1.0)}});
  engine.run();
  ASSERT_EQ(engine.counters().firings, 1u);

  engine.reset();
  EXPECT_EQ(engine.wm_size(), 0u);
  EXPECT_EQ(engine.counters().firings, 0u);
  EXPECT_EQ(engine.conflict_set_size(), 0u);

  // Identical rerun from scratch behaves identically (PSM reuses engines).
  engine.make_wme("item", {{"n", Value(1.0)}});
  const RunResult result = engine.run();
  EXPECT_EQ(result.firings, 1u);
  EXPECT_EQ(engine.wmes_of_class("log").size(), 1u);
}

TEST(Engine, ResetIsDeterministic) {
  const auto program = parse_shared(R"(
(literalize item n)
(literalize log m)
(p note (item ^n <v>) -(log ^m <v>) --> (make log ^m (compute <v> * 3)))
)");
  Engine engine(program, nullptr);
  std::vector<std::uint64_t> costs;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) engine.make_wme("item", {{"n", Value(double(i))}});
    engine.run();
    costs.push_back(engine.counters().total_cost());
    engine.reset();
  }
  EXPECT_EQ(costs[0], costs[1]);
  EXPECT_EQ(costs[1], costs[2]);
}

TEST(Engine, WatchLevelOneTracesFirings) {
  const auto program = parse_shared(R"(
(literalize item n)
(p consume (item ^n <v>) --> (remove 1))
)");
  Engine engine(program, nullptr);
  std::vector<std::string> trace;
  engine.set_watch(1, [&](const std::string& s) { trace.push_back(s); });
  engine.make_wme("item", {{"n", Value(1.0)}});
  engine.run();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0], "1. consume 1");
}

TEST(Engine, WatchLevelTwoTracesWmChanges) {
  const auto program = parse_shared(R"(
(literalize item n)
(literalize log m)
(p note (item ^n <v>) --> (make log ^m <v>) (remove 1))
)");
  Engine engine(program, nullptr);
  std::vector<std::string> trace;
  engine.set_watch(2, [&](const std::string& s) { trace.push_back(s); });
  engine.make_wme("item", {{"n", Value(7.0)}});
  engine.run();
  // =>WM item, firing, =>WM log, <=WM item.
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], "=>WM: 1: (item ^n 7)");
  EXPECT_EQ(trace[1], "1. note 1");
  EXPECT_EQ(trace[2], "=>WM: 2: (log ^m 7)");
  EXPECT_EQ(trace[3], "<=WM: 1: (item ^n 7)");
}

TEST(Engine, WatchValidation) {
  const auto program = parse_shared("(literalize item n)");
  Engine engine(program, nullptr);
  EXPECT_THROW(engine.set_watch(3, [](const std::string&) {}), std::invalid_argument);
  EXPECT_THROW(engine.set_watch(1, {}), std::invalid_argument);
  EXPECT_NO_THROW(engine.set_watch(0, {}));
}

TEST(Engine, MakeWmeValidatesNames) {
  const auto program = parse_shared("(literalize item n)");
  Engine engine(program, nullptr);
  EXPECT_THROW(engine.make_wme("nosuch", {}), std::invalid_argument);
  EXPECT_THROW(engine.make_wme("item", {{"bogus", Value(1.0)}}), std::invalid_argument);
}

TEST(Engine, RemoveForeignWmeThrows) {
  const auto program = parse_shared("(literalize item n)");
  Engine a(program, nullptr);
  Engine b(program, nullptr);
  const Wme& w = a.make_wme("item", {{"n", Value(1.0)}});
  EXPECT_THROW(b.remove_wme(w), std::logic_error);
}

// ---------------------------------------------------------------------------
// Budgeted runs (per-task cycle deadlines)
// ---------------------------------------------------------------------------

namespace {
constexpr const char* kRunawaySrc = R"(
(literalize counter n)
(p spin (counter ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
)";
}  // namespace

TEST(Engine, BudgetedRunIsRelativeToCurrentCycles) {
  const auto program = parse_shared(kRunawaySrc);
  Engine engine(program, nullptr);
  engine.make_wme("counter", {{"n", Value(0.0)}});
  const RunResult first = engine.run(10);
  EXPECT_TRUE(first.cycle_limited);
  EXPECT_EQ(first.cycles, 10u);
  // A second budget starts from the current cycle count, not from zero.
  const RunResult second = engine.run(5);
  EXPECT_TRUE(second.cycle_limited);
  EXPECT_EQ(second.cycles, 15u);
}

TEST(Engine, BudgetedRunCompletesWithinBudget) {
  const auto program = parse_shared(R"(
(literalize item n)
(p consume (item ^n <v>) --> (remove 1))
)");
  Engine engine(program, nullptr);
  engine.make_wme("item", {{"n", Value(1.0)}});
  const RunResult result = engine.run(100);
  EXPECT_FALSE(result.cycle_limited);
  EXPECT_EQ(result.firings, 1u);
}

// ---------------------------------------------------------------------------
// Undo log (abort recovery for fault-tolerant task execution)
// ---------------------------------------------------------------------------

namespace {

/// Full WM snapshot as (timetag, class, slots) triples, sorted by timetag.
std::vector<std::string> wm_snapshot(const Engine& engine, const Program& program) {
  std::vector<std::pair<TimeTag, std::string>> rows;
  for (ClassIndex c = 0; c < program.class_count(); ++c) {
    for (const Wme* w : engine.wmes_of_class(c)) {
      rows.emplace_back(w->timetag(), std::to_string(w->timetag()) + ":" +
                                          w->to_string(program.symbols(), program.wme_class(c)));
    }
  }
  std::sort(rows.begin(), rows.end());
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (auto& [tag, s] : rows) out.push_back(std::move(s));
  return out;
}

}  // namespace

TEST(EngineUndo, RollbackRestoresWmTimetagsAndRecency) {
  // The aborted attempt modifies a pre-existing WME (remove + re-make with a
  // fresh timetag) and creates new ones; rollback must restore the original
  // WME under its original timetag and rewind the timetag counter, so a
  // retried run is bit-identical to one where the abort never happened.
  const auto program = parse_shared(R"(
(literalize counter n)
(literalize product v)
(p produce (counter ^n <v>) -(product ^v <v>) -->
   (make product ^v <v>)
   (modify 1 ^n (compute <v> + 1)))
)");
  Engine engine(program, nullptr);
  engine.make_wme("counter", {{"n", Value(0.0)}});
  const auto before = wm_snapshot(engine, *program);

  engine.begin_undo_log();
  (void)engine.run(3);  // partial: mutates the counter, makes products
  EXPECT_GT(engine.wm_size(), 1u);
  engine.rollback_undo_log();

  EXPECT_EQ(wm_snapshot(engine, *program), before);

  // A clean reference engine and the rolled-back engine must now evolve
  // identically — including timetags, which drive recency ordering.
  Engine reference(program, nullptr);
  reference.make_wme("counter", {{"n", Value(0.0)}});
  (void)engine.run(5);
  (void)reference.run(5);
  EXPECT_EQ(wm_snapshot(engine, *program), wm_snapshot(reference, *program));
}

TEST(EngineUndo, CommitKeepsEffects) {
  const auto program = parse_shared(R"(
(literalize item n)
(p consume (item ^n <v>) --> (remove 1))
)");
  Engine engine(program, nullptr);
  engine.begin_undo_log();
  engine.make_wme("item", {{"n", Value(1.0)}});
  (void)engine.run();
  engine.commit_undo_log();
  EXPECT_EQ(engine.wm_size(), 0u);
  EXPECT_EQ(engine.counters().firings, 1u);
}

TEST(EngineUndo, RollbackClearsHaltRaisedDuringAttempt) {
  const auto program = parse_shared(R"(
(literalize item n)
(p stop (item ^n <v>) --> (halt))
)");
  Engine engine(program, nullptr);
  engine.begin_undo_log();
  engine.make_wme("item", {{"n", Value(1.0)}});
  const RunResult aborted = engine.run();
  EXPECT_TRUE(aborted.halted);
  engine.rollback_undo_log();
  // After rollback the engine runs again (halt was part of the aborted attempt).
  engine.make_wme("item", {{"n", Value(2.0)}});
  const RunResult retry = engine.run();
  EXPECT_TRUE(retry.halted);
  EXPECT_EQ(retry.firings, 2u);
}

TEST(EngineUndo, NestingAndMisuseRejected) {
  const auto program = parse_shared("(literalize item n)");
  Engine engine(program, nullptr);
  EXPECT_THROW(engine.rollback_undo_log(), std::logic_error);
  engine.begin_undo_log();
  EXPECT_THROW(engine.begin_undo_log(), std::logic_error);
  engine.commit_undo_log();
  EXPECT_FALSE(engine.undo_log_active());
}

// ---------------------------------------------------------------------------
// Undo checkpoints (per-tick recovery for streaming sessions)
// ---------------------------------------------------------------------------

TEST(EngineUndoCheckpoint, TailRollbackKeepsEarlierEntriesAndLogActive) {
  // A stream: tick 1 commits WM that must survive, tick 2 fails and rolls
  // back to its own checkpoint. The log stays active, earlier journal
  // entries stay intact, and a final whole-log rollback still restores base.
  const auto program = parse_shared(R"(
(literalize counter n)
(literalize product v)
(p produce (counter ^n <v>) -(product ^v <v>) -->
   (make product ^v <v>)
   (modify 1 ^n (compute <v> + 1)))
)");
  Engine engine(program, nullptr);
  const auto base = wm_snapshot(engine, *program);

  engine.begin_undo_log();
  engine.make_wme("counter", {{"n", Value(0.0)}});
  (void)engine.run(2);  // tick 1: counter at 2, two products
  const auto after_tick1 = wm_snapshot(engine, *program);

  const Engine::UndoCheckpoint cp = engine.undo_checkpoint();
  (void)engine.run(3);  // tick 2: more churn, then the tick "fails"
  EXPECT_NE(wm_snapshot(engine, *program), after_tick1);
  engine.rollback_to_checkpoint(cp);

  EXPECT_TRUE(engine.undo_log_active());
  EXPECT_EQ(wm_snapshot(engine, *program), after_tick1);

  // Recency and the logical clock rewound with the tail: a retry of tick 2
  // evolves exactly as if the failed attempt never ran.
  Engine reference(program, nullptr);
  reference.make_wme("counter", {{"n", Value(0.0)}});
  (void)reference.run(2);
  (void)engine.run(3);
  (void)reference.run(3);
  EXPECT_EQ(wm_snapshot(engine, *program), wm_snapshot(reference, *program));

  // Stream close: the whole-log rollback undoes tick 1 too.
  engine.rollback_undo_log();
  EXPECT_EQ(wm_snapshot(engine, *program), base);
}

TEST(EngineUndoCheckpoint, RepeatedCheckpointRollbacksAreIdempotent) {
  const auto program = parse_shared(R"(
(literalize item n)
(p consume (item ^n <v>) --> (remove 1))
)");
  Engine engine(program, nullptr);
  engine.begin_undo_log();
  engine.make_wme("item", {{"n", Value(1.0)}});
  (void)engine.run();
  const auto committed = wm_snapshot(engine, *program);
  const Engine::UndoCheckpoint cp = engine.undo_checkpoint();
  for (int attempt = 0; attempt < 3; ++attempt) {
    engine.make_wme("item", {{"n", Value(9.0)}});
    (void)engine.run();
    engine.rollback_to_checkpoint(cp);
    EXPECT_EQ(wm_snapshot(engine, *program), committed);
    EXPECT_TRUE(engine.undo_log_active());
  }
  engine.rollback_undo_log();
  EXPECT_EQ(engine.wm_size(), 0u);
}

TEST(EngineUndoCheckpoint, ClearsHaltRaisedAfterCheckpoint) {
  const auto program = parse_shared(R"(
(literalize item n)
(p stop (item ^n <v>) --> (halt))
)");
  Engine engine(program, nullptr);
  engine.begin_undo_log();
  const Engine::UndoCheckpoint cp = engine.undo_checkpoint();
  engine.make_wme("item", {{"n", Value(1.0)}});
  EXPECT_TRUE(engine.run().halted);
  engine.rollback_to_checkpoint(cp);
  // The halt belonged to the rolled-back tick: the engine runs again.
  engine.make_wme("item", {{"n", Value(2.0)}});
  EXPECT_TRUE(engine.run().halted);
  engine.commit_undo_log();
}

TEST(EngineUndoCheckpoint, MisuseRejected) {
  const auto program = parse_shared("(literalize item n)");
  Engine engine(program, nullptr);
  // Checkpoints only exist inside an active log.
  EXPECT_THROW((void)engine.undo_checkpoint(), std::logic_error);

  engine.begin_undo_log();
  engine.make_wme("item", {{"n", Value(1.0)}});
  const Engine::UndoCheckpoint stale = engine.undo_checkpoint();
  // Rolling back to the current position is a legal no-op.
  EXPECT_NO_THROW(engine.rollback_to_checkpoint(stale));
  EXPECT_EQ(engine.wm_size(), 1u);
  engine.rollback_undo_log();

  // The old checkpoint is ahead of the (now empty) journal: stale.
  engine.begin_undo_log();
  EXPECT_THROW(engine.rollback_to_checkpoint(stale), std::logic_error);
  engine.commit_undo_log();
  EXPECT_THROW(engine.rollback_to_checkpoint(stale), std::logic_error);
}

// ---------------------------------------------------------------------------
// The two rollback routes against a fresh engine. rollback_undo_log()
// replays a journal no longer than the base WM and rebuilds the match state
// from the base WMEs otherwise; either way the engine must be
// indistinguishable from one that never saw the journal.
// ---------------------------------------------------------------------------

namespace {

// `greet` is an instantiation made only of base WMEs: it exists before the
// journal opens and fires during it. `take` removes a base WME and `bump`
// modifies one on every tick, so the journal also holds removals of base
// WMEs that a restore must put back under their original timetags.
constexpr const char* kRestoreSrc = R"(
(literalize base k v)
(literalize tick n)
(literalize poke n)
(literalize out k)
(literalize hello v)
(p greet (base ^k 0 ^v <v>) --> (make hello ^v <v>))
(p take (tick ^n <n>) (base ^k <n>) --> (remove 2) (make out ^k <n>))
(p bump (poke ^n <n>) (base ^k <n> ^v <n>) --> (modify 2 ^v (compute <n> + 100)))
)";

constexpr int kBaseWmes = 24;

void load_restore_base(Engine& engine) {
  for (int k = 0; k < kBaseWmes; ++k) {
    engine.make_wme("base", {{"k", Value(double(k))}, {"v", Value(double(k))}});
  }
}

/// Ticks first..first+count-1: each removes base k=n and modifies base k=n+12
/// (6 journal entries a tick; the first run also makes greet's WME).
void run_restore_ticks(Engine& engine, int first, int count) {
  for (int n = first; n < first + count; ++n) {
    engine.make_wme("tick", {{"n", Value(double(n))}});
    engine.make_wme("poke", {{"n", Value(double(n + 12))}});
    (void)engine.run();
  }
}

struct Watched {
  std::string log;
  void attach(Engine& engine) {
    engine.set_watch(1, [this](const std::string& line) { log += line + "\n"; });
  }
};

/// One engine runs a journaled stream of `journal_ticks` ticks and rolls it
/// back; a fresh engine never sees it. Both then run the same next stream.
/// `settle_first` runs the base to quiescence before the journal opens (the
/// committed-task state of psm::run), so greet has already fired there.
void expect_restore_matches_fresh(int journal_ticks, bool expect_rebuild, bool settle_first) {
  const auto program = parse_shared(kRestoreSrc);
  Engine used(program, nullptr);
  Engine fresh(program, nullptr);
  load_restore_base(used);
  load_restore_base(fresh);
  if (settle_first) {
    (void)used.run();
    (void)fresh.run();
  }

  used.begin_undo_log();
  run_restore_ticks(used, 1, journal_ticks);
  const std::uint64_t removed_before = used.counters().wmes_removed;
  const std::uint64_t added_before = used.counters().wmes_added;
  used.rollback_undo_log();

  // Which route ran: a replay retracts the journal's additions one by one;
  // the rebuild retracts nothing and re-adds every base WME.
  if (expect_rebuild) {
    EXPECT_EQ(used.counters().wmes_removed, removed_before);
    EXPECT_EQ(used.counters().wmes_added - added_before, fresh.wm_size());
  } else {
    EXPECT_GT(used.counters().wmes_removed, removed_before);
  }
  EXPECT_EQ(wm_snapshot(used, *program), wm_snapshot(fresh, *program));
  const auto violations = used.network().check_invariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_EQ(used.conflict_set_size(), fresh.conflict_set_size());
  EXPECT_EQ(used.counters().cycles, fresh.counters().cycles);

  Watched used_log;
  Watched fresh_log;
  used_log.attach(used);
  fresh_log.attach(fresh);
  run_restore_ticks(used, 1, 3);
  run_restore_ticks(fresh, 1, 3);
  EXPECT_EQ(used_log.log, fresh_log.log);
  // greet fires in the next stream exactly when it had not fired before the
  // journal opened: refraction is restored, not kept from the journal.
  EXPECT_EQ(fresh_log.log.find("greet") != std::string::npos, !settle_first);
  EXPECT_EQ(wm_snapshot(used, *program), wm_snapshot(fresh, *program));
  EXPECT_TRUE(used.network().check_invariants().empty());
}

}  // namespace

TEST(EngineRestore, ShortJournalReplaysToFreshState) {
  expect_restore_matches_fresh(2, /*expect_rebuild=*/false, /*settle_first=*/false);
}

TEST(EngineRestore, LongJournalRebuildsToFreshState) {
  expect_restore_matches_fresh(8, /*expect_rebuild=*/true, /*settle_first=*/false);
}

TEST(EngineRestore, ShortJournalReplayKeepsEarlierFirings) {
  expect_restore_matches_fresh(2, /*expect_rebuild=*/false, /*settle_first=*/true);
}

TEST(EngineRestore, LongJournalRebuildKeepsEarlierFirings) {
  expect_restore_matches_fresh(8, /*expect_rebuild=*/true, /*settle_first=*/true);
}

TEST(EngineRestore, RebuildAfterTheJournalShrankTheWmRestoresBase) {
  // The journal removes most base WMEs and is longer than the base only
  // through WMEs it both made and removed, so fewer WMEs are live than
  // timetags lie below the mark: the rebuild collects the base by walking
  // the WM rather than by probing timetags.
  const auto program = parse_shared(kRestoreSrc);
  Engine used(program, nullptr);
  Engine fresh(program, nullptr);
  load_restore_base(used);
  load_restore_base(fresh);
  const ClassIndex base_class = *program->class_index(*program->symbols().find("base"));
  const auto base_wmes = used.wmes_of_class(base_class);
  std::vector<const Wme*> doomed(base_wmes.begin(), base_wmes.end());
  doomed.resize(kBaseWmes - 4);

  used.begin_undo_log();
  for (const Wme* w : doomed) used.remove_wme(*w);
  for (int i = 0; i < 10; ++i) used.remove_wme(used.make_wme("out", {{"k", Value(double(i))}}));
  ASSERT_EQ(used.wm_size(), 4u);
  const std::uint64_t removed_before = used.counters().wmes_removed;
  const std::uint64_t added_before = used.counters().wmes_added;
  used.rollback_undo_log();

  EXPECT_EQ(used.counters().wmes_removed, removed_before);  // rebuilt, not replayed
  EXPECT_EQ(used.counters().wmes_added - added_before, fresh.wm_size());
  EXPECT_EQ(wm_snapshot(used, *program), wm_snapshot(fresh, *program));
  const auto violations = used.network().check_invariants();
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_EQ(used.conflict_set_size(), fresh.conflict_set_size());
  Watched used_log;
  Watched fresh_log;
  used_log.attach(used);
  fresh_log.attach(fresh);
  run_restore_ticks(used, 1, 5);
  run_restore_ticks(fresh, 1, 5);
  EXPECT_EQ(used_log.log, fresh_log.log);
  EXPECT_EQ(wm_snapshot(used, *program), wm_snapshot(fresh, *program));
}

TEST(EngineRestore, RebuildAfterCheckpointRollbackRestoresBase) {
  // A failed tick rolled back to its checkpoint inside a long journal: the
  // base WMEs it had removed are live again and no longer in the journal,
  // and the final rebuild must still find every base WME exactly once.
  const auto program = parse_shared(kRestoreSrc);
  Engine used(program, nullptr);
  Engine fresh(program, nullptr);
  load_restore_base(used);
  load_restore_base(fresh);
  used.begin_undo_log();
  run_restore_ticks(used, 1, 4);
  const Engine::UndoCheckpoint cp = used.undo_checkpoint();
  run_restore_ticks(used, 5, 3);
  used.rollback_to_checkpoint(cp);
  run_restore_ticks(used, 8, 4);
  used.rollback_undo_log();
  EXPECT_EQ(wm_snapshot(used, *program), wm_snapshot(fresh, *program));
  EXPECT_TRUE(used.network().check_invariants().empty());
  Watched used_log;
  Watched fresh_log;
  used_log.attach(used);
  fresh_log.attach(fresh);
  run_restore_ticks(used, 1, 5);
  run_restore_ticks(fresh, 1, 5);
  EXPECT_EQ(used_log.log, fresh_log.log);
}

}  // namespace
}  // namespace psmsys::ops5
