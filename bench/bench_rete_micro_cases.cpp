// Match-core microbench gates for the Rete hot-path rewrite: per-retract
// cost must stay flat in working-memory size (the O(1) slot/back-pointer
// retraction), quiescent productions must cost ~nothing under node unlinking,
// and the LCC Level-2 trace must never match more expensively with unlinking
// on than off, and restoring a long stream's base working memory by rebuild
// must cost a fraction of replaying its journal. Unlike bench_rete_micro (a google-benchmark binary for
// host-time curves), these cases emit BENCH_rete_micro.json and *fail* the
// harness when a flatness ratio regresses — they are the CI gate.

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "ops5/parser.hpp"
#include "rete/network.hpp"
#include "spam/constraints.hpp"
#include "spam/decomposition.hpp"
#include "spam/programs.hpp"

namespace psmsys::bench {

namespace {

/// Counts activations; the matchers under test never fire RHS code here.
class CountListener final : public rete::MatchListener {
 public:
  void on_activate(const ops5::Production&, std::span<const ops5::Wme* const>) override {
    ++activations_;
  }
  void on_deactivate(const ops5::Production&, std::span<const ops5::Wme* const>) override {
    --activations_;
  }
  [[nodiscard]] std::int64_t activations() const noexcept { return activations_; }

 private:
  std::int64_t activations_ = 0;
};

/// A (item ^v i) WME per i — the minimal one-token-per-WME workload.
std::vector<std::unique_ptr<ops5::Wme>> make_items(const ops5::Program& program,
                                                   std::size_t count) {
  const auto cls = *program.class_index(*program.symbols().find("item"));
  const auto& decl = program.wme_class(cls);
  const auto v_slot = decl.slot_of(*program.symbols().find("v"));
  std::vector<std::unique_ptr<ops5::Wme>> wmes;
  wmes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<ops5::Value> slots(decl.arity());
    slots[v_slot] = ops5::Value(double(i));
    wmes.push_back(std::make_unique<ops5::Wme>(cls, decl.name(), std::move(slots),
                                               ops5::TimeTag(i + 1)));
  }
  return wmes;
}

/// One remove/re-add churn cycle over the first `k` WMEs.
void churn(rete::Matcher& matcher, const std::vector<std::unique_ptr<ops5::Wme>>& wmes,
           std::size_t k) {
  for (std::size_t i = 0; i < k; ++i) matcher.remove_wme(*wmes[i]);
  for (std::size_t i = 0; i < k; ++i) matcher.add_wme(*wmes[i]);
}

/// `idle` two-CE productions whose second CE class is never asserted, plus
/// one genuinely active production — the quiescent-rule-base shape node
/// unlinking is for. All productions share the (item ^v <x>) prefix, so the
/// idle joins hang off one shared beta memory.
std::string quiescent_source(std::size_t idle) {
  std::string src =
      "(literalize item k v w)\n"
      "(literalize quiet k v w)\n"
      "(p active (item ^v <x>) --> (halt))\n";
  for (std::size_t i = 0; i < idle; ++i) {
    src += "(p idle-" + std::to_string(i) + " (item ^v <x>) (quiet ^k " + std::to_string(i) +
           " ^v <x>) --> (halt))\n";
  }
  return src;
}

}  // namespace

PSMSYS_BENCH_CASE(retract_heavy, "rete_micro",
                  "O(1) retraction: per-operation cost vs working-memory size") {
  auto& os = ctx.out();

  // markers never enter WM, so every item holds exactly one live token and
  // the trace isolates WME bookkeeping from join fan-out.
  const ops5::Program program = ops5::parse_program(
      "(literalize item k v w)\n"
      "(literalize marker k v w)\n"
      "(p pair (item ^v <x>) (marker ^v <x>) --> (halt))\n");

  const std::size_t kChurn = 128;
  const int reps = ctx.quick() ? 3 : 7;
  const std::vector<std::size_t> sizes = {256, 1024, 4096};

  util::Table table({"WM size", "wu/op", "host ns/op"});
  std::vector<double> wu_per_op, ns_per_op;
  for (const std::size_t n : sizes) {
    const auto wmes = make_items(program, n);
    CountListener listener;
    util::WorkCounters counters;
    rete::Network network(program, listener, counters);
    for (const auto& w : wmes) network.add_wme(*w);

    // Model cost is deterministic: one cycle suffices.
    const auto before = counters.match_cost;
    churn(network, wmes, kChurn);
    const double wu = double(counters.match_cost - before) / double(2 * kChurn);

    auto best = std::chrono::nanoseconds::max();
    for (int r = 0; r < reps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      churn(network, wmes, kChurn);
      best = std::min(best, std::chrono::steady_clock::now() - start);
    }
    const double ns = double(best.count()) / double(2 * kChurn);

    wu_per_op.push_back(wu);
    ns_per_op.push_back(ns);
    table.add_row({util::Table::fmt(double(n), 0), util::Table::fmt(wu, 2),
                   util::Table::fmt(ns, 1)});
    ctx.metric("wu_per_op_" + std::to_string(n), wu);
    ctx.metric("ns_per_op_" + std::to_string(n), ns);
  }
  table.print(os, "remove/re-add cycle cost (" + std::to_string(kChurn) +
                      " WMEs churned) at increasing WM sizes");
  ctx.table("retract_heavy", table);

  // The gates: a linear-scan retraction would scale ~16x from 256 to 4096.
  // Model cost must be flat; host time gets slack for cache effects.
  const double wu_ratio = wu_per_op.back() / wu_per_op.front();
  const double ns_ratio = ns_per_op.back() / ns_per_op.front();
  ctx.metric("wu_flatness_ratio", wu_ratio);
  ctx.metric("ns_flatness_ratio", ns_ratio);
  os << "\nflatness 256 -> 4096: model " << util::Table::fmt(wu_ratio, 2) << "x, host "
     << util::Table::fmt(ns_ratio, 2) << "x (O(n) retraction would be ~16x)\n";
  if (wu_ratio > 1.1) {
    ctx.fail("per-op model cost grew " + util::Table::fmt(wu_ratio, 2) +
             "x from 256 to 4096 WMEs (gate: 1.1x) — retraction is no longer O(1)");
  }
  if (ns_ratio > 3.0) {
    ctx.fail("per-op host time grew " + util::Table::fmt(ns_ratio, 2) +
             "x from 256 to 4096 WMEs (gate: 3.0x) — retraction is no longer O(1)");
  }
}

PSMSYS_BENCH_CASE(quiescent_scaling, "rete_micro",
                  "Node unlinking: match cost vs number of quiescent productions") {
  auto& os = ctx.out();

  const std::size_t kWarm = 64;
  const std::size_t kChurn = 32;
  const int cycles = 4;
  const std::vector<std::size_t> idle_counts = {0, 64, 256};

  util::Table table({"idle prods", "wu/op (unlinking)", "wu/op (no unlinking)"});
  std::vector<double> wu_on, wu_off;
  for (const std::size_t idle : idle_counts) {
    const ops5::Program program = ops5::parse_program(quiescent_source(idle));
    const auto wmes = make_items(program, kWarm);
    double wu[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      rete::NetworkOptions options;
      options.unlinking = (mode == 0);
      CountListener listener;
      util::WorkCounters counters;
      rete::Network network(program, listener, counters, {}, options);
      for (const auto& w : wmes) network.add_wme(*w);
      const auto before = counters.match_cost;
      for (int c = 0; c < cycles; ++c) churn(network, wmes, kChurn);
      wu[mode] = double(counters.match_cost - before) / double(cycles * 2 * kChurn);
    }
    wu_on.push_back(wu[0]);
    wu_off.push_back(wu[1]);
    table.add_row({util::Table::fmt(double(idle), 0), util::Table::fmt(wu[0], 2),
                   util::Table::fmt(wu[1], 2)});
    ctx.metric("wu_on_" + std::to_string(idle), wu[0]);
    ctx.metric("wu_off_" + std::to_string(idle), wu[1]);
  }
  table.print(os, "per-WME-change match cost as quiescent productions are added");
  ctx.table("quiescent_scaling", table);

  // Gates: under unlinking, quadrupling the idle productions (64 -> 256) may
  // add at most 5% per-op cost (the 0 -> 64 step pays a one-off topology
  // cost — the shared beta memory exists at all — so the flatness gate is
  // against the 64 baseline), and unlinking must never cost more than not
  // unlinking.
  const double idle_ratio = wu_on[2] / wu_on[1];
  ctx.metric("idle_cost_ratio", idle_ratio);
  os << "\nunlinked idle-production overhead 64 -> 256: " << util::Table::fmt(idle_ratio, 2)
     << "x (gate: 1.05x); no-unlinking pays " << util::Table::fmt(wu_off.back() / wu_on.back(), 1)
     << "x at 256\n";
  if (idle_ratio > 1.05) {
    ctx.fail("4x the quiescent productions raised per-op cost " +
             util::Table::fmt(idle_ratio, 2) + "x (gate: 1.05x) — unlinking is not engaging");
  }
  if (wu_on.back() > wu_off.back()) {
    ctx.fail("unlinking costs more than no unlinking at 256 idle productions");
  }
}

PSMSYS_BENCH_CASE(lcc_l2_trace, "rete_micro",
                  "LCC Level-2 trace: serial match cost/wall, unlinking on vs off") {
  auto& os = ctx.out();

  // The realistic load: the full LCC rule base, Level-2 task WMEs pairing
  // fragments with their subject-class constraints, fragment churn. At L2
  // only the lcc-l2-* productions can fire; the l1/l3/l4 chains stay
  // quiescent, which is exactly the shape node unlinking exploits.
  const spam::PhaseProgram phase = spam::build_lcc_program();
  const auto& program = *phase.program;
  const auto config = ctx.quick() ? spam::sf_config() : spam::dc_config();
  const auto scene = spam::generate_scene(config);
  const auto best = spam::best_fragments(spam::run_rtf(scene, 3).fragments);

  const auto frag_cls = *program.class_index(*program.symbols().find("fragment"));
  const auto& frag_decl = program.wme_class(frag_cls);
  const auto task_cls = *program.class_index(*program.symbols().find("lcc-task"));
  const auto& task_decl = program.wme_class(task_cls);
  const auto yes = ops5::Value(*program.symbols().find("yes"));

  std::vector<std::unique_ptr<ops5::Wme>> wmes;
  ops5::TimeTag tag = 1;
  std::size_t task_count = 0;
  for (const auto& f : best) {
    for (const auto* c : spam::constraints_for(f.cls)) {
      std::vector<ops5::Value> slots(task_decl.arity());
      slots[task_decl.slot_of(*program.symbols().find("level"))] = ops5::Value(2.0);
      slots[task_decl.slot_of(*program.symbols().find("subject"))] = ops5::Value(double(f.id));
      slots[task_decl.slot_of(*program.symbols().find("constraint"))] =
          ops5::Value(double(c->id));
      slots[task_decl.slot_of(*program.symbols().find("subject-class"))] =
          ops5::Value(*program.symbols().find(spam::class_name(c->subject)));
      wmes.push_back(
          std::make_unique<ops5::Wme>(task_cls, task_decl.name(), std::move(slots), tag++));
      ++task_count;
    }
  }
  for (const auto& f : best) {
    std::vector<ops5::Value> slots(frag_decl.arity());
    slots[frag_decl.slot_of(*program.symbols().find("id"))] = ops5::Value(double(f.id));
    slots[frag_decl.slot_of(*program.symbols().find("region"))] = ops5::Value(double(f.region));
    slots[frag_decl.slot_of(*program.symbols().find("class"))] =
        ops5::Value(*program.symbols().find(spam::class_name(f.cls)));
    slots[frag_decl.slot_of(*program.symbols().find("score"))] = ops5::Value(f.score);
    slots[frag_decl.slot_of(*program.symbols().find("best"))] = yes;
    wmes.push_back(
        std::make_unique<ops5::Wme>(frag_cls, frag_decl.name(), std::move(slots), tag++));
  }

  const int reps = ctx.quick() ? 3 : 5;
  struct Run {
    util::WorkUnits wu = 0;
    double wall_ms = 0.0;
    std::int64_t matches = 0;
  };
  Run runs[2];
  for (int mode = 0; mode < 2; ++mode) {
    rete::NetworkOptions options;
    options.unlinking = (mode == 0);
    double best_ms = std::numeric_limits<double>::max();
    for (int r = 0; r < reps; ++r) {
      CountListener listener;
      util::WorkCounters counters;
      rete::Network network(program, listener, counters, {}, options);
      const auto start = std::chrono::steady_clock::now();
      for (const auto& w : wmes) network.add_wme(*w);
      for (std::size_t i = task_count; i < wmes.size(); i += 3) network.remove_wme(*wmes[i]);
      for (std::size_t i = task_count; i < wmes.size(); i += 3) network.add_wme(*wmes[i]);
      const auto end = std::chrono::steady_clock::now();
      best_ms = std::min(best_ms, std::chrono::duration<double, std::milli>(end - start).count());
      runs[mode].wu = counters.match_cost;  // deterministic across reps
      runs[mode].matches = listener.activations();
    }
    runs[mode].wall_ms = best_ms;
  }

  util::Table table({"network", "match cost (wu)", "wall (ms)", "matches"});
  table.add_row({"unlinking on", util::Table::fmt(runs[0].wu),
                 util::Table::fmt(runs[0].wall_ms, 2), util::Table::fmt(runs[0].matches, 0)});
  table.add_row({"unlinking off", util::Table::fmt(runs[1].wu),
                 util::Table::fmt(runs[1].wall_ms, 2), util::Table::fmt(runs[1].matches, 0)});
  table.print(os, "L2 trace (" + std::to_string(task_count) + " task + " +
                      std::to_string(best.size()) + " fragment WMEs, add + churn)");
  ctx.table("lcc_l2_trace", table);
  ctx.metric("wu_unlinking_on", double(runs[0].wu));
  ctx.metric("wu_unlinking_off", double(runs[1].wu));
  ctx.metric("wall_ms_unlinking_on", runs[0].wall_ms);
  ctx.metric("wall_ms_unlinking_off", runs[1].wall_ms);

  if (runs[0].matches != runs[1].matches) {
    ctx.fail("unlinking changed the final match set");
    return;
  }
  ctx.metric("wu_ratio_off_over_on", double(runs[1].wu) / double(runs[0].wu));
  os << "\nmodel-cost ratio off/on: "
     << util::Table::fmt(double(runs[1].wu) / double(runs[0].wu), 3) << "x\n";
  if (runs[0].wu > runs[1].wu) {
    ctx.fail("unlinking increased model match cost on the L2 trace");
  }
}

PSMSYS_BENCH_CASE(context_reset, "rete_micro",
                  "Context reset: teardown, clear and both stream-close restores, ns per WME") {
  auto& os = ctx.out();

  // The serve tier's stream context: the SF Level-2 base WM, then every
  // Level-2 task delivered as one stream under the undo journal (the
  // serve_streams workload's stream, ~34k resident WMEs at close).
  const auto scene = spam::generate_scene(spam::sf_config());
  const spam::Decomposition d =
      spam::lcc_decomposition(2, scene, spam::best_fragments(spam::run_rtf(scene, 3).fragments));
  const auto make_context = [&d] {
    auto engine = d.factory.make_engine();
    d.factory.base_init(*engine);
    return engine;
  };
  const auto fill = [&d](ops5::Engine& engine) {
    for (const auto& task : d.tasks) task.inject(engine);
    (void)engine.run();
  };
  using Clock = std::chrono::steady_clock;
  const auto ns_since = [](Clock::time_point start) {
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                      .count());
  };

  const int reps = ctx.quick() ? 2 : 5;
  double teardown = std::numeric_limits<double>::max();
  double clear = teardown;
  double replay = teardown;
  double rebuild = teardown;
  std::size_t base_wmes = 0;
  std::size_t stream_wmes = 0;
  bool rebuilt = true;
  for (int r = 0; r < reps; ++r) {
    auto engine = make_context();
    base_wmes = engine->wm_size();

    // Replay-restore: a checkpoint at the journal's start always replays.
    engine->begin_undo_log();
    const ops5::Engine::UndoCheckpoint start = engine->undo_checkpoint();
    fill(*engine);
    stream_wmes = engine->wm_size();
    auto t0 = Clock::now();
    engine->rollback_to_checkpoint(start);
    replay = std::min(replay, ns_since(t0) / double(stream_wmes));

    // Rebuild-restore: the whole-journal rollback takes the rebuild route
    // because the journal is far longer than the base WM.
    fill(*engine);
    const std::uint64_t removed = engine->counters().wmes_removed;
    t0 = Clock::now();
    engine->rollback_undo_log();
    rebuild = std::min(rebuild, ns_since(t0) / double(stream_wmes));
    rebuilt = rebuilt && engine->counters().wmes_removed == removed;

    // Engine::reset(): clear() of the matcher, conflict set and WM.
    fill(*engine);
    t0 = Clock::now();
    engine->reset();
    clear = std::min(clear, ns_since(t0) / double(stream_wmes));

    // Teardown: destroying a full context.
    d.factory.base_init(*engine);
    fill(*engine);
    t0 = Clock::now();
    engine.reset();
    teardown = std::min(teardown, ns_since(t0) / double(stream_wmes));
  }

  util::Table table({"operation", "host ns/WME"});
  table.add_row({"teardown (destroy engine)", util::Table::fmt(teardown, 1)});
  table.add_row({"clear (Engine::reset)", util::Table::fmt(clear, 1)});
  table.add_row({"replay-restore", util::Table::fmt(replay, 1)});
  table.add_row({"rebuild-restore", util::Table::fmt(rebuild, 1)});
  table.print(os, "SF Level-2 stream context (" + std::to_string(base_wmes) + " base WMEs, " +
                      std::to_string(stream_wmes) + " at close), best of " +
                      std::to_string(reps));
  ctx.table("context_reset", table);
  ctx.metric("teardown_ns_per_wme", teardown);
  ctx.metric("clear_ns_per_wme", clear);
  ctx.metric("replay_restore_ns_per_wme", replay);
  ctx.metric("rebuild_restore_ns_per_wme", rebuild);
  const double ratio = rebuild / replay;
  ctx.metric("rebuild_over_replay", ratio);
  os << "\nrebuild-restore / replay-restore: " << util::Table::fmt(ratio, 3)
     << "x (gate: 0.25x)\n";
  if (!rebuilt) ctx.fail("the long stream's rollback replayed its journal instead of rebuilding");
  if (ratio > 0.25) {
    ctx.fail("rebuild-restore costs " + util::Table::fmt(ratio, 3) +
             "x the journal replay (gate: 0.25x)");
  }
}

}  // namespace psmsys::bench
