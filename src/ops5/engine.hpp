#pragma once

// The OPS5 recognize-act interpreter — our analog of ParaOPS5's sequential
// core. Each PSM task process owns one Engine; the engine owns a Rete
// network, working memory, and conflict set, and exposes the instrumentation
// (work counters, per-cycle match chunks) the psm virtual-time models consume.

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ops5/conflict.hpp"
#include "ops5/external.hpp"
#include "ops5/production.hpp"
#include "ops5/wme.hpp"
#include "rete/network.hpp"
#include "rete/parallel.hpp"
#include "util/counters.hpp"
#include "util/slab.hpp"

namespace psmsys::obs {
class Tracer;
}

namespace psmsys::ops5 {

/// Where the ParallelMatcher's LPT partitioning weights come from.
enum class MatchCostSource : std::uint8_t {
  /// Static join-cost estimates from the whole-rule-base Rete analyzer
  /// (analysis/rete_static) — the default. Falls back to ConditionCount for
  /// any production the analyzer assigns a non-positive cost.
  Analyzer,
  /// The PR 4 condition-count heuristic (1 + sum of 2 + tests per CE).
  ConditionCount,
};

/// Construction-time engine configuration. This is the ONE place an engine
/// is configured: every knob is read at construction (or via reconfigure()
/// on a still-pristine engine). `EngineOptions` remains as an alias for
/// older call sites.
struct EngineConfig {
  Strategy strategy = Strategy::Lex;
  /// Safety valve against runaway rule bases.
  std::uint64_t max_cycles = 1'000'000;
  /// Record per-cycle match chunks and cost splits (needed by the
  /// match-parallelism model; adds memory proportional to cycles).
  bool record_cycles = false;
  util::CostModel costs;
  rete::NetworkOptions rete;
  /// Intra-task match parallelism: 0 = single serial Rete network; N >= 1 =
  /// rete::ParallelMatcher with N match workers (1 is the degenerate pool,
  /// useful because it exercises the canonical delta merge). Firing order is
  /// identical for all N >= 1; N = 0 may differ only where conflict
  /// resolution ties down to insertion order.
  std::size_t match_threads = 0;
  /// LPT partition weights for match_threads >= 1. Cost source only steers
  /// load balance; results are identical either way (canonical merge).
  MatchCostSource match_cost_source = MatchCostSource::Analyzer;
  /// Precomputed analyzer cost vector (indexed by production id) for the
  /// Analyzer cost source. When set, build_matcher() uses it instead of
  /// re-running the whole-rule-base static analyzer per engine — a
  /// compile-once artifact shared by every session of a serve pool
  /// (serve::SharedRuleBase populates it together with rete shared_bindings).
  std::shared_ptr<const std::vector<double>> shared_match_costs;
};

/// Backwards-compatible alias; EngineConfig is the canonical name.
using EngineOptions = EngineConfig;

/// Per recognize-act cycle: the independently-schedulable match chunk costs
/// (what ParaOPS5 distributes over match processes) and the sequential
/// resolve + RHS costs.
struct CycleRecord {
  std::vector<util::WorkUnits> match_chunks;
  util::WorkUnits resolve_cost = 0;
  util::WorkUnits rhs_cost = 0;

  [[nodiscard]] util::WorkUnits match_cost() const noexcept {
    util::WorkUnits total = 0;
    for (auto c : match_chunks) total += c;
    return total;
  }
  [[nodiscard]] util::WorkUnits total_cost() const noexcept {
    return match_cost() + resolve_cost + rhs_cost;
  }
};

struct RunResult {
  std::uint64_t firings = 0;
  std::uint64_t cycles = 0;
  bool halted = false;        ///< stopped by (halt) rather than quiescence
  bool cycle_limited = false; ///< hit max_cycles
};

class Engine final : private rete::MatchListener {
 public:
  /// The program must be frozen. `externals` may be nullptr if the program
  /// uses no (call ...) expressions; it must outlive the engine.
  Engine(std::shared_ptr<const Program> program, const ExternalRegistry* externals,
         EngineOptions options = {});
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ------------------------------ working memory --------------------------

  /// Create a WME of `cls` with the given slot values (missing slots nil).
  /// Returns a reference valid until the WME is removed or reset() is called.
  const Wme& make_wme(ClassIndex cls, std::vector<std::pair<SlotIndex, Value>> sets);

  /// Convenience: class and attributes by name. Names must already be
  /// interned (the program is frozen).
  const Wme& make_wme(std::string_view class_name,
                      std::vector<std::pair<std::string_view, Value>> sets);

  void remove_wme(const Wme& wme);

  [[nodiscard]] std::size_t wm_size() const noexcept;

  /// All live WMEs of a class (unspecified order).
  [[nodiscard]] std::vector<const Wme*> wmes_of_class(ClassIndex cls) const;
  [[nodiscard]] std::vector<const Wme*> wmes_of_class(std::string_view class_name) const;

  // --------------------------------- running -------------------------------

  /// Run recognize-act cycles until quiescence, (halt), or max_cycles.
  RunResult run();

  /// Run at most `cycle_budget` further cycles (relative to the current
  /// cycle count; 0 = unlimited apart from max_cycles). Sets cycle_limited
  /// when the budget cuts the run off — the per-task deadline used by the
  /// robust executor to cut off livelocked tasks.
  RunResult run(std::uint64_t cycle_budget);

  /// Execute one cycle. Returns false if the conflict set offers nothing.
  bool step();

  /// Clear working memory, conflict set, counters, cycle records, and
  /// timetags. The compiled network is retained — this is what a PSM task
  /// process does between tasks.
  void reset();

  // ----------------------------- undo log ---------------------------------
  // Abort recovery for fault-tolerant task execution: journal every WM
  // mutation from begin_undo_log() on, then either commit (drop the
  // journal) or roll back. Rollback restores the base working memory — the
  // WM at begin_undo_log() — *with its original timetags* (and rewinds the
  // timetag counter), and gives every instantiation that existed at
  // begin_undo_log() back its creation order and fired flag, so
  // conflict-resolution recency and refraction — and therefore every later
  // firing — are bit-identical to a run in which the journaled work never
  // happened.

  /// Start journaling. Rejects nesting.
  void begin_undo_log();

  /// Keep the attempt's effects; discard the journal.
  void commit_undo_log() noexcept;

  /// Restore the base working memory, rewind timetags, clear any halt raised
  /// during the attempt, and drop pending match chunks. Two exact ways,
  /// picked by size: when the journal holds more entries than the base WM
  /// has WMEs, the match state is cleared and the base WMEs are re-added in
  /// timetag order (O(base WM)); otherwise the journal is replayed in
  /// reverse (O(journal)).
  void rollback_undo_log();

  [[nodiscard]] bool undo_log_active() const noexcept { return undo_active_; }

  /// A position in an ACTIVE undo log: everything journaled after the
  /// checkpoint can be undone alone (rollback_to_checkpoint), leaving the
  /// log active and earlier entries intact. This is the per-tick recovery
  /// unit of streaming sessions — a failed tick rolls back to its own
  /// checkpoint while the stream's accumulated working memory survives;
  /// whole-scene recovery stays rollback_undo_log(). A checkpoint is open
  /// until release_checkpoint(); checkpoints nest.
  struct UndoCheckpoint {
    std::size_t log_size = 0;     ///< journal entries at checkpoint time
    TimeTag timetag = 1;          ///< next_timetag_ to rewind to
    bool halted = false;
    std::uint64_t cycles = 0;     ///< logical clock to rewind to
    ConflictSet::JournalMark conflicts;
  };

  /// Open a checkpoint at the current undo-log position. Requires an active
  /// log.
  [[nodiscard]] UndoCheckpoint undo_checkpoint();

  /// Undo every mutation journaled after `cp` (reverse order), truncate the
  /// journal back to it, and rewind timetags/halt/cycle clock to the
  /// checkpoint — with the same bit-identity guarantee as rollback_undo_log:
  /// working memory, recency ordering, the conflict set's creation order and
  /// fired flags, and the logical clock are exactly as if the rolled-back
  /// tail never ran. The undo log and `cp` STAY OPEN, so the same checkpoint
  /// can be rolled back to again. A checkpoint taken after `cp` is
  /// invalidated by this call and must not be replayed to.
  void rollback_to_checkpoint(const UndoCheckpoint& cp);

  /// Keep everything done since the open checkpoint `cp` and close it: the
  /// conflict-set records only a rollback to `cp` needed are dropped, so a
  /// stream of kept ticks journals no more than one long attempt would.
  void release_checkpoint(const UndoCheckpoint& cp) noexcept {
    conflict_set_.release(cp.conflicts);
  }

  // ------------------------------ inspection ------------------------------

  [[nodiscard]] const Program& program() const noexcept { return *program_; }
  [[nodiscard]] const util::WorkCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] std::span<const CycleRecord> cycle_records() const noexcept { return cycles_; }
  /// The active matcher (serial Rete network or ParallelMatcher), exposed
  /// through the common instrumentation interface. The historical name stays:
  /// every matcher is still a compiled Rete network underneath.
  [[nodiscard]] const rete::Matcher& network() const noexcept { return *matcher_; }
  [[nodiscard]] std::size_t conflict_set_size() const noexcept { return conflict_set_.size(); }
  [[nodiscard]] const ConflictSet& conflict_set() const noexcept { return conflict_set_; }

  // --------------------------- match parallelism ---------------------------

  /// Configured match workers (0 = serial matcher).
  [[nodiscard]] std::size_t match_threads() const noexcept { return options_.match_threads; }

  /// The construction-time configuration currently in force.
  [[nodiscard]] const EngineConfig& config() const noexcept { return options_; }

  /// Replace the configuration of a still-pristine engine (empty working
  /// memory, no undo log, empty conflict set — freshly constructed or
  /// reset()): the matcher is rebuilt and compilation counters restart from
  /// zero, exactly as if the engine had been constructed with `config`. This
  /// is the one legal reconfiguration window, used by executors that apply
  /// per-run overrides (match threads / cost source) between construction
  /// and base-WM load. The conflict-resolution strategy is fixed for the
  /// engine's lifetime and must match the current one.
  void reconfigure(const EngineConfig& config);

  [[nodiscard]] MatchCostSource match_cost_source() const noexcept {
    return options_.match_cost_source;
  }

  /// Measured per-partition match work (work units) of the parallel matcher;
  /// empty for the serial matcher. Ground truth for the static cost model.
  [[nodiscard]] std::vector<std::uint64_t> match_partition_costs() const {
    return parallel_ != nullptr ? parallel_->partition_match_costs()
                                : std::vector<std::uint64_t>{};
  }

  /// Match-thread utilization gauges; all-zero for the serial matcher.
  [[nodiscard]] rete::MatchThreadStats match_thread_stats() const noexcept {
    return parallel_ != nullptr ? parallel_->thread_stats() : rete::MatchThreadStats{};
  }

  /// Sink for (write ...) output; defaults to discarding. The string is one
  /// whole write action's output.
  void set_write_handler(std::function<void(const std::string&)> handler) {
    write_handler_ = std::move(handler);
  }

  /// Opaque pointer surfaced to external functions via ExternalContext.
  void set_user_data(void* p) noexcept { user_data_ = p; }

  /// OPS5-style watch tracing: level 0 = off, 1 = production firings,
  /// 2 = firings plus working-memory changes. Lines go to `sink`.
  void set_watch(int level, std::function<void(const std::string&)> sink);
  [[nodiscard]] int watch_level() const noexcept { return watch_level_; }

  /// Attach a span tracer (nullptr detaches). Fired cycles emit sampled
  /// "cycle" spans on thread lane `tid` (the executor passes its task-process
  /// index) with the cycle's match/resolve/RHS work-unit split in args. The
  /// hooks compile away entirely under PSMSYS_OBS=0; with OBS on, a detached
  /// engine never touches the clock. The tracer must outlive its attachment
  /// and is not owned. Survives reset(), like the watch sink.
  void set_tracer(obs::Tracer* tracer, std::uint32_t tid = 0) noexcept {
    tracer_ = tracer;
    tracer_tid_ = tid;
  }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Largest conflict set observed since construction or reset() — the
  /// contention gauge behind the paper's conflict-resolution discussion.
  /// Always 0 when built with PSMSYS_OBS=0.
  [[nodiscard]] std::size_t peak_conflict_set() const noexcept {
    return peak_conflict_set_;
  }

 private:
  void on_activate(const Production& production, std::span<const Wme* const> wmes) override;
  void on_deactivate(const Production& production, std::span<const Wme* const> wmes) override;

  void fire(const Production& production, std::vector<const Wme*> matched);

  struct FiringEnv;
  [[nodiscard]] Value eval(const Expr& expr, FiringEnv& env);
  [[nodiscard]] std::vector<Value> build_slots(ClassIndex cls,
                                               std::span<const std::pair<SlotIndex, Expr>> sets,
                                               FiringEnv& env,
                                               const std::vector<Value>* base);

  std::shared_ptr<const Program> program_;
  const ExternalRegistry* externals_;
  EngineConfig options_;
  void build_matcher();
  /// Reverse-replay journal entries [down_to, end) and truncate to down_to.
  /// Callers own undo_active_/watch suppression and the mark restoration.
  void replay_undo_tail(std::size_t down_to);
  /// The other rollback route: clear all match state and re-add the base
  /// WMEs (timetag < the journal mark) in timetag order.
  void rebuild_base_wm();
  /// The live WME carrying `tag`, or null (conflict-set restores).
  [[nodiscard]] const Wme* live_wme(TimeTag tag) const;
  [[nodiscard]] Wme& new_wme(ClassIndex cls, std::span<const Value> slots, TimeTag tag);
  void free_wme(Wme& wme) noexcept;

  util::WorkCounters counters_;
  /// WMEs and their slot values (one arena block each). Declared before
  /// everything that points at a WME, so it is released last.
  util::SlabArena wm_arena_;
  ConflictSet conflict_set_{options_.strategy};
  std::unique_ptr<rete::Matcher> matcher_;
  rete::ParallelMatcher* parallel_ = nullptr;  // matcher_, when parallel
  std::vector<CycleRecord> cycles_;

  /// Live WMEs by timetag, all in wm_arena_ (released with it).
  using WmIndex = std::unordered_map<TimeTag, Wme*, std::hash<TimeTag>, std::equal_to<TimeTag>,
                                     util::ArenaAllocator<std::pair<const TimeTag, Wme*>>>;
  util::ArenaHeld<WmIndex> wm_{0, std::hash<TimeTag>{}, std::equal_to<TimeTag>{},
                               WmIndex::allocator_type(wm_arena_)};
  /// Empty the working memory in bulk: release the arena, start a new index.
  void release_wm() noexcept;
  TimeTag next_timetag_ = 1;
  bool halted_ = false;

  struct UndoEntry {
    TimeTag timetag = 0;
    /// Null for an addition. For a removal, the removed WME itself: it stays
    /// in wm_arena_ until the journal is committed or rolled back, so a
    /// restore puts the same object back.
    Wme* removed = nullptr;
  };
  bool undo_active_ = false;
  std::vector<UndoEntry> undo_log_;
  std::size_t undo_mark_wm_size_ = 0;  ///< WMEs in the base WM
  TimeTag undo_mark_timetag_ = 0;
  bool undo_mark_halted_ = false;
  std::uint64_t undo_mark_cycles_ = 0;

  std::function<void(const std::string&)> write_handler_;
  void* user_data_ = nullptr;
  int watch_level_ = 0;
  std::function<void(const std::string&)> watch_sink_;

  // Observability (members always present to keep the class layout identical
  // across PSMSYS_OBS settings; only the hot-path code is conditional).
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t tracer_tid_ = 0;
  std::size_t peak_conflict_set_ = 0;
};

}  // namespace psmsys::ops5
