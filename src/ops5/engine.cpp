#include "ops5/engine.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "analysis/rete_static.hpp"
#include "obs/trace.hpp"

namespace psmsys::ops5 {

Engine::Engine(std::shared_ptr<const Program> program, const ExternalRegistry* externals,
               EngineOptions options)
    : program_(std::move(program)), externals_(externals), options_(options) {
  if (program_ == nullptr) throw std::invalid_argument("engine needs a program");
  build_matcher();
}

void Engine::build_matcher() {
  rete::MatchListener& listener = *this;  // private base: convert in member scope
  if (options_.match_threads == 0) {
    matcher_ = std::make_unique<rete::Network>(*program_, listener, counters_, options_.costs,
                                               options_.rete);
    parallel_ = nullptr;
  } else {
    rete::ParallelMatcherOptions po;
    po.threads = options_.match_threads;
    po.network = options_.rete;
    if (options_.match_cost_source == MatchCostSource::Analyzer) {
      // Static join-cost estimates from the whole-rule-base analyzer; any
      // production it scores <= 0 falls back to the heuristic inside the
      // matcher, so a partial vector degrades gracefully.
      po.production_costs = options_.shared_match_costs
                                ? *options_.shared_match_costs
                                : analysis::static_match_costs(*program_, options_.rete);
    }
    auto pm = std::make_unique<rete::ParallelMatcher>(*program_, listener, counters_,
                                                      options_.costs, po);
    parallel_ = pm.get();
    matcher_ = std::move(pm);
  }
}

void Engine::reconfigure(const EngineConfig& config) {
  if (config.strategy != options_.strategy) {
    throw std::logic_error("reconfigure cannot change the conflict-resolution strategy");
  }
  // The matcher-affecting knobs: only these force a rebuild (compilation
  // charges alpha/beta construction costs, so rebuilds restart the counters
  // from a clean slate to avoid double-charging them).
  const bool rebuild =
      config.match_threads != options_.match_threads ||
      (config.match_threads != 0 &&
       config.match_cost_source != options_.match_cost_source);
  if (rebuild && (!wm_->empty() || undo_active_ || conflict_set_.size() != 0)) {
    throw std::logic_error("reconfigure requires an empty working memory");
  }
  options_ = config;
  if (rebuild) {
    counters_ = util::WorkCounters{};
    build_matcher();
  }
}

Engine::~Engine() = default;

// ---------------------------------------------------------------------------
// Working memory
// ---------------------------------------------------------------------------

Wme& Engine::new_wme(ClassIndex cls, std::span<const Value> slots, TimeTag tag) {
  // One arena block: the WME, then its slot values.
  static_assert(alignof(Wme) >= alignof(Value));
  void* block = wm_arena_.allocate(sizeof(Wme) + slots.size_bytes());
  auto* values = reinterpret_cast<Value*>(static_cast<Wme*>(block) + 1);
  std::uninitialized_copy(slots.begin(), slots.end(), values);
  auto* wme = new (block) Wme(Wme::Borrowed{}, cls, program_->wme_class(cls).name(),
                              std::span<const Value>(values, slots.size()), tag);
  wm_->emplace(tag, wme);
  return *wme;
}

void Engine::free_wme(Wme& wme) noexcept {
  wm_arena_.deallocate(&wme, sizeof(Wme) + wme.slots().size_bytes());
}

void Engine::release_wm() noexcept {
  wm_arena_.release();
  wm_.reset(0, std::hash<TimeTag>{}, std::equal_to<TimeTag>{},
            WmIndex::allocator_type(wm_arena_));
}

const Wme& Engine::make_wme(ClassIndex cls, std::vector<std::pair<SlotIndex, Value>> sets) {
  const WmeClass& decl = program_->wme_class(cls);
  std::vector<Value> slots(decl.arity());
  for (auto& [slot, value] : sets) {
    if (slot >= slots.size()) throw std::out_of_range("make_wme: slot out of range");
    slots[slot] = value;
  }
  const Wme& ref = new_wme(cls, slots, next_timetag_++);
  ++counters_.wmes_added;
  if (undo_active_) undo_log_.push_back({ref.timetag(), nullptr});
  if (watch_level_ >= 2) {
    watch_sink_("=>WM: " + std::to_string(ref.timetag()) + ": " +
                ref.to_string(program_->symbols(), decl));
  }
  matcher_->add_wme(ref);
  return ref;
}

const Wme& Engine::make_wme(std::string_view class_name,
                            std::vector<std::pair<std::string_view, Value>> sets) {
  const auto cls_sym = program_->symbols().find(class_name);
  if (!cls_sym) throw std::invalid_argument("unknown class: " + std::string(class_name));
  const auto cls = program_->class_index(*cls_sym);
  if (!cls) throw std::invalid_argument("not a WME class: " + std::string(class_name));
  const WmeClass& decl = program_->wme_class(*cls);
  std::vector<std::pair<SlotIndex, Value>> resolved;
  resolved.reserve(sets.size());
  for (auto& [attr, value] : sets) {
    const auto attr_sym = program_->symbols().find(attr);
    if (!attr_sym) throw std::invalid_argument("unknown attribute: " + std::string(attr));
    const SlotIndex slot = decl.slot_of(*attr_sym);
    if (slot == kInvalidSlot) {
      throw std::invalid_argument("class has no attribute ^" + std::string(attr));
    }
    resolved.emplace_back(slot, value);
  }
  return make_wme(*cls, std::move(resolved));
}

void Engine::remove_wme(const Wme& wme) {
  const auto it = wm_->find(wme.timetag());
  if (it == wm_->end() || it->second != &wme) {
    throw std::logic_error("removing WME not in working memory");
  }
  ++counters_.wmes_removed;
  if (watch_level_ >= 2) {
    watch_sink_("<=WM: " + std::to_string(wme.timetag()) + ": " +
                wme.to_string(program_->symbols(), program_->wme_class(wme.class_index())));
  }
  Wme* live = it->second;
  matcher_->remove_wme(wme);
  wm_->erase(it);
  if (undo_active_) {
    undo_log_.push_back({live->timetag(), live});  // kept alive for a restore
  } else {
    free_wme(*live);
  }
}

std::size_t Engine::wm_size() const noexcept { return wm_->size(); }

void Engine::set_watch(int level, std::function<void(const std::string&)> sink) {
  if (level < 0 || level > 2) throw std::invalid_argument("watch level must be 0..2");
  watch_level_ = level;
  watch_sink_ = std::move(sink);
  if (watch_level_ > 0 && !watch_sink_) {
    throw std::invalid_argument("watch level > 0 needs a sink");
  }
}

std::vector<const Wme*> Engine::wmes_of_class(ClassIndex cls) const {
  std::vector<const Wme*> out;
  for (const auto& [tag, wme] : *wm_) {
    if (wme->class_index() == cls) out.push_back(wme);
  }
  return out;
}

std::vector<const Wme*> Engine::wmes_of_class(std::string_view class_name) const {
  const auto sym = program_->symbols().find(class_name);
  if (!sym) return {};
  const auto cls = program_->class_index(*sym);
  if (!cls) return {};
  return wmes_of_class(*cls);
}

// ---------------------------------------------------------------------------
// Match listener
// ---------------------------------------------------------------------------

void Engine::on_activate(const Production& production, std::span<const Wme* const> wmes) {
  conflict_set_.add(production, wmes);
#if PSMSYS_OBS
  peak_conflict_set_ = std::max(peak_conflict_set_, conflict_set_.size());
#endif
}

void Engine::on_deactivate(const Production& production, std::span<const Wme* const> wmes) {
  conflict_set_.remove(production, wmes);
}

// ---------------------------------------------------------------------------
// RHS evaluation
// ---------------------------------------------------------------------------

struct Engine::FiringEnv {
  // Slot values of the matched WMEs, snapshotted at fire start: OPS5 variable
  // bindings are fixed at match time, and the underlying WMEs may be removed
  // by earlier actions of the same firing.
  std::vector<std::vector<Value>> wme_slots;
  const BindingAnalysis& bindings;
  std::unordered_map<VariableId, Value> bound;  // from (bind ...) actions
};

Value Engine::eval(const Expr& expr, FiringEnv& env) {
  counters_.rhs_cost += 1;
  if (const auto* lit = std::get_if<Value>(&expr.node)) return *lit;
  if (const auto* ref = std::get_if<VarRef>(&expr.node)) {
    if (const auto it = env.bound.find(ref->var); it != env.bound.end()) return it->second;
    const auto site = env.bindings.site(ref->var);
    if (!site) throw std::logic_error("variable has no binding site");
    return env.wme_slots[site->positive_ce][site->slot];
  }
  const auto& call = std::get<CallExpr>(expr.node);
  std::vector<Value> args;
  args.reserve(call.args.size());
  for (const auto& a : call.args) args.push_back(eval(a, env));
  if (externals_ != nullptr) {
    if (const ExternalFn* fn = externals_->find(call.function)) {
      ExternalContext ctx(counters_, options_.costs, user_data_);
      return (*fn)(args, ctx);
    }
  }
  // Arithmetic builtins used by (compute ...) are always available.
  const std::string& name = program_->symbols().name(call.function);
  const auto binary = [&](auto op) {
    if (args.size() != 2 || !args[0].is_number() || !args[1].is_number()) {
      throw std::logic_error("builtin " + name + " needs two numeric arguments");
    }
    return Value(op(args[0].number(), args[1].number()));
  };
  if (name == "+") return binary([](double a, double b) { return a + b; });
  if (name == "-") return binary([](double a, double b) { return a - b; });
  if (name == "*") return binary([](double a, double b) { return a * b; });
  if (name == "//") {
    return binary([](double a, double b) {
      if (b == 0.0) throw std::domain_error("division by zero in //");
      return std::trunc(a / b);
    });
  }
  if (name == "mod") {
    return binary([](double a, double b) {
      if (b == 0.0) throw std::domain_error("division by zero in mod");
      return a - b * std::floor(a / b);
    });
  }
  throw std::logic_error("unknown external function: " + name);
}

std::vector<Value> Engine::build_slots(ClassIndex cls,
                                       std::span<const std::pair<SlotIndex, Expr>> sets,
                                       FiringEnv& env, const std::vector<Value>* base) {
  const WmeClass& decl = program_->wme_class(cls);
  std::vector<Value> slots = base != nullptr ? *base : std::vector<Value>(decl.arity());
  for (const auto& [slot, expr] : sets) slots[slot] = eval(expr, env);
  return slots;
}

void Engine::fire(const Production& production, std::vector<const Wme*> matched) {
  FiringEnv env{{}, matcher_->bindings(production), {}};
  env.wme_slots.reserve(matched.size());
  for (const Wme* w : matched) {
    env.wme_slots.emplace_back(w->slots().begin(), w->slots().end());
  }
  ++counters_.firings;

  // Map 1-based positive-CE index -> live WME (updated by modify/remove).
  std::vector<const Wme*> ce_wme = std::move(matched);

  for (const auto& action : production.rhs()) {
    counters_.rhs_cost += options_.costs.rhs_action;
    std::visit(
        [&](const auto& a) {
          using T = std::decay_t<decltype(a)>;
          if constexpr (std::is_same_v<T, MakeAction>) {
            ++counters_.rhs_actions;
            make_wme(a.cls, [&] {
              std::vector<std::pair<SlotIndex, Value>> sets;
              sets.reserve(a.sets.size());
              for (const auto& [slot, expr] : a.sets) sets.emplace_back(slot, eval(expr, env));
              return sets;
            }());
          } else if constexpr (std::is_same_v<T, ModifyAction>) {
            ++counters_.rhs_actions;
            const Wme* target = ce_wme.at(a.ce_index - 1);
            if (target == nullptr) {
              throw std::logic_error("modify of a WME already removed in this firing");
            }
            const std::vector<Value> base(target->slots().begin(), target->slots().end());
            std::vector<Value> slots = build_slots(target->class_index(), a.sets, env, &base);
            const ClassIndex cls = target->class_index();
            remove_wme(*target);
            // The same WME may be matched at several CE positions.
            for (auto& slot_wme : ce_wme) {
              if (slot_wme == target) slot_wme = nullptr;
            }
            std::vector<std::pair<SlotIndex, Value>> sets;
            sets.reserve(slots.size());
            for (SlotIndex i = 0; i < slots.size(); ++i) sets.emplace_back(i, slots[i]);
            const Wme& replacement = make_wme(cls, std::move(sets));
            ce_wme[a.ce_index - 1] = &replacement;
          } else if constexpr (std::is_same_v<T, RemoveAction>) {
            ++counters_.rhs_actions;
            const Wme* target = ce_wme.at(a.ce_index - 1);
            if (target == nullptr) {
              throw std::logic_error("remove of a WME already removed in this firing");
            }
            remove_wme(*target);
            for (auto& slot_wme : ce_wme) {
              if (slot_wme == target) slot_wme = nullptr;
            }
          } else if constexpr (std::is_same_v<T, BindAction>) {
            env.bound[a.var] = eval(a.expr, env);
          } else if constexpr (std::is_same_v<T, WriteAction>) {
            ++counters_.rhs_actions;
            if (write_handler_) {
              std::ostringstream os;
              for (std::size_t i = 0; i < a.exprs.size(); ++i) {
                if (i) os << ' ';
                os << eval(a.exprs[i], env).to_string(program_->symbols());
              }
              write_handler_(os.str());
            } else {
              for (const auto& e : a.exprs) (void)eval(e, env);
            }
          } else if constexpr (std::is_same_v<T, HaltAction>) {
            halted_ = true;
          }
        },
        action);
    if (halted_) break;
  }
}

// ---------------------------------------------------------------------------
// The recognize-act cycle
// ---------------------------------------------------------------------------

bool Engine::step() {
  if (halted_) return false;

#if PSMSYS_OBS
  // A detached tracer costs one pointer test; an attached one costs a clock
  // read only on sampled cycles (set_sample_every).
  const bool traced =
      tracer_ != nullptr && tracer_->should_sample(counters_.cycles);
  const auto span_begin =
      traced ? obs::Tracer::Clock::now() : obs::Tracer::Clock::time_point{};
#endif

  // Match: the network processed WM deltas eagerly; collect this cycle's
  // chunks (the work a parallel matcher would distribute).
  std::vector<util::WorkUnits> chunks = matcher_->take_chunks();

  // Resolve: the ordered conflict set selects in O(log n); charge that.
  const util::WorkUnits resolve_cost =
      options_.costs.resolve_per_inst *
      static_cast<util::WorkUnits>(1 + std::bit_width(conflict_set_.size() + 1));
  counters_.resolve_cost += resolve_cost;
  const Instantiation* winner = conflict_set_.select();
  if (winner == nullptr) {
    if (options_.record_cycles && !chunks.empty()) {
      CycleRecord rec;
      rec.match_chunks = std::move(chunks);
      rec.resolve_cost = resolve_cost;
      cycles_.push_back(std::move(rec));
    }
    return false;
  }

  // Act. Copy the winner's identity first: firing can retract the winning
  // instantiation itself (removing a matched WME destroys the entry).
  const Production& production = *winner->production;
  std::vector<const Wme*> matched(winner->wmes.begin(), winner->wmes.end());
  if (watch_level_ >= 1) {
    std::string line = std::to_string(counters_.cycles + 1) + ". " +
                       program_->symbols().name(production.name());
    for (const Wme* w : matched) line.append(" ").append(std::to_string(w->timetag()));
    watch_sink_(line);
  }
  const util::WorkUnits rhs_before = counters_.rhs_cost;
  fire(production, std::move(matched));
  ++counters_.cycles;

#if PSMSYS_OBS
  if (traced) {
    util::WorkUnits match_wu = 0;
    for (auto c : chunks) match_wu += c;
    obs::json::Object args;
    args.emplace_back("cycle", obs::json::Value(counters_.cycles));
    args.emplace_back("production",
                      obs::json::Value(program_->symbols().name(production.name())));
    args.emplace_back("match_wu", obs::json::Value(match_wu));
    args.emplace_back("resolve_wu", obs::json::Value(resolve_cost));
    args.emplace_back("rhs_wu",
                      obs::json::Value(counters_.rhs_cost - rhs_before));
    args.emplace_back("conflict_set", obs::json::Value(conflict_set_.size()));
    args.emplace_back("wm_size", obs::json::Value(wm_->size()));
    tracer_->record_span("cycle", "engine", span_begin,
                         obs::Tracer::Clock::now(), tracer_tid_,
                         std::move(args));
  }
#endif

  if (options_.record_cycles) {
    CycleRecord rec;
    rec.match_chunks = std::move(chunks);
    rec.resolve_cost = resolve_cost;
    rec.rhs_cost = counters_.rhs_cost - rhs_before;
    cycles_.push_back(std::move(rec));
  }
  return true;
}

RunResult Engine::run() { return run(0); }

RunResult Engine::run(std::uint64_t cycle_budget) {
  // Saturating: a budget past the end of the clock means no budget.
  const std::uint64_t headroom = std::numeric_limits<std::uint64_t>::max() - counters_.cycles;
  const std::uint64_t deadline =
      cycle_budget == 0
          ? options_.max_cycles
          : std::min(options_.max_cycles, counters_.cycles + std::min(cycle_budget, headroom));
  RunResult result;
  while (true) {
    if (counters_.cycles >= deadline) {
      result.cycle_limited = true;
      break;
    }
    if (!step()) break;
  }
  result.firings = counters_.firings;
  result.cycles = counters_.cycles;
  result.halted = halted_;
  return result;
}

// ---------------------------------------------------------------------------
// Undo log (abort recovery)
// ---------------------------------------------------------------------------

void Engine::begin_undo_log() {
  if (undo_active_) throw std::logic_error("undo log already active");
  undo_active_ = true;
  undo_log_.clear();
  undo_mark_wm_size_ = wm_->size();
  undo_mark_timetag_ = next_timetag_;
  undo_mark_halted_ = halted_;
  undo_mark_cycles_ = counters_.cycles;
  conflict_set_.begin_journal();
}

void Engine::commit_undo_log() noexcept {
  undo_active_ = false;
  for (const UndoEntry& entry : undo_log_) {
    if (entry.removed != nullptr) free_wme(*entry.removed);
  }
  undo_log_.clear();
  conflict_set_.end_journal();
}

void Engine::replay_undo_tail(std::size_t down_to) {
  for (std::size_t i = undo_log_.size(); i > down_to; --i) {
    const UndoEntry& entry = undo_log_[i - 1];
    if (entry.removed == nullptr) {
      // Replaying in reverse guarantees the WME is live here: any later
      // removal of it was already undone.
      const auto live = wm_->find(entry.timetag);
      if (live == wm_->end()) throw std::logic_error("undo log corrupt: added WME not live");
      ++counters_.wmes_removed;
      Wme& wme = *live->second;
      matcher_->remove_wme(wme);
      wm_->erase(live);
      free_wme(wme);
    } else {
      // Put the removed WME itself back: its *original* timetag keeps
      // recency ordering — and every later conflict resolution — unchanged
      // by the aborted attempt.
      wm_->emplace(entry.timetag, entry.removed);
      ++counters_.wmes_added;
      matcher_->add_wme(*entry.removed);
    }
  }
  undo_log_.resize(down_to);
}

void Engine::rebuild_base_wm() {
  // The base WM is every WME older than the journal mark: those still live
  // and those the journal removed (each at most once — a removal undone by
  // a checkpoint rollback left the journal with it).
  std::vector<const Wme*> base;
  base.reserve(undo_mark_wm_size_);
  // Collect the live ones in O(min(mark, WM)): probe the timetags below the
  // mark when there are fewer of them than live WMEs, else walk the map. The
  // walk chases one pointer per node; on the SF Level-2 stream (564 base
  // WMEs, 34,025 live) it made the whole rebuild about 2.3x slower than the
  // probes (rete_micro/context_reset: 141-188 against 60-81 ns per WME).
  if (undo_mark_timetag_ - 1 <= wm_->size()) {
    for (TimeTag tag = 1; tag < undo_mark_timetag_; ++tag) {
      if (const auto it = wm_->find(tag); it != wm_->end()) base.push_back(it->second);
    }
  } else {
    for (const auto& [tag, wme] : *wm_) {
      if (tag < undo_mark_timetag_) base.push_back(wme);
    }
  }
  for (const UndoEntry& entry : undo_log_) {
    if (entry.removed != nullptr && entry.timetag < undo_mark_timetag_) {
      base.push_back(entry.removed);
    }
  }
  std::sort(base.begin(), base.end(),
            [](const Wme* a, const Wme* b) { return a->timetag() < b->timetag(); });

  // Copy the base out of the arena, then drop all match state in bulk.
  struct BaseWme {
    ClassIndex cls;
    TimeTag tag;
    std::size_t first;
  };
  std::vector<BaseWme> copies;
  std::vector<Value> values;
  copies.reserve(base.size());
  for (const Wme* w : base) {
    copies.push_back({w->class_index(), w->timetag(), values.size()});
    values.insert(values.end(), w->slots().begin(), w->slots().end());
  }
  conflict_set_.journal_survivors();
  matcher_->clear();
  conflict_set_.clear();
  release_wm();
  undo_log_.clear();

  for (std::size_t i = 0; i < copies.size(); ++i) {
    const std::size_t end = i + 1 < copies.size() ? copies[i + 1].first : values.size();
    const Wme& wme = new_wme(copies[i].cls,
                             std::span<const Value>(values.data() + copies[i].first,
                                                    end - copies[i].first),
                             copies[i].tag);
    ++counters_.wmes_added;
    matcher_->add_wme(wme);
  }
}

void Engine::rollback_undo_log() {
  if (!undo_active_) throw std::logic_error("no undo log to roll back");
  undo_active_ = false;  // mutations below must not journal themselves

  // Watch output during recovery would read as spurious WM churn.
  const int saved_watch = watch_level_;
  watch_level_ = 0;

  // Replay costs O(journal), the rebuild O(base WM): take the cheaper one.
  // Both end in the same WM, timetags and conflict set.
  conflict_set_.seal_journal();
  if (undo_log_.size() > undo_mark_wm_size_) {
    rebuild_base_wm();
  } else {
    replay_undo_tail(0);
  }
  conflict_set_.restore_journal([this](TimeTag tag) { return live_wme(tag); });
  next_timetag_ = undo_mark_timetag_;
  halted_ = undo_mark_halted_;
  // The cycle counter is the engine's observable logical clock: it numbers
  // watch-trace lines and anchors budget deadlines. Rewind it so a retry (or
  // the next resident task after a rolled-back one) sees the same clock the
  // aborted attempt saw — its trace comes out bit-identical. The remaining
  // WorkCounters stay monotonic: they meter real work done, and an aborted
  // attempt's match/RHS effort genuinely happened.
  counters_.cycles = undo_mark_cycles_;
  watch_level_ = saved_watch;
  // Match work done while rolling back is recovery, not a cycle's chunks.
  (void)matcher_->take_chunks();
}

const Wme* Engine::live_wme(TimeTag tag) const {
  const auto it = wm_->find(tag);
  return it == wm_->end() ? nullptr : it->second;
}

Engine::UndoCheckpoint Engine::undo_checkpoint() {
  if (!undo_active_) throw std::logic_error("undo checkpoint requires an active undo log");
  UndoCheckpoint cp;
  cp.log_size = undo_log_.size();
  cp.timetag = next_timetag_;
  cp.halted = halted_;
  cp.cycles = counters_.cycles;
  cp.conflicts = conflict_set_.mark();
  return cp;
}

void Engine::rollback_to_checkpoint(const UndoCheckpoint& cp) {
  if (!undo_active_) throw std::logic_error("no undo log to roll back");
  if (cp.log_size > undo_log_.size()) {
    throw std::logic_error("undo checkpoint is ahead of the journal (stale checkpoint?)");
  }
  // Same discipline as the whole-log rollback — journaling off, watch
  // silenced, original timetags and conflict-set state restored — but only
  // for the tail after the checkpoint, and the log stays active for the
  // rest of the stream.
  undo_active_ = false;
  const int saved_watch = watch_level_;
  watch_level_ = 0;

  conflict_set_.seal_journal();
  replay_undo_tail(cp.log_size);
  conflict_set_.restore(cp.conflicts, [this](TimeTag tag) { return live_wme(tag); });
  next_timetag_ = cp.timetag;
  halted_ = cp.halted;
  counters_.cycles = cp.cycles;
  watch_level_ = saved_watch;
  undo_active_ = true;
  (void)matcher_->take_chunks();
}

void Engine::reset() {
  matcher_->clear();
  conflict_set_.clear();
  conflict_set_.end_journal();
  release_wm();
  cycles_.clear();
  counters_ = util::WorkCounters{};
  next_timetag_ = 1;
  halted_ = false;
  undo_active_ = false;
  undo_log_.clear();
  peak_conflict_set_ = 0;
  // tracer_/tracer_tid_ deliberately survive, like the watch sink.
}

}  // namespace psmsys::ops5
