#include "analysis/lint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <unordered_set>

#include "analysis/footprint.hpp"

namespace psmsys::analysis {

namespace {

using ops5::AttrTest;
using ops5::BindAction;
using ops5::ClassIndex;
using ops5::ConditionElement;
using ops5::Expr;
using ops5::MakeAction;
using ops5::ModifyAction;
using ops5::Predicate;
using ops5::Production;
using ops5::Program;
using ops5::RemoveAction;
using ops5::SlotIndex;
using ops5::Value;
using ops5::VariableId;
using ops5::WriteAction;

/// Whole-program pre-analysis shared by every per-production linter pass:
/// the dependency-graph substrate of AN003/AN008/AN009.
struct WholeProgram {
  /// Classes some production makes.
  std::unordered_set<ClassIndex> producers;
  /// Class -> productions with a (positive or negated) CE on it.
  std::unordered_map<ClassIndex, std::unordered_set<const Production*>> readers;
  /// Classes producible from the seeds through live productions (fixpoint);
  /// meaningful only when seed_classes was provided.
  std::unordered_set<ClassIndex> producible;
};

[[nodiscard]] std::unordered_set<ClassIndex> make_producers(const Program& program) {
  std::unordered_set<ClassIndex> producers;
  for (const auto& p : program.productions()) {
    for (const auto& action : p.rhs()) {
      if (const auto* make = std::get_if<MakeAction>(&action)) producers.insert(make->cls);
    }
  }
  return producers;
}

[[nodiscard]] WholeProgram whole_program_analysis(const Program& program,
                                                  const LintOptions& options) {
  WholeProgram wp;
  wp.producers = make_producers(program);
  for (const auto& p : program.productions()) {
    for (const auto& ce : p.lhs()) wp.readers[ce.cls].insert(&p);
  }
  if (options.seed_classes.has_value()) {
    wp.producible.insert(options.seed_classes->begin(), options.seed_classes->end());
    // Liveness fixpoint: a production is live once every positive CE class is
    // producible; a live production's makes extend producibility. Negated CEs
    // never block liveness (absence is free).
    std::unordered_set<const Production*> live;
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& p : program.productions()) {
        if (live.contains(&p)) continue;
        bool matchable = true;
        for (const auto& ce : p.lhs()) {
          if (!ce.negated && !wp.producible.contains(ce.cls)) {
            matchable = false;
            break;
          }
        }
        if (!matchable) continue;
        live.insert(&p);
        changed = true;
        for (const auto& action : p.rhs()) {
          if (const auto* make = std::get_if<MakeAction>(&action)) {
            wp.producible.insert(make->cls);
          }
        }
      }
    }
  }
  return wp;
}

class ProductionLinter {
 public:
  ProductionLinter(const Program& program, const Production& production,
                   const LintOptions& options, const WholeProgram& whole,
                   std::vector<Diagnostic>& out)
      : program_(program),
        production_(production),
        options_(options),
        whole_(whole),
        producers_(whole.producers),
        out_(out) {}

  void run() {
    check_bindings();          // AN006 + the bound-variable map
    check_rhs_variables();     // AN001
    check_unused_bindings();   // AN002
    check_reachability();      // AN003
    check_contradictions();    // AN004
    check_modify_targets();    // AN005
    check_duplicate_sets();    // AN007
    check_dead();              // AN008
    check_unproducible();      // AN009
  }

 private:
  void report(Code code, std::string message, ops5::SourceLoc loc = {},
              std::optional<Severity> severity = std::nullopt) {
    Diagnostic d;
    d.code = code;
    d.severity = severity.value_or(default_severity(code));
    d.production = production_.name();
    d.loc = loc.known() ? loc : production_.location();
    d.message = std::move(message);
    out_.push_back(std::move(d));
  }

  [[nodiscard]] std::string var(VariableId v) const {
    return "<" + program_.variable_name(v) + ">";
  }

  [[nodiscard]] std::string class_of(ClassIndex cls) const {
    return program_.symbols().name(program_.wme_class(cls).name());
  }

  [[nodiscard]] std::string attr_of(ClassIndex cls, SlotIndex slot) const {
    return program_.symbols().name(program_.wme_class(cls).attributes()[slot]);
  }

  // AN006 — mirror the engine's binding rule (bindings.hpp): a variable's
  // first occurrence in a positive CE must be an equality test, which binds
  // it; a first occurrence under <, <=, >, >=, <> has nothing to compare to.
  void check_bindings() {
    std::unordered_set<VariableId> flagged;
    for (const auto& ce : production_.lhs()) {
      if (ce.negated) continue;
      for (const auto& test : ce.tests) {
        if (!test.is_variable) continue;
        if (bound_.contains(test.var)) continue;
        if (test.pred == Predicate::Eq) {
          bound_.insert(test.var);
        } else if (flagged.insert(test.var).second) {
          report(Code::NonEqualityFirstUse,
                 "first occurrence of " + var(test.var) + " uses predicate '" +
                     std::string(ops5::predicate_name(test.pred)) +
                     "' — a variable must be bound by an equality test before it can "
                     "be compared",
                 ce.loc);
        }
      }
    }
  }

  // AN001 — every RHS variable reference must be bound by a positive CE or
  // by an earlier bind action.
  void check_rhs_variables() {
    std::unordered_set<VariableId> negation_only;
    for (const auto& ce : production_.lhs()) {
      if (!ce.negated) continue;
      for (const auto& test : ce.tests) {
        if (test.is_variable && !bound_.contains(test.var)) negation_only.insert(test.var);
      }
    }

    std::unordered_set<VariableId> eligible = bound_;
    std::unordered_set<VariableId> flagged;
    const auto check_expr = [&](const Expr& expr) {
      std::vector<VariableId> vars;
      collect_expr_variables(expr, vars);
      for (const VariableId v : vars) {
        if (eligible.contains(v) || !flagged.insert(v).second) continue;
        std::string message = "RHS references " + var(v) + ", which no positive CE binds";
        if (negation_only.contains(v)) {
          message += " (it appears only inside a negated CE, where bindings are local)";
        }
        report(Code::UnboundRhsVariable, std::move(message));
      }
    };

    for (const auto& action : production_.rhs()) {
      if (const auto* make = std::get_if<MakeAction>(&action)) {
        for (const auto& [slot, expr] : make->sets) check_expr(expr);
      } else if (const auto* mod = std::get_if<ModifyAction>(&action)) {
        for (const auto& [slot, expr] : mod->sets) check_expr(expr);
      } else if (const auto* bind = std::get_if<BindAction>(&action)) {
        check_expr(bind->expr);
        eligible.insert(bind->var);
      } else if (const auto* write = std::get_if<WriteAction>(&action)) {
        for (const auto& expr : write->exprs) check_expr(expr);
      }
    }
  }

  // AN002 — a positive-CE binding used exactly once (its own binding test)
  // constrains nothing; it is usually a leftover or a misspelling.
  void check_unused_bindings() {
    std::unordered_map<VariableId, std::size_t> uses;
    for (const auto& ce : production_.lhs()) {
      for (const auto& test : ce.tests) {
        if (test.is_variable) ++uses[test.var];
      }
    }
    const auto count_expr = [&](const Expr& expr) {
      std::vector<VariableId> vars;
      collect_expr_variables(expr, vars);
      for (const VariableId v : vars) ++uses[v];
    };
    for (const auto& action : production_.rhs()) {
      if (const auto* make = std::get_if<MakeAction>(&action)) {
        for (const auto& [slot, expr] : make->sets) count_expr(expr);
      } else if (const auto* mod = std::get_if<ModifyAction>(&action)) {
        for (const auto& [slot, expr] : mod->sets) count_expr(expr);
      } else if (const auto* bind = std::get_if<BindAction>(&action)) {
        count_expr(bind->expr);
      } else if (const auto* write = std::get_if<WriteAction>(&action)) {
        for (const auto& expr : write->exprs) count_expr(expr);
      }
    }
    // Report in LHS order for stable output.
    std::unordered_set<VariableId> reported;
    for (const auto& ce : production_.lhs()) {
      if (ce.negated) continue;
      for (const auto& test : ce.tests) {
        if (!test.is_variable || !bound_.contains(test.var)) continue;
        if (uses[test.var] != 1 || !reported.insert(test.var).second) continue;
        report(Code::UnusedBinding,
               "variable " + var(test.var) + " is bound but never used", ce.loc);
      }
    }
  }

  // AN003 — a positive CE over a class no production makes and nothing
  // seeds can never match, so the production can never fire.
  void check_reachability() {
    if (!options_.seed_classes.has_value()) return;
    const std::unordered_set<ClassIndex> seeds(options_.seed_classes->begin(),
                                               options_.seed_classes->end());
    std::unordered_set<ClassIndex> reported;
    for (const auto& ce : production_.lhs()) {
      if (ce.negated) continue;
      if (producers_.contains(ce.cls) || seeds.contains(ce.cls)) continue;
      if (!reported.insert(ce.cls).second) continue;
      report(Code::UnreachableProduction,
             "condition element matches class '" + class_of(ce.cls) +
                 "', which no production makes and no seed provides — the production "
                 "can never fire",
             ce.loc);
    }
  }

  // AN004 — the conjunction of one CE's constant tests on a single slot must
  // be satisfiable. Handles equality/disjunction value sets, <> exclusions,
  // numeric intervals, and ordering tests against non-numbers (always false
  // in OPS5: <,> compare numbers only).
  void check_contradictions() {
    for (const auto& ce : production_.lhs()) {
      std::set<SlotIndex> slots;
      for (const auto& test : ce.tests) {
        if (!test.is_variable) slots.insert(test.slot);
      }
      for (const SlotIndex slot : slots) check_slot_tests(ce, slot);
    }
  }

  void check_slot_tests(const ConditionElement& ce, SlotIndex slot) {
    std::vector<const AttrTest*> tests;
    for (const auto& test : ce.tests) {
      if (!test.is_variable && test.slot == slot) tests.push_back(&test);
    }
    if (tests.empty()) return;

    const auto contradiction = [&](std::string_view why) {
      report(Code::ContradictoryTests,
             "tests on ^" + attr_of(ce.cls, slot) + " of '" + class_of(ce.cls) +
                 "' can never all hold (" + std::string(why) + ")",
             ce.loc);
    };

    // Ordering predicates never match symbols or nil.
    for (const AttrTest* t : tests) {
      if (t->is_disjunction() || t->pred == Predicate::Eq || t->pred == Predicate::Ne) continue;
      if (!t->constant.is_number()) {
        contradiction("ordering test against a non-number never matches");
        return;
      }
    }

    // Intersect the explicit value sets (= and << ... >>).
    std::optional<std::vector<Value>> allowed;
    for (const AttrTest* t : tests) {
      std::vector<Value> set;
      if (t->is_disjunction()) {
        set = t->disjunction;
      } else if (t->pred == Predicate::Eq) {
        set = {t->constant};
      } else {
        continue;
      }
      if (!allowed) {
        allowed = std::move(set);
      } else {
        std::vector<Value> next;
        for (const auto& v : *allowed) {
          if (std::find(set.begin(), set.end(), v) != set.end()) next.push_back(v);
        }
        allowed = std::move(next);
      }
    }

    if (allowed) {
      // Keep only values passing every remaining predicate test.
      std::vector<Value> left;
      for (const auto& v : *allowed) {
        bool ok = true;
        for (const AttrTest* t : tests) {
          if (t->is_disjunction() || t->pred == Predicate::Eq) continue;
          if (!ops5::apply_predicate(t->pred, v, t->constant)) {
            ok = false;
            break;
          }
        }
        if (ok) left.push_back(v);
      }
      if (left.empty()) contradiction("no value satisfies every test");
      return;
    }

    // Pure interval reasoning over < <= > >=.
    double lb = -std::numeric_limits<double>::infinity();
    double ub = std::numeric_limits<double>::infinity();
    bool lb_strict = false;
    bool ub_strict = false;
    for (const AttrTest* t : tests) {
      if (t->is_disjunction() || !t->constant.is_number()) continue;
      const double c = t->constant.number();
      switch (t->pred) {
        case Predicate::Gt:
          if (c > lb || (c == lb && !lb_strict)) { lb = c; lb_strict = true; }
          break;
        case Predicate::Ge:
          if (c > lb) { lb = c; lb_strict = false; }
          break;
        case Predicate::Lt:
          if (c < ub || (c == ub && !ub_strict)) { ub = c; ub_strict = true; }
          break;
        case Predicate::Le:
          if (c < ub) { ub = c; ub_strict = false; }
          break;
        default:
          break;
      }
    }
    if (lb > ub || (lb == ub && (lb_strict || ub_strict))) {
      contradiction("the numeric interval is empty");
    }
  }

  // AN005 — modify/remove indices count positive CEs only. An index that,
  // read against the full LHS, lands on a negated element is the classic
  // OPS5 off-by-one: the author counted the negation too.
  void check_modify_targets() {
    const auto check_index = [&](std::uint32_t index, std::string_view what) {
      const ConditionElement* resolved = positive_ce(production_, index);
      if (resolved == nullptr) {
        report(Code::ModifyTargetsNegatedCe,
               std::string(what) + " " + std::to_string(index) +
                   " is out of range: the production has only " +
                   std::to_string(production_.positive_ce_count()) + " positive CE(s)",
               {}, Severity::Error);
        return;
      }
      if (index <= production_.lhs().size() && production_.lhs()[index - 1].negated) {
        report(Code::ModifyTargetsNegatedCe,
               std::string(what) + " " + std::to_string(index) + " resolves to the positive CE on '" +
                   class_of(resolved->cls) + "', but LHS element " + std::to_string(index) +
                   " is a negated CE on '" + class_of(production_.lhs()[index - 1].cls) +
                   "' — OPS5 numbers matchable CEs only; check for an off-by-one",
               production_.lhs()[index - 1].loc);
      }
    };
    for (const auto& action : production_.rhs()) {
      if (const auto* mod = std::get_if<ModifyAction>(&action)) {
        check_index(mod->ce_index, "modify");
      } else if (const auto* rem = std::get_if<RemoveAction>(&action)) {
        check_index(rem->ce_index, "remove");
      }
    }
  }

  // AN007 — assigning the same attribute twice in one action: the last
  // assignment silently wins.
  void check_duplicate_sets() {
    const auto check_sets = [&](ClassIndex cls,
                                const std::vector<std::pair<SlotIndex, Expr>>& sets,
                                std::string_view what) {
      std::set<SlotIndex> seen;
      std::set<SlotIndex> reported;
      for (const auto& [slot, expr] : sets) {
        if (!seen.insert(slot).second && reported.insert(slot).second) {
          report(Code::DuplicateAttributeSet,
                 std::string(what) + " assigns ^" + attr_of(cls, slot) +
                     " more than once — the last assignment silently wins");
        }
      }
    };
    for (const auto& action : production_.rhs()) {
      if (const auto* make = std::get_if<MakeAction>(&action)) {
        check_sets(make->cls, make->sets, "make");
      } else if (const auto* mod = std::get_if<ModifyAction>(&action)) {
        const ConditionElement* target = positive_ce(production_, mod->ce_index);
        if (target != nullptr) check_sets(target->cls, mod->sets, "modify");
      }
    }
  }

  // AN008 — a production whose every write lands on classes no *other*
  // production reads and the phase never outputs does work nobody observes.
  // Externally visible actions (write/halt) always count as consumption.
  void check_dead() {
    if (!options_.output_classes.has_value()) return;
    const std::unordered_set<ClassIndex> outputs(options_.output_classes->begin(),
                                                 options_.output_classes->end());
    std::vector<ClassIndex> written;  // first-write order, deduplicated
    const auto add_written = [&](ClassIndex cls) {
      if (std::find(written.begin(), written.end(), cls) == written.end()) {
        written.push_back(cls);
      }
    };
    for (const auto& action : production_.rhs()) {
      if (std::holds_alternative<WriteAction>(action) ||
          std::holds_alternative<ops5::HaltAction>(action)) {
        return;  // externally visible effect: never dead
      }
      if (const auto* make = std::get_if<MakeAction>(&action)) {
        add_written(make->cls);
      } else if (const auto* mod = std::get_if<ModifyAction>(&action)) {
        const ConditionElement* target = positive_ce(production_, mod->ce_index);
        if (target == nullptr) return;  // AN005 error territory; don't pile on
        add_written(target->cls);
      } else if (const auto* rem = std::get_if<RemoveAction>(&action)) {
        const ConditionElement* target = positive_ce(production_, rem->ce_index);
        if (target == nullptr) return;
        add_written(target->cls);
      }
    }
    for (const ClassIndex cls : written) {
      if (outputs.contains(cls)) return;
      const auto it = whole_.readers.find(cls);
      if (it != whole_.readers.end()) {
        for (const Production* reader : it->second) {
          if (reader != &production_) return;  // someone else consumes it
        }
      }
    }
    if (written.empty()) {
      report(Code::DeadProduction,
             "production is dead: its RHS writes no working-memory class and has "
             "no externally visible action");
      return;
    }
    std::string classes;
    for (const ClassIndex cls : written) {
      if (!classes.empty()) classes += ", ";
      classes.append("'").append(class_of(cls)).append("'");
    }
    report(Code::DeadProduction,
           "production is dead: it writes only " + classes +
               ", which no other production reads and the phase does not output");
  }

  // AN009 — a positive CE class that *has* producers but none of them is
  // reachable from the seeds can still never match: the whole producer chain
  // is unreachable. AN003 already covers classes with no producer at all.
  void check_unproducible() {
    if (!options_.seed_classes.has_value()) return;
    const std::unordered_set<ClassIndex> seeds(options_.seed_classes->begin(),
                                               options_.seed_classes->end());
    std::unordered_set<ClassIndex> reported;
    for (const auto& ce : production_.lhs()) {
      if (ce.negated) continue;
      if (whole_.producible.contains(ce.cls)) continue;
      if (!producers_.contains(ce.cls) && !seeds.contains(ce.cls)) continue;  // AN003's case
      if (!reported.insert(ce.cls).second) continue;
      report(Code::UnproducibleClass,
             "condition element matches class '" + class_of(ce.cls) +
                 "', which has producers but none reachable from the seeds — the "
                 "production can never fire",
             ce.loc);
    }
  }

  const Program& program_;
  const Production& production_;
  const LintOptions& options_;
  const WholeProgram& whole_;
  const std::unordered_set<ClassIndex>& producers_;
  std::vector<Diagnostic>& out_;
  std::unordered_set<VariableId> bound_;
};

}  // namespace

std::vector<Diagnostic> lint_production(const Program& program, const Production& production,
                                        const LintOptions& options) {
  std::vector<Diagnostic> out;
  const WholeProgram whole = whole_program_analysis(program, options);
  ProductionLinter(program, production, options, whole, out).run();
  return out;
}

std::vector<Diagnostic> lint_program(const Program& program, const LintOptions& options) {
  std::vector<Diagnostic> out;
  const WholeProgram whole = whole_program_analysis(program, options);
  for (const auto& production : program.productions()) {
    ProductionLinter(program, production, options, whole, out).run();
  }
  return out;
}

}  // namespace psmsys::analysis
