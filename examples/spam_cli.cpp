// spam_cli: command-line driver over the whole stack.
//
//   spam_cli --dataset SF --level 3 --procs 14 --match 2 [--match-threads 2]
//            [--policy lpt] [--watch 1] [--svm] [--json out.json]
//            [--trace trace.json]
//
// Runs RTF, decomposes LCC at the chosen level, executes every task on the
// unified executor, and reports the projected speedup for the chosen
// configuration — a one-command version of what the bench harness sweeps.
// `--json` writes the run's RunMetrics (plus the projection) as JSON;
// `--trace` writes a Chrome trace_event file loadable in about://tracing.

#include <fstream>
#include <iostream>
#include <string>

#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "psm/run.hpp"
#include "spam/decomposition.hpp"
#include "spam/scene_generator.hpp"
#include "svm/svm.hpp"
#include "util/table.hpp"

using namespace psmsys;

namespace {

struct Options {
  std::string dataset = "SF";
  int level = 3;
  std::size_t procs = 14;
  std::size_t match = 0;
  std::size_t match_threads = 0;  ///< real rete workers per engine (0 = serial)
  psm::SchedulePolicy policy = psm::SchedulePolicy::Fifo;
  int watch = 0;
  bool svm = false;
  std::string json_path;   ///< --json: RunMetrics + projection as JSON
  std::string trace_path;  ///< --trace: Chrome trace_event JSON
  std::size_t sample_every = 1;
  bool inject = false;  ///< run the robust threaded executor with faults
  psm::FaultConfig faults;
  psm::AttemptPolicy attempts;
};

void print_help() {
  std::cout <<
      "usage: spam_cli [options]\n"
      "\n"
      "dataset / decomposition:\n"
      "  --dataset <SF|DC|MOFF>      airport dataset (default SF)\n"
      "  --level <1..4>              LCC decomposition level (default 3)\n"
      "\n"
      "projection (virtual-time model):\n"
      "  --procs <N>                 task processes (default 14)\n"
      "  --match <M>                 dedicated match processes (default 0)\n"
      "  --match-threads <M>         REAL match workers per engine for the\n"
      "                              measured runs (rete::ParallelMatcher;\n"
      "                              0 = serial matcher, the default)\n"
      "  --policy <fifo|lpt>         task queue order (default fifo)\n"
      "  --svm                       project onto the two-Encore SVM cluster\n"
      "\n"
      "observability:\n"
      "  --json <path>               write run metrics + projection as JSON\n"
      "  --trace <path>              write Chrome trace_event JSON of the run\n"
      "  --sample-every <N>          keep every Nth cycle span (default 1)\n"
      "  --watch <0..2>              OPS5 watch level on the task engine\n"
      "\n"
      "fault injection (runs the executor for real, N threads = --procs):\n"
      "  --inject                    enable the deterministic fault plan\n"
      "  --inject-fail-rate <R>      transient failure probability per attempt\n"
      "  --inject-poison-rate <R>    permanent-failure probability per task\n"
      "  --inject-kill-worker <W>    worker index to kill\n"
      "  --inject-kill-at-pop <P>    kill after the worker's Pth queue pop\n"
      "  --inject-seed <S>           fault plan seed\n"
      "  --max-attempts <N>          retry budget per task (default 3)\n"
      "  --deadline <C>              per-attempt cycle deadline (0 = none)\n"
      "\n"
      "--inject prints the run report instead of the projected speedup;\n"
      "--json/--trace work in both modes.\n";
}

[[nodiscard]] Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--dataset") {
      o.dataset = next();
    } else if (arg == "--level") {
      o.level = std::stoi(next());
    } else if (arg == "--procs") {
      o.procs = std::stoul(next());
    } else if (arg == "--match") {
      o.match = std::stoul(next());
    } else if (arg == "--match-threads") {
      o.match_threads = std::stoul(next());
    } else if (arg == "--policy") {
      const std::string p = next();
      if (p == "fifo") {
        o.policy = psm::SchedulePolicy::Fifo;
      } else if (p == "lpt") {
        o.policy = psm::SchedulePolicy::LargestFirst;
      } else {
        throw std::invalid_argument("policy must be fifo or lpt");
      }
    } else if (arg == "--watch") {
      o.watch = std::stoi(next());
    } else if (arg == "--svm") {
      o.svm = true;
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--trace") {
      o.trace_path = next();
    } else if (arg == "--sample-every") {
      o.sample_every = std::stoul(next());
    } else if (arg == "--inject") {
      o.inject = true;
    } else if (arg == "--inject-fail-rate" || arg == "--fail-rate") {
      o.faults.transient_rate = std::stod(next());
    } else if (arg == "--inject-poison-rate" || arg == "--poison-rate") {
      o.faults.poison_rate = std::stod(next());
    } else if (arg == "--inject-kill-worker" || arg == "--kill-worker") {
      o.faults.kill_worker = std::stoul(next());
    } else if (arg == "--inject-kill-at-pop" || arg == "--kill-at-pop") {
      o.faults.kill_at_pop = std::stoull(next());
    } else if (arg == "--inject-seed" || arg == "--seed") {
      o.faults.seed = std::stoull(next());
    } else if (arg == "--max-attempts") {
      o.attempts.max_attempts = std::stoul(next());
    } else if (arg == "--deadline") {
      o.attempts.cycle_deadline = std::stoull(next());
    } else if (arg == "--help" || arg == "-h") {
      print_help();
      std::exit(0);
    } else {
      throw std::invalid_argument("unknown option " + arg + " (try --help)");
    }
  }
  return o;
}

/// Write a pretty-printed JSON document, reporting failures to stderr.
bool write_json(const std::string& path, const obs::json::Value& doc) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "spam_cli: cannot write " << path << '\n';
    return false;
  }
  out << doc.dump(2) << '\n';
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "spam_cli: " << e.what() << '\n';
    return 2;
  }

  const auto config = spam::dataset_by_name(options.dataset);
  const auto scene = spam::generate_scene(config);
  std::cout << "dataset " << config.name << ": " << scene.size() << " regions\n";

  const auto rtf = spam::run_rtf(scene, 3);
  const auto best = spam::best_fragments(rtf.fragments);
  std::cout << "RTF: " << rtf.fragments.size() << " hypotheses, " << best.size()
            << " best fragments\n";

  auto decomposition =
      spam::lcc_decomposition(options.level, scene, best, options.match > 0);
  std::cout << "LCC Level " << options.level << ": " << decomposition.tasks.size()
            << " tasks\n";

  // --trace attaches a sampling tracer to every task-process engine.
  obs::Tracer tracer;
  tracer.set_sample_every(options.sample_every);
  const bool tracing = !options.trace_path.empty();

  // --watch wraps the factory so every task-process engine echoes firings.
  psm::TaskProcessFactory factory = decomposition.factory;
  if (options.watch > 0) {
    const auto make_engine = factory.make_engine;
    const int watch = options.watch;
    factory.make_engine = [make_engine, watch]() {
      auto engine = make_engine();
      engine->set_watch(watch, [](const std::string& line) { std::cout << line << '\n'; });
      return engine;
    };
  }

  // JSON skeleton shared by both modes.
  obs::json::Object doc;
  doc.emplace_back("dataset", obs::json::Value(config.name));
  doc.emplace_back("level", obs::json::Value(options.level));
  doc.emplace_back("tasks", obs::json::Value(decomposition.tasks.size()));

  if (options.inject) {
    const psm::FaultInjector injector(options.faults);
    psm::RunOptions run_options;
    run_options.task_processes = options.procs;
    run_options.attempts = options.attempts;
    run_options.injector = &injector;
    run_options.match_threads = options.match_threads;
    if (tracing) run_options.tracer = &tracer;
    const auto result = psm::run(factory, decomposition.tasks, run_options);
    const auto& report = result.report;
    std::cout << "robust run on " << options.procs << " task processes, seed "
              << options.faults.seed << ":\n"
              << "  completed   " << report.completed_ids.size() << "/" << report.status.size()
              << "\n  quarantined " << report.quarantined_ids.size() << "\n  abandoned   "
              << report.abandoned_ids.size() << "\n  retries     " << report.retries
              << "\n  requeues    " << report.requeues << "\n  dead workers";
    if (report.dead_workers.empty()) std::cout << " none";
    for (const auto w : report.dead_workers) std::cout << ' ' << w;
    std::cout << '\n';
    for (const auto id : report.quarantined_ids) {
      const auto& attempts = report.attempts[id];
      std::cout << "  task " << id << " quarantined after " << attempts.size() << " attempts: "
                << (attempts.empty() ? "?" : attempts.back().error) << '\n';
    }
    std::cout << "  useful work "
              << util::Table::fmt(util::to_seconds(result.metrics.total_cost_wu()), 1) << " s, "
              << result.metrics.firings << " firings\n"
              << (result.complete() ? "  all tasks accounted for\n"
                                    : "  degraded: partial results reported\n");
    doc.emplace_back("mode", obs::json::Value("inject"));
    doc.emplace_back("metrics", result.metrics.to_json());
    if (!options.json_path.empty() && !write_json(options.json_path, obs::json::Value(doc))) {
      return 1;
    }
    if (tracing && !write_json(options.trace_path, tracer.to_json())) return 1;
    return result.complete() ? 0 : 1;
  }

  // Baseline measurement on the unified executor (1 task process, strict:
  // deterministic task order, measurements indexed by task id).
  psm::RunOptions baseline_options;
  baseline_options.task_processes = 1;
  baseline_options.strict = true;
  baseline_options.match_threads = options.match_threads;
  if (tracing) baseline_options.tracer = &tracer;
  const auto result = psm::run(factory, decomposition.tasks, baseline_options);
  const auto& measurements = result.measurements();

  std::cout << "baseline: "
            << util::Table::fmt(util::to_seconds(result.metrics.total_cost_wu()), 1) << " s, "
            << result.metrics.firings << " firings, match fraction "
            << util::Table::fmt(result.metrics.match_fraction(), 2) << "\n";
  if (options.match_threads > 0) {
    std::cout << "parallel match: " << result.metrics.match_threads << " threads, "
              << result.metrics.match_parallel_ops << " pool ops, utilization "
              << util::Table::fmt(result.metrics.match_thread_utilization(), 2) << "\n";
  }

  const psm::MatchModel match_model{
      .match_processes = options.match};  // defaults for the other knobs
  const auto costs = options.match > 0 ? psm::task_costs(measurements, &match_model)
                                       : psm::task_costs(measurements);
  // The projection replays the measured costs through the same RunOptions
  // struct the executor uses (satellite of the unified API).
  psm::RunOptions one;
  one.task_processes = 1;
  const auto baseline = psm::simulate_tlp(psm::task_costs(measurements), one).makespan;

  obs::json::Object projection;
  if (options.svm) {
    const auto r = svm::simulate_svm(measurements, options.procs, svm::SvmConfig{});
    const double s = psm::speedup(baseline, r.makespan);
    std::cout << "SVM cluster @" << options.procs << " procs: " << util::Table::fmt(s, 2)
              << "x speedup, " << r.remote_faults << " remote faults\n";
    projection.emplace_back("model", obs::json::Value("svm"));
    projection.emplace_back("procs", obs::json::Value(options.procs));
    projection.emplace_back("speedup", obs::json::Value(s));
    projection.emplace_back("remote_faults", obs::json::Value(r.remote_faults));
  } else {
    psm::RunOptions cfg;
    cfg.task_processes = options.procs;
    cfg.policy = options.policy;
    const auto r = psm::simulate_tlp(costs, cfg);
    const double s = psm::speedup(baseline, r.makespan);
    std::cout << options.procs << " task processes x " << options.match
              << " match processes: " << util::Table::fmt(s, 2) << "x speedup, utilization "
              << util::Table::fmt(r.utilization(), 2) << "\n";
    projection.emplace_back("model", obs::json::Value("tlp"));
    projection.emplace_back("task_processes", obs::json::Value(options.procs));
    projection.emplace_back("match_processes", obs::json::Value(options.match));
    projection.emplace_back("speedup", obs::json::Value(s));
    projection.emplace_back("utilization", obs::json::Value(r.utilization()));
  }

  doc.emplace_back("mode", obs::json::Value("baseline"));
  doc.emplace_back("metrics", result.metrics.to_json());
  doc.emplace_back("projection", obs::json::Value(std::move(projection)));
  if (!options.json_path.empty() && !write_json(options.json_path, obs::json::Value(doc))) {
    return 1;
  }
  if (tracing && !write_json(options.trace_path, tracer.to_json())) return 1;
  return 0;
}
