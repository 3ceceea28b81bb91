// perfbench: end-to-end benchmark of the SPAM/PSM program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   perfbench --negative-control
//
// Sets the workload up, computes the reference outputs, runs one warm-up
// round, then whole rounds until --seconds have passed, checking every
// operation's output; set-up is repeated kSetups times across the run and
// setup_s is the median. The last line
// of standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1). A host-noise line precedes it.

#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"
#include "spam/constraints.hpp"

using namespace perfbench;

namespace {

/// Set-ups per run: setup_s is their median, which a single slow set-up on
/// a noisy host does not move.
constexpr std::size_t kSetups = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool negative_control = false;
};

[[nodiscard]] Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      a.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(next());
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--trace-out") {
      a.trace_out = next();
    } else if (arg == "--negative-control") {
      a.negative_control = true;
    } else {
      throw std::invalid_argument("unknown option " + arg);
    }
  }
  if (a.negative_control) return a;
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0) || a.seconds > 600.0) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

[[nodiscard]] std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

[[nodiscard]] std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    os << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run_negative_control() {
  bool caught_all = true;
  for (const char* name : {"SF", "DC", "MOFF"}) {
    SetupTimes unused;
    const Airport airport = make_airport(name, unused, nullptr);
    const Records expected = expected_records(airport);
    std::size_t level2_tasks = 0;
    for (const auto& f : airport.best) level2_tasks += spam::constraints_for(f.cls).size();
    std::cout << "reference " << name << ": " << airport.scene->size() << " regions, "
              << airport.best.size() << " best fragments (Level-3 tasks), " << level2_tasks
              << " Level-2 tasks, " << expected.size() << " consistency records\n";
    for (const auto& m : negative_control(expected)) {
      caught_all = false;
      std::cout << "negative control FAILED on " << name << ": " << m << "\n";
    }
  }
  if (caught_all) {
    std::cout << "negative control passed: the checker rejects a dropped record, a "
                 "duplicated record and a flipped result\n";
  }
  return caught_all ? 0 : 1;
}

int run(const Args& args) {
  obs::Tracer program_spans;
  program_spans.set_sample_every(0);  // task and scene spans only, no per-cycle spans
  obs::Tracer bench_spans;
  obs::Tracer* const program_tracer = args.trace ? &program_spans : nullptr;
  obs::Tracer* const bench_tracer = args.trace ? &bench_spans : nullptr;

  // Set-up is measured kSetups times, spread over the run: once before the
  // warm-up, then between rounds at even steps of the window, each time
  // replacing the live workload (only one set-up is alive at a time, so the
  // thread budget holds). A set-up takes ~15 ms; samples taken back to back
  // would all see the host at one moment.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  std::vector<SetupTimes> setups;
  const auto set_up = [&] {
    workload.reset();
    workload = make_workload(args.workload, args.seed, program_tracer, bench_tracer);
    SetupTimes times;
    const auto begin = Clock::now();
    workload->setup(times);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - begin).count());
    setups.push_back(times);
    workload->prepare_reference();
  };
  set_up();

  bool correct = true;
  std::string error;
  for (const auto& m : negative_control(workload->control_records())) {
    correct = false;
    if (error.empty()) error = "negative control: " + m;
  }

  Tally warmup;
  workload->round(warmup);
  if (!warmup.correct || warmup.failed != 0) {
    correct = false;
    if (error.empty()) error = "warm-up: " + warmup.first_error;
  }
  program_spans.clear();
  bench_spans.clear();

  Tally tally;
  const HostNoise noise0 = host_noise_now();
  const std::chrono::duration<double> window(args.seconds);
  const auto begin = Clock::now();
  Clock::duration paused{};  // set-ups between rounds, outside the window
  std::uint64_t rounds = 0;
  auto round_begin = begin;
  double round_cpu0 = process_cpu_s();
  do {
    const std::size_t ops0 = tally.op_ms.size();
    const double check_wall0 = tally.check_wall_s;
    const double check_cpu0 = tally.check_cpu_s;
    workload->round(tally);
    ++rounds;
    const auto round_end = Clock::now();
    const double round_cpu1 = process_cpu_s();
    const auto ops = static_cast<double>(tally.op_ms.size() - ops0);
    if (ops > 0) {
      const double wall = std::chrono::duration<double>(round_end - round_begin).count() -
                          (tally.check_wall_s - check_wall0);
      const double cpu = round_cpu1 - round_cpu0 - (tally.check_cpu_s - check_cpu0);
      tally.round_ops_per_s.push_back(ops / wall);
      tally.round_cpu_ms_per_op.push_back(cpu * 1000.0 / ops);
    }
    if (setup_s.size() < kSetups &&
        round_end - begin - paused >= window * static_cast<double>(setup_s.size()) / kSetups) {
      set_up();
      paused += Clock::now() - round_end;
    }
    round_begin = Clock::now();
    round_cpu0 = process_cpu_s();
  } while (round_begin - begin - paused < window);
  while (setup_s.size() < kSetups) set_up();  // runs shorter than kSetups rounds
  const auto end = Clock::now();
  const HostNoise noise1 = host_noise_now();
  const double window_s =
      std::chrono::duration<double>(end - begin - paused).count() - tally.check_wall_s;
  if (!tally.correct) {
    correct = false;
    if (error.empty()) error = tally.first_error;
  }

  std::cout << "perfbench: workload " << args.workload << ", seed " << args.seed << ", "
            << rounds << " rounds, " << tally.op_ms.size() << " operations in "
            << number(window_s) << " s" << (args.trace ? " (traced)" : "") << "\n";
  std::cout << "host-noise: {\"steal_ticks\": "
            << (noise0.steal_ticks < 0 || noise1.steal_ticks < 0
                    ? std::string("null")
                    : std::to_string(noise1.steal_ticks - noise0.steal_ticks))
            << ", \"involuntary_ctx_switches\": " << noise1.nivcsw - noise0.nivcsw
            << ", \"voluntary_ctx_switches\": " << noise1.nvcsw - noise0.nvcsw
            << ", \"window_s\": " << number(window_s) << "}\n";
  if (tally.op_ms.size() >= 1000) {
    // Not a metric: batch workloads have too few operations per run for a
    // 99th percentile, and the serve tails measure host stalls (README).
    std::cout << "tail: op_ms_p99 " << number(percentile(tally.op_ms, 0.99)) << " ms over "
              << tally.op_ms.size() << " operations\n";
  }
  if (!tally.first_error.empty()) std::cout << "first error: " << tally.first_error << "\n";
  if (!error.empty() && error != tally.first_error) std::cout << "error: " << error << "\n";

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"op_ms_p50", "ms", percentile(tally.op_ms, 0.50)},
        {"ops_per_s", "1/s", median(tally.round_ops_per_s)},
        {"cpu_ms_per_op", "ms", median(tally.round_cpu_ms_per_op)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
  } else {
    std::cout << "trace: op_ms_p50 " << number(percentile(tally.op_ms, 0.50))
              << " ms traced over " << tally.op_ms.size()
              << " operations; perfbench/steady.py --overhead prints the difference from the "
                 "untraced runs\n";
    auto layers = layer_metrics(tally, setups);
    probe_layers(layers, bench_spans);
    // Layers this workload never calls (psm on the serve workloads, serve on
    // the batch workloads, stream close on serve_scenes, the match pool
    // everywhere but lcc_match) are filled from one round of a workload that
    // does, so every traced run reports every layer.
    workload.reset();
    const auto complete = [&] {
      for (const auto& unit : layer_metric_units()) {
        if (!layers.contains(unit.first)) return false;
      }
      return true;
    };
    for (const std::string other : {"serve_streams", "lcc_tlp", "lcc_match"}) {
      if (other == args.workload || complete()) continue;
      auto filler = make_workload(other, args.seed, &program_spans, &bench_spans);
      SetupTimes times;
      filler->setup(times);
      filler->prepare_reference();
      Tally t;
      filler->round(t);
      if (!t.correct || t.failed != 0) {
        correct = false;
        std::cout << "error: filler " << other << ": " << t.first_error << "\n";
      }
      std::string filled;
      for (const auto& [name, value] : layer_metrics(t, {times})) {
        if (layers.emplace(name, value).second) filled += " " + name;
      }
      if (!filled.empty()) std::cout << "filled from " << other << ":" << filled << "\n";
    }
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = layers.find(name);
      if (it == layers.end()) {
        correct = false;
        std::cout << "error: layer metric " << name << " was not measured\n";
        continue;
      }
      metrics.push_back({name, unit, it->second});
    }
    if (!args.trace_out.empty()) {
      std::ofstream(args.trace_out) << bench_spans.to_string() << "\n";
    }
  }
  for (auto& m : metrics) {
    if (!std::isfinite(m.value)) {
      correct = false;
      std::cout << "error: metric " << m.name << " is not finite\n";
      m.value = 0.0;
    }
  }
  print_result(correct, tally.attempted, tally.failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    if (args.negative_control) return run_negative_control();
    if (make_workload(args.workload, args.seed, nullptr, nullptr) == nullptr) {
      std::cerr << "perfbench: unknown workload " << args.workload << "\n";
      return 2;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
