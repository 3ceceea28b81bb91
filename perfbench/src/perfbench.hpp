#pragma once

// Shared declarations of the end-to-end benchmark (see perfbench/README.md).
//
// The benchmark drives the program only through its public functions: it
// builds inputs with the spam layer, executes them through psm::run or a
// serve::Server, and times each call from outside. Layer metrics come from
// the program's own counters (RunMetrics, SceneReport/TickReport counters),
// its obs::Tracer hooks, and spans the benchmark records around its calls.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "spam/phases.hpp"
#include "spam/scene.hpp"
#include "spam/scene_generator.hpp"

namespace perfbench {

namespace spam = psmsys::spam;
namespace obs = psmsys::obs;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Time one call into a layer; with a span sink attached, also record it as
/// a benchmark span named after the layer call. Returns milliseconds.
template <class F>
double timed(obs::Tracer* spans, const char* name, F&& call) {
  const auto begin = Clock::now();
  call();
  const auto end = Clock::now();
  if (spans != nullptr) spans->record_span(name, "perfbench", begin, end, 0);
  return ms_between(begin, end);
}

// ----------------------------------------------------------------------------
// Host readings (host.cpp)
// ----------------------------------------------------------------------------

[[nodiscard]] double process_cpu_s();  ///< user + system CPU of the whole process
[[nodiscard]] double thread_cpu_s();   ///< user + system CPU of the calling thread
[[nodiscard]] double peak_rss_mb();

/// Signs of a noisy host, printed beside the metrics (never as metrics):
/// CPU time the hypervisor stole from this guest, and how often the kernel
/// preempted this process.
struct HostNoise {
  long long steal_ticks = -1;  ///< /proc/stat "cpu" steal column; -1 if unreadable
  long long nivcsw = 0;        ///< involuntary context switches (getrusage)
  long long nvcsw = 0;         ///< voluntary context switches (getrusage)
};
[[nodiscard]] HostNoise host_noise_now();

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);

// ----------------------------------------------------------------------------
// Inputs (inputs.cpp)
// ----------------------------------------------------------------------------

/// One airport: its generated scene and the best fragment hypotheses RTF
/// found in it, sorted by fragment id (the LCC decomposition's task order).
struct Airport {
  std::string name;
  std::unique_ptr<spam::Scene> scene;  ///< stable address: engines point at it
  std::vector<spam::Fragment> best;
};

/// Set-up step timings in milliseconds; a step a workload does not take
/// stays negative.
struct SetupTimes {
  double scene_gen_ms = 0.0;
  double rtf_ms = 0.0;
  double decompose_ms = 0.0;
  double parse_ms = -1.0;
  double compile_ms = -1.0;
  double start_ms = -1.0;
};

/// Generate the airport's scene and run RTF over it, charging both steps.
[[nodiscard]] Airport make_airport(const std::string& name, SetupTimes& times,
                                   obs::Tracer* spans);

/// Seeded permutation of 0..n-1 (Fisher-Yates over util::Rng).
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

// ----------------------------------------------------------------------------
// Reference checker (reference.cpp)
// ----------------------------------------------------------------------------

using Records = std::vector<spam::ConsistencyRecord>;

/// The consistency multiset an airport's LCC phase must produce, computed
/// without OPS5 or Rete: every catalog constraint of every best fragment's
/// class, applied to every other best fragment of the constraint's object
/// class through spam::evaluate_constraint. Sorted.
[[nodiscard]] Records expected_records(const Airport& airport);

/// The expected records of one subject fragment (a Level-3 scene's output).
[[nodiscard]] std::map<std::uint32_t, Records> by_subject(const Records& expected);

/// Empty when `observed` equals `expected` as a multiset (duplicates count);
/// otherwise a one-line description of the first difference.
[[nodiscard]] std::string compare_records(const Records& expected, Records observed);

/// Negative control: a dropped record, a duplicated record and a flipped
/// result must each make compare_records fail. Returns the failures of the
/// control itself (empty when the checker caught all three).
[[nodiscard]] std::vector<std::string> negative_control(const Records& expected);

// ----------------------------------------------------------------------------
// Workloads (workloads.cpp)
// ----------------------------------------------------------------------------

/// Everything one run accumulates. Operation latencies and the host-time
/// denominators are end-to-end; the rest feeds the per-layer metrics.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::string first_error;
  std::vector<double> op_ms;
  double check_wall_s = 0.0;  ///< checker time spent inside the window
  double check_cpu_s = 0.0;
  /// Per whole round: operations per second and process CPU per operation,
  /// both with the checker's time taken out. Rates are reported as medians
  /// over rounds, so a burst of host noise moves one round, not the run.
  std::vector<double> round_ops_per_s;
  std::vector<double> round_cpu_ms_per_op;

  // Layer samples, reported by traced runs only.
  std::map<std::string, double> sums;                  ///< per-op counters, summed
  std::map<std::string, std::vector<double>> samples;  ///< per-event values

  void fail(const std::string& why);
};

/// A workload: set-up builds the inputs and program state, round() runs
/// one whole round of operations (the same operations in every round, so
/// the failed share of a run does not depend on its length).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(SetupTimes& times) = 0;
  /// Computes the reference outputs (not part of set-up time).
  virtual void prepare_reference() = 0;
  virtual void round(Tally& tally) = 0;
  /// Expected records the negative control mutates.
  [[nodiscard]] virtual const Records& control_records() const = 0;
};

/// nullptr for an unknown name. Both tracers are null in untraced runs:
/// `program_spans` is attached to the program's own hooks (psm task-attempt
/// spans, serve scene spans), `bench_spans` receives the benchmark's spans
/// around its calls into each layer.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      obs::Tracer* program_spans,
                                                      obs::Tracer* bench_spans);

// ----------------------------------------------------------------------------
// Layer probes (layers.cpp)
// ----------------------------------------------------------------------------

/// Layer timings measured by direct calls rather than by a workload:
/// ops5.parse_ms, rete.add_ns_per_wme, rete.remove_ns_per_wme and
/// ops5.rollback_ms_per_op. A value already in `out` is kept.
void probe_layers(std::map<std::string, double>& out, obs::Tracer& spans);

/// Reduce a run's tally to the per-layer metrics it measured.
[[nodiscard]] std::map<std::string, double> layer_metrics(const Tally& tally,
                                                          const std::vector<SetupTimes>& setups);

/// Every per-layer metric name and unit, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
