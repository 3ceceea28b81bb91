// The four workloads. Each is a closed loop driven from the calling thread;
// the program's own threads (task processes, match workers, server workers)
// bring each process to at most four threads.

#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>

#include "perfbench.hpp"
#include "psm/run.hpp"
#include "serve/server.hpp"
#include "spam/decomposition.hpp"

namespace perfbench {

namespace ops5 = psmsys::ops5;
namespace psm = psmsys::psm;
namespace serve = psmsys::serve;
namespace util = psmsys::util;

void Tally::fail(const std::string& why) {
  ++failed;
  if (first_error.empty()) first_error = why;
}

namespace {

/// Scenes kept in flight by the serve_scenes generator: one running and
/// three queued per worker, so a worker never idles while the generator
/// waits on an older, larger scene.
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kScenesInFlight = 4 * kServeWorkers;
constexpr std::size_t kStreams = 2;
constexpr std::size_t kTicksPerStream = 64;
/// Ticks each stream keeps submitted: the next tick is queued while one
/// runs, so a worker never waits for the generator to wake up.
constexpr std::size_t kTicksInFlight = 2;

void mark_wrong(Tally& t, const std::string& why) {
  t.correct = false;
  if (t.first_error.empty()) t.first_error = why;
}

/// Compare on the generator thread, charging the checker's time to the
/// tally so it can be taken out of the throughput and CPU denominators.
void check(Tally& t, const std::string& what, const Records& expected, Records observed) {
  const auto wall0 = Clock::now();
  const double cpu0 = thread_cpu_s();
  const std::string diff = compare_records(expected, std::move(observed));
  t.check_cpu_s += thread_cpu_s() - cpu0;
  t.check_wall_s += std::chrono::duration<double>(Clock::now() - wall0).count();
  if (!diff.empty()) mark_wrong(t, what + ": " + diff);
}

void add_counters(Tally& t, std::uint64_t cycles, std::uint64_t firings, std::uint64_t resolve_wu,
                  std::uint64_t rhs_wu, std::uint64_t match_wu, std::uint64_t join_probes,
                  std::uint64_t tokens_created, std::uint64_t alpha_activations) {
  t.sums["ops5.cycles_per_op"] += static_cast<double>(cycles);
  t.sums["ops5.firings_per_op"] += static_cast<double>(firings);
  t.sums["ops5.resolve_wu_per_op"] += static_cast<double>(resolve_wu);
  t.sums["ops5.rhs_wu_per_op"] += static_cast<double>(rhs_wu);
  t.sums["rete.match_wu_per_op"] += static_cast<double>(match_wu);
  t.sums["rete.join_probes_per_op"] += static_cast<double>(join_probes);
  t.sums["rete.tokens_created_per_op"] += static_cast<double>(tokens_created);
  t.sums["rete.alpha_activations_per_op"] += static_cast<double>(alpha_activations);
}

void add_counters(Tally& t, const util::WorkCounters& c) {
  add_counters(t, c.cycles, c.firings, c.resolve_cost, c.rhs_cost, c.match_cost, c.join_probes,
               c.tokens_created, c.alpha_activations);
}

[[nodiscard]] std::uint64_t name_seed(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = seed * 0x9e3779b97f4a7c15ULL;
  for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

// ----------------------------------------------------------------------------
// lcc_tlp / lcc_match: one operation = one airport's LCC phase through
// psm::run. Task order is a seeded permutation of the decomposition's tasks.
// ----------------------------------------------------------------------------

class BatchWorkload final : public Workload {
 public:
  BatchWorkload(int level, std::size_t processes, std::size_t match_threads, std::uint64_t seed,
                obs::Tracer* program_spans, obs::Tracer* bench_spans)
      : level_(level),
        processes_(processes),
        match_threads_(match_threads),
        seed_(seed),
        program_spans_(program_spans),
        bench_spans_(bench_spans) {}

  void setup(SetupTimes& times) override {
    for (const char* name : {"SF", "DC", "MOFF"}) {
      Entry e;
      e.airport = make_airport(name, times, bench_spans_);
      times.decompose_ms += timed(bench_spans_, "spam.lcc_decomposition", [&] {
        e.decomposition = std::make_unique<spam::Decomposition>(
            spam::lcc_decomposition(level_, *e.airport.scene, e.airport.best));
      });
      e.order = permutation(e.decomposition->tasks.size(), name_seed(seed_, name));
      entries_.push_back(std::move(e));
    }
  }

  void prepare_reference() override {
    for (auto& e : entries_) e.expected = expected_records(e.airport);
  }

  [[nodiscard]] const Records& control_records() const override {
    return entries_.front().expected;
  }

  void round(Tally& t) override {
    for (const auto& e : entries_) run_airport(e, t);
  }

 private:
  struct Entry {
    Airport airport;
    std::unique_ptr<spam::Decomposition> decomposition;
    std::vector<std::size_t> order;
    Records expected;
  };

  void run_airport(const Entry& e, Tally& t) {
    std::vector<psm::Task> tasks;
    tasks.reserve(e.order.size());
    for (const std::size_t index : e.order) {
      tasks.push_back(e.decomposition->tasks[index]);
      tasks.back().id = tasks.size() - 1;
    }
    Records merged;
    std::mutex merged_mu;
    psm::RunOptions options;
    options.task_processes = processes_;
    options.match_threads = match_threads_;
    options.tracer = program_spans_;
    options.collect = [&](std::size_t, ops5::Engine& engine) {
      Records records = spam::extract_consistency(engine);
      const std::lock_guard lock(merged_mu);
      merged.insert(merged.end(), records.begin(), records.end());
    };
    if (program_spans_ != nullptr) program_spans_->clear();

    ++t.attempted;
    const auto begin = Clock::now();
    psm::RunResult result;
    try {
      result = psm::run(e.decomposition->factory, std::move(tasks), options);
    } catch (const std::exception& ex) {
      t.fail(e.airport.name + ": psm::run threw: " + ex.what());
      return;
    }
    const auto end = Clock::now();
    if (bench_spans_ != nullptr) bench_spans_->record_span("psm.run", "perfbench", begin, end, 0);
    if (!result.complete() || result.degraded()) {
      t.fail(e.airport.name + ": psm::run finished degraded");
      return;
    }
    const double op_ms = ms_between(begin, end);
    t.op_ms.push_back(op_ms);
    check(t, e.airport.name, e.expected, std::move(merged));

    const auto& m = result.metrics;
    add_counters(t, m.cycles, m.firings, m.resolve_cost_wu, m.rhs_cost_wu, m.match_cost_wu,
                 m.join_probes, m.tokens_created, m.alpha_activations);
    if (match_threads_ > 0) {
      t.samples["rete.match_utilization"].push_back(m.match_thread_utilization());
      t.sums["rete.match_dispatches_per_op"] += static_cast<double>(m.match_parallel_ops);
      t.samples["rete.partition_imbalance"].push_back(m.match_partition_imbalance());
    }

    if (program_spans_ == nullptr) return;
    const std::int64_t call_us = program_spans_->to_us(begin);
    std::int64_t first_us = std::numeric_limits<std::int64_t>::max();
    double task_ms_total = 0.0;
    auto& task_ms = t.samples["psm.task_ms_p50"];
    for (const auto& span : program_spans_->events()) {
      if (span.category != "task") continue;
      first_us = std::min(first_us, span.ts_us);
      task_ms.push_back(static_cast<double>(span.dur_us) / 1000.0);
      task_ms_total += static_cast<double>(span.dur_us) / 1000.0;
    }
    if (first_us != std::numeric_limits<std::int64_t>::max()) {
      t.samples["psm.start_ms"].push_back(static_cast<double>(first_us - call_us) / 1000.0);
    }
    t.sums["psm.task_span_ms"] += task_ms_total;
    t.sums["psm.capacity_ms"] += static_cast<double>(processes_) * op_ms;
  }

  int level_;
  std::size_t processes_;
  std::size_t match_threads_;
  std::uint64_t seed_;
  obs::Tracer* program_spans_;
  obs::Tracer* bench_spans_;
  std::vector<Entry> entries_;
};

// ----------------------------------------------------------------------------
// Serve workloads: the SF airport's LCC tasks submitted to a 2-worker
// serve::Server over one compiled rule base.
// ----------------------------------------------------------------------------

class ServeWorkload : public Workload {
 public:
  ServeWorkload(int level, std::size_t queue_capacity, std::uint64_t seed,
                obs::Tracer* program_spans, obs::Tracer* bench_spans)
      : level_(level),
        queue_capacity_(queue_capacity),
        seed_(seed),
        program_spans_(program_spans),
        bench_spans_(bench_spans) {}

  void setup(SetupTimes& times) override {
    airport_ = make_airport("SF", times, bench_spans_);
    times.decompose_ms += timed(bench_spans_, "spam.lcc_decomposition", [&] {
      decomposition_ = std::make_unique<spam::Decomposition>(
          spam::lcc_decomposition(level_, *airport_.scene, airport_.best));
    });
    times.parse_ms = timed(bench_spans_, "spam.build_lcc_program", [&] {
      phase_ = std::make_unique<spam::PhaseProgram>(spam::build_lcc_program());
    });
    times.compile_ms = timed(bench_spans_, "serve.SharedRuleBase::compile", [&] {
      rulebase_ = serve::SharedRuleBase::compile(phase_->program, phase_->externals.get());
    });
    serve::ServerOptions options;
    options.workers = kServeWorkers;
    options.queue_capacity = queue_capacity_;
    options.base_init = [scene = airport_.scene.get(),
                         init = decomposition_->factory.base_init](ops5::Engine& engine) {
      engine.set_user_data(scene);  // the geometry externals read polygons through it
      init(engine);
    };
    options.session.tracer = program_spans_;
    times.start_ms = timed(bench_spans_, "serve.Server", [&] {
      server_ = std::make_unique<serve::Server>(rulebase_, std::move(options));
    });
    after_setup();
  }

  void prepare_reference() override {
    expected_ = expected_records(airport_);
    expected_by_subject_ = by_subject(expected_);
  }

  [[nodiscard]] const Records& control_records() const override { return expected_; }

 protected:
  virtual void after_setup() = 0;

  /// Per-operation serve-layer samples, kept by traced runs only: an
  /// untraced run would grow its resident set with its operation count and
  /// make peak_rss_mb follow throughput. `client_ms` is what the generator
  /// observed from submission to holding the report.
  void add_serve_samples(Tally& t, double client_ms, std::int64_t queued_ns,
                         std::int64_t service_ns, std::int64_t latency_ns) {
    if (program_spans_ == nullptr) return;
    t.samples["serve.queue_ms_p50"].push_back(static_cast<double>(queued_ns) / 1e6);
    t.samples["serve.service_ms_p50"].push_back(static_cast<double>(service_ns) / 1e6);
    t.samples["serve.handoff_ms_p50"].push_back(client_ms - static_cast<double>(latency_ns) / 1e6);
  }

  /// Drop the scene spans the server recorded, keeping memory flat.
  void drop_program_spans() {
    if (program_spans_ != nullptr) program_spans_->clear();
  }

  int level_;
  std::size_t queue_capacity_;
  std::uint64_t seed_;
  obs::Tracer* program_spans_;
  obs::Tracer* bench_spans_;
  // Declaration order is destruction order reversed: the server (whose
  // workers reference everything above it) goes first.
  Airport airport_;
  std::unique_ptr<spam::Decomposition> decomposition_;
  std::unique_ptr<spam::PhaseProgram> phase_;
  std::shared_ptr<const serve::SharedRuleBase> rulebase_;
  Records expected_;
  std::map<std::uint32_t, Records> expected_by_subject_;
  std::unique_ptr<serve::Server> server_;
};

/// serve_scenes: every SF Level-3 task (one subject fragment) as a one-shot
/// scene, kScenesInFlight at a time. One operation = one scene.
class ScenesWorkload final : public ServeWorkload {
 public:
  ScenesWorkload(std::uint64_t seed, obs::Tracer* program_spans, obs::Tracer* bench_spans)
      : ServeWorkload(3, kScenesInFlight, seed, program_spans, bench_spans) {}

  void round(Tally& t) override {
    std::deque<InFlight> window;
    for (const std::size_t index : order_) {
      if (window.size() == kScenesInFlight) {
        finish(window.front(), t);
        window.pop_front();
      }
      const psm::Task& task = decomposition_->tasks[index];
      InFlight f;
      f.subject = airport_.best[index].id;
      f.output = std::make_shared<Records>();
      serve::SceneJob job;
      job.label = task.label;
      job.inject = task.inject;
      job.collect = [out = f.output](ops5::Engine& engine) {
        *out = spam::extract_consistency(engine);
      };
      ++t.attempted;
      f.submitted = Clock::now();
      serve::SubmitResult submitted = server_->submit(std::move(job));
      if (!submitted.admitted()) {
        t.fail(std::string("scene shed: ") + serve::to_string(submitted.rejected));
        continue;
      }
      f.report = std::move(submitted.report);
      window.push_back(std::move(f));
    }
    for (auto& f : window) finish(f, t);
    drop_program_spans();
  }

 private:
  struct InFlight {
    std::uint32_t subject = 0;
    std::shared_ptr<Records> output;
    Clock::time_point submitted;
    std::future<serve::SceneReport> report;
  };

  void after_setup() override {
    // Level-3 tasks are one per best fragment, in fragment-id order.
    if (decomposition_->tasks.size() != airport_.best.size()) {
      throw std::logic_error("Level-3 decomposition is not one task per fragment");
    }
    order_ = permutation(decomposition_->tasks.size(), name_seed(seed_, "serve_scenes"));
  }

  void finish(InFlight& f, Tally& t) {
    const serve::SceneReport report = f.report.get();
    const auto done = Clock::now();
    if (bench_spans_ != nullptr) {
      bench_spans_->record_span("serve.submit", "perfbench", f.submitted, done, 0);
    }
    if (report.status != serve::SceneStatus::Completed) {
      t.fail("scene " + report.label + ": " + serve::to_string(report.status) + " " +
             report.error);
      return;
    }
    const double client_ms = ms_between(f.submitted, done);
    t.op_ms.push_back(client_ms);
    add_serve_samples(t, client_ms, report.queued_ns, report.service_ns, report.latency_ns);
    add_counters(t, report.counters);
    const auto it = expected_by_subject_.find(f.subject);
    check(t, "scene " + report.label,
          it != expected_by_subject_.end() ? it->second : Records{}, std::move(*f.output));
  }

  std::vector<std::size_t> order_;
};

/// serve_streams: kStreams streams each deliver the whole SF Level-2 task
/// list over kTicksPerStream ticks to a resident context, then close. One
/// round = one lifetime of every stream; one operation = one tick, timed
/// from its submission to the generator holding its report.
class StreamsWorkload final : public ServeWorkload {
 public:
  StreamsWorkload(std::uint64_t seed, obs::Tracer* program_spans, obs::Tracer* bench_spans)
      : ServeWorkload(2, kStreams, seed, program_spans, bench_spans) {}
  // Drain the server before slices_, which queued tick jobs point into, is
  // destroyed (members of this class go before the base's server).
  ~StreamsWorkload() override { server_.reset(); }
  StreamsWorkload(const StreamsWorkload&) = delete;
  StreamsWorkload& operator=(const StreamsWorkload&) = delete;

  void round(Tally& t) override {
    std::vector<Lane> lanes(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
      lanes[s].handle = server_->open_stream("stream-" + std::to_string(s));
      lanes[s].alive = lanes[s].handle.admitted();
    }
    for (std::size_t tick = 0; tick < kTicksPerStream; ++tick) {
      for (std::size_t s = 0; s < kStreams; ++s) {
        if (lanes[s].pending.size() == kTicksInFlight) finish_tick(s, lanes[s], t);
        submit_tick(s, tick, lanes[s], t);
      }
    }
    for (std::size_t s = 0; s < kStreams; ++s) {
      while (!lanes[s].pending.empty()) finish_tick(s, lanes[s], t);
    }

    const auto close_begin = Clock::now();
    std::vector<std::future<serve::StreamReport>> closing;
    for (auto& lane : lanes) {
      if (lane.handle.admitted()) closing.push_back(lane.handle.close());
    }
    for (auto& f : closing) {
      const serve::StreamReport report = f.get();
      const auto done = Clock::now();
      t.samples["serve.close_ms_p50"].push_back(ms_between(close_begin, done));
      if (report.status != serve::SceneStatus::Completed) {
        mark_wrong(t, report.label + " closed " + serve::to_string(report.status));
      }
    }
    if (bench_spans_ != nullptr) {
      bench_spans_->record_span("serve.close", "perfbench", close_begin, Clock::now(), 0);
    }
    drop_program_spans();
  }

 private:
  struct PendingTick {
    std::size_t tick = 0;
    Clock::time_point submitted;
    std::future<serve::TickReport> report;
  };
  struct Lane {
    serve::StreamHandle handle;
    bool alive = false;
    std::shared_ptr<Records> output = std::make_shared<Records>();
    std::deque<PendingTick> pending;
  };

  void submit_tick(std::size_t s, std::size_t tick, Lane& lane, Tally& t) {
    ++t.attempted;
    if (!lane.alive) {
      t.fail("stream-" + std::to_string(s) + " is not open");
      return;
    }
    serve::SceneJob job;
    job.label = "tick";
    job.inject = [tasks = &decomposition_->tasks, slice = &slices_[s][tick]](ops5::Engine& e) {
      for (const std::size_t index : *slice) (*tasks)[index].inject(e);
    };
    if (tick + 1 == kTicksPerStream) {
      job.collect = [out = lane.output](ops5::Engine& engine) {
        *out = spam::extract_consistency(engine);
      };
    }
    PendingTick p;
    p.tick = tick;
    p.submitted = Clock::now();
    serve::SubmitTickResult submitted = lane.handle.tick(std::move(job));
    if (!submitted.admitted()) {
      t.fail(std::string("tick shed: ") + serve::to_string(submitted.rejected));
      lane.alive = false;
      return;
    }
    p.report = std::move(submitted.report);
    lane.pending.push_back(std::move(p));
  }

  void finish_tick(std::size_t s, Lane& lane, Tally& t) {
    PendingTick p = std::move(lane.pending.front());
    lane.pending.pop_front();
    const serve::TickReport report = p.report.get();
    const auto done = Clock::now();
    if (bench_spans_ != nullptr) {
      bench_spans_->record_span("serve.tick", "perfbench", p.submitted, done, 0);
    }
    if (report.status != serve::SceneStatus::Completed) {
      t.fail("stream-" + std::to_string(s) + " tick " + std::to_string(p.tick) + ": " +
             serve::to_string(report.status) + " " + report.error);
      lane.alive = false;
      return;
    }
    const double client_ms = ms_between(p.submitted, done);
    t.op_ms.push_back(client_ms);
    add_serve_samples(t, client_ms, report.queued_ns, report.service_ns, report.latency_ns);
    add_counters(t, report.counters);
    if (p.tick + 1 == kTicksPerStream) {
      t.samples["serve.resident_wm"].push_back(static_cast<double>(report.wm_size));
      t.samples["rete.live_tokens"].push_back(static_cast<double>(report.live_tokens));
      check(t, "stream-" + std::to_string(s) + " final tick", expected_, std::move(*lane.output));
    }
  }

  void after_setup() override {
    // Each stream deals its own seeded permutation of the task list into
    // kTicksPerStream contiguous slices of near-equal size.
    const std::size_t n = decomposition_->tasks.size();
    slices_.assign(kStreams, std::vector<std::vector<std::size_t>>(kTicksPerStream));
    for (std::size_t s = 0; s < kStreams; ++s) {
      const auto order = permutation(n, name_seed(seed_, "stream-" + std::to_string(s)));
      for (std::size_t tick = 0; tick < kTicksPerStream; ++tick) {
        slices_[s][tick].assign(order.begin() + static_cast<std::ptrdiff_t>(tick * n / kTicksPerStream),
                                order.begin() + static_cast<std::ptrdiff_t>((tick + 1) * n / kTicksPerStream));
      }
    }
  }

  std::vector<std::vector<std::vector<std::size_t>>> slices_;  ///< [stream][tick] task indices
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed,
                                        obs::Tracer* program_spans, obs::Tracer* bench_spans) {
  if (name == "lcc_tlp") {
    // The paper's configuration: Level-2 tasks, 2 task processes, serial match.
    return std::make_unique<BatchWorkload>(2, 2, 0, seed, program_spans, bench_spans);
  }
  if (name == "lcc_match") {
    // The 9 Level-4 class tasks on 1 task process with a 2-thread match pool.
    // Not a BENCHMARK.json workload (too unsteady on a host with CPU steal,
    // see README); traced runs fill the match-pool metrics from one round.
    return std::make_unique<BatchWorkload>(4, 1, 2, seed, program_spans, bench_spans);
  }
  if (name == "serve_scenes") {
    return std::make_unique<ScenesWorkload>(seed, program_spans, bench_spans);
  }
  if (name == "serve_streams") {
    return std::make_unique<StreamsWorkload>(seed, program_spans, bench_spans);
  }
  return nullptr;
}

}  // namespace perfbench
