// Multi-session interpretation server (DESIGN.md §14): measured host-time
// throughput and latency of the serve pool. Unlike the paper-reproduction
// suites these cases measure the *server* economics: the Rete network is
// compiled once, scenes multiplex over a fixed pool of resident engine
// contexts, and the offered concurrency sweeps past the pool size.
//
//   1. offered-concurrency sweep — N closed-loop clients against a fixed
//      4-worker pool: p50/p99 scene latency and scenes/sec at
//      N in {1, 8, 64, 256},
//   2. fault-storm degradation — same pool under injected poison/overrun
//      storms: throughput, quarantine and retry accounting,
//   3. pack-swap overhead — a versioned hot reload (admission gate + atomic
//      activation + per-worker context rebuilds) lands mid-run; scenes/sec
//      and p99 with and without the swap.
//
// Every rollup is validated against the serve schema
// (obs::validate_serve_rollup) before it is reported; a violation fails the
// case and the harness exits nonzero.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "obs/bench_schema.hpp"
#include "ops5/parser.hpp"
#include "psm/faults.hpp"
#include "serve/server.hpp"

namespace psmsys::bench {
namespace {

// Scene-id-dependent workload: ctr counts id % 25 -> 30, so scenes cost a
// few dozen cycles each — cheap enough to sweep thousands, real enough that
// the pool actually interprets rules rather than shuffling empty futures.
constexpr const char* kServeSrc = R"(
(literalize ctr n)
(literalize spin n)
(p count-to-30 (ctr ^n {<v> < 30}) --> (modify 1 ^n (compute <v> + 1)))
(p spin-forever (spin ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
)";

[[nodiscard]] std::shared_ptr<const serve::SharedRuleBase> serve_rulebase() {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kServeSrc));
  return serve::SharedRuleBase::compile(std::move(program));
}

[[nodiscard]] serve::SceneJob counting_scene(std::uint64_t id) {
  serve::SceneJob job;
  job.label = "count";
  job.inject = [id](ops5::Engine& engine) {
    engine.make_wme("ctr", {{"n", ops5::Value(static_cast<double>(id % 25))}});
  };
  return job;
}

/// N closed-loop clients (submit, wait for the report, submit again) against
/// one server; returns the drained rollup. Queue capacity covers the offered
/// concurrency so admission never sheds — this measures service, not shedding.
[[nodiscard]] serve::ServerStats closed_loop(
    const std::shared_ptr<const serve::SharedRuleBase>& rb, std::size_t workers,
    std::size_t clients, std::size_t scenes_per_client,
    const psm::FaultInjector* injector = nullptr, std::uint64_t cycle_deadline = 0) {
  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = clients + workers;
  options.session.injector = injector;
  options.session.attempts.cycle_deadline = cycle_deadline;
  serve::Server server(rb, options);

  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&server, c, scenes_per_client] {
      for (std::size_t i = 0; i < scenes_per_client; ++i) {
        auto r = server.submit(counting_scene(c * scenes_per_client + i));
        if (r.admitted()) (void)r.report.get();
      }
    });
  }
  for (auto& t : pool) t.join();
  return server.drain();
}

}  // namespace

PSMSYS_BENCH_CASE(serve_scaling, "serve",
                  "Session server: offered concurrency vs fixed 4-worker pool") {
  auto& os = ctx.out();
  const auto rb = serve_rulebase();
  constexpr std::size_t kWorkers = 4;
  const std::size_t total = ctx.quick() ? 256 : 2048;

  util::Table table({"clients", "scenes", "scenes/sec", "p50 us", "p99 us", "max us"});
  std::vector<std::pair<std::size_t, double>> curve;
  for (const std::size_t clients : {1u, 8u, 64u, 256u}) {
    const std::size_t per_client = std::max<std::size_t>(1, total / clients);
    const serve::ServerStats stats = closed_loop(rb, kWorkers, clients, per_client);

    const auto violations = obs::validate_serve_rollup(stats.to_json());
    for (const auto& v : violations) ctx.fail("serve rollup schema: " + v);
    if (stats.completed != clients * per_client) ctx.fail("closed loop lost scenes");

    const std::string tag = std::string("n").append(std::to_string(clients)).append("_");
    ctx.metric(tag + "scenes_per_sec", stats.scenes_per_sec);
    ctx.metric(tag + "p50_ns", static_cast<double>(stats.latency.p50_ns));
    ctx.metric(tag + "p99_ns", static_cast<double>(stats.latency.p99_ns));
    curve.emplace_back(clients, stats.scenes_per_sec);
    table.add_row({util::Table::fmt(clients), util::Table::fmt(stats.completed),
                   util::Table::fmt(stats.scenes_per_sec, 0),
                   util::Table::fmt(static_cast<double>(stats.latency.p50_ns) / 1e3, 1),
                   util::Table::fmt(static_cast<double>(stats.latency.p99_ns) / 1e3, 1),
                   util::Table::fmt(static_cast<double>(stats.latency.max_ns) / 1e3, 1)});
  }
  table.print(os, "closed-loop clients, compile-once rule base, 4 resident contexts");
  plot_curve(os, "\nscenes/sec vs offered concurrency", curve);
  ctx.table("serve_scaling", table);
  ctx.note("latency is admission->terminal (queueing included); past 4 clients "
           "added concurrency buys queue depth, not service rate");
}

PSMSYS_BENCH_CASE(serve_fault_storm, "serve",
                  "Session server: graceful degradation under fault storms") {
  auto& os = ctx.out();
  const auto rb = serve_rulebase();
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kClients = 16;
  const std::size_t per_client = ctx.quick() ? 16 : 128;

  util::Table table({"storm", "completed", "quarantined", "retries", "scenes/sec",
                     "vs healthy"});
  double healthy = 0.0;
  for (const double rate : {0.0, 0.05, 0.20}) {
    psm::FaultConfig config;
    config.seed = 0x5e12fULL;
    config.transient_rate = rate;
    config.poison_rate = rate / 2.0;
    config.overrun_rate = rate / 2.0;
    const psm::FaultInjector injector(config);
    const serve::ServerStats stats =
        closed_loop(rb, kWorkers, kClients, per_client, &injector, /*cycle_deadline=*/200);

    const auto violations = obs::validate_serve_rollup(stats.to_json());
    for (const auto& v : violations) ctx.fail("serve rollup schema: " + v);

    if (rate == 0.0) healthy = stats.scenes_per_sec;
    table.add_row({util::Table::fmt(100.0 * rate, 0) + "%", util::Table::fmt(stats.completed),
                   util::Table::fmt(stats.quarantined), util::Table::fmt(stats.retries),
                   util::Table::fmt(stats.scenes_per_sec, 0),
                   util::Table::fmt(healthy == 0.0 ? 0.0 : 100.0 * stats.scenes_per_sec / healthy,
                                    1) +
                       "%"});
    ctx.metric("storm" + util::Table::fmt(100.0 * rate, 0) + "_scenes_per_sec",
               stats.scenes_per_sec);
  }
  table.print(os, "16 clients, 4 workers; poisoned scenes quarantine, healthy scenes complete");
  ctx.table("serve_fault_storm", table);
}

PSMSYS_BENCH_CASE(serve_pack_swap, "serve",
                  "Session server: hot pack swap overhead under closed-loop load") {
  auto& os = ctx.out();
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kClients = 16;
  const std::size_t per_client = ctx.quick() ? 16 : 128;
  const std::uint64_t total = kClients * per_client;

  // The candidate carries the same rules under a new version tag: the gate
  // runs its full pipeline (semantic diff is empty, so it must accept), and
  // the swap cost measured is pure mechanism — admission analysis, atomic
  // activation, and every worker rebuilding its resident context mid-stream.
  util::Table table({"run", "scenes", "swaps", "scenes/sec", "p50 us", "p99 us"});
  double baseline = 0.0;
  for (const bool swap : {false, true}) {
    serve::ServerOptions options;
    options.workers = kWorkers;
    options.queue_capacity = kClients + kWorkers;
    serve::Server server(serve_rulebase(), options);

    std::thread swapper;
    if (swap) {
      swapper = std::thread([&server, total, &ctx] {
        while (server.stats().completed < total / 2) std::this_thread::yield();
        serve::PackCandidate candidate;
        candidate.program =
            std::make_shared<const ops5::Program>(ops5::parse_program(
                std::string("(pack serve 2)\n") + kServeSrc));
        const serve::LoadResult load = server.load_pack(candidate);
        if (!load.activated) ctx.fail("mid-run pack swap did not activate");
      });
    }

    std::vector<std::thread> pool;
    pool.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      pool.emplace_back([&server, c, per_client] {
        for (std::size_t i = 0; i < per_client; ++i) {
          auto r = server.submit(counting_scene(c * per_client + i));
          if (r.admitted()) (void)r.report.get();
        }
      });
    }
    for (auto& t : pool) t.join();
    if (swapper.joinable()) swapper.join();
    const serve::ServerStats stats = server.drain();

    const auto violations = obs::validate_serve_rollup(stats.to_json());
    for (const auto& v : violations) ctx.fail("serve rollup schema: " + v);
    if (stats.completed != total) ctx.fail("closed loop lost scenes");
    if (swap && stats.pack_swaps != 1) ctx.fail("expected exactly one swap");

    if (!swap) baseline = stats.scenes_per_sec;
    const std::string tag = swap ? "swap_" : "steady_";
    ctx.metric(tag + "scenes_per_sec", stats.scenes_per_sec);
    ctx.metric(tag + "p99_ns", static_cast<double>(stats.latency.p99_ns));
    table.add_row({swap ? "mid-run swap" : "steady state", util::Table::fmt(stats.completed),
                   util::Table::fmt(stats.pack_swaps),
                   util::Table::fmt(stats.scenes_per_sec, 0),
                   util::Table::fmt(static_cast<double>(stats.latency.p50_ns) / 1e3, 1),
                   util::Table::fmt(static_cast<double>(stats.latency.p99_ns) / 1e3, 1)});
    if (swap && baseline > 0.0) {
      ctx.metric("swap_throughput_ratio", stats.scenes_per_sec / baseline);
    }
  }
  table.print(os, "16 clients, 4 workers; identical-rules candidate through the full gate");
  ctx.note("swap cost = admission pipeline + activation + per-worker context "
           "rebuild at next dequeue; in-flight scenes finish on the old pack");
  ctx.table("serve_pack_swap", table);
}

}  // namespace psmsys::bench
