// Serve soak/stress: sustained overload against a bounded queue with a
// fault storm, cycle deadlines, and the wall-clock watchdog all active at
// once. Slow by design (runs seconds); registered under the `slow` ctest
// label so `ctest -LE slow` stays snappy. The assertions are the same
// robustness invariants as serve_test, held under far more contention:
// exactly-once accounting, no lost futures, correct collected results.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "obs/bench_schema.hpp"
#include "ops5/parser.hpp"
#include "psm/faults.hpp"
#include "serve/server.hpp"

namespace psmsys::serve {
namespace {

constexpr const char* kStressSrc = R"(
(literalize job n)
(literalize result n)
(literalize spin n)
(literalize ctr n)
(p finish (job ^n <v>) -(result ^n <v>) --> (make result ^n <v>))
(p spin-forever (spin ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
(p count-to-30 (ctr ^n {<v> < 30}) --> (modify 1 ^n (compute <v> + 1)))
)";

TEST(ServeStress, OverloadWithFaultStormKeepsExactAccounting) {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kStressSrc));
  const auto rb = SharedRuleBase::compile(program);

  psm::FaultConfig config;
  config.seed = 0xabcdULL;
  config.transient_rate = 0.05;
  config.poison_rate = 0.05;
  config.overrun_rate = 0.05;
  const psm::FaultInjector injector(config);

  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 16;  // far below offered load: shedding is expected
  options.session.attempts.cycle_deadline = 100;
  options.session.attempts.max_attempts = 2;
  options.session.abort_check_every = 16;
  options.session.injector = &injector;
  options.watchdog_budget = std::chrono::milliseconds(250);
  options.watchdog_poll = std::chrono::milliseconds(2);
  Server server(rb, options);

  // Several client threads hammer the server concurrently; every ~40th
  // scene is a runaway that the cycle deadline has to cut off.
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 500;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> not_completed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<SubmitResult> mine;
      for (std::size_t i = 0; i < kPerClient; ++i) {
        SceneJob job;
        const std::uint64_t n = c * kPerClient + i;
        if (n % 40 == 7) {
          job.label = "runaway";
          job.inject = [](ops5::Engine& engine) {
            engine.make_wme("spin", {{"n", ops5::Value(0.0)}});
          };
        } else {
          job.label = "count";
          job.inject = [n](ops5::Engine& engine) {
            engine.make_wme("ctr", {{"n", ops5::Value(static_cast<double>(20 + n % 10))}});
          };
        }
        auto r = server.submit(std::move(job));
        if (r.admitted()) {
          mine.push_back(std::move(r));
        } else {
          EXPECT_EQ(r.rejected, RejectReason::QueueFull);
          ++shed;
        }
      }
      for (auto& r : mine) {
        const SceneReport report = r.report.get();  // every future resolves
        if (report.status == SceneStatus::Completed) {
          ++completed;
        } else {
          ++not_completed;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const ServerStats stats = server.drain();

  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.submitted,
            stats.admitted + stats.rejected_queue_full + stats.rejected_draining);
  EXPECT_EQ(stats.admitted, stats.completed + stats.quarantined + stats.aborted);
  EXPECT_EQ(stats.completed, completed.load());
  EXPECT_EQ(stats.quarantined + stats.aborted, not_completed.load());
  EXPECT_EQ(stats.rejected_queue_full, shed.load());
  EXPECT_GT(stats.completed, 0u);
  EXPECT_GT(stats.quarantined, 0u);  // the storm really fired
  EXPECT_EQ(stats.latency.count, stats.completed);
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());
}

TEST(ServeStress, RepeatedServerLifecyclesOverOneRuleBase) {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kStressSrc));
  const auto rb = SharedRuleBase::compile(program);  // compiled exactly once

  for (int round = 0; round < 8; ++round) {
    ServerOptions options;
    options.workers = 3;
    options.queue_capacity = 64;
    Server server(rb, options);
    std::vector<SubmitResult> submitted;
    for (std::uint64_t i = 0; i < 48; ++i) {
      SceneJob job;
      job.label = "count";
      job.inject = [i](ops5::Engine& engine) {
        engine.make_wme("ctr", {{"n", ops5::Value(static_cast<double>(i % 25))}});
      };
      submitted.push_back(server.submit(std::move(job)));
      ASSERT_TRUE(submitted.back().admitted());
    }
    const ServerStats stats = server.drain();
    EXPECT_EQ(stats.completed, 48u);
    std::set<SceneId> seen;
    for (auto& s : submitted) {
      const SceneReport report = s.report.get();
      EXPECT_EQ(report.status, SceneStatus::Completed);
      EXPECT_TRUE(seen.insert(report.scene).second);
    }
    EXPECT_EQ(seen.size(), 48u);
  }
}

}  // namespace
}  // namespace psmsys::serve
