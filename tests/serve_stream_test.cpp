// Streaming scenes (DESIGN.md §16): incremental delta-match sessions behind
// the unified serve client API. Covers the tick protocol (resident working
// memory between ticks, per-tick checkpoint recovery, terminal failures),
// recycled-context byte identity after stream close, byte-identical stream
// firing logs across match-thread counts and across a mid-stream pack swap,
// the stream-vs-batch differential, drain force-close, the watchdog's
// per-tick budget, and the "streams" rollup section + validator invariants.
//
// Runs under the TSan CI job: stream handles race the worker pool by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/bench_schema.hpp"
#include "ops5/parser.hpp"
#include "serve/server.hpp"
#include "spam/stream_schedule.hpp"

namespace psmsys::serve {
namespace {

// ---------------------------------------------------------------------------
// Streaming workload: items arrive over ticks; rules classify them either
// immediately (ungated) or all at once when a `go` sentinel lands (gated).
// Parity splits the items over two productions so firing-order assertions
// are non-trivial.
// ---------------------------------------------------------------------------

constexpr const char* kStreamSrc = R"(
(literalize seq n parity)
(literalize out n)
(literalize cursor n)
(literalize go n)
(literalize spin n)
(p classify-even (go) (seq ^n <v> ^parity even) --> (make out ^n <v>))
(p classify-odd (go) (seq ^n <v> ^parity odd) --> (make out ^n <v>))
(p advance-even (cursor ^n <v>) (seq ^n <v> ^parity even) -->
   (modify 1 ^n (compute <v> + 1)) (make out ^n <v>))
(p advance-odd (cursor ^n <v>) (seq ^n <v> ^parity odd) -->
   (modify 1 ^n (compute <v> + 1)) (make out ^n <v>))
(p spin-forever (spin ^n <v>) --> (modify 1 ^n (compute <v> + 1)))
)";

std::shared_ptr<const SharedRuleBase> stream_rulebase(ops5::EngineOptions options = {}) {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kStreamSrc));
  return SharedRuleBase::compile(std::move(program), nullptr, options);
}

const char* parity_of(std::size_t item) { return item % 3 == 0 ? "even" : "odd"; }

void inject_item(ops5::Engine& engine, std::size_t item) {
  // "even"/"odd" already appear in the rules, so they are interned.
  const ops5::Symbol parity = *engine.program().symbols().find(parity_of(item));
  engine.make_wme("seq", {{"n", ops5::Value(static_cast<double>(item))},
                          {"parity", ops5::Value(parity)}});
}

void retract_item(ops5::Engine& engine, std::size_t item) {
  for (const ops5::Wme* wme : engine.wmes_of_class("seq")) {
    if (wme->slot(0).number() == static_cast<double>(item)) {
      engine.remove_wme(*wme);
      return;
    }
  }
  throw std::logic_error("retraction of an item that never arrived");
}

/// Tick job applying one StreamTickSpec's deltas (and optional extras).
SceneJob delta_tick(const spam::StreamTickSpec& spec, bool first_tick_cursor = false,
                    bool last = false, bool gated = false) {
  SceneJob job;
  job.label = "delta";
  job.inject = [spec, first_tick_cursor, last, gated](ops5::Engine& engine) {
    if (first_tick_cursor) engine.make_wme("cursor", {{"n", ops5::Value(0.0)}});
    for (std::size_t item : spec.arrivals) inject_item(engine, item);
    for (std::size_t item : spec.retractions) retract_item(engine, item);
    if (last && gated) engine.make_wme("go", {});
  };
  return job;
}

/// Firing-log bytes minus the `sN| ` session-id prefix.
std::string without_session_prefix(const std::string& log) {
  std::string out;
  std::size_t pos = 0;
  while (pos < log.size()) {
    std::size_t eol = log.find('\n', pos);
    if (eol == std::string::npos) eol = log.size();
    const std::string_view line(log.data() + pos, eol - pos);
    const std::size_t bar = line.find("| ");
    out.append(bar == std::string_view::npos ? line : line.substr(bar + 2));
    out += '\n';
    pos = eol + 1;
  }
  return out;
}

/// "12. advance-even 5 3" -> "12. advance-even": cycle number and production
/// name, timetag columns dropped. Used by the stream-vs-batch differential,
/// where WME creation necessarily interleaves differently (deltas interleave
/// with firings in a stream; a batch injects everything first), so timetags
/// cannot match even when the firing ORDER is identical.
std::string strip_timetags(const std::string& log) {
  std::string out;
  std::size_t pos = 0;
  while (pos < log.size()) {
    std::size_t eol = log.find('\n', pos);
    if (eol == std::string::npos) eol = log.size();
    std::string_view line(log.data() + pos, eol - pos);
    const std::size_t bar = line.find("| ");
    if (bar != std::string_view::npos) line = line.substr(bar + 2);
    // Keep "<cycle>. <name>", drop the matched-WME timetags after it.
    std::size_t cut = line.find(' ');
    if (cut != std::string_view::npos) {
      cut = line.find(' ', cut + 1);
      if (cut != std::string_view::npos) line = line.substr(0, cut);
    }
    out.append(line);
    out += '\n';
    pos = eol + 1;
  }
  return out;
}

void expect_accounting(const ServerStats& s) {
  EXPECT_EQ(s.submitted, s.admitted + s.rejected_queue_full + s.rejected_draining);
  EXPECT_EQ(s.admitted, s.completed + s.quarantined + s.aborted);
  EXPECT_EQ(s.streams.opened,
            s.streams.completed + s.streams.quarantined + s.streams.aborted);
  EXPECT_EQ(s.streams.ticks,
            s.streams.ticks_completed + s.streams.ticks_failed + s.streams.ticks_shed);
}

spam::StreamScheduleConfig small_schedule_config(std::size_t items, std::size_t ticks,
                                                 double retract_fraction = 0.0) {
  spam::StreamScheduleConfig config;
  config.items = items;
  config.ticks = ticks;
  config.interval_ms = 0;
  config.burstiness = 0.4;
  config.retract_fraction = retract_fraction;
  config.seed = 42;
  return config;
}

// ---------------------------------------------------------------------------
// Tick protocol: resident WM across ticks, per-tick reports, accounting
// ---------------------------------------------------------------------------

TEST(ServeStream, TicksAccumulateResidentWorkingMemory) {
  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;
  Server server(stream_rulebase(), options);

  const auto schedule = spam::make_stream_schedule(small_schedule_config(20, 5));
  StreamHandle stream = server.open_stream("accumulate");
  ASSERT_TRUE(stream.admitted());

  std::uint64_t arrived = 0;
  std::uint64_t last_wm = 0;
  std::uint64_t executed = 0;
  for (std::size_t t = 0; t < schedule.size(); ++t) {
    auto tick = stream.tick(delta_tick(schedule[t], t == 0));
    ASSERT_TRUE(tick.admitted());
    EXPECT_EQ(tick.tick, t);
    const TickReport report = tick.report.get();
    EXPECT_EQ(report.status, SceneStatus::Completed);
    EXPECT_EQ(report.tick, t);
    arrived += schedule[t].arrivals.size();
    // Resident WM survives between ticks: it grows with every delivery
    // (cursor chain: each item also yields one out WME, net growth).
    EXPECT_GE(report.wm_size, arrived);
    EXPECT_GE(report.wm_size, last_wm);
    last_wm = report.wm_size;
    executed += 1;
  }

  auto report_future = stream.close();
  const StreamReport report = report_future.get();
  EXPECT_EQ(report.status, SceneStatus::Completed);
  EXPECT_EQ(report.ticks, executed);
  EXPECT_EQ(report.ticks_completed, executed);
  EXPECT_EQ(report.peak_wm, last_wm);
  EXPECT_FALSE(report.drained);
  EXPECT_FALSE(report.firing_log.empty());
  // All 20 items ran through the cursor chain by the last tick.
  EXPECT_GE(report.wmes_streamed, 2u * 20u);

  // Ticks to a closed stream shed with StreamClosed, counted as shed ticks.
  auto late = stream.tick(delta_tick(schedule[0]));
  EXPECT_FALSE(late.admitted());
  EXPECT_EQ(late.rejected, RejectReason::StreamClosed);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.streams.opened, 1u);
  EXPECT_EQ(stats.streams.completed, 1u);
  EXPECT_EQ(stats.streams.ticks, executed + 1);  // + the shed late tick
  EXPECT_EQ(stats.streams.ticks_completed, executed);
  EXPECT_EQ(stats.streams.ticks_shed, 1u);
  EXPECT_EQ(stats.streams.tick_latency.count, executed);
  EXPECT_EQ(stats.streams.peak_resident_wm, report.peak_wm);
  // The stream counts as ONE completed scene in the top-level bins.
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.admitted, 1u);
}

TEST(ServeStream, FailedTickRollsBackToItsCheckpointAndKillsTheStream) {
  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;
  options.session.attempts.max_attempts = 1;
  Server server(stream_rulebase(), options);

  StreamHandle stream = server.open_stream("poisoned");
  ASSERT_TRUE(stream.admitted());

  spam::StreamTickSpec first;
  first.arrivals = {0, 1, 2};
  auto t0 = stream.tick(delta_tick(first, true));
  ASSERT_TRUE(t0.admitted());
  const TickReport r0 = t0.report.get();
  ASSERT_EQ(r0.status, SceneStatus::Completed);
  const std::uint64_t resident = r0.wm_size;

  // Tick 1 injects partial state, then dies: the per-tick checkpoint must
  // discard exactly this tick's effects while tick 0's WM stays resident.
  SceneJob poison;
  poison.label = "poison";
  poison.inject = [](ops5::Engine& engine) {
    inject_item(engine, 7);
    throw std::runtime_error("sensor dropout");
  };
  auto t1 = stream.tick(std::move(poison));
  ASSERT_TRUE(t1.admitted());

  // Tick 2 is queued behind the poison tick; the terminal failure abandons it.
  auto t2 = stream.tick(delta_tick(first));
  const bool t2_admitted = t2.admitted();

  const TickReport r1 = t1.report.get();
  EXPECT_EQ(r1.status, SceneStatus::Quarantined);
  EXPECT_EQ(r1.error, "sensor dropout");

  if (t2_admitted) {
    const TickReport r2 = t2.report.get();
    EXPECT_EQ(r2.status, SceneStatus::Rejected);
    EXPECT_EQ(r2.reject, RejectReason::StreamClosed);
  } else {
    EXPECT_EQ(t2.rejected, RejectReason::StreamClosed);
  }

  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Quarantined);
  EXPECT_EQ(report.ticks_completed, 1u);
  EXPECT_EQ(report.peak_wm, resident);  // the poison tick left nothing behind

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.streams.quarantined, 1u);
  EXPECT_EQ(stats.streams.ticks_failed, 1u);
}

TEST(ServeStream, RecycledContextIsByteIdenticalToFresh) {
  const auto rb = stream_rulebase();
  const auto schedule = spam::make_stream_schedule(small_schedule_config(16, 4));

  const auto run_once = [&schedule](Server& server) {
    StreamHandle stream = server.open_stream("identity");
    EXPECT_TRUE(stream.admitted());
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      auto tick = stream.tick(delta_tick(schedule[t], t == 0));
      EXPECT_TRUE(tick.admitted());
    }
    return stream.close().get();
  };

  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;

  // Fresh server: first stream ever on this context.
  Server fresh(rb, options);
  const StreamReport baseline = run_once(fresh);
  (void)fresh.drain();
  ASSERT_EQ(baseline.status, SceneStatus::Completed);
  ASSERT_FALSE(baseline.firing_log.empty());

  // Recycled server: the context already served a stream (including a failed
  // tick) and rolled back at close. The next stream must produce the same
  // bytes (modulo the session-id prefix).
  Server recycled(rb, options);
  {
    StreamHandle warmup = recycled.open_stream("warmup");
    ASSERT_TRUE(warmup.admitted());
    (void)warmup.tick(delta_tick(schedule[0], true));
    SceneJob poison;
    poison.label = "poison";
    poison.inject = [](ops5::Engine& engine) {
      inject_item(engine, 3);
      throw std::runtime_error("dropout");
    };
    (void)warmup.tick(std::move(poison));
    (void)warmup.close().get();
  }
  const StreamReport again = run_once(recycled);
  (void)recycled.drain();
  ASSERT_EQ(again.status, SceneStatus::Completed);
  EXPECT_EQ(without_session_prefix(again.firing_log),
            without_session_prefix(baseline.firing_log));
}

// ---------------------------------------------------------------------------
// Stream close restores the context's base WM one of two ways: it replays a
// journal no longer than the base WM and rebuilds the match state from the
// base WMEs otherwise. Either way the next stream on the context must match
// a fresh context: same firing log, same WM (timetags and slot values), and
// a structurally clean network.
// ---------------------------------------------------------------------------

// `greet` matches base WMEs only, so it is pending before every stream and
// fires on its first tick; `take` removes a base WME and `bump` modifies one
// each tick, so the journal holds removals of base WMEs as well.
constexpr const char* kBaseStreamSrc = R"(
(literalize base k v)
(literalize tick n)
(literalize poke n)
(literalize out k)
(literalize hello v)
(p greet (base ^k 0 ^v <v>) --> (make hello ^v <v>))
(p take (tick ^n <n>) (base ^k <n>) --> (remove 2) (make out ^k <n>))
(p bump (poke ^n <n>) (base ^k <n> ^v <n>) --> (modify 2 ^v (compute <n> + 100)))
)";

constexpr int kBaseStreamWmes = 24;

SceneJob base_tick(int n) {
  SceneJob job;
  job.label = "tick";
  job.inject = [n](ops5::Engine& engine) {
    engine.make_wme("tick", {{"n", ops5::Value(double(n))}});
    engine.make_wme("poke", {{"n", ops5::Value(double(n + 12))}});
  };
  return job;
}

std::vector<std::string> wm_rows(const ops5::Engine& engine) {
  const ops5::Program& program = engine.program();
  std::vector<std::pair<ops5::TimeTag, std::string>> rows;
  for (ops5::ClassIndex c = 0; c < program.class_count(); ++c) {
    for (const ops5::Wme* w : engine.wmes_of_class(c)) {
      rows.emplace_back(w->timetag(), std::to_string(w->timetag()) + ":" +
                                          w->to_string(program.symbols(), program.wme_class(c)));
    }
  }
  std::sort(rows.begin(), rows.end());
  std::vector<std::string> out;
  for (auto& row : rows) out.push_back(std::move(row.second));
  return out;
}

/// Runs ticks 1..count as one stream on `context`; returns the firing log.
/// `closed_removals`, when given, receives the WMEs retracted by the close.
std::string run_base_stream(EngineContext& context, SceneId id, int count,
                            std::uint64_t* closed_removals = nullptr) {
  Session session(id, context);
  session.begin();
  std::string log;
  for (int n = 1; n <= count; ++n) {
    const Session::TickOutcome tick = session.run_tick(base_tick(n), {});
    EXPECT_EQ(tick.status, SceneStatus::Completed);
    log += tick.firing_log;
  }
  const std::uint64_t removed_before = context.engine().counters().wmes_removed;
  session.finish();
  if (closed_removals != nullptr) {
    *closed_removals = context.engine().counters().wmes_removed - removed_before;
  }
  return log;
}

void expect_close_matches_fresh(int warmup_ticks, bool expect_rebuild) {
  auto program = std::make_shared<const ops5::Program>(ops5::parse_program(kBaseStreamSrc));
  const auto rb = SharedRuleBase::compile(std::move(program), nullptr, {});
  const auto base_init = [](ops5::Engine& engine) {
    for (int k = 0; k < kBaseStreamWmes; ++k) {
      engine.make_wme("base", {{"k", ops5::Value(double(k))}, {"v", ops5::Value(double(k))}});
    }
  };
  SessionOptions options;
  options.capture_firing_log = true;
  EngineContext used(rb, base_init, options);
  EngineContext fresh(rb, base_init, options);

  std::uint64_t removed = 0;
  const std::string warmup_log = run_base_stream(used, 1, warmup_ticks, &removed);
  EXPECT_NE(warmup_log.find("greet"), std::string::npos);
  // The route the close took: a replay retracts the journal's additions,
  // the rebuild retracts nothing.
  EXPECT_EQ(removed == 0, expect_rebuild) << removed << " WMEs retracted at close";
  EXPECT_EQ(wm_rows(used.engine()), wm_rows(fresh.engine()));
  const auto violations = used.engine().network().check_invariants();
  EXPECT_TRUE(violations.empty()) << violations.front();

  const std::string used_log = run_base_stream(used, 2, 5);
  const std::string fresh_log = run_base_stream(fresh, 2, 5);
  EXPECT_EQ(used_log, fresh_log);
  EXPECT_NE(used_log.find("greet"), std::string::npos);
  EXPECT_EQ(wm_rows(used.engine()), wm_rows(fresh.engine()));
  EXPECT_TRUE(used.engine().network().check_invariants().empty());
}

TEST(ServeStreamClose, ShortStreamReplaysJournalToFreshContext) {
  expect_close_matches_fresh(2, /*expect_rebuild=*/false);
}

TEST(ServeStreamClose, LongStreamRebuildsBaseToFreshContext) {
  expect_close_matches_fresh(9, /*expect_rebuild=*/true);
}

// ---------------------------------------------------------------------------
// Byte identity across match-thread counts (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(ServeStream, FiringLogsByteIdenticalAcrossMatchThreadCounts) {
  const auto schedule = spam::make_stream_schedule(small_schedule_config(24, 6, 0.2));

  const auto stream_log = [&schedule](std::size_t match_threads) {
    ops5::EngineOptions engine_options;
    engine_options.match_threads = match_threads;
    ServerOptions options;
    options.workers = 1;
    options.session.capture_firing_log = true;
    Server server(stream_rulebase(engine_options), options);
    StreamHandle stream = server.open_stream("threads");
    EXPECT_TRUE(stream.admitted());
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      // Gated variant with retractions: deltas accumulate incrementally,
      // everything fires on the last tick.
      auto tick = stream.tick(
          delta_tick(schedule[t], false, t + 1 == schedule.size(), true));
      EXPECT_TRUE(tick.admitted());
    }
    StreamReport report = stream.close().get();
    EXPECT_EQ(report.status, SceneStatus::Completed);
    (void)server.drain();
    return report.firing_log;
  };

  const std::string log1 = stream_log(1);
  ASSERT_FALSE(log1.empty());
  EXPECT_EQ(stream_log(2), log1);
  EXPECT_EQ(stream_log(4), log1);
}

// ---------------------------------------------------------------------------
// Mid-stream pack swap: dequeue-time binding, the stream finishes on the
// pack it started on, byte-identically (acceptance criterion)
// ---------------------------------------------------------------------------

TEST(ServeStream, MidStreamPackSwapLeavesTheStreamOnItsPack) {
  const auto schedule = spam::make_stream_schedule(small_schedule_config(16, 4));
  ServerOptions options;
  options.workers = 2;
  options.session.capture_firing_log = true;

  // Baseline: the same stream on a server that never swaps.
  std::string baseline_log;
  {
    Server server(stream_rulebase(), options);
    StreamHandle stream = server.open_stream("noswap");
    ASSERT_TRUE(stream.admitted());
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      auto tick = stream.tick(delta_tick(schedule[t], t == 0));
      ASSERT_TRUE(tick.admitted());
      (void)tick.report.get();
    }
    baseline_log = stream.close().get().firing_log;
    (void)server.drain();
  }

  Server server(stream_rulebase(), options);
  StreamHandle stream = server.open_stream("swapped");
  ASSERT_TRUE(stream.admitted());
  const std::uint64_t boot_pack = server.active_pack();

  for (std::size_t t = 0; t < schedule.size(); ++t) {
    auto tick = stream.tick(delta_tick(schedule[t], t == 0));
    ASSERT_TRUE(tick.admitted());
    // Wait the first tick out so the stream is pinned to its worker (and
    // its pack) before the swap below races the rest.
    if (t == 0) {
      ASSERT_EQ(tick.report.get().status, SceneStatus::Completed);
    }
    if (t == 1) {
      // Identical rules under a new version: the gate passes it, activation
      // repoints NEW dequeues only.
      PackCandidate candidate;
      candidate.name = "stream-pack";
      candidate.version = "2";
      candidate.program =
          std::make_shared<const ops5::Program>(ops5::parse_program(kStreamSrc));
      const LoadResult swapped = server.load_pack(candidate);
      ASSERT_TRUE(swapped.accepted);
      ASSERT_TRUE(swapped.activated);
      ASSERT_NE(server.active_pack(), boot_pack);
    }
  }
  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Completed);
  // Dequeue-time binding: the stream finished on the pack it started on.
  EXPECT_EQ(report.pack, boot_pack);
  EXPECT_EQ(report.firing_log, baseline_log);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.pack_swaps, 1u);
}

// ---------------------------------------------------------------------------
// Stream-vs-batch differential (satellite): replaying the concatenated
// ticks as one batch scene produces the identical final conflict set,
// working memory, and firing sequence, at 1/2/4 match threads
// ---------------------------------------------------------------------------

struct FinalState {
  std::size_t conflict_set = 0;
  std::size_t wm_size = 0;
  std::size_t outs = 0;
  double out_sum = 0.0;
};

FinalState read_final_state(ops5::Engine& engine) {
  FinalState s;
  s.conflict_set = engine.conflict_set_size();
  s.wm_size = engine.wm_size();
  for (const ops5::Wme* wme : engine.wmes_of_class("out")) {
    ++s.outs;
    s.out_sum += wme->slot(0).number();
  }
  return s;
}

/// One batch scene whose inject replays every tick's deltas in order.
SceneJob concatenated_batch(const std::vector<spam::StreamTickSpec>& schedule,
                            bool cursor, bool gated, FinalState* final_state) {
  SceneJob job;
  job.label = "batch";
  job.inject = [&schedule, cursor, gated](ops5::Engine& engine) {
    if (cursor) engine.make_wme("cursor", {{"n", ops5::Value(0.0)}});
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      for (std::size_t item : schedule[t].arrivals) inject_item(engine, item);
      for (std::size_t item : schedule[t].retractions) retract_item(engine, item);
      if (gated && t + 1 == schedule.size()) engine.make_wme("go", {});
    }
  };
  job.collect = [final_state](ops5::Engine& engine) {
    *final_state = read_final_state(engine);
  };
  return job;
}

void run_differential(bool gated, std::size_t match_threads) {
  SCOPED_TRACE(std::string(gated ? "gated" : "cursor") + " @ " +
               std::to_string(match_threads) + " match threads");
  const auto schedule =
      spam::make_stream_schedule(small_schedule_config(24, 6, gated ? 0.2 : 0.0));
  ops5::EngineOptions engine_options;
  engine_options.match_threads = match_threads;
  const auto rb = stream_rulebase(engine_options);
  ServerOptions options;
  options.workers = 1;
  options.session.capture_firing_log = true;

  // Stream run: per-tick incremental match over resident WM.
  FinalState stream_state;
  std::string stream_log;
  {
    Server server(rb, options);
    StreamHandle stream = server.open_stream("diff");
    ASSERT_TRUE(stream.admitted());
    for (std::size_t t = 0; t < schedule.size(); ++t) {
      SceneJob job = delta_tick(schedule[t], !gated && t == 0,
                                t + 1 == schedule.size(), gated);
      if (t + 1 == schedule.size()) {
        job.collect = [&stream_state](ops5::Engine& engine) {
          stream_state = read_final_state(engine);
        };
      }
      auto tick = stream.tick(std::move(job));
      ASSERT_TRUE(tick.admitted());
      ASSERT_EQ(tick.report.get().status, SceneStatus::Completed);
    }
    stream_log = stream.close().get().firing_log;
    (void)server.drain();
  }

  // Batch run: the concatenated ticks as one scene on a fresh server (the
  // scene id is 0 in both runs, so the session prefixes agree too).
  FinalState batch_state;
  std::string batch_log;
  {
    Server server(rb, options);
    auto result = server.submit(concatenated_batch(schedule, !gated, gated, &batch_state));
    ASSERT_TRUE(result.admitted());
    const SceneReport report = result.report.get();
    ASSERT_EQ(report.status, SceneStatus::Completed);
    batch_log = report.firing_log;
    (void)server.drain();
  }

  ASSERT_FALSE(stream_log.empty());
  EXPECT_EQ(stream_state.conflict_set, batch_state.conflict_set);
  EXPECT_EQ(stream_state.wm_size, batch_state.wm_size);
  EXPECT_EQ(stream_state.outs, batch_state.outs);
  EXPECT_EQ(stream_state.out_sum, batch_state.out_sum);
  if (gated) {
    // Nothing fires before the sentinel, so WME creation order — and hence
    // every timetag — agrees between the two runs: the logs (suffix and all)
    // are byte-identical.
    EXPECT_EQ(stream_log, batch_log);
  } else {
    // Firings interleave with deliveries in the stream, so timetags diverge
    // by construction; the firing SEQUENCE (cycle numbers and production
    // names, in order) must still be identical.
    EXPECT_EQ(strip_timetags(stream_log), strip_timetags(batch_log));
  }
}

TEST(ServeStreamDifferential, GatedBatchReplayIsByteIdentical) {
  for (const std::size_t threads : {1u, 2u, 4u}) run_differential(true, threads);
}

TEST(ServeStreamDifferential, CursorChainFiringSequenceMatchesBatch) {
  for (const std::size_t threads : {1u, 2u, 4u}) run_differential(false, threads);
}

// ---------------------------------------------------------------------------
// Drain force-close and the per-tick watchdog budget
// ---------------------------------------------------------------------------

TEST(ServeStream, DrainForceClosesOpenStreamsAfterQueuedTicks) {
  ServerOptions options;
  options.workers = 1;
  Server server(stream_rulebase(), options);

  StreamHandle stream = server.open_stream("forever");
  ASSERT_TRUE(stream.admitted());
  spam::StreamTickSpec spec;
  spec.arrivals = {0, 1};
  auto tick = stream.tick(delta_tick(spec, true));
  ASSERT_TRUE(tick.admitted());

  // No close(): drain must force-close the stream, after the queued tick.
  const ServerStats stats = server.drain();
  const TickReport tr = tick.report.get();
  EXPECT_EQ(tr.status, SceneStatus::Completed);

  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Completed);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.ticks_completed, 1u);

  expect_accounting(stats);
  EXPECT_EQ(stats.streams.drained, 1u);
  EXPECT_EQ(stats.streams.completed, 1u);

  // Ticks after drain shed (stream is dead / server stopped).
  auto late = stream.tick(delta_tick(spec));
  EXPECT_FALSE(late.admitted());
}

TEST(ServeStream, WatchdogBudgetCoversTicksNotIdleStreams) {
  ServerOptions options;
  options.workers = 1;
  options.session.abort_check_every = 8;
  options.watchdog_budget = std::chrono::milliseconds(50);
  options.watchdog_poll = std::chrono::milliseconds(1);
  Server server(stream_rulebase(), options);

  StreamHandle stream = server.open_stream("patient");
  ASSERT_TRUE(stream.admitted());
  spam::StreamTickSpec spec;
  spec.arrivals = {0};
  auto t0 = stream.tick(delta_tick(spec, true));
  ASSERT_TRUE(t0.admitted());
  ASSERT_EQ(t0.report.get().status, SceneStatus::Completed);

  // Idle longer than the budget: an open-but-idle stream must NOT trip the
  // watchdog — the budget covers a tick, not the stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  spam::StreamTickSpec more;
  more.arrivals = {5};
  auto t1 = stream.tick(delta_tick(more));
  ASSERT_TRUE(t1.admitted());
  EXPECT_EQ(t1.report.get().status, SceneStatus::Completed);

  // A runaway tick IS cut off, terminally for the stream.
  SceneJob runaway;
  runaway.label = "runaway";
  runaway.inject = [](ops5::Engine& engine) {
    engine.make_wme("spin", {{"n", ops5::Value(0.0)}});
  };
  auto t2 = stream.tick(std::move(runaway));
  ASSERT_TRUE(t2.admitted());
  EXPECT_EQ(t2.report.get().status, SceneStatus::Aborted);

  const StreamReport report = stream.close().get();
  EXPECT_EQ(report.status, SceneStatus::Aborted);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  EXPECT_EQ(stats.aborted, 1u);
  EXPECT_EQ(stats.streams.aborted, 1u);
}

// ---------------------------------------------------------------------------
// Rollup: the "streams" section validates; the zero-admitted/packs
// cross-check catches mis-attributed scenes (satellite regression)
// ---------------------------------------------------------------------------

TEST(ServeStreamRollup, MixedOneShotAndStreamDrainValidates) {
  ServerOptions options;
  options.workers = 2;
  Server server(stream_rulebase(), options);

  spam::StreamTickSpec spec;
  spec.arrivals = {0, 1, 2};
  StreamHandle stream = server.open_stream("mixed");
  ASSERT_TRUE(stream.admitted());
  for (int t = 0; t < 3; ++t) {
    auto tick = stream.tick(delta_tick(spec, t == 0, t == 2, true));
    ASSERT_TRUE(tick.admitted());
    ASSERT_EQ(tick.report.get().status, SceneStatus::Completed);
    spec.arrivals = {static_cast<std::size_t>(3 + t)};
  }
  (void)stream.close().get();

  SceneJob oneshot;
  oneshot.label = "oneshot";
  oneshot.inject = [](ops5::Engine& engine) {
    engine.make_wme("go", {});
    inject_item(engine, 2);
  };
  auto r = server.submit(std::move(oneshot));
  ASSERT_TRUE(r.admitted());
  ASSERT_EQ(r.report.get().status, SceneStatus::Completed);

  const ServerStats stats = server.drain();
  expect_accounting(stats);
  // One-shot wrappers do NOT report in the stream bins.
  EXPECT_EQ(stats.streams.opened, 1u);
  EXPECT_EQ(stats.streams.ticks_completed, 3u);
  EXPECT_EQ(stats.completed, 2u);  // stream + one-shot

  const obs::json::Value doc = stats.to_json();
  EXPECT_TRUE(obs::validate_serve_rollup(doc).empty());
  auto reparsed = obs::json::parse(doc.dump(2));
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_TRUE(obs::validate_serve_rollup(*reparsed).empty());

  // Broken tick accounting must not validate.
  ServerStats broken = stats;
  broken.streams.ticks_completed += 1;
  EXPECT_FALSE(obs::validate_serve_rollup(broken.to_json()).empty());
  broken = stats;
  broken.streams.completed += 1;
  EXPECT_FALSE(obs::validate_serve_rollup(broken.to_json()).empty());
}

TEST(ServeStreamRollup, ZeroAdmittedDrainWithPackScenesIsRejected) {
  // Regression: the validator used to accept a drain that admitted nothing
  // over a non-empty "packs" object with non-zero per-pack scene counts.
  Server server(stream_rulebase(), {});
  const ServerStats stats = server.drain();
  ASSERT_EQ(stats.admitted, 0u);
  ASSERT_FALSE(stats.packs.empty());
  EXPECT_TRUE(obs::validate_serve_rollup(stats.to_json()).empty());

  ServerStats broken = stats;
  broken.packs[0].scenes_completed = 5;  // scenes out of thin air
  const auto violations = obs::validate_serve_rollup(broken.to_json());
  ASSERT_FALSE(violations.empty());
  bool cross_check = false;
  for (const std::string& v : violations) {
    if (v.find("zero admitted") != std::string::npos) cross_check = true;
  }
  EXPECT_TRUE(cross_check) << "the zero-admitted/packs cross-check must fire";
}

}  // namespace
}  // namespace psmsys::serve
