// Per-layer metrics: the reduction of a run's tally, plus the layer probes
// that time single calls into the ops5 parser, a fresh rete::Network and the
// engine's undo journal.

#include <algorithm>

#include "perfbench.hpp"
#include "rete/network.hpp"
#include "spam/decomposition.hpp"

namespace perfbench {

namespace ops5 = psmsys::ops5;
namespace rete = psmsys::rete;
namespace util = psmsys::util;

namespace {

constexpr int kParseRepeats = 5;
constexpr int kReplayRepeats = 3;
constexpr std::size_t kRollbackScenes = 64;

class CountingListener final : public rete::MatchListener {
 public:
  void on_activate(const ops5::Production&, std::span<const ops5::Wme* const>) override {
    ++changes;
  }
  void on_deactivate(const ops5::Production&, std::span<const ops5::Wme* const>) override {
    ++changes;
  }
  std::uint64_t changes = 0;
};

/// Replay a finished LCC run's working memory into fresh networks: every
/// WME added in timetag order, then removed in reverse (the order a
/// rollback retracts in).
void probe_replay(const Airport& airport, std::map<std::string, double>& out,
                  obs::Tracer& spans) {
  const auto d = spam::lcc_decomposition(4, *airport.scene, airport.best);
  auto engine = d.factory.make_engine();
  d.factory.base_init(*engine);
  for (const auto& task : d.tasks) task.inject(*engine);
  (void)engine->run();

  std::vector<const ops5::Wme*> wmes;
  for (std::size_t cls = 0; cls < engine->program().class_count(); ++cls) {
    const auto of_class = engine->wmes_of_class(static_cast<ops5::ClassIndex>(cls));
    wmes.insert(wmes.end(), of_class.begin(), of_class.end());
  }
  std::sort(wmes.begin(), wmes.end(), [](const ops5::Wme* a, const ops5::Wme* b) {
    return a->timetag() < b->timetag();
  });

  std::vector<double> add_ns;
  std::vector<double> remove_ns;
  const double n = static_cast<double>(wmes.size());
  for (int r = 0; r < kReplayRepeats; ++r) {
    CountingListener listener;
    util::WorkCounters counters;
    rete::Network network(engine->program(), listener, counters);
    add_ns.push_back(timed(&spans, "rete.Network::add_wme", [&] {
      for (const auto* w : wmes) network.add_wme(*w);
    }) * 1e6 / n);
    remove_ns.push_back(timed(&spans, "rete.Network::remove_wme", [&] {
      for (auto it = wmes.rbegin(); it != wmes.rend(); ++it) network.remove_wme(**it);
    }) * 1e6 / n);
  }
  out.emplace("rete.add_ns_per_wme", median(add_ns));
  out.emplace("rete.remove_ns_per_wme", median(remove_ns));
}

/// Run single Level-3 scenes under the undo journal and time the rollback
/// that returns the engine to its base working memory.
void probe_rollback(const Airport& airport, std::map<std::string, double>& out,
                    obs::Tracer& spans) {
  const auto d = spam::lcc_decomposition(3, *airport.scene, airport.best);
  auto engine = d.factory.make_engine();
  d.factory.base_init(*engine);
  std::vector<double> rollback_ms;
  const std::size_t stride = std::max<std::size_t>(1, d.tasks.size() / kRollbackScenes);
  for (std::size_t i = 0; i < d.tasks.size(); i += stride) {
    engine->begin_undo_log();
    d.tasks[i].inject(*engine);
    (void)engine->run();
    rollback_ms.push_back(
        timed(&spans, "ops5.Engine::rollback_undo_log", [&] { engine->rollback_undo_log(); }));
  }
  out.emplace("ops5.rollback_ms_per_op", median(rollback_ms));
}

}  // namespace

void probe_layers(std::map<std::string, double>& out, obs::Tracer& spans) {
  std::vector<double> parse_ms;
  for (int r = 0; r < kParseRepeats; ++r) {
    parse_ms.push_back(timed(&spans, "spam.build_lcc_program",
                             [] { (void)spam::build_lcc_program(); }));
  }
  out.emplace("ops5.parse_ms", median(parse_ms));

  SetupTimes unused;
  const Airport sf = make_airport("SF", unused, nullptr);
  probe_replay(sf, out, spans);
  probe_rollback(sf, out, spans);
}

std::map<std::string, double> layer_metrics(const Tally& tally,
                                            const std::vector<SetupTimes>& setups) {
  std::map<std::string, double> out;
  const auto setup_median = [&](const char* name, double SetupTimes::*field) {
    std::vector<double> values;
    for (const auto& s : setups) {
      if (s.*field >= 0.0) values.push_back(s.*field);
    }
    if (!values.empty()) out[name] = median(values);
  };
  setup_median("spam.scene_gen_ms", &SetupTimes::scene_gen_ms);
  setup_median("spam.rtf_ms", &SetupTimes::rtf_ms);
  setup_median("spam.decompose_ms", &SetupTimes::decompose_ms);
  setup_median("ops5.parse_ms", &SetupTimes::parse_ms);
  setup_median("serve.compile_ms", &SetupTimes::compile_ms);
  setup_median("serve.start_ms", &SetupTimes::start_ms);

  const double ops = static_cast<double>(tally.op_ms.size());
  for (const auto& [name, sum] : tally.sums) {
    if (name.ends_with("_per_op") && ops > 0) out[name] = sum / ops;
  }
  const auto capacity = tally.sums.find("psm.capacity_ms");
  if (capacity != tally.sums.end() && capacity->second > 0.0) {
    out["psm.busy_ratio"] = tally.sums.at("psm.task_span_ms") / capacity->second;
  }
  for (const auto& [name, values] : tally.samples) {
    if (!values.empty()) out[name] = median(values);
  }
  return out;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"spam.scene_gen_ms", "ms"},
      {"spam.rtf_ms", "ms"},
      {"spam.decompose_ms", "ms"},
      {"ops5.parse_ms", "ms"},
      {"serve.compile_ms", "ms"},
      {"serve.start_ms", "ms"},
      {"ops5.cycles_per_op", "count"},
      {"ops5.firings_per_op", "count"},
      {"ops5.resolve_wu_per_op", "wu"},
      {"ops5.rhs_wu_per_op", "wu"},
      {"rete.match_wu_per_op", "wu"},
      {"rete.join_probes_per_op", "count"},
      {"rete.tokens_created_per_op", "count"},
      {"rete.alpha_activations_per_op", "count"},
      {"rete.add_ns_per_wme", "ns"},
      {"rete.remove_ns_per_wme", "ns"},
      {"ops5.rollback_ms_per_op", "ms"},
      {"rete.match_utilization", "ratio"},
      {"rete.match_dispatches_per_op", "count"},
      {"rete.partition_imbalance", "ratio"},
      {"psm.start_ms", "ms"},
      {"psm.task_ms_p50", "ms"},
      {"psm.busy_ratio", "ratio"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"serve.handoff_ms_p50", "ms"},
      {"serve.close_ms_p50", "ms"},
      {"serve.resident_wm", "count"},
      {"rete.live_tokens", "count"},
  };
  return units;
}

}  // namespace perfbench
