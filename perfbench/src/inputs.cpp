#include <algorithm>
#include <numeric>

#include "perfbench.hpp"
#include "util/rng.hpp"

namespace perfbench {

Airport make_airport(const std::string& name, SetupTimes& times, obs::Tracer* spans) {
  Airport airport;
  airport.name = name;
  times.scene_gen_ms += timed(spans, "spam.generate_scene", [&] {
    airport.scene =
        std::make_unique<spam::Scene>(spam::generate_scene(spam::dataset_by_name(name)));
  });
  times.rtf_ms += timed(spans, "spam.run_rtf", [&] {
    airport.best = spam::best_fragments(spam::run_rtf(*airport.scene, 3).fragments);
  });
  std::sort(airport.best.begin(), airport.best.end(),
            [](const spam::Fragment& a, const spam::Fragment& b) { return a.id < b.id; });
  return airport;
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  psmsys::util::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

}  // namespace perfbench
