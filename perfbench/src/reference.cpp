#include <algorithm>
#include <sstream>

#include "perfbench.hpp"
#include "spam/constraints.hpp"

namespace perfbench {

namespace {

[[nodiscard]] std::string describe(const spam::ConsistencyRecord& r) {
  std::ostringstream os;
  os << "(constraint " << r.constraint << ", subject " << r.subject << ", object " << r.object
     << ", result " << (r.result ? 1 : 0) << ")";
  return os.str();
}

}  // namespace

Records expected_records(const Airport& airport) {
  Records out;
  for (const auto& subject : airport.best) {
    for (const spam::Constraint* c : spam::constraints_for(subject.cls)) {
      for (const auto& object : airport.best) {
        if (object.id == subject.id || object.cls != c->object) continue;
        const auto verdict =
            spam::evaluate_constraint(*c, *airport.scene, subject.region, object.region);
        out.push_back({c->id, subject.id, object.id, verdict.value});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::map<std::uint32_t, Records> by_subject(const Records& expected) {
  std::map<std::uint32_t, Records> out;
  for (const auto& r : expected) out[r.subject].push_back(r);
  return out;
}

std::string compare_records(const Records& expected, Records observed) {
  std::sort(observed.begin(), observed.end());
  if (observed == expected) return {};
  std::ostringstream os;
  os << "expected " << expected.size() << " consistency records, got " << observed.size();
  const auto [e, o] = std::mismatch(expected.begin(), expected.end(), observed.begin(),
                                    observed.end());
  if (e != expected.end() && (o == observed.end() || *e < *o)) {
    os << "; missing " << describe(*e);
  } else if (o != observed.end()) {
    os << "; unexpected " << describe(*o);
  }
  return os.str();
}

std::vector<std::string> negative_control(const Records& expected) {
  if (expected.size() < 2) return {"negative control needs at least two records"};
  const std::size_t mid = expected.size() / 2;
  std::vector<std::string> missed;
  const auto must_fail = [&](const char* what, Records mutated) {
    if (compare_records(expected, std::move(mutated)).empty()) {
      missed.push_back(std::string("checker accepted a ") + what);
    }
  };

  Records dropped = expected;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(mid));
  must_fail("dropped record", std::move(dropped));

  Records duplicated = expected;
  duplicated.push_back(expected[mid]);
  must_fail("duplicated record", std::move(duplicated));

  Records flipped = expected;
  flipped[mid].result = !flipped[mid].result;
  must_fail("flipped result", std::move(flipped));
  return missed;
}

}  // namespace perfbench
