#include "ops5/conflict.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace psmsys::ops5 {

namespace {

/// Lexicographic comparison of descending-sorted recency vectors.
/// Returns +1 if a is more recent, -1 if b is, 0 if equal.
[[nodiscard]] int compare_recency(std::span<const TimeTag> a, std::span<const TimeTag> b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] > b[i] ? 1 : -1;
  }
  if (a.size() != b.size()) return a.size() > b.size() ? 1 : -1;
  return 0;
}

}  // namespace

bool dominates(const Instantiation& a, const Instantiation& b, Strategy strategy) {
  if (strategy == Strategy::Mea) {
    // MEA: recency of the WME matching the *first* CE takes precedence.
    const TimeTag ta = a.wmes.empty() ? 0 : a.wmes.front()->timetag();
    const TimeTag tb = b.wmes.empty() ? 0 : b.wmes.front()->timetag();
    if (ta != tb) return ta > tb;
  }
  // LEX: full recency ordering.
  if (const int c = compare_recency(a.recency, b.recency); c != 0) return c > 0;
  // Specificity.
  const std::size_t sa = a.production->specificity();
  const std::size_t sb = b.production->specificity();
  if (sa != sb) return sa > sb;
  // Deterministic arbitrary tie-break: earliest-created wins.
  return a.seq < b.seq;
}

ConflictSet::ConflictSet(Strategy strategy)
    : strategy_(strategy),
      entries_(0, KeyHash{}, std::equal_to<Key>{}, Entries::allocator_type(arena_)),
      unfired_(Dominance{strategy}, Unfired::allocator_type(arena_)) {}

void ConflictSet::reset_containers() {
  entries_.reset(0, KeyHash{}, std::equal_to<Key>{}, Entries::allocator_type(arena_));
  unfired_.reset(Dominance{strategy_}, Unfired::allocator_type(arena_));
}

std::size_t ConflictSet::block_bytes(std::size_t n) noexcept {
  return sizeof(Instantiation) + n * (sizeof(const Wme*) + sizeof(TimeTag));
}

void ConflictSet::add(const Production& production, std::span<const Wme* const> wmes) {
  // One arena block: the instantiation, then its WME array, then its recency
  // array (both element types are 8 bytes, so the arrays stay aligned).
  static_assert(sizeof(const Wme*) == sizeof(TimeTag) && alignof(Instantiation) >= alignof(TimeTag));
  void* block = arena_.allocate(block_bytes(wmes.size()));
  auto* inst = new (block) Instantiation{};
  auto* wme_array = reinterpret_cast<const Wme**>(inst + 1);
  auto* recency = reinterpret_cast<TimeTag*>(wme_array + wmes.size());
  for (std::size_t i = 0; i < wmes.size(); ++i) {
    wme_array[i] = wmes[i];
    recency[i] = wmes[i]->timetag();
  }
  std::sort(recency, recency + wmes.size(), std::greater<>());
  inst->production = &production;
  inst->wmes = {wme_array, wmes.size()};
  inst->recency = {recency, wmes.size()};
  inst->seq = next_seq_++;
  const auto [it, inserted] = entries_->emplace(Key{production.id(), inst->wmes}, inst);
  if (!inserted) {
    arena_.deallocate(block, block_bytes(wmes.size()));
    throw std::logic_error("duplicate instantiation added to conflict set");
  }
  unfired_->insert(inst);
}

void ConflictSet::remove(const Production& production, std::span<const Wme* const> wmes) {
  const auto it = entries_->find(Key{production.id(), wmes});
  if (it == entries_->end()) {
    throw std::logic_error("removing instantiation not present in conflict set");
  }
  Instantiation* inst = it->second;
  if (journaling_ && inst->seq < journal_seq_) save(*inst);
  if (!inst->fired) unfired_->erase(inst);
  entries_->erase(it);
  arena_.deallocate(inst, block_bytes(inst->wmes.size()));
}

const Instantiation* ConflictSet::select() {
  if (unfired_->empty()) return nullptr;
  Instantiation* best = *unfired_->begin();
  if (journaling_ && best->seq < journal_seq_) save(*best);
  unfired_->erase(unfired_->begin());
  best->fired = true;
  return best;
}

std::vector<const Instantiation*> ConflictSet::snapshot() const {
  std::vector<const Instantiation*> out;
  out.reserve(entries_->size());
  for (const auto& [key, inst] : *entries_) out.push_back(inst);
  return out;
}

void ConflictSet::clear() {
  arena_.release();
  reset_containers();
  next_seq_ = 0;
}

// ---------------------------------------------------------------------------
// Journal
// ---------------------------------------------------------------------------

void ConflictSet::begin_journal() {
  journaling_ = true;
  journal_seq_ = next_seq_;
  saved_.clear();
  saved_tags_.clear();
}

void ConflictSet::end_journal() noexcept {
  journaling_ = false;
  saved_.clear();
  saved_tags_.clear();
}

void ConflictSet::save(const Instantiation& inst) {
  saved_.push_back({inst.production->id(), inst.seq, inst.fired, saved_tags_.size()});
  for (const Wme* w : inst.wmes) saved_tags_.push_back(w->timetag());
}

void ConflictSet::journal_survivors() {
  for (const auto& [key, inst] : *entries_) {
    if (inst->seq < journal_seq_) save(*inst);
  }
}

void ConflictSet::restore_journal(const std::function<const Wme*(TimeTag)>& wme_of) {
  // Later records are overridden by earlier ones: the first record of an
  // instantiation holds its journal-open state. Survivors, recorded last,
  // never collide with a removal record (a removed instantiation that came
  // back during the journal has a new seq), only with a firing record,
  // which must win.
  std::vector<Instantiation*> target(saved_.size());
  std::vector<const Wme*> wmes;
  for (std::size_t r = 0; r < saved_.size(); ++r) {
    const std::size_t end = r + 1 < saved_.size() ? saved_[r + 1].first_tag : saved_tags_.size();
    wmes.clear();
    for (std::size_t i = saved_[r].first_tag; i < end; ++i) {
      const Wme* w = wme_of(saved_tags_[i]);
      if (w == nullptr) throw std::logic_error("conflict-set journal names a WME not restored");
      wmes.push_back(w);
    }
    const auto it = entries_->find(Key{saved_[r].production_id, wmes});
    if (it == entries_->end()) {
      throw std::logic_error("conflict-set journal names an instantiation not restored");
    }
    target[r] = it->second;
  }
  // Take every target out of the ordered index while its seq is still the
  // one it was filed under, then assign, then re-enter the unfired ones once
  // every seq is final (a transient seq collision would make two
  // instantiations equivalent to the index).
  std::vector<Instantiation*> distinct = target;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  for (Instantiation* inst : distinct) {
    if (!inst->fired) unfired_->erase(inst);
  }
  for (std::size_t r = saved_.size(); r-- > 0;) {
    target[r]->seq = saved_[r].seq;
    target[r]->fired = saved_[r].fired;
  }
  for (Instantiation* inst : distinct) {
    if (!inst->fired) unfired_->insert(inst);
  }
  next_seq_ = journal_seq_;
  end_journal();
}

}  // namespace psmsys::ops5
