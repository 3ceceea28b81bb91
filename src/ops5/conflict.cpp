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
  if (inst->seq < record_below_) save(*inst);
  if (!inst->fired) unfired_->erase(inst);
  entries_->erase(it);
  arena_.deallocate(inst, block_bytes(inst->wmes.size()));
}

const Instantiation* ConflictSet::select() {
  if (unfired_->empty()) return nullptr;
  Instantiation* best = *unfired_->begin();
  if (best->seq < record_below_) save(*best);
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
  journal_seq_ = next_seq_;
  record_below_ = journal_seq_;
  saved_.clear();
  saved_tags_.clear();
}

void ConflictSet::end_journal() noexcept {
  record_below_ = 0;
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
  restore(JournalMark{0, journal_seq_, 0}, wme_of);
  end_journal();
}

ConflictSet::JournalMark ConflictSet::mark() noexcept {
  const JournalMark m{saved_.size(), next_seq_, record_below_};
  record_below_ = next_seq_;
  return m;
}

void ConflictSet::restore(const JournalMark& m,
                          const std::function<const Wme*(TimeTag)>& wme_of) {
  if (m.record > saved_.size()) throw std::logic_error("conflict-set mark is ahead of the journal");
  // Later records are overridden by earlier ones: the first record of an
  // instantiation holds its state at the mark. Survivors, recorded last,
  // never collide with a removal record (a removed instantiation that came
  // back during the journal has a new seq), only with a firing record,
  // which must win. Records of instantiations born after the mark (made
  // under an inner mark that was never released) are skipped.
  const std::size_t n = saved_.size() - m.record;
  std::vector<Instantiation*> target(n, nullptr);
  std::vector<const Wme*> wmes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = m.record + i;
    if (saved_[r].seq >= m.seq) continue;
    const std::size_t end = r + 1 < saved_.size() ? saved_[r + 1].first_tag : saved_tags_.size();
    wmes.clear();
    for (std::size_t t = saved_[r].first_tag; t < end; ++t) {
      const Wme* w = wme_of(saved_tags_[t]);
      if (w == nullptr) throw std::logic_error("conflict-set journal names a WME not restored");
      wmes.push_back(w);
    }
    const auto it = entries_->find(Key{saved_[r].production_id, wmes});
    if (it == entries_->end()) {
      throw std::logic_error("conflict-set journal names an instantiation not restored");
    }
    target[i] = it->second;
  }
  // Take every target out of the ordered index while its seq is still the
  // one it was filed under, then assign, then re-enter the unfired ones once
  // every seq is final (a transient seq collision would make two
  // instantiations equivalent to the index).
  std::vector<Instantiation*> distinct = target;
  std::erase(distinct, nullptr);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  for (Instantiation* inst : distinct) {
    if (!inst->fired) unfired_->erase(inst);
  }
  for (std::size_t i = n; i-- > 0;) {
    if (target[i] == nullptr) continue;
    target[i]->seq = saved_[m.record + i].seq;
    target[i]->fired = saved_[m.record + i].fired;
  }
  for (Instantiation* inst : distinct) {
    if (!inst->fired) unfired_->insert(inst);
  }
  next_seq_ = m.seq;
  if (n != 0) saved_tags_.resize(saved_[m.record].first_tag);
  saved_.resize(m.record);
  record_below_ = m.seq;
}

void ConflictSet::release(const JournalMark& m) noexcept {
  record_below_ = m.outer_below;
  // Compact in place, in order: only records of instantiations the
  // enclosing scope also records stay (all of them, when the mark was
  // taken where that scope began).
  if (m.seq <= m.outer_below) return;
  std::size_t kept = m.record;
  std::size_t tags = m.record < saved_.size() ? saved_[m.record].first_tag : saved_tags_.size();
  for (std::size_t r = m.record; r < saved_.size(); ++r) {
    if (saved_[r].seq >= m.outer_below) continue;
    const std::size_t first = saved_[r].first_tag;
    const std::size_t end = r + 1 < saved_.size() ? saved_[r + 1].first_tag : saved_tags_.size();
    std::copy(saved_tags_.begin() + static_cast<std::ptrdiff_t>(first),
              saved_tags_.begin() + static_cast<std::ptrdiff_t>(end),
              saved_tags_.begin() + static_cast<std::ptrdiff_t>(tags));
    saved_[kept] = saved_[r];
    saved_[kept].first_tag = tags;
    tags += end - first;
    ++kept;
  }
  if (kept < saved_.size()) {
    saved_.resize(kept);
    saved_tags_.resize(tags);
  }
}

}  // namespace psmsys::ops5
