#pragma once

// Conflict set and conflict-resolution strategies (LEX and MEA).
//
// The recognize-act cycle's resolve phase is the synchronization point that
// limits match parallelism (Section 3.1, limit 1). The conflict set keeps an
// ordered index of unfired instantiations (as ParaOPS5's optimized C
// implementation did), so selection is O(log n); the engine charges resolve
// cost accordingly.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "ops5/production.hpp"
#include "ops5/wme.hpp"
#include "util/slab.hpp"

namespace psmsys::ops5 {

/// A satisfied production: the production plus the WMEs matching its
/// positive CEs, in CE order. Instantiations and both arrays live in the
/// owning ConflictSet's arena; pointers to one are valid until it is removed.
struct Instantiation {
  const Production* production = nullptr;
  std::span<const Wme* const> wmes;
  /// Timetags sorted descending — the LEX recency key, precomputed on entry.
  std::span<const TimeTag> recency;
  /// Creation sequence number; final deterministic tie-break.
  std::uint64_t seq = 0;
  /// Refraction: an instantiation fires at most once while it remains in
  /// the conflict set.
  bool fired = false;
};

enum class Strategy : std::uint8_t { Lex, Mea };

/// Strict weak ordering: does `a` dominate `b` under the strategy?
[[nodiscard]] bool dominates(const Instantiation& a, const Instantiation& b, Strategy strategy);

/// The conflict set: all current instantiations, with O(1) add/remove by
/// (production, matched WMEs) identity and an ordered index of unfired
/// instantiations for O(log n) selection.
class ConflictSet {
 public:
  explicit ConflictSet(Strategy strategy = Strategy::Lex);

  ConflictSet(const ConflictSet&) = delete;
  ConflictSet& operator=(const ConflictSet&) = delete;

  /// Add an instantiation (called by the matcher on production activation).
  void add(const Production& production, std::span<const Wme* const> wmes);
  void add(const Production& production, std::initializer_list<const Wme*> wmes) {
    add(production, std::span<const Wme* const>(wmes.begin(), wmes.size()));
  }

  /// Remove the instantiation for this exact (production, wmes) match.
  /// Called by the matcher on retraction; must exist.
  void remove(const Production& production, std::span<const Wme* const> wmes);

  /// Pick the dominant unfired instantiation, or nullptr if none. Marks the
  /// winner as fired.
  [[nodiscard]] const Instantiation* select();

  [[nodiscard]] Strategy strategy() const noexcept { return strategy_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_->size(); }
  [[nodiscard]] std::size_t unfired() const noexcept { return unfired_->size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_->empty(); }

  /// All current instantiations (unspecified order); used by tests/oracle.
  [[nodiscard]] std::vector<const Instantiation*> snapshot() const;

  /// Drop every instantiation at once (the arena is released in bulk) and
  /// restart the sequence numbers. An open journal keeps its records: the
  /// rebuild restore clears the set between journal_survivors() and
  /// restore_journal().
  void clear();

  // ------------------------------ journal ---------------------------------
  // The undo-log half of exact rollback. While a journal is open, the first
  // change to each instantiation that existed when it opened (its firing or
  // its removal) is recorded with the instantiation's seq and fired flag, so
  // the engine can put both back once working memory is restored — whether
  // restoring replayed the WM journal (removed instantiations come back with
  // new seqs, fired ones stay fired) or rebuilt the match state from the
  // base WMEs (every instantiation comes back new).

  /// Open the journal at the current sequence number.
  void begin_journal();
  /// Close the journal and drop its records.
  void end_journal() noexcept;
  /// Stop recording; the records stay for restore_journal(). Call before
  /// working memory is restored, whose own changes must not be recorded.
  void seal_journal() noexcept { journaling_ = false; }
  /// Record every instantiation that existed when the journal opened and is
  /// still present, as if it were about to change — call before clear() when
  /// the match state will be rebuilt.
  void journal_survivors();
  /// After working memory is back to its journal-open state: give every
  /// recorded instantiation its journal-open seq and fired flag, rewind the
  /// sequence number, and close the journal. `wme_of` maps a timetag to the
  /// live WME carrying it.
  void restore_journal(const std::function<const Wme*(TimeTag)>& wme_of);

 private:
  struct Key {
    std::uint32_t production_id;
    std::span<const Wme* const> wmes;  ///< views the instantiation's own array
    [[nodiscard]] bool operator==(const Key& o) const noexcept {
      return production_id == o.production_id && std::ranges::equal(wmes, o.wmes);
    }
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
      std::size_t h = k.production_id * 0x9e3779b97f4a7c15ULL;
      for (const auto* w : k.wmes) {
        h ^= reinterpret_cast<std::size_t>(w) + 0x9e3779b9 + (h << 6) + (h >> 2);
      }
      return h;
    }
  };
  struct Dominance {
    Strategy strategy;
    [[nodiscard]] bool operator()(const Instantiation* a, const Instantiation* b) const {
      return dominates(*a, *b, strategy);
    }
  };
  struct Saved {
    std::uint32_t production_id;
    std::uint64_t seq;
    bool fired;
    std::size_t first_tag;  ///< into saved_tags_, one timetag per CE WME
  };

  [[nodiscard]] static std::size_t block_bytes(std::size_t n) noexcept;
  /// Fresh, empty containers (after the arena was released).
  void reset_containers();
  void save(const Instantiation& inst);

  Strategy strategy_;
  util::SlabArena arena_;  ///< instantiations and their arrays; declared first
  using Entries = std::unordered_map<Key, Instantiation*, KeyHash, std::equal_to<Key>,
                                     util::ArenaAllocator<std::pair<const Key, Instantiation*>>>;
  using Unfired = std::set<Instantiation*, Dominance, util::ArenaAllocator<Instantiation*>>;
  util::ArenaHeld<Entries> entries_;
  util::ArenaHeld<Unfired> unfired_;
  std::uint64_t next_seq_ = 0;

  bool journaling_ = false;
  std::uint64_t journal_seq_ = 0;  ///< seqs below this existed at journal open
  std::vector<Saved> saved_;
  std::vector<TimeTag> saved_tags_;
};

}  // namespace psmsys::ops5
