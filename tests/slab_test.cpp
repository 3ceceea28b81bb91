// util::SlabArena / ArenaVec, the bulk-released storage behind working
// memory, Rete tokens and records, and conflict-set instantiations. Under
// AddressSanitizer the death tests check that freed and released slots stay
// poisoned, so a stale pointer into recycled storage still faults.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <set>
#include <span>
#include <string_view>
#include <vector>

#include "ops5/conflict.hpp"
#include "ops5/engine.hpp"
#include "ops5/parser.hpp"
#include "rete/network.hpp"
#include "util/slab.hpp"

namespace psmsys::util {
namespace {

TEST(SlabArena, FreedBlocksAreReusedBySizeClass) {
  SlabArena arena;
  void* a = arena.allocate(40);
  void* b = arena.allocate(40);
  EXPECT_NE(a, b);
  arena.deallocate(a, 40);
  EXPECT_EQ(arena.allocate(33), a);  // same 48-byte class
  void* big = arena.allocate(1000);
  arena.deallocate(big, 1000);
  EXPECT_EQ(arena.allocate(600), big);  // same 1 KiB class
}

TEST(SlabArena, ReleaseKeepsChunksAndHandsThemOutAgain) {
  SlabArena arena;
  // 64 KB spans several chunks (they start at kFirstChunk and double).
  std::vector<void*> first;
  for (int i = 0; i < 1000; ++i) first.push_back(arena.allocate(64));
  arena.release();
  // The refill walks the same chunks from the start, in the same order.
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(arena.allocate(64), first[i]) << i;
}

TEST(SlabArena, OversizedBlocksComeFromTheHeap) {
  SlabArena arena;
  constexpr std::size_t kBig = 300 * 1024;
  static_assert(kBig > SlabArena::kMaxChunk);
  void* small = arena.allocate(64);
  auto* p = static_cast<std::uint8_t*>(arena.allocate(kBig));
  p[0] = 1;
  p[kBig - 1] = 2;
  // Not carved from a chunk: the next small block follows the first one.
  EXPECT_EQ(arena.allocate(64), static_cast<std::uint8_t*>(small) + 64);
  arena.release();  // returns the big block to the heap (LeakSanitizer checks)
  EXPECT_EQ(arena.allocate(64), small);
}

TEST(ArenaVec, GrowsKeepsContentsAndClearsWithoutReleasing) {
  SlabArena arena;
  ArenaVec<std::uint32_t> v;
  for (std::uint32_t i = 0; i < 1000; ++i) v.push_back(arena, i);
  ASSERT_EQ(v.size(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i);
  const std::uint32_t* data = v.data();
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(arena, 7);
  EXPECT_EQ(v.data(), data);  // capacity kept
  v.resize(arena, 3);
  EXPECT_EQ(v[0], 7u);
  EXPECT_EQ(v[1], 0u);
  EXPECT_EQ(v[2], 0u);
}

TEST(ArenaHeld, ContainerIsReleasedWithItsArena) {
  SlabArena arena;
  using Set = std::set<int, std::less<>, ArenaAllocator<int>>;
  ArenaHeld<Set> nodes(std::less<>{}, ArenaAllocator<int>(arena));
  for (int i = 0; i < 100; ++i) nodes->insert(i);
  EXPECT_EQ(nodes->size(), 100u);
  arena.release();
  nodes.reset(std::less<>{}, ArenaAllocator<int>(arena));
  EXPECT_TRUE(nodes->empty());
  nodes->insert(7);
  EXPECT_EQ(*nodes->begin(), 7);
}

#ifdef PSMSYS_SLAB_ASAN

// A freed block is poisoned until it is handed out again. The arrays an
// ArenaVec outgrows and the nodes of arena-held containers come back here.
TEST(SlabArenaDeathTest, TouchingAFreedSlotFaults) {
  SlabArena arena;
  auto* token = static_cast<std::uint64_t*>(arena.allocate(sizeof(std::uint64_t) * 12));
  token[3] = 1;
  arena.deallocate(token, sizeof(std::uint64_t) * 12);
  EXPECT_DEATH({ token[3] = 2; }, "use-after-poison");
}

TEST(SlabArenaDeathTest, TouchingAReleasedSlotFaults) {
  SlabArena arena;
  auto* token = static_cast<std::uint64_t*>(arena.allocate(sizeof(std::uint64_t) * 12));
  arena.release();
  EXPECT_DEATH({ token[0] = 2; }, "use-after-poison");
}

TEST(SlabArenaDeathTest, StaleInstantiationFaults) {
  const ops5::Program program = ops5::parse_program("(literalize item a)\n(p one (item) --> (halt))\n");
  ops5::ConflictSet cs;
  ops5::Wme w(0, ops5::kNilSymbol, std::vector<ops5::Value>{ops5::Value(1.0)}, 1);
  cs.add(program.productions()[0], {&w});
  const ops5::Instantiation* inst = cs.select();
  ASSERT_NE(inst, nullptr);
  cs.remove(program.productions()[0], std::vector<const ops5::Wme*>{&w});
  EXPECT_DEATH({ [[maybe_unused]] volatile auto seq = inst->seq; }, "use-after-poison");
}

TEST(SlabArenaDeathTest, StaleWmeFaults) {
  auto program = std::make_shared<const ops5::Program>(
      ops5::parse_program("(literalize item a)\n(p one (item ^a 2) --> (halt))\n"));
  ops5::Engine engine(program, nullptr);
  const ops5::Wme& w = engine.make_wme("item", {{"a", ops5::Value(1.0)}});
  engine.remove_wme(w);
  EXPECT_DEATH({ [[maybe_unused]] volatile auto tag = w.timetag(); }, "use-after-poison");
}

/// A two-CE network over WMEs built by hand, no engine involved.
class TwoCeNetwork {
 public:
  TwoCeNetwork()
      : program_(ops5::parse_program("(literalize a x)\n(literalize b x)\n"
                                     "(p two (a ^x <v>) (b ^x <v>) --> (halt))\n")),
        network_(program_, listener_, counters_) {}

  const ops5::Wme& make(std::string_view class_name) {
    const auto cls = *program_.class_index(*program_.symbols().find(class_name));
    const auto& decl = program_.wme_class(cls);
    std::vector<ops5::Value> slots(decl.arity(), ops5::Value(1.0));
    wmes_.push_back(std::make_unique<ops5::Wme>(cls, decl.name(), std::move(slots),
                                                static_cast<ops5::TimeTag>(wmes_.size() + 1)));
    return *wmes_.back();
  }

  rete::Network& network() { return network_; }

 private:
  struct NullListener final : rete::MatchListener {
    void on_activate(const ops5::Production&, std::span<const ops5::Wme* const>) override {}
    void on_deactivate(const ops5::Production&, std::span<const ops5::Wme* const>) override {}
  };
  ops5::Program program_;
  NullListener listener_;
  WorkCounters counters_;
  std::vector<std::unique_ptr<ops5::Wme>> wmes_;
  rete::Network network_;
};

[[noreturn]] void touch(const void* p) {
  [[maybe_unused]] volatile char c = *static_cast<const volatile char*>(p);
  std::abort();  // not reached when `p` is poisoned
}

// Network::remove_wme puts the WME's record and its tokens on the network's
// own free lists, which poison them without going through the arena.
TEST(SlabArenaDeathTest, StaleTokenAndRecordFault) {
  TwoCeNetwork net;
  const ops5::Wme& a = net.make("a");
  const ops5::Wme& b = net.make("b");
  net.network().add_wme(a);
  net.network().add_wme(b);
  const std::vector<const void*> storage = net.network().storage_of(b);
  ASSERT_GE(storage.size(), 2u);  // b's record and the token (a b)
  net.network().remove_wme(b);
  EXPECT_TRUE(net.network().storage_of(b).empty());
  EXPECT_DEATH(touch(storage[0]), "use-after-poison");
  EXPECT_DEATH(touch(storage[1]), "use-after-poison");
}

// Network::clear() releases every record and token with the arena.
TEST(SlabArenaDeathTest, TokenReleasedByClearFaults) {
  TwoCeNetwork net;
  const ops5::Wme& a = net.make("a");
  net.network().add_wme(a);
  const std::vector<const void*> storage = net.network().storage_of(a);
  ASSERT_GE(storage.size(), 2u);  // a's record and the token (a)
  net.network().clear();
  EXPECT_DEATH(touch(storage[1]), "use-after-poison");
}

#endif  // PSMSYS_SLAB_ASAN

}  // namespace
}  // namespace psmsys::util
