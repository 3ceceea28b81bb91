#pragma once

// Bulk-released storage for match-time objects.
//
// Working memory, Rete tokens and records, and conflict-set instantiations
// grow with working memory, and a task process or serve context creates and
// drops hundreds of thousands of them. Allocating each one (and each of its
// member vectors) on the heap made tearing a context down cost one free()
// per object, and left glibc sorting the freed chunks on the next
// allocations. A SlabArena hands out blocks from a few large chunks instead:
//
//  * allocate/deallocate are a bump pointer and a per-size-class free list;
//  * release() forgets every block at once and keeps the chunks for reuse,
//    so emptying a context costs O(chunks), not O(objects);
//  * addresses are stable until the block is deallocated or released.
//
// Objects placed in an arena must not need their destructors run: either
// they are trivially destructible, or (Wme) whatever they own is provably
// empty. ArenaVec is the trivially destructible growable array those objects
// use in place of std::vector; ArenaAllocator lets standard containers draw
// all their memory from an arena, and ArenaHeld keeps such a container
// without ever running its node-walking destructor.
//
// Under AddressSanitizer, free and released blocks are poisoned and a block
// is unpoisoned only when it is handed out again, so a stale pointer into
// recycled storage still faults.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define PSMSYS_SLAB_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PSMSYS_SLAB_ASAN 1
#endif
#endif

#ifdef PSMSYS_SLAB_ASAN
#include <sanitizer/asan_interface.h>
#define PSMSYS_SLAB_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define PSMSYS_SLAB_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define PSMSYS_SLAB_POISON(p, n) ((void)(p), (void)(n))
#define PSMSYS_SLAB_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace psmsys::util {

class SlabArena {
 public:
  /// Chunks start at kFirstChunk bytes and double up to kMaxChunk, so a
  /// small context reserves little and a large one few chunks. Blocks bigger
  /// than kMaxChunk come from the heap and go back to it on release().
  static constexpr std::size_t kFirstChunk = 4096;
  static constexpr std::size_t kMaxChunk = 256 * 1024;

  SlabArena() = default;
  ~SlabArena();

  SlabArena(const SlabArena&) = delete;
  SlabArena& operator=(const SlabArena&) = delete;

  /// A block of at least `bytes` bytes, aligned to alignof(std::max_align_t).
  [[nodiscard]] void* allocate(std::size_t bytes);

  /// Return a block from allocate(bytes) (same `bytes`) for reuse.
  void deallocate(void* p, std::size_t bytes) noexcept;

  /// Forget every block at once. Chunks stay reserved for the next fill;
  /// oversized blocks go back to the heap.
  void release() noexcept;

 private:
  static constexpr std::size_t kGrain = 16;
  // Classes: multiples of 16 bytes up to 256, then powers of two.
  static constexpr std::size_t kSmallClasses = 256 / kGrain;
  static constexpr std::size_t kClasses = kSmallClasses + 56;

  struct FreeBlock {
    FreeBlock* next;
  };
  struct Chunk {
    std::byte* base;
    std::size_t size;
  };

  [[nodiscard]] static std::size_t class_of(std::size_t bytes) noexcept;
  [[nodiscard]] static std::size_t class_size(std::size_t cls) noexcept;
  [[nodiscard]] void* bump(std::size_t bytes);

  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;       ///< chunk being bump-allocated
  std::size_t offset_ = 0;    ///< bump offset within chunks_[cur_]
  std::vector<void*> large_;  ///< blocks bigger than kMaxChunk, own heap blocks
  FreeBlock* free_[kClasses] = {};
};

/// A growable array whose storage lives in a SlabArena. Trivially
/// destructible, so objects holding ArenaVecs can be released in bulk; every
/// growing operation names the arena explicitly. Growth doubles capacity and
/// returns the old block to the arena, as std::vector does with the heap.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T* data() noexcept { return data_; }
  [[nodiscard]] const T* data() const noexcept { return data_; }
  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return data_[i];
  }
  [[nodiscard]] T& back() noexcept { return data_[size_ - 1]; }

  void push_back(SlabArena& arena, const T& value) {
    if (size_ == cap_) grow(arena, cap_ == 0 ? 2 : 2 * cap_);
    data_[size_++] = value;
  }
  void pop_back() noexcept {
    assert(size_ > 0);
    --size_;
  }
  /// Resize to `n`; new elements are value-initialized.
  void resize(SlabArena& arena, std::uint32_t n) {
    if (n > cap_) grow(arena, n);
    for (std::uint32_t i = size_; i < n; ++i) data_[i] = T{};
    size_ = n;
  }
  /// Keeps capacity (the recycled-object discipline of the free lists).
  void clear() noexcept { size_ = 0; }

 private:
  void grow(SlabArena& arena, std::uint32_t cap) {
    T* fresh = static_cast<T*>(arena.allocate(sizeof(T) * cap));
    if (size_ != 0) std::memcpy(static_cast<void*>(fresh), data_, sizeof(T) * size_);
    if (data_ != nullptr) arena.deallocate(data_, sizeof(T) * cap_);
    data_ = fresh;
    cap_ = cap;
  }

  T* data_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = 0;
};

/// Standard allocator drawing every allocation (nodes and bucket tables)
/// from a SlabArena. A container using it owns nothing but arena memory, so
/// it is released with its arena instead of by its destructor: hold it in an
/// ArenaHeld.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(SlabArena& arena) noexcept : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(sizeof(T) * n));
  }
  void deallocate(T* p, std::size_t n) noexcept { arena_->deallocate(p, sizeof(T) * n); }

  [[nodiscard]] SlabArena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  SlabArena* arena_;
};

/// Holds a container whose memory is all in one SlabArena (ArenaAllocator)
/// and never runs the container's destructor: the arena's release() or
/// destruction frees everything it owned at once, where the destructor
/// would walk every node. reset() starts a fresh container in place — call
/// it after releasing the arena, so the old one's nodes are never touched.
template <typename C>
class ArenaHeld {
 public:
  template <typename... Args>
  explicit ArenaHeld(Args&&... args) {
    new (storage_) C(std::forward<Args>(args)...);
  }
  /// Moves the container (vectors of held containers need this); the
  /// moved-from container owns nothing afterwards.
  ArenaHeld(ArenaHeld&& other) noexcept(std::is_nothrow_move_constructible_v<C>) {
    new (storage_) C(std::move(*other));
  }
  ArenaHeld(const ArenaHeld&) = delete;
  ArenaHeld& operator=(const ArenaHeld&) = delete;
  ArenaHeld& operator=(ArenaHeld&&) = delete;
  ~ArenaHeld() = default;

  template <typename... Args>
  void reset(Args&&... args) {
    new (storage_) C(std::forward<Args>(args)...);
  }

  [[nodiscard]] C& operator*() noexcept { return *get(); }
  [[nodiscard]] const C& operator*() const noexcept { return *get(); }
  [[nodiscard]] C* operator->() noexcept { return get(); }
  [[nodiscard]] const C* operator->() const noexcept { return get(); }

 private:
  [[nodiscard]] C* get() noexcept { return std::launder(reinterpret_cast<C*>(storage_)); }
  [[nodiscard]] const C* get() const noexcept {
    return std::launder(reinterpret_cast<const C*>(storage_));
  }

  alignas(C) std::byte storage_[sizeof(C)];
};

}  // namespace psmsys::util
