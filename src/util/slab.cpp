#include "util/slab.hpp"

#include <algorithm>
#include <bit>

namespace psmsys::util {

SlabArena::~SlabArena() {
  release();
  for (const Chunk& c : chunks_) {
    PSMSYS_SLAB_UNPOISON(c.base, c.size);
    ::operator delete(c.base, std::align_val_t{alignof(std::max_align_t)});
  }
}

std::size_t SlabArena::class_of(std::size_t bytes) noexcept {
  if (bytes <= kGrain) return 0;
  if (bytes <= kSmallClasses * kGrain) return (bytes + kGrain - 1) / kGrain - 1;
  // 512 -> kSmallClasses, 1024 -> kSmallClasses + 1, ...
  return kSmallClasses + static_cast<std::size_t>(std::bit_width(bytes - 1)) - 9;
}

std::size_t SlabArena::class_size(std::size_t cls) noexcept {
  if (cls < kSmallClasses) return (cls + 1) * kGrain;
  return std::size_t{1} << (cls - kSmallClasses + 9);
}

void* SlabArena::bump(std::size_t bytes) {
  while (cur_ < chunks_.size()) {
    if (offset_ + bytes <= chunks_[cur_].size) {
      void* p = chunks_[cur_].base + offset_;
      offset_ += bytes;
      return p;
    }
    ++cur_;
    offset_ = 0;
  }
  std::size_t size = chunks_.empty() ? kFirstChunk : std::min(2 * chunks_.back().size, kMaxChunk);
  size = std::max(size, bytes);
  auto* base = static_cast<std::byte*>(
      ::operator new(size, std::align_val_t{alignof(std::max_align_t)}));
  PSMSYS_SLAB_POISON(base, size);
  chunks_.push_back({base, size});
  cur_ = chunks_.size() - 1;
  offset_ = bytes;
  return base;
}

void* SlabArena::allocate(std::size_t bytes) {
  const std::size_t cls = class_of(bytes);
  const std::size_t size = class_size(cls);
  void* p = nullptr;
  if (free_[cls] != nullptr) {
    p = free_[cls];
    PSMSYS_SLAB_UNPOISON(p, size);
    free_[cls] = free_[cls]->next;
  } else if (size > kMaxChunk) {
    p = ::operator new(size, std::align_val_t{alignof(std::max_align_t)});
    large_.push_back(p);
  } else {
    p = bump(size);
    PSMSYS_SLAB_UNPOISON(p, size);
  }
  return p;
}

void SlabArena::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  const std::size_t cls = class_of(bytes);
  auto* block = static_cast<FreeBlock*>(p);
  block->next = free_[cls];
  free_[cls] = block;
  PSMSYS_SLAB_POISON(p, class_size(cls));
}

void SlabArena::release() noexcept {
  for (void* p : large_) {
    ::operator delete(p, std::align_val_t{alignof(std::max_align_t)});
  }
  large_.clear();
  std::fill(std::begin(free_), std::end(free_), nullptr);
  for (const Chunk& c : chunks_) PSMSYS_SLAB_POISON(c.base, c.size);
  cur_ = 0;
  offset_ = 0;
}

}  // namespace psmsys::util
