#pragma once

/// \file arena.h
/// A small monotonic arena: bump-pointer allocation out of geometrically
/// growing blocks, freed all at once. Built for per-cell scratch in the
/// sweep engine — a cell allocates its pair buffer and per-packet scratch
/// thousands of times across a sweep, and the arena turns each of those
/// into a pointer bump plus one `reset()` per cell (the high-water block
/// is kept, so steady-state cells allocate from the general heap exactly
/// once).
///
/// Not thread-safe: one arena per worker/cell, which is exactly how the
/// sweep uses it. Individual deallocation is a no-op (monotonic);
/// destructors of arena-backed containers still run, they just return no
/// memory.
///
///   Arena arena;
///   ArenaVector<std::pair<NodeId, NodeId>> pairs(arena.allocator<...>());
///   ... fill, use ...
///   arena.reset();  // next cell reuses the same block

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace spr {

class Arena {
 public:
  /// `first_block` is the size of the first block actually allocated
  /// (lazily, on first use); subsequent blocks double.
  explicit Arena(std::size_t first_block = 16 * 1024)
      : next_block_size_(first_block < 64 ? 64 : first_block) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (a power of two). Never
  /// returns null, not even for 0 bytes; falls back to a fresh block when
  /// the current one is exhausted or none exists yet.
  void* allocate(std::size_t bytes, std::size_t align) {
    std::uintptr_t p = (cursor_ + (align - 1)) & ~(align - 1);
    // p is 0 only before the first block, whose empty [0, 0) range a
    // 0-byte request would otherwise fit.
    if (p + bytes > limit_ || p == 0) {
      grow(bytes + align);
      p = (cursor_ + (align - 1)) & ~(align - 1);
    }
    cursor_ = p + bytes;
    bytes_allocated_ += bytes;
    return reinterpret_cast<void*>(p);
  }

  /// Drops every allocation. A fragmented arena (several blocks) is
  /// consolidated into one block covering their combined size, so a
  /// repeated identical workload fits the retained block and stops
  /// touching the general heap from the second pass on.
  void reset() {
    if (bytes_allocated_ > high_water_) high_water_ = bytes_allocated_;
    if (blocks_.size() > 1) {
      std::size_t total = capacity();
      blocks_.clear();
      blocks_.push_back(Block{std::make_unique<std::byte[]>(total), total});
    }
    if (!blocks_.empty()) {
      cursor_ = reinterpret_cast<std::uintptr_t>(blocks_.back().data.get());
      limit_ = cursor_ + blocks_.back().size;
    }
    bytes_allocated_ = 0;
  }

  /// Total bytes handed out since construction / the last reset (excludes
  /// alignment padding).
  std::size_t bytes_allocated() const noexcept { return bytes_allocated_; }

  /// The largest `bytes_allocated()` any epoch (reset-to-reset span) has
  /// reached, including the current one. This is the observable form of the
  /// zero-steady-state-heap claim: once the retained block covers the high
  /// water, later epochs allocate no general-heap memory. Tracked in
  /// `reset()` / here rather than per-allocation, so the `allocate` hot
  /// path stays two adds and a compare.
  std::size_t high_water() const noexcept {
    return bytes_allocated_ > high_water_ ? bytes_allocated_ : high_water_;
  }

  /// Total bytes of arena blocks currently held.
  std::size_t capacity() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  void grow(std::size_t at_least) {
    std::size_t size = next_block_size_;
    while (size < at_least) size *= 2;
    next_block_size_ = size * 2;
    Block block{std::make_unique<std::byte[]>(size), size};
    cursor_ = reinterpret_cast<std::uintptr_t>(block.data.get());
    limit_ = cursor_ + size;
    blocks_.push_back(std::move(block));
  }

  std::vector<Block> blocks_;
  std::uintptr_t cursor_ = 0;
  std::uintptr_t limit_ = 0;
  std::size_t next_block_size_;
  std::size_t bytes_allocated_ = 0;
  std::size_t high_water_ = 0;
};

/// std-compatible allocator over an Arena. Copies share the arena;
/// deallocate is a no-op. The arena must outlive every container using it.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) noexcept : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}  // monotonic: freed by reset()

  Arena* arena() const noexcept { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }
  template <typename U>
  bool operator!=(const ArenaAllocator<U>& other) const noexcept {
    return arena_ != other.arena();
  }

 private:
  Arena* arena_;
};

/// Vector whose storage (not its elements' own allocations) lives in an
/// arena.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace spr
