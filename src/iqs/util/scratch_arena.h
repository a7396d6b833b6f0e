// Reusable bump allocator for per-query scratch memory.
//
// The batched serving path (RangeSampler::QueryBatch) runs many queries per
// call; each query needs short-lived buffers (canonical covers, cover
// weights, multinomial counts, per-lane descent state). Allocating those
// from the heap per query dominates the constant factors the batch path
// exists to remove, so callers carry a ScratchArena across calls: Alloc()
// bumps a pointer inside a retained block, Reset() rewinds it, and after a
// warm-up call the arena performs zero heap allocations in steady state.
//
// Only trivially-destructible types may be allocated (nothing is ever
// destroyed), and returned memory is uninitialized. Spans returned by
// Alloc() stay valid until Reset() even if a later Alloc() overflows into a
// fresh block — blocks are chained, never reallocated, and Reset()
// coalesces the chain into one block so growth converges.
//
// The arena is also a std::pmr::memory_resource, so containers that need
// to grow while a call builds them (a CoverPlan, say) can live in it too:
// deallocation is a no-op and everything is reclaimed at Reset(), so such
// a container must not outlive the cycle it was built in.
//
// Not thread-safe; use one arena per thread (the single-query fallback
// paths keep a thread_local arena for exactly this reason).

#ifndef IQS_UTIL_SCRATCH_ARENA_H_
#define IQS_UTIL_SCRATCH_ARENA_H_

#include <cstddef>
#include <memory>
#include <memory_resource>
#include <span>
#include <type_traits>
#include <vector>

#include "iqs/util/check.h"

namespace iqs {

class ScratchArena final : public std::pmr::memory_resource {
 public:
  explicit ScratchArena(size_t initial_bytes = 4096) {
    blocks_.push_back(NewBlock(initial_bytes));
  }

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  // Returns an uninitialized span of `count` Ts, valid until Reset().
  template <typename T>
  std::span<T> Alloc(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destroyed");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    if (count == 0) return {};
    return {static_cast<T*>(AllocBytes(count * sizeof(T), alignof(T))),
            count};
  }

  // Rewinds all allocations (previously returned spans become invalid).
  // If the last cycle overflowed into extra blocks, coalesces into a single
  // block large enough for the whole cycle, so repeated same-shaped calls
  // settle into zero heap allocations.
  void Reset() {
    if (blocks_.size() > 1) {
      size_t total = 0;
      for (const Block& block : blocks_) total += block.size;
      blocks_.clear();
      blocks_.push_back(NewBlock(total));
    }
    blocks_[0].used = 0;
    active_ = 0;
  }

  // Number of heap blocks ever allocated; stable across calls once warm.
  // Tests use this to assert the zero-steady-state-allocation property.
  size_t blocks_allocated() const { return blocks_allocated_; }

  size_t capacity_bytes() const {
    size_t total = 0;
    for (const Block& block : blocks_) total += block.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  void* AllocBytes(size_t bytes, size_t alignment) {
    Block& block = blocks_[active_];
    const size_t aligned = Align(block.used, alignment);
    if (aligned + bytes <= block.size) {
      block.used = aligned + bytes;
      return block.data.get() + aligned;
    }
    return Overflow(bytes, alignment);
  }

  // std::pmr::memory_resource: bump allocation, reclaimed at Reset().
  void* do_allocate(size_t bytes, size_t alignment) override {
    IQS_CHECK(alignment <= alignof(std::max_align_t));
    return AllocBytes(bytes, alignment);
  }
  void do_deallocate(void*, size_t, size_t) override {}
  bool do_is_equal(const std::pmr::memory_resource& other) const
      noexcept override {
    return this == &other;
  }

  static size_t Align(size_t offset, size_t alignment) {
    return (offset + alignment - 1) & ~(alignment - 1);
  }

  Block NewBlock(size_t bytes) {
    bytes = bytes < 64 ? 64 : bytes;
    ++blocks_allocated_;
    return Block{std::make_unique<std::byte[]>(bytes), bytes, 0};
  }

  std::byte* Overflow(size_t bytes, size_t alignment) {
    // Chain a new block at least double the current capacity so the number
    // of overflow events per arena lifetime is logarithmic.
    size_t grow = capacity_bytes() * 2;
    if (grow < bytes + alignment) grow = bytes + alignment;
    blocks_.push_back(NewBlock(grow));
    active_ = blocks_.size() - 1;
    Block& block = blocks_[active_];
    const size_t aligned = Align(block.used, alignment);
    block.used = aligned + bytes;
    IQS_DCHECK(block.used <= block.size);
    return block.data.get() + aligned;
  }

  std::vector<Block> blocks_;
  size_t active_ = 0;
  size_t blocks_allocated_ = 0;
};

}  // namespace iqs

#endif  // IQS_UTIL_SCRATCH_ARENA_H_
