#include "iqs/util/scratch_arena.h"

#include <cstdint>
#include <cstring>
#include <memory_resource>
#include <numeric>
#include <vector>

#include "gtest/gtest.h"

namespace iqs {
namespace {

TEST(ScratchArenaTest, AllocReturnsWritableSpans) {
  ScratchArena arena(64);
  const auto a = arena.Alloc<double>(10);
  const auto b = arena.Alloc<uint32_t>(7);
  ASSERT_EQ(a.size(), 10u);
  ASSERT_EQ(b.size(), 7u);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], static_cast<double>(i));
  }
  for (size_t i = 0; i < b.size(); ++i) {
    EXPECT_EQ(b[i], static_cast<uint32_t>(i));
  }
}

TEST(ScratchArenaTest, SpansSurviveOverflowGrowth) {
  // Earlier spans must stay valid when a later Alloc overflows into a new
  // block (blocks are chained, not reallocated).
  ScratchArena arena(64);
  const auto first = arena.Alloc<uint64_t>(4);
  std::iota(first.begin(), first.end(), 100u);
  const auto big = arena.Alloc<uint64_t>(10000);  // forces overflow
  std::iota(big.begin(), big.end(), 0u);
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], 100u + i);
}

TEST(ScratchArenaTest, ZeroCountAllocIsEmpty) {
  ScratchArena arena;
  EXPECT_TRUE(arena.Alloc<double>(0).empty());
}

TEST(ScratchArenaTest, ResetReachesZeroSteadyStateAllocations) {
  ScratchArena arena(64);
  auto cycle = [&arena] {
    arena.Reset();
    arena.Alloc<double>(300);
    arena.Alloc<uint32_t>(50);
    arena.Alloc<uint64_t>(120);
  };
  cycle();  // grows
  cycle();  // first warm cycle may coalesce
  arena.Reset();
  const size_t warm_blocks = arena.blocks_allocated();
  const size_t warm_capacity = arena.capacity_bytes();
  for (int i = 0; i < 100; ++i) cycle();
  EXPECT_EQ(arena.blocks_allocated(), warm_blocks)
      << "steady-state cycles must not touch the heap";
  EXPECT_EQ(arena.capacity_bytes(), warm_capacity);
}

TEST(ScratchArenaTest, AlignmentRespected) {
  ScratchArena arena(64);
  arena.Alloc<uint8_t>(3);  // misalign the bump pointer
  const auto d = arena.Alloc<double>(2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d.data()) % alignof(double), 0u);
  arena.Alloc<uint8_t>(1);
  const auto u = arena.Alloc<uint64_t>(2);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(u.data()) % alignof(uint64_t), 0u);
}

// As a memory_resource the arena backs growing containers built inside
// one cycle; they count toward its capacity and, once warm, allocate
// nothing from the heap.
TEST(ScratchArenaTest, BacksPmrContainers) {
  ScratchArena arena(64);
  size_t warm_blocks = 0;
  for (int round = 0; round < 4; ++round) {
    arena.Reset();
    std::pmr::vector<uint64_t> v(&arena);
    for (uint64_t i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_EQ(std::accumulate(v.begin(), v.end(), uint64_t{0}), 499500u);
    EXPECT_GE(arena.capacity_bytes(), 1000 * sizeof(uint64_t));
    if (round == 1) warm_blocks = arena.blocks_allocated();
  }
  EXPECT_EQ(arena.blocks_allocated(), warm_blocks);
}

}  // namespace
}  // namespace iqs
