#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "graph/graph_algos.h"
#include "test_helpers.h"

namespace spr {
namespace {

TEST(Arena, AllocationsAreDisjointAndAligned) {
  Arena arena(128);
  char* a = static_cast<char*>(arena.allocate(10, 1));
  char* b = static_cast<char*>(arena.allocate(10, 1));
  EXPECT_NE(a, b);
  std::memset(a, 0xAA, 10);
  std::memset(b, 0xBB, 10);
  EXPECT_EQ(static_cast<unsigned char>(a[9]), 0xAA);  // no overlap

  void* d = arena.allocate(1, 1);
  void* aligned = arena.allocate(8, 64);
  EXPECT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned) % 64, 0u);
  EXPECT_GE(arena.bytes_allocated(), 29u);
}

TEST(Arena, ZeroByteAllocationIsNonNull) {
  // A fresh arena has no block yet; an empty network's labeling scratch
  // asks for 0 bytes and hands the pointer to memset.
  Arena arena;
  EXPECT_NE(arena.allocate(0, 1), nullptr);
  EXPECT_NE(arena.allocate(0, 8), nullptr);
}

TEST(Arena, GrowsBeyondTheFirstBlock) {
  Arena arena(64);
  // Far more than the first block; every allocation must still succeed
  // and be writable.
  for (int i = 0; i < 100; ++i) {
    void* p = arena.allocate(100, 8);
    std::memset(p, i, 100);
  }
  EXPECT_GE(arena.capacity(), 100u * 100u);
}

TEST(Arena, ResetKeepsTheHighWaterBlock) {
  Arena arena(64);
  for (int i = 0; i < 50; ++i) arena.allocate(200, 8);
  std::size_t grown = arena.capacity();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  std::size_t kept = arena.capacity();
  EXPECT_GT(kept, 0u);
  EXPECT_LE(kept, grown);
  // A second identical pass must fit the kept block: capacity is stable.
  for (int i = 0; i < 50; ++i) arena.allocate(200, 8);
  EXPECT_EQ(arena.capacity(), kept);
}

TEST(Arena, VectorGrowsThroughTheArena) {
  Arena arena;
  ArenaVector<int> v{ArenaAllocator<int>(arena)};
  for (int i = 0; i < 10000; ++i) v.push_back(i);
  for (int i = 0; i < 10000; ++i) ASSERT_EQ(v[i], i);
  EXPECT_GE(arena.bytes_allocated(), 10000u * sizeof(int));
}

TEST(Arena, OracleBatchScratchVariantMatchesHeapVariant) {
  Network net = test::random_network(450, 19);
  Rng rng(2);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 12; ++i) {
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first != kInvalidNode) pairs.push_back(pair);
  }
  if (pairs.size() >= 2) pairs.push_back({pairs[0].first, pairs[1].second});
  ASSERT_FALSE(pairs.empty());

  // The arena parameter is kept for source compatibility only; passing one
  // must not change a single result.
  OracleBatch heap(net.graph(), pairs);
  Arena arena;
  OracleBatch scratch(net.graph(), pairs, &arena);
  ASSERT_EQ(heap.size(), scratch.size());
  for (std::size_t i = 0; i < heap.size(); ++i) {
    EXPECT_EQ(heap.hop_optimal(i).path, scratch.hop_optimal(i).path);
    EXPECT_EQ(heap.hop_optimal(i).length, scratch.hop_optimal(i).length);
    EXPECT_EQ(heap.length_optimal(i).path, scratch.length_optimal(i).path);
    EXPECT_EQ(heap.length_optimal(i).length, scratch.length_optimal(i).length);
  }
}

}  // namespace
}  // namespace spr
