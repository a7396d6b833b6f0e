// Tests for the join-sampling module (iqs/join/): the sweep enumerator
// against a nested loop, JoinSize against exact enumeration, the
// sampling law (chi-square vs the uniform distribution over the
// enumerated join result, alpha 1e-6) on continuous and tie-heavy
// inputs, byte-identity of batch output across thread counts under a
// fixed seed, concurrent batches on one sampler, and input validation.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/join/join_batch.h"
#include "iqs/join/join_enumerator.h"
#include "iqs/join/join_sampler.h"
#include "iqs/multidim/point.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "test_util.h"

namespace iqs::join {
namespace {

using multidim::Rect;

// Random rectangles in [0, extent)^2 with edge lengths up to max_side —
// wide enough that joins are dense on small inputs.
std::vector<Rect> RandomRects(size_t n, double extent, double max_side,
                              Rng* rng) {
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng->NextDouble() * extent;
    const double y = rng->NextDouble() * extent;
    const double w = rng->NextDouble() * max_side;
    const double h = rng->NextDouble() * max_side;
    rects.push_back(Rect{x, x + w, y, y + h});
  }
  return rects;
}

// Integer-grid rectangles on a small grid, so coordinates collide: shared
// x_lo / y_lo / x_hi within and across relations, zero-width and
// zero-height rectangles (side 0), and edges or corners that only touch.
std::vector<Rect> GridRects(size_t n, uint64_t grid, uint64_t max_side,
                            Rng* rng) {
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(rng->Below(grid));
    const double y = static_cast<double>(rng->Below(grid));
    const double w = static_cast<double>(rng->Below(max_side + 1));
    const double h = static_cast<double>(rng->Below(max_side + 1));
    rects.push_back(Rect{x, x + w, y, y + h});
  }
  return rects;
}

// Inputs where the strict (lo, rel, id) start order is what decides the
// charging class: every kind of tie the sampler must break consistently.
struct JoinCase {
  std::string name;
  std::vector<Rect> r;
  std::vector<Rect> s;
};

std::vector<JoinCase> TieCases() {
  std::vector<JoinCase> cases;
  Rng rng(7010);
  cases.push_back(
      {"grid", GridRects(40, 8, 3, &rng), GridRects(36, 8, 3, &rng)});
  {
    const std::vector<Rect> same = GridRects(14, 6, 3, &rng);
    cases.push_back({"identical", same, same});
  }
  // Hand-placed touches: R0 and S1 identical (and R4 a duplicate inside
  // R); S0 meets R0 only at the corner (1, 1); S2 meets the zero-height
  // R2 only at (4, 5); the zero-width S3 meets the zero-width R1 only at
  // (2, 3) and R2 only at (2, 5); the point S4 sits on R0's corner.
  cases.push_back({"touching",
                   {Rect{0, 1, 0, 1}, Rect{2, 2, 0, 3}, Rect{0, 4, 5, 5},
                    Rect{1, 3, 1, 3}, Rect{0, 1, 0, 1}},
                   {Rect{1, 2, 1, 2}, Rect{0, 1, 0, 1}, Rect{4, 5, 5, 6},
                    Rect{2, 2, 3, 5}, Rect{0, 0, 0, 0}}});
  return cases;
}

// Draws `draws` pairs from `sampler` (split over two queries) and checks
// they are uniform over the enumerated join of r and s, alpha 1e-6.
void ExpectUniformOverJoin(const std::vector<Rect>& r,
                           const std::vector<Rect>& s,
                           const JoinSampler& sampler, size_t draws,
                           size_t num_threads, Rng* rng) {
  std::vector<JoinPair> all_pairs;
  ASSERT_EQ(EnumerateJoinPairs(r, s, &all_pairs), sampler.JoinSize());
  ASSERT_FALSE(all_pairs.empty());
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < all_pairs.size(); ++i) {
    index_of[(static_cast<uint64_t>(all_pairs[i].r_id) << 32) |
             all_pairs[i].s_id] = i;
  }

  const std::vector<JoinBatchQuery> queries = {{draws / 2},
                                               {draws - draws / 2}};
  BatchOptions opts;
  opts.num_threads = num_threads;
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, rng, &arena, opts, &result);
  ASSERT_EQ(result.pairs.size(), draws);

  std::vector<uint64_t> counts(all_pairs.size(), 0);
  for (const JoinPair& p : result.pairs) {
    const auto it =
        index_of.find((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
    ASSERT_NE(it, index_of.end()) << "sampled pair not in the join result";
    ++counts[it->second];
  }
  const std::vector<double> probs(all_pairs.size(),
                                  1.0 / static_cast<double>(all_pairs.size()));
  iqs::testing::ExpectDistributionClose(counts, probs);
}

uint64_t NestedLoopJoin(const std::vector<Rect>& r, const std::vector<Rect>& s,
                        std::vector<JoinPair>* out) {
  out->clear();
  for (uint32_t i = 0; i < r.size(); ++i) {
    for (uint32_t j = 0; j < s.size(); ++j) {
      if (r[i].Intersects(s[j])) out->push_back({i, j});
    }
  }
  return out->size();
}

TEST(JoinEnumerator, MatchesNestedLoop) {
  Rng rng(7001);
  for (int round = 0; round < 20; ++round) {
    const size_t nr = 1 + rng.Below(40);
    const size_t ns = 1 + rng.Below(40);
    const std::vector<Rect> r = RandomRects(nr, 100.0, 30.0, &rng);
    const std::vector<Rect> s = RandomRects(ns, 100.0, 30.0, &rng);
    std::vector<JoinPair> expected;
    NestedLoopJoin(r, s, &expected);
    std::vector<JoinPair> got;
    EXPECT_EQ(EnumerateJoinPairs(r, s, &got), expected.size());
    auto key = [](const JoinPair& p) {
      return (static_cast<uint64_t>(p.r_id) << 32) | p.s_id;
    };
    auto by_key = [&key](const JoinPair& a, const JoinPair& b) {
      return key(a) < key(b);
    };
    std::sort(expected.begin(), expected.end(), by_key);
    std::sort(got.begin(), got.end(), by_key);
    EXPECT_EQ(got, expected);
  }
}

TEST(JoinEnumerator, TouchingEdgesJoin) {
  // Closed rectangles: sharing only an edge point still intersects.
  const std::vector<Rect> r = {Rect{0.0, 1.0, 0.0, 1.0}};
  const std::vector<Rect> s = {Rect{1.0, 2.0, 1.0, 2.0},   // corner touch
                               Rect{1.0, 2.0, 0.25, 0.5},  // x-edge touch
                               Rect{2.0, 3.0, 0.0, 1.0}};  // disjoint
  std::vector<JoinPair> pairs;
  EXPECT_EQ(EnumerateJoinPairs(r, s, &pairs), 2u);
}

TEST(JoinSampler, JoinSizeMatchesEnumeration) {
  // Random sizes and seeds, continuous and integer-grid coordinates, so
  // both tie-free and tie-heavy inputs (and trees of every leaf count,
  // power of two or not) are covered.
  for (uint64_t seed = 7002; seed < 7014; ++seed) {
    Rng rng(seed);
    const size_t nr = 1 + rng.Below(120);
    const size_t ns = 1 + rng.Below(120);
    const bool grid = seed % 2 == 0;
    const std::vector<Rect> r = grid ? GridRects(nr, 12, 4, &rng)
                                     : RandomRects(nr, 200.0, 40.0, &rng);
    const std::vector<Rect> s = grid ? GridRects(ns, 12, 4, &rng)
                                     : RandomRects(ns, 200.0, 40.0, &rng);
    const JoinSampler sampler(r, s);
    EXPECT_EQ(sampler.JoinSize(), EnumerateJoin(r, s, nullptr, nullptr))
        << "seed " << seed;
  }
  for (const JoinCase& c : TieCases()) {
    const JoinSampler sampler(c.r, c.s);
    EXPECT_EQ(sampler.JoinSize(), EnumerateJoin(c.r, c.s, nullptr, nullptr))
        << c.name;
  }
}

TEST(JoinSampler, EmptyJoinResolvesNothing) {
  // x-disjoint relations: no pair joins.
  const std::vector<Rect> r = {Rect{0.0, 1.0, 0.0, 10.0},
                               Rect{2.0, 3.0, 0.0, 10.0}};
  const std::vector<Rect> s = {Rect{5.0, 6.0, 0.0, 10.0}};
  const JoinSampler sampler(r, s);
  EXPECT_EQ(sampler.JoinSize(), 0u);

  const std::vector<JoinBatchQuery> queries = {{8}, {0}, {3}};
  Rng rng(1);
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, &result);
  ASSERT_EQ(result.num_queries(), 3u);
  for (size_t q = 0; q < 3; ++q) {
    EXPECT_EQ(result.resolved[q], 0u);
    EXPECT_TRUE(result.SamplesFor(q).empty());
  }
  EXPECT_TRUE(result.pairs.empty());
}

TEST(JoinSampler, EmptyRelation) {
  const std::vector<Rect> r;
  const std::vector<Rect> s = {Rect{0.0, 1.0, 0.0, 1.0}};
  const JoinSampler sampler(r, s);
  EXPECT_EQ(sampler.JoinSize(), 0u);
  const std::vector<JoinBatchQuery> queries = {{5}};
  Rng rng(1);
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, &result);
  EXPECT_EQ(result.resolved[0], 0u);
}

TEST(JoinSampler, PairsAreValidAndBudgetsHonored) {
  Rng rng(7003);
  const std::vector<Rect> r = RandomRects(80, 100.0, 25.0, &rng);
  const std::vector<Rect> s = RandomRects(90, 100.0, 25.0, &rng);
  const JoinSampler sampler(r, s);
  ASSERT_GT(sampler.JoinSize(), 0u);

  const std::vector<JoinBatchQuery> queries = {{17}, {0}, {256}, {1}};
  ScratchArena arena;
  JoinBatchResult result;
  sampler.SampleJoinBatch(queries, &rng, &arena, &result);
  ASSERT_EQ(result.num_queries(), queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(result.resolved[q], 1u);
    const auto slice = result.SamplesFor(q);
    ASSERT_EQ(slice.size(), queries[q].s);
    for (const JoinPair& p : slice) {
      ASSERT_LT(p.r_id, r.size());
      ASSERT_LT(p.s_id, s.size());
      EXPECT_TRUE(r[p.r_id].Intersects(s[p.s_id]))
          << "sampled pair does not join";
    }
  }
}

// The law: every pair of J equally likely, across queries of one batch.
TEST(JoinSampler, UniformOverJoinResultChiSquare) {
  Rng rng(7004);
  const std::vector<Rect> r = RandomRects(24, 60.0, 25.0, &rng);
  const std::vector<Rect> s = RandomRects(24, 60.0, 25.0, &rng);
  const JoinSampler sampler(r, s);
  ASSERT_GT(sampler.JoinSize(), 20u);
  ExpectUniformOverJoin(r, s, sampler, 400 * sampler.JoinSize(), 0, &rng);
}

// Same law through the parallel executor path.
TEST(JoinSampler, UniformOverJoinResultChiSquareParallel) {
  Rng rng(7005);
  const std::vector<Rect> r = RandomRects(20, 60.0, 25.0, &rng);
  const std::vector<Rect> s = RandomRects(20, 60.0, 25.0, &rng);
  const JoinSampler sampler(r, s);
  ASSERT_GT(sampler.JoinSize(), 10u);
  ExpectUniformOverJoin(r, s, sampler, 300 * sampler.JoinSize(), 3, &rng);
}

// Same law on tie-heavy inputs, in every executor mode.
TEST(JoinSampler, UniformOverJoinResultChiSquareWithTies) {
  Rng rng(7011);
  for (const JoinCase& c : TieCases()) {
    const JoinSampler sampler(c.r, c.s);
    for (const size_t threads : {0u, 1u, 3u}) {
      SCOPED_TRACE(c.name + " threads " + std::to_string(threads));
      ExpectUniformOverJoin(c.r, c.s, sampler, 300 * sampler.JoinSize(),
                            threads, &rng);
    }
  }
}

// The brute-force baseline obeys the same law (it is the E26 comparator,
// so its correctness matters too).
TEST(JoinEnumerator, BruteForceSampleUniformChiSquare) {
  Rng rng(7006);
  const std::vector<Rect> r = RandomRects(16, 50.0, 20.0, &rng);
  const std::vector<Rect> s = RandomRects(16, 50.0, 20.0, &rng);
  std::vector<JoinPair> all_pairs;
  EnumerateJoinPairs(r, s, &all_pairs);
  ASSERT_GT(all_pairs.size(), 10u);
  std::map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < all_pairs.size(); ++i) {
    index_of[(static_cast<uint64_t>(all_pairs[i].r_id) << 32) |
             all_pairs[i].s_id] = i;
  }
  std::vector<JoinPair> sample;
  BruteForceJoinSample(r, s, 300 * all_pairs.size(), &rng, &sample);
  std::vector<uint64_t> counts(all_pairs.size(), 0);
  for (const JoinPair& p : sample) {
    const auto it =
        index_of.find((static_cast<uint64_t>(p.r_id) << 32) | p.s_id);
    ASSERT_NE(it, index_of.end());
    ++counts[it->second];
  }
  const std::vector<double> probs(all_pairs.size(),
                                  1.0 / static_cast<double>(all_pairs.size()));
  iqs::testing::ExpectDistributionClose(counts, probs);
}

// Fixed seed + fixed inputs => byte-identical output, and the parallel
// mode is bit-identical for EVERY thread count (the executor's per-query
// substream contract, inherited through ExecuteOverSampler).
TEST(JoinSampler, ByteIdenticalAcrossThreadCounts) {
  Rng data_rng(7007);
  const std::vector<Rect> r = RandomRects(150, 150.0, 30.0, &data_rng);
  const std::vector<Rect> s = RandomRects(140, 150.0, 30.0, &data_rng);
  const JoinSampler sampler(r, s);
  ASSERT_GT(sampler.JoinSize(), 0u);
  const std::vector<JoinBatchQuery> queries = {{64}, {1}, {0}, {1000}, {7}};

  JoinBatchResult reference;
  {
    Rng rng(0xfeed);
    BatchOptions opts;
    opts.num_threads = 1;
    ScratchArena arena;
    sampler.SampleJoinBatch(queries, &rng, &arena, opts, &reference);
  }
  for (const size_t threads : {2u, 7u}) {
    Rng rng(0xfeed);
    BatchOptions opts;
    opts.num_threads = threads;
    ScratchArena arena;
    JoinBatchResult result;
    sampler.SampleJoinBatch(queries, &rng, &arena, opts, &result);
    EXPECT_EQ(result.pairs, reference.pairs) << "threads " << threads;
    EXPECT_EQ(result.offsets, reference.offsets);
    EXPECT_EQ(result.resolved, reference.resolved);
  }
}

TEST(JoinSampler, SequentialModeDeterministic) {
  Rng data_rng(7008);
  const std::vector<Rect> r = RandomRects(60, 80.0, 25.0, &data_rng);
  const std::vector<Rect> s = RandomRects(60, 80.0, 25.0, &data_rng);
  const JoinSampler sampler(r, s);
  const std::vector<JoinBatchQuery> queries = {{33}, {12}};

  JoinBatchResult a, b;
  for (JoinBatchResult* out : {&a, &b}) {
    Rng rng(42);
    ScratchArena arena;
    sampler.SampleJoinBatch(queries, &rng, &arena, out);
  }
  EXPECT_EQ(a.pairs, b.pairs);
  EXPECT_EQ(a.offsets, b.offsets);
}

// The sampler is immutable: threads sharing one const sampler, each with
// its own Rng, arena and result, get exactly their serial outputs.
TEST(JoinSampler, ConcurrentBatchesMatchSerial) {
  Rng data_rng(7012);
  const std::vector<Rect> r = RandomRects(300, 200.0, 30.0, &data_rng);
  const std::vector<Rect> s = RandomRects(280, 200.0, 30.0, &data_rng);
  const JoinSampler sampler(r, s);
  ASSERT_GT(sampler.JoinSize(), 0u);
  const std::vector<JoinBatchQuery> queries = {{500}, {3}, {0}, {64}};
  constexpr size_t kThreads = 4;
  constexpr int kRounds = 5;

  std::vector<JoinBatchResult> serial(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    Rng rng(900 + t);
    ScratchArena arena;
    for (int round = 0; round < kRounds; ++round) {
      sampler.SampleJoinBatch(queries, &rng, &arena, &serial[t]);
    }
  }

  std::vector<JoinBatchResult> concurrent(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(900 + t);
      ScratchArena arena;
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (int round = 0; round < kRounds; ++round) {
        sampler.SampleJoinBatch(queries, &rng, &arena, &concurrent[t]);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(concurrent[t].pairs, serial[t].pairs) << "thread " << t;
    EXPECT_EQ(concurrent[t].offsets, serial[t].offsets) << "thread " << t;
    EXPECT_EQ(concurrent[t].resolved, serial[t].resolved) << "thread " << t;
  }
}

TEST(JoinSamplerDeathTest, RejectsMalformedRects) {
  const std::vector<Rect> good = {Rect{0.0, 1.0, 0.0, 1.0}};
  const std::vector<Rect> inverted_x = {Rect{2.0, 1.0, 0.0, 1.0}};
  const std::vector<Rect> inverted_y = {Rect{0.0, 1.0, 3.0, 1.0}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Rect> nan_coord = {Rect{0.0, 1.0, nan, 1.0}};
  EXPECT_DEATH(JoinSampler(inverted_x, good), "x_lo <= rect.x_hi");
  EXPECT_DEATH(JoinSampler(good, inverted_y), "y_lo <= rect.y_hi");
  EXPECT_DEATH(JoinSampler(good, nan_coord), "y_lo <= rect.y_hi");
}

TEST(JoinSampler, MemoryBytesAccounted) {
  Rng rng(7009);
  const std::vector<Rect> r = RandomRects(64, 100.0, 20.0, &rng);
  const std::vector<Rect> s = RandomRects(64, 100.0, 20.0, &rng);
  const JoinSampler sampler(r, s);
  // Every rectangle sits in about log n lists of its relation's tree,
  // plus its ranks and alias urn.
  EXPECT_GT(sampler.MemoryBytes(), 128u * 8 * sizeof(uint32_t));
}

}  // namespace
}  // namespace iqs::join
