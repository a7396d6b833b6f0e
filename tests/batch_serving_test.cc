// Tests for the batched query-serving fast path: QueryBatch /
// QueryPositionsBatch structure, the zero-steady-state-allocation arena
// contract, and — most importantly — chi-square evidence (alpha 1e-6, per
// test_util.h conventions) that the batched multinomial/grouped path draws
// from exactly the same per-query distribution as the single-query
// per-sample path, on uniform, Zipf, and clustered workloads.

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/multidim/kd_sampler.h"
#include "iqs/multidim/multidim_batch.h"
#include "iqs/multidim/quadtree.h"
#include "iqs/multidim/range_tree.h"
#include "iqs/range/aug_range_sampler.h"
#include "iqs/range/bst_range_sampler.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "test_util.h"

namespace iqs {
namespace {

enum class SamplerKind { kBst, kAug, kChunked };
enum class Workload { kUniform, kZipf, kClustered };

std::unique_ptr<RangeSampler> MakeSampler(SamplerKind kind,
                                          const std::vector<double>& keys,
                                          const std::vector<double>& weights) {
  switch (kind) {
    case SamplerKind::kBst:
      return std::make_unique<BstRangeSampler>(keys, weights);
    case SamplerKind::kAug:
      return std::make_unique<AugRangeSampler>(keys, weights);
    case SamplerKind::kChunked:
      return std::make_unique<ChunkedRangeSampler>(keys, weights);
  }
  return nullptr;
}

struct Data {
  std::vector<double> keys;
  std::vector<double> weights;
};

Data MakeWorkload(Workload workload, size_t n, Rng* rng) {
  switch (workload) {
    case Workload::kUniform:
      return {UniformKeys(n, rng), std::vector<double>(n, 1.0)};
    case Workload::kZipf:
      return {UniformKeys(n, rng), ZipfWeights(n, 1.0, rng)};
    case Workload::kClustered:
      return {ClusteredKeys(n, 5, rng), ZipfWeights(n, 0.5, rng)};
  }
  return {};
}

// Restricts `weights` to [a, b], zero elsewhere — the expected per-draw
// law for any range query over [a, b].
std::vector<double> RangeWeights(const std::vector<double>& weights, size_t a,
                                 size_t b) {
  std::vector<double> restricted(weights.size(), 0.0);
  for (size_t i = a; i <= b; ++i) restricted[i] = weights[i];
  return restricted;
}

class BatchEquivalence
    : public ::testing::TestWithParam<std::tuple<SamplerKind, Workload>> {};

TEST_P(BatchEquivalence, BatchedAndSinglePathsDrawSameDistribution) {
  const auto [kind, workload] = GetParam();
  Rng data_rng(101);
  const size_t n = 1500;
  const Data data = MakeWorkload(workload, n, &data_rng);
  const auto sampler = MakeSampler(kind, data.keys, data.weights);

  // One awkward range (straddles chunk boundaries and forces a multi-node
  // cover) exercised heavily by both paths.
  const size_t a = 137;
  const size_t b = 1201;
  const size_t s = 96;
  const size_t rounds = 1500;

  Rng single_rng(7);
  std::vector<size_t> single_samples;
  for (size_t round = 0; round < rounds; ++round) {
    sampler->QueryPositions(a, b, s, &single_rng, &single_samples);
  }

  Rng batch_rng(8);
  ScratchArena arena;
  std::vector<size_t> batch_samples;
  std::vector<PositionQuery> queries(8, PositionQuery{a, b, s});
  for (size_t round = 0; round < rounds / queries.size(); ++round) {
    sampler->QueryPositionsBatch(queries, &batch_rng, &arena,
                                 &batch_samples);
    arena.Reset();
  }

  const std::vector<double> expected = RangeWeights(data.weights, a, b);
  testing::ExpectSamplesMatchWeights(single_samples, expected);
  testing::ExpectSamplesMatchWeights(batch_samples, expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllSamplersAllWorkloads, BatchEquivalence,
    ::testing::Combine(::testing::Values(SamplerKind::kBst, SamplerKind::kAug,
                                         SamplerKind::kChunked),
                       ::testing::Values(Workload::kUniform, Workload::kZipf,
                                         Workload::kClustered)));

class SingleQueryPath : public ::testing::TestWithParam<SamplerKind> {};

TEST_P(SingleQueryPath, QueryEqualsOneQueryBatchUnderSameSeed) {
  // Query() has no kernel of its own: it is a one-query batch, so under
  // the same seed it must emit exactly the batch's bytes and leave the
  // caller's stream in the same state.
  Rng data_rng(103);
  const Data data = MakeWorkload(Workload::kZipf, 1500, &data_rng);
  const auto sampler = MakeSampler(GetParam(), data.keys, data.weights);
  const std::vector<BatchQuery> queries = {
      {data.keys[137], data.keys[1201], 96},
      {data.keys[5], data.keys[9], 1},
      {data.keys[400], data.keys[400], 7},
      {data.keys[0], data.keys[1499], 3000}};  // several executor blocks
  for (const BatchQuery& q : queries) {
    Rng single_rng(55);
    std::vector<size_t> single;
    ASSERT_TRUE(sampler->Query(q.lo, q.hi, q.s, &single_rng, &single));
    Rng batch_rng(55);
    ScratchArena arena;
    BatchResult result;
    sampler->QueryBatch(std::span<const BatchQuery>(&q, 1), &batch_rng,
                        &arena, &result);
    EXPECT_EQ(single, result.positions) << sampler->name() << " s=" << q.s;
    EXPECT_EQ(single_rng.Next64(), batch_rng.Next64()) << sampler->name();
  }
}

INSTANTIATE_TEST_SUITE_P(BstAugChunked, SingleQueryPath,
                         ::testing::Values(SamplerKind::kBst,
                                           SamplerKind::kAug,
                                           SamplerKind::kChunked));

TEST(QueryBatchTest, FlatResultSlicesMatchQueries) {
  Rng rng(1);
  const size_t n = 512;
  const auto keys = UniformKeys(n, &rng);
  const std::vector<double> weights(n, 1.0);
  const AugRangeSampler sampler(keys, weights);

  // Mix of resolvable queries, an empty interval, and s == 0.
  const std::vector<BatchQuery> queries = {
      {keys[10], keys[200], 32},
      {keys[300] + 1e-12, keys[300] + 2e-12, 16},  // empty: between keys
      {keys[0], keys[n - 1], 8},
      {keys[50], keys[60], 0},
  };
  ScratchArena arena;
  BatchResult result;
  Rng qrng(2);
  sampler.QueryBatch(queries, &qrng, &arena, &result);

  ASSERT_EQ(result.num_queries(), queries.size());
  EXPECT_EQ(result.resolved[0], 1);
  EXPECT_EQ(result.resolved[1], 0);
  EXPECT_EQ(result.resolved[2], 1);
  EXPECT_EQ(result.resolved[3], 1);
  EXPECT_EQ(result.SamplesFor(0).size(), 32u);
  EXPECT_EQ(result.SamplesFor(1).size(), 0u);
  EXPECT_EQ(result.SamplesFor(2).size(), 8u);
  EXPECT_EQ(result.SamplesFor(3).size(), 0u);
  EXPECT_EQ(result.positions.size(), 40u);
  for (const size_t p : result.SamplesFor(0)) {
    EXPECT_GE(p, 10u);
    EXPECT_LE(p, 200u);
  }
  for (const size_t p : result.SamplesFor(2)) EXPECT_LT(p, n);
}

TEST(QueryBatchTest, SteadyStateMakesNoArenaAllocations) {
  Rng rng(3);
  const size_t n = 4096;
  const auto keys = UniformKeys(n, &rng);
  const auto weights = ZipfWeights(n, 1.0, &rng);
  const ChunkedRangeSampler sampler(keys, weights);

  std::vector<BatchQuery> queries;
  for (int i = 0; i < 64; ++i) {
    const auto [lo, hi] = IntervalWithSelectivity(keys, 700, &rng);
    queries.push_back({lo, hi, 64});
  }
  ScratchArena arena;
  BatchResult result;
  Rng qrng(4);
  sampler.QueryBatch(queries, &qrng, &arena, &result);  // warm-up growth
  sampler.QueryBatch(queries, &qrng, &arena, &result);  // coalesce
  const size_t warm_blocks = arena.blocks_allocated();
  for (int round = 0; round < 20; ++round) {
    sampler.QueryBatch(queries, &qrng, &arena, &result);
  }
  EXPECT_EQ(arena.blocks_allocated(), warm_blocks)
      << "batched serving must be allocation-free in steady state";
}

TEST(QueryBatchTest, BatchDrawsAreIndependentAcrossQueries) {
  // Two identical queries in one batch must not be correlated: the
  // fraction of rounds where both queries pick the same position matches
  // the collision probability of independent draws.
  Rng rng(5);
  const size_t n = 64;
  const auto keys = UniformKeys(n, &rng);
  const std::vector<double> weights(n, 1.0);
  const BstRangeSampler sampler(keys, weights);

  const std::vector<BatchQuery> queries = {{keys[0], keys[n - 1], 1},
                                           {keys[0], keys[n - 1], 1}};
  ScratchArena arena;
  BatchResult result;
  Rng qrng(6);
  int collisions = 0;
  const int rounds = 60000;
  for (int round = 0; round < rounds; ++round) {
    sampler.QueryBatch(queries, &qrng, &arena, &result);
    collisions +=
        result.SamplesFor(0)[0] == result.SamplesFor(1)[0] ? 1 : 0;
  }
  // Collision probability for two independent uniform draws over n values
  // is 1/n; 5-sigma band at rounds trials.
  const double expect = static_cast<double>(rounds) / n;
  const double sigma = std::sqrt(expect * (1.0 - 1.0 / n));
  EXPECT_NEAR(static_cast<double>(collisions), expect, 5 * sigma);
}

// ---------------------------------------------------------------------------
// Multidim QueryBatch: the 2-d samplers now serve batches through the same
// CoverExecutor layer; per-query law must match the single-query path.

std::vector<multidim::Point2> RandomPoints(size_t n, Rng* rng) {
  std::vector<multidim::Point2> points(n);
  for (auto& p : points) {
    p.x = rng->NextDouble();
    p.y = rng->NextDouble();
  }
  return points;
}

// Chi-square batch-vs-single equivalence for any sampler exposing
// QueryRect + QueryBatch over Point2 results.
template <typename Sampler>
void ExpectRectBatchEquivalence(const Sampler& sampler,
                                const std::vector<multidim::Point2>& points,
                                const std::vector<double>& weights,
                                const multidim::Rect& rect, uint64_t seed) {
  const size_t n = points.size();
  std::map<std::pair<double, double>, size_t> index;
  for (size_t i = 0; i < n; ++i) index[{points[i].x, points[i].y}] = i;
  std::vector<double> expected(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (rect.Contains(points[i])) expected[i] = weights[i];
  }

  const size_t s = 64;
  const size_t rounds = 1200;
  Rng single_rng(seed);
  std::vector<multidim::Point2> single;
  for (size_t round = 0; round < rounds; ++round) {
    ASSERT_TRUE(sampler.QueryRect(rect, s, &single_rng, &single));
  }

  Rng batch_rng(seed + 1);
  ScratchArena arena;
  multidim::PointBatchResult result;
  const std::vector<multidim::RectBatchQuery> queries(
      8, multidim::RectBatchQuery{rect, s});
  std::vector<size_t> batch_ids;
  for (size_t round = 0; round < rounds / queries.size(); ++round) {
    sampler.QueryBatch(queries, &batch_rng, &arena, &result);
    ASSERT_EQ(result.points.size(), queries.size() * s);
    for (const auto& p : result.points) {
      batch_ids.push_back(index.at({p.x, p.y}));
    }
  }
  std::vector<size_t> single_ids;
  single_ids.reserve(single.size());
  for (const auto& p : single) single_ids.push_back(index.at({p.x, p.y}));

  testing::ExpectSamplesMatchWeights(single_ids, expected);
  testing::ExpectSamplesMatchWeights(batch_ids, expected);
}

TEST(MultidimBatchTest, KdTreeBatchMatchesSingleQueryLaw) {
  Rng rng(21);
  const size_t n = 600;
  const auto points = RandomPoints(n, &rng);
  const auto weights = ZipfWeights(n, 1.0, &rng);
  const multidim::KdTreeSampler sampler(points, weights);
  const multidim::Rect rect{0.15, 0.85, 0.2, 0.9};
  ExpectRectBatchEquivalence(sampler, points, weights, rect, 22);
}

TEST(MultidimBatchTest, QuadtreeBatchMatchesSingleQueryLaw) {
  Rng rng(23);
  const size_t n = 600;
  const auto points = RandomPoints(n, &rng);
  const auto weights = ZipfWeights(n, 0.5, &rng);
  const multidim::QuadtreeSampler sampler(points, weights);
  const multidim::Rect rect{0.1, 0.7, 0.25, 0.95};
  ExpectRectBatchEquivalence(sampler, points, weights, rect, 24);
}

TEST(MultidimBatchTest, RangeTreeBatchMatchesSingleQueryLaw) {
  Rng rng(25);
  const size_t n = 600;
  const auto points = RandomPoints(n, &rng);
  const auto weights = ZipfWeights(n, 1.0, &rng);
  const multidim::RangeTree2DSampler sampler(points, weights);
  const multidim::Rect rect{0.2, 0.8, 0.1, 0.75};
  ExpectRectBatchEquivalence(sampler, points, weights, rect, 26);
}

TEST(MultidimBatchTest, BatchHandlesEmptyAndZeroSampleQueries) {
  Rng rng(27);
  const auto points = RandomPoints(300, &rng);
  const multidim::KdTreeSampler sampler(points, {});
  const std::vector<multidim::RectBatchQuery> queries = {
      {multidim::Rect{0.0, 1.0, 0.0, 1.0}, 16},
      {multidim::Rect{2.0, 3.0, 2.0, 3.0}, 8},  // off the point cloud
      {multidim::Rect{0.0, 1.0, 0.0, 1.0}, 0},
  };
  ScratchArena arena;
  multidim::PointBatchResult result;
  Rng qrng(28);
  sampler.QueryBatch(queries, &qrng, &arena, &result);
  ASSERT_EQ(result.num_queries(), 3u);
  EXPECT_EQ(result.resolved[0], 1);
  EXPECT_EQ(result.resolved[1], 0);
  EXPECT_EQ(result.resolved[2], 1);
  EXPECT_EQ(result.SamplesFor(0).size(), 16u);
  EXPECT_EQ(result.SamplesFor(1).size(), 0u);
  EXPECT_EQ(result.SamplesFor(2).size(), 0u);
}

TEST(MultidimBatchTest, BatchDrawsAreIndependentAcrossQueries) {
  // Two identical single-draw rect queries in one batch: collision rate
  // must match independent uniform draws (1/n), as in the 1-d test above.
  Rng rng(29);
  const size_t n = 64;
  const auto points = RandomPoints(n, &rng);
  const multidim::KdTreeSampler sampler(points, {});
  std::map<std::pair<double, double>, size_t> index;
  for (size_t i = 0; i < n; ++i) index[{points[i].x, points[i].y}] = i;

  const multidim::Rect all{0.0, 1.0, 0.0, 1.0};
  const std::vector<multidim::RectBatchQuery> queries = {{all, 1}, {all, 1}};
  ScratchArena arena;
  multidim::PointBatchResult result;
  Rng qrng(30);
  int collisions = 0;
  const int rounds = 60000;
  for (int round = 0; round < rounds; ++round) {
    sampler.QueryBatch(queries, &qrng, &arena, &result);
    const auto a = result.SamplesFor(0)[0];
    const auto b = result.SamplesFor(1)[0];
    collisions += (index.at({a.x, a.y}) == index.at({b.x, b.y})) ? 1 : 0;
  }
  const double expect = static_cast<double>(rounds) / n;
  const double sigma = std::sqrt(expect * (1.0 - 1.0 / n));
  EXPECT_NEAR(static_cast<double>(collisions), expect, 5 * sigma);
}

TEST(MultidimBatchTest, SteadyStateMakesNoArenaAllocations) {
  Rng rng(31);
  const size_t n = 2048;
  const auto points = RandomPoints(n, &rng);
  const auto weights = ZipfWeights(n, 1.0, &rng);
  const multidim::KdTreeSampler kd(points, weights);
  const multidim::RangeTree2DSampler rtree(points, weights);

  std::vector<multidim::RectBatchQuery> queries;
  for (int i = 0; i < 32; ++i) {
    const double x = rng.NextDouble() * 0.5;
    const double y = rng.NextDouble() * 0.5;
    queries.push_back({multidim::Rect{x, x + 0.4, y, y + 0.4}, 48});
  }
  ScratchArena arena;
  multidim::PointBatchResult result;
  Rng qrng(32);
  for (int round = 0; round < 3; ++round) {  // warm-up growth + coalesce
    kd.QueryBatch(queries, &qrng, &arena, &result);
    rtree.QueryBatch(queries, &qrng, &arena, &result);
  }
  const size_t warm_blocks = arena.blocks_allocated();
  for (int round = 0; round < 20; ++round) {
    kd.QueryBatch(queries, &qrng, &arena, &result);
    rtree.QueryBatch(queries, &qrng, &arena, &result);
  }
  EXPECT_EQ(arena.blocks_allocated(), warm_blocks)
      << "multidim batched serving must be allocation-free in steady state";
}

}  // namespace
}  // namespace iqs
