// 2-d range tree with IQS sampling (paper Sections 3.2 and 5).
//
// Primary tree over x (balanced, built on the x-sorted order); every
// primary node stores its points sorted by y together with weight prefix
// sums and a Theorem-3 chunked sampler over that y-order. Space
// O(n log n) — each point appears in the secondary structure of its
// O(log n) ancestors, matching the paper's bound for d = 2.
//
// A rectangle query finds the O(log n) canonical x-nodes and narrows each
// to a contiguous y-run. Per the paper's footnote 5, the y-runs are
// located by FRACTIONAL CASCADING: one binary search at the root, then
// O(1) bridge lookups per visited node (each node stores, per merged
// y-position, how many of the preceding entries came from its left
// child). The budget is split multinomially and each active run sampled
// through the node's chunked sampler. This is the structure the paper
// attributes to Martinez [20] upgraded by Theorem 5 + footnote 5:
// O(log n) cover finding instead of O(log² n) (our Lemma-4 substitute
// still adds O(log n) per *active run*; see DESIGN.md 2.4).

#ifndef IQS_MULTIDIM_RANGE_TREE_H_
#define IQS_MULTIDIM_RANGE_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "iqs/multidim/multidim_batch.h"
#include "iqs/multidim/point.h"
#include "iqs/util/batch_options.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::multidim {

class RangeTree2DSampler {
 public:
  // `weights` parallel to `points`; {} for unit weights. Build
  // O(n log² n) time, O(n log n) space. `leaf_size` caps primary-leaf
  // width (larger leaves trade query constants for space).
  RangeTree2DSampler(std::span<const Point2> points,
                     std::span<const double> weights, size_t leaf_size = 16);

  // Draws `s` independent weighted samples from S ∩ q, appending points
  // to `out`; false when the rectangle holds no point.
  bool QueryRect(const Rect& q, size_t s, Rng* rng,
                 std::vector<Point2>* out) const;

  // Batched serving fast path (mirrors RangeSampler::QueryBatch). All
  // queries' pieces are enumerated into one CoverPlan; the CoverExecutor
  // performs the multinomial splits, then the per-group draws are
  // coalesced BY SECONDARY NODE so pieces of different queries that land
  // in the same node's y-structure share one chunked batched call (and
  // its cross-query prefetch pipeline). The coalesced node runs are the
  // items of the executor's block contract: blocks of runs draw from
  // their own substreams, inline or pooled per opts, with output
  // byte-identical for every num_threads (see BatchOptions).
  // Canonical order (queries, rng, arena, opts, &result).
  void QueryBatch(std::span<const RectBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  PointBatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const RectBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, PointBatchResult* result) const;

  // Reporting oracle for tests.
  void Report(const Rect& q, std::vector<size_t>* out) const;

  size_t n() const { return points_by_x_.size(); }
  const Point2& PointById(size_t id) const { return points_by_x_[id]; }

  size_t MemoryBytes() const;

 private:
  struct Node {
    uint32_t x_lo = 0;
    uint32_t x_hi = 0;  // inclusive x-order positions
    uint32_t left = kNull;
    uint32_t right = kNull;
    // Points below this node, sorted by y. ids index points_by_x_.
    std::vector<uint32_t> ids_by_y;
    std::vector<double> y_sorted_ys;       // y values (root binary search)
    std::vector<double> weight_prefix;     // prefix sums of y-order weights
    // Fractional cascading bridge: bridge_left[i] = how many of the first
    // i merged y-entries belong to the left child (empty at leaves).
    std::vector<uint32_t> bridge_left;
    std::unique_ptr<ChunkedRangeSampler> sampler;
  };
  static constexpr uint32_t kNull = ~uint32_t{0};

  uint32_t Build(size_t lo, size_t hi);

  // A query piece: node + y-run [y_a, y_b] in that node's y-order.
  struct Piece {
    uint32_t node;
    uint32_t y_a;
    uint32_t y_b;
    double weight;
  };
  // Canonical descent carrying the half-open y-index range [ya, yb) per
  // node via the cascading bridges; [a, b] is the inclusive x-range.
  void CollectPieces(const Rect& q, size_t a, size_t b,
                     std::vector<Piece>* pieces) const;

  // Resolves the query's x-interval to inclusive x-order positions.
  bool ResolveX(const Rect& q, size_t* a, size_t* b) const;

  size_t leaf_size_;
  std::vector<Point2> points_by_x_;  // x-sorted; "id" = x-order position
  std::vector<double> weights_by_x_;
  std::vector<Node> nodes_;
};

}  // namespace iqs::multidim

#endif  // IQS_MULTIDIM_RANGE_TREE_H_
