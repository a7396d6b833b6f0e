// Point-region quadtree with cover finding and IQS sampling — the
// structure through which Looz & Meyerhenke first brought tree sampling to
// 2-d range sampling (paper Section 3.2 remark), here upgraded to the
// Theorem-5 engine so a query costs O(cover + s) instead of paying a
// log factor per sample.
//
// Built by in-place quadrant partitioning: each node's points occupy a
// contiguous run of the internal array, so covers are CoverRange lists.

#ifndef IQS_MULTIDIM_QUADTREE_H_
#define IQS_MULTIDIM_QUADTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "iqs/cover/coverage_engine.h"
#include "iqs/multidim/multidim_batch.h"
#include "iqs/multidim/point.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::multidim {

class Quadtree {
 public:
  // `weights` parallel to `points`; pass {} for unit weights.
  // `leaf_capacity` bounds points per leaf (>= 1); `max_depth` guards
  // against coincident points.
  Quadtree(std::span<const Point2> points, std::span<const double> weights,
           size_t leaf_capacity = 4, int max_depth = 32);

  size_t n() const { return points_.size(); }
  const Point2& PointAt(size_t position) const { return points_[position]; }
  double WeightAt(size_t position) const { return weights_[position]; }
  const std::vector<double>& position_weights() const { return weights_; }

  // Exact cover of rectangle q (disjoint ranges, union exactly S ∩ q).
  void CoverQuery(const Rect& q, std::vector<CoverRange>* cover) const;

  // Reporting query, for oracles.
  void Report(const Rect& q, std::vector<size_t>* out) const;

  size_t num_nodes() const { return nodes_.size(); }

  size_t MemoryBytes() const {
    return points_.capacity() * sizeof(Point2) +
           weights_.capacity() * sizeof(double) +
           nodes_.capacity() * sizeof(Node);
  }

 private:
  struct Node {
    Rect box;
    double weight = 0.0;
    uint32_t lo = 0;
    uint32_t hi = 0;
    uint32_t children[4] = {kNull, kNull, kNull, kNull};
    bool is_leaf = true;
  };
  static constexpr uint32_t kNull = ~uint32_t{0};

  uint32_t Build(size_t lo, size_t hi, const Rect& box, int depth);

  size_t leaf_capacity_;
  int max_depth_;
  std::vector<Point2> points_;
  std::vector<double> weights_;
  std::vector<Node> nodes_;
};

// Theorem-5 IQS wrapper over the quadtree.
class QuadtreeSampler {
 public:
  QuadtreeSampler(std::span<const Point2> points,
                  std::span<const double> weights, size_t leaf_capacity = 4)
      : tree_(points, weights, leaf_capacity),
        engine_(tree_.position_weights()) {}

  // Draws `s` independent weighted samples from S ∩ q; false if empty.
  bool QueryRect(const Rect& q, size_t s, Rng* rng,
                 std::vector<Point2>* out) const;

  // Batched serving fast path — one CoverExecutor run over the whole
  // batch; see KdTreeSampler::QueryBatch. Canonical order
  // (queries, rng, arena, opts, &result); opts decides where the
  // executor's blocks run, never the output (see BatchOptions).
  void QueryBatch(std::span<const RectBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  PointBatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const RectBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, PointBatchResult* result) const;

  const Quadtree& tree() const { return tree_; }

  size_t MemoryBytes() const {
    return tree_.MemoryBytes() + engine_.MemoryBytes();
  }

 private:
  Quadtree tree_;
  CoverageEngine engine_;
};

}  // namespace iqs::multidim

#endif  // IQS_MULTIDIM_QUADTREE_H_
