// IQS over a kd-tree (paper Section 5, Theorem 5 instantiated): O(n)
// space, O(sqrt n + s) query for 2-d weighted rectangle sampling —
// the structure the paper credits to Xie et al. [27], improving the
// quadtree result of Looz & Meyerhenke [24].
//
// Also exposes the disk variants: exact-cover sampling and the Theorem-6
// approximate-cover + rejection path, plus the r-fair nearest neighbor
// query of Section 2 (an IQS disk query with s = 1).

#ifndef IQS_MULTIDIM_KD_SAMPLER_H_
#define IQS_MULTIDIM_KD_SAMPLER_H_

#include <optional>
#include <span>
#include <vector>

#include "iqs/cover/coverage_engine.h"
#include "iqs/multidim/kd_tree.h"
#include "iqs/multidim/multidim_batch.h"
#include "iqs/multidim/point.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::multidim {

class KdTreeSampler {
 public:
  // `weights` parallel to `points`; pass {} for WR (unit) weights.
  KdTreeSampler(std::span<const Point2> points,
                std::span<const double> weights);

  // Draws `s` independent weighted samples from S ∩ q, appending the
  // sampled points to `out`. Returns false (appending nothing) when the
  // rectangle is empty of points. O(sqrt n + s).
  bool QueryRect(const Rect& q, size_t s, Rng* rng,
                 std::vector<Point2>* out) const;

  // Batched serving fast path (mirrors RangeSampler::QueryBatch): covers
  // every rectangle once, then serves all draws of the batch through one
  // CoverExecutor run over the shared coverage engine. Same per-query law
  // as QueryRect; draws are independent across queries. All scratch comes
  // from `arena`; with a reused arena and result the steady state performs
  // zero heap allocations beyond retained capacity.
  // opts decides where the executor's blocks run, never the output;
  // opts.telemetry attaches an observability sink (see BatchOptions). Canonical order (queries, rng, arena, opts, &result).
  void QueryBatch(std::span<const RectBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  PointBatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const RectBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, PointBatchResult* result) const;

  // Same for the disk dist(center, .) <= radius, using the exact cover.
  bool QueryDisk(const Point2& center, double radius, size_t s, Rng* rng,
                 std::vector<Point2>* out) const;

  // Theorem-6 path: approximate cover (boxes within `slack` * radius
  // diagonal) + rejection. Same output law as QueryDisk; different (often
  // smaller) cover-finding cost, measured in bench_approx_cover.
  bool QueryDiskApprox(const Point2& center, double radius, size_t s,
                       double slack, Rng* rng,
                       std::vector<Point2>* out) const;

  // r-fair nearest neighbor (paper Section 2, Benefit 2): a uniformly
  // random point among those within distance `radius` of `center`,
  // independent across calls. nullopt when no point qualifies.
  std::optional<Point2> FairNearNeighbor(const Point2& center, double radius,
                                         Rng* rng) const;

  // Halfplane sampling { p : a*x + b*y <= c } — the 2-d cousin of the
  // halfspace IQS problem the paper's Section 6 targets, served by the
  // generic region cover. Exact law; cover size O(sqrt n).
  bool QueryHalfplane(double a, double b, double c, size_t s, Rng* rng,
                      std::vector<Point2>* out) const;

  const KdTree& tree() const { return tree_; }

  size_t MemoryBytes() const {
    return tree_.MemoryBytes() + engine_.MemoryBytes();
  }

 private:
  KdTree tree_;
  CoverageEngine engine_;
};

}  // namespace iqs::multidim

#endif  // IQS_MULTIDIM_KD_SAMPLER_H_
