// d-dimensional kd-tree IQS (paper Section 5, first example, for general
// constant d): O(n) space and O(n^{1-1/d} + s) query time for weighted
// orthogonal range sampling in R^d.
//
// The dimension is a runtime parameter; points are flat rows of a
// column-major-free coordinate buffer. As with the 2-d KdTree, median
// partitioning keeps each node's points contiguous, so the Theorem-5
// CoverageEngine drives the sampling. bench_kd_nd (E18) sweeps d to show
// the n^{1-1/d} cover growth the paper predicts.

#ifndef IQS_MULTIDIM_KD_TREE_ND_H_
#define IQS_MULTIDIM_KD_TREE_ND_H_

#include <cstdint>
#include <span>
#include <vector>

#include "iqs/cover/coverage_engine.h"
#include "iqs/range/range_sampler.h"  // BatchResult
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::multidim {

// An axis-aligned box in R^d: bounds[2*k] = lo_k, bounds[2*k+1] = hi_k,
// closed on all sides.
struct BoxNd {
  std::vector<double> bounds;

  explicit BoxNd(size_t dim = 0)
      : bounds(2 * dim, 0.0) {}

  size_t dim() const { return bounds.size() / 2; }
  double lo(size_t k) const { return bounds[2 * k]; }
  double hi(size_t k) const { return bounds[2 * k + 1]; }
  void set(size_t k, double lo_v, double hi_v) {
    bounds[2 * k] = lo_v;
    bounds[2 * k + 1] = hi_v;
  }

  bool Contains(std::span<const double> point) const {
    for (size_t k = 0; k < dim(); ++k) {
      if (point[k] < lo(k) || point[k] > hi(k)) return false;
    }
    return true;
  }
  bool ContainsBox(const BoxNd& other) const {
    for (size_t k = 0; k < dim(); ++k) {
      if (other.lo(k) < lo(k) || other.hi(k) > hi(k)) return false;
    }
    return true;
  }
  bool Intersects(const BoxNd& other) const {
    for (size_t k = 0; k < dim(); ++k) {
      if (lo(k) > other.hi(k) || other.lo(k) > hi(k)) return false;
    }
    return true;
  }
};

// One box query of a serving batch: draw `s` independent weighted samples
// from S ∩ box.
struct BoxBatchQuery {
  BoxNd box;
  size_t s = 0;
};

class KdTreeNd {
 public:
  // `coords` holds n*dim doubles, row-major (point i = coords[i*dim ..]).
  // `weights` parallel (empty -> unit). O(n log n) build.
  KdTreeNd(size_t dim, std::span<const double> coords,
           std::span<const double> weights);

  size_t dim() const { return dim_; }
  size_t n() const { return weights_.size(); }
  std::span<const double> PointAt(size_t position) const {
    return {coords_.data() + position * dim_, dim_};
  }
  double WeightAt(size_t position) const { return weights_[position]; }
  const std::vector<double>& position_weights() const { return weights_; }

  // Exact cover of box q (same guarantees as the 2-d KdTree).
  void CoverQuery(const BoxNd& q, std::vector<CoverRange>* cover) const;

  // Reporting oracle.
  void Report(const BoxNd& q, std::vector<size_t>* out) const;

  size_t MemoryBytes() const {
    return coords_.capacity() * sizeof(double) +
           weights_.capacity() * sizeof(double) +
           nodes_.capacity() * sizeof(Node) + boxes_bytes_;
  }

 private:
  struct Node {
    BoxNd box;
    double weight = 0.0;
    uint32_t lo = 0;
    uint32_t hi = 0;
    uint32_t left = kNull;
    uint32_t right = kNull;
  };
  static constexpr uint32_t kNull = ~uint32_t{0};

  uint32_t Build(size_t lo, size_t hi, size_t depth);

  size_t dim_;
  std::vector<double> coords_;
  std::vector<double> weights_;
  std::vector<Node> nodes_;
  size_t boxes_bytes_ = 0;
};

// Theorem-5 sampler over KdTreeNd.
class KdTreeNdSampler {
 public:
  KdTreeNdSampler(size_t dim, std::span<const double> coords,
                  std::span<const double> weights)
      : tree_(dim, coords, weights), engine_(tree_.position_weights()) {}

  // Draws `s` independent weighted samples from S ∩ q, appending sampled
  // POSITIONS (resolve coordinates via tree().PointAt). False when empty.
  bool QueryBox(const BoxNd& q, size_t s, Rng* rng,
                std::vector<size_t>* out) const;

  // Batched serving fast path (mirrors RangeSampler::QueryBatch): covers
  // every box once, then serves all draws of the batch through one
  // CoverExecutor run over the shared coverage engine. result->positions
  // holds positions; resolve via tree().PointAt.
  // opts decides where the executor's blocks run, never the output
  // (see BatchOptions). Canonical order
  // (queries, rng, arena, opts, &result).
  void QueryBatch(std::span<const BoxBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  BatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const BoxBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, BatchResult* result) const;

  const KdTreeNd& tree() const { return tree_; }

  size_t MemoryBytes() const {
    return tree_.MemoryBytes() + engine_.MemoryBytes();
  }

 private:
  KdTreeNd tree_;
  CoverageEngine engine_;
};

}  // namespace iqs::multidim

#endif  // IQS_MULTIDIM_KD_TREE_ND_H_
