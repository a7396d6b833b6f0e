// Weighted range sampling by plain tree sampling (paper Section 3.2).
//
// O(n) space. A query finds the O(log n) canonical nodes of the range,
// draws each sample by first picking a canonical node proportional to its
// subtree weight and then walking down the tree (tree sampling), so the
// query costs O((1 + s) log n). Sections 4.1/4.2 improve this to
// O(log n + s); this structure is kept both as the pedagogical baseline
// and as the comparison point in bench_range_sampling (E3).

#ifndef IQS_RANGE_BST_RANGE_SAMPLER_H_
#define IQS_RANGE_BST_RANGE_SAMPLER_H_

#include <span>
#include <vector>

#include "iqs/range/range_sampler.h"
#include "iqs/range/static_bst.h"

namespace iqs {

class BstRangeSampler : public RangeSampler {
 public:
  // `keys` strictly increasing; `weights` positive, same length.
  BstRangeSampler(std::span<const double> keys,
                  std::span<const double> weights);

  // Batched path (and, through the RangeSampler default, the single-query
  // one): enumerates canonical covers into a CoverPlan and serves them
  // through the shared CoverExecutor, with grouped (level-synchronous,
  // prefetched) subtree descents over each block of queries as the draw
  // kernel.
  using RangeSampler::QueryPositionsBatch;
  void QueryPositionsBatch(std::span<const PositionQuery> queries, Rng* rng,
                           ScratchArena* arena, const BatchOptions& opts,
                           std::span<size_t> out) const override;

  size_t MemoryBytes() const override {
    return tree_.MemoryBytes() + keys_.capacity() * sizeof(double);
  }

  std::string_view name() const override { return "bst-tree-sampling"; }

  const StaticBst& tree() const { return tree_; }

 private:
  StaticBst tree_;
};

}  // namespace iqs

#endif  // IQS_RANGE_BST_RANGE_SAMPLER_H_
