// Subtree sampling via the Euler-tour reduction (paper Section 5, Lemma 4).
//
// A depth-first traversal lists the leaves of T as a sequence Π; each
// node's subtree leaves form a contiguous run Π[a..b] (Proposition 1), and
// the run endpoints are stored at the node during preprocessing, so a
// subtree query needs no searching. Drawing s weighted samples from the
// subtree of q is then weighted range sampling over Π[a_q .. b_q], served
// by the Theorem-3 chunked structure in O(n) space.
//
// Substitution note (DESIGN.md section 2.4): the true Lemma 4 bound is
// O(1 + s) per query via Afshani-Wei's machinery; this implementation
// costs O(log n + s) worst case — identical once s = Ω(log n), and the
// Theorem-5/6 engines that consume this structure additionally keep a
// per-cover alias so their stated bounds are preserved.

#ifndef IQS_TREE_SUBTREE_SAMPLER_H_
#define IQS_TREE_SUBTREE_SAMPLER_H_

#include <memory>
#include <span>
#include <vector>

#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/range_sampler.h"  // BatchResult
#include "iqs/tree/weighted_tree.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs {

// One subtree query of a serving batch: draw `s` independent weighted
// leaf samples from the subtree of `node`.
struct SubtreeBatchQuery {
  WeightedTree::NodeId node = 0;
  size_t s = 0;
};

class SubtreeSampler {
 public:
  // `tree` must be finalized and outlive the sampler. O(n) build.
  explicit SubtreeSampler(const WeightedTree* tree);

  // Draws `s` independent weighted leaf samples from the subtree of q,
  // appending leaf ids to `out`. O(log n + s).
  void Query(WeightedTree::NodeId q, size_t s, Rng* rng,
             std::vector<WeightedTree::NodeId>* out) const;

  // Batched serving fast path: each query's subtree is exactly one
  // Euler-tour group (Proposition 1), so the whole batch rides a single
  // CoverExecutor run over the Theorem-3 chunked structure — the grouped
  // cross-query pipeline of RangeSampler::QueryBatch applied to Π.
  // result->positions holds leaf ids. Every query resolves (a subtree
  // always contains a leaf).
  // opts decides where the executor's blocks run, never the output
  // (see BatchOptions). Canonical order
  // (queries, rng, arena, opts, &result).
  void QueryBatch(std::span<const SubtreeBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  BatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const SubtreeBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, BatchResult* result) const;

  // The Euler-tour leaf interval of node q (inclusive positions in Π).
  std::pair<size_t, size_t> LeafInterval(WeightedTree::NodeId q) const {
    return {interval_lo_[q], interval_hi_[q]};
  }

  // Leaf id at Euler-tour position p.
  WeightedTree::NodeId LeafAt(size_t p) const { return leaf_sequence_[p]; }

  size_t MemoryBytes() const;

 private:
  const WeightedTree* tree_;
  std::vector<WeightedTree::NodeId> leaf_sequence_;  // Π
  std::vector<uint32_t> interval_lo_;
  std::vector<uint32_t> interval_hi_;
  std::unique_ptr<ChunkedRangeSampler> range_sampler_;
};

}  // namespace iqs

#endif  // IQS_TREE_SUBTREE_SAMPLER_H_
