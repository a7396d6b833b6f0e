// Technique 1 — alias augmentation (paper Section 4.1, Lemma 2).
//
// Every node u of the BST stores an alias table over S(u), the elements in
// its subtree. Tables at one tree level total O(n) space, so the whole
// structure takes O(n log n). A query finds the canonical cover
// (O(log n)), splits the sample budget across cover nodes with an on-the-
// fly alias table (O(log n + s)), and then draws each sample from the
// cover node's prebuilt table in O(1) — total O(log n + s).

#ifndef IQS_RANGE_AUG_RANGE_SAMPLER_H_
#define IQS_RANGE_AUG_RANGE_SAMPLER_H_

#include <span>
#include <vector>

#include "iqs/alias/alias_table.h"
#include "iqs/range/range_sampler.h"
#include "iqs/range/static_bst.h"

namespace iqs {

class AugRangeSampler : public RangeSampler {
 public:
  AugRangeSampler(std::span<const double> keys,
                  std::span<const double> weights);

  // Convenience constructor for position-indexed data (keys 0, 1, ..., n-1)
  // — used by Theorem 3's chunk-level structure, where "keys" are chunk
  // numbers.
  explicit AugRangeSampler(std::span<const double> weights);

  // Batched path (and, through the RangeSampler default, the single-query
  // one): enumerates canonical covers into a CoverPlan for the shared
  // CoverExecutor; the draw kernel pipelines prefetched urn loads from
  // the prebuilt per-node alias tables across each block of queries.
  using RangeSampler::QueryPositionsBatch;
  void QueryPositionsBatch(std::span<const PositionQuery> queries, Rng* rng,
                           ScratchArena* arena, const BatchOptions& opts,
                           std::span<size_t> out) const override;

  size_t MemoryBytes() const override;

  std::string_view name() const override { return "alias-augmented"; }

 private:
  void BuildNodeAliases(std::span<const double> weights);

  StaticBst tree_;
  // node_alias_[u] samples a position offset within [RangeLo(u),
  // RangeHi(u)]; leaves have empty tables (they are their own sample).
  std::vector<AliasTable> node_alias_;
};

}  // namespace iqs

#endif  // IQS_RANGE_AUG_RANGE_SAMPLER_H_
