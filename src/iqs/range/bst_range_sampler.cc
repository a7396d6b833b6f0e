#include "iqs/range/bst_range_sampler.h"

#include "iqs/cover/cover_executor.h"

namespace iqs {

BstRangeSampler::BstRangeSampler(std::span<const double> keys,
                                 std::span<const double> weights)
    : RangeSampler(keys), tree_(weights) {
  IQS_CHECK(keys.size() == weights.size());
}

void BstRangeSampler::QueryPositionsBatch(
    std::span<const PositionQuery> queries, Rng* rng, ScratchArena* arena,
    const BatchOptions& opts, std::span<size_t> out) const {
  // Cover enumeration only; the CoverExecutor owns the batched pipeline
  // (multinomial split per query, blocks, arena scratch). The draw kernel
  // lines up ONE descent lane per requested sample across a whole block
  // of queries and runs them all through a single grouped
  // DescendToLeaves: with a thousand independent lanes the
  // bottom-of-tree node loads (the cache misses of a lone descent)
  // overlap instead of serializing, and shared top-of-subtree nodes stay
  // hot across the block's queries.
  const size_t max_cover = tree_.MaxCoverSize();
  CoverPlan plan(arena);
  plan.Reserve(queries.size(), queries.size() * max_cover);
  const std::span<StaticBst::NodeId> cover =
      arena->Alloc<StaticBst::NodeId>(max_cover);
  for (const PositionQuery& q : queries) {
    plan.BeginQuery(q.s);
    if (q.s == 0) continue;
    IQS_DCHECK(q.a <= q.b && q.b < n());
    const size_t t = tree_.CanonicalCover(q.a, q.b, cover);
    for (size_t i = 0; i < t; ++i) {
      const StaticBst::NodeId u = cover[i];
      plan.AddGroup(tree_.RangeLo(u), tree_.RangeHi(u), tree_.NodeWeight(u),
                    u);
    }
  }

  CoverExecutor::Execute(
      plan, rng, arena, opts,
      [this, &opts](const CoverBlock& block) {
        const std::span<StaticBst::NodeId> lanes =
            block.arena->Alloc<StaticBst::NodeId>(block.dst.size());
        const std::span<const CoverGroup> groups = block.plan.groups();
        size_t lane = 0;
        for (size_t g = block.first_group; g < block.end_group; ++g) {
          const auto u = static_cast<StaticBst::NodeId>(groups[g].tag);
          for (uint32_t k = 0; k < block.counts[g]; ++k) lanes[lane++] = u;
        }
        IQS_DCHECK(lane == lanes.size());
        const size_t steps =
            tree_.DescendToLeaves(lanes, block.rng, block.arena);
        if (opts.telemetry != nullptr) {
          opts.telemetry->shard(block.worker)->stats.nodes_visited += steps;
        }
        for (size_t i = 0; i < lanes.size(); ++i) {
          block.dst[i] = tree_.RangeLo(lanes[i]);
        }
      },
      out);
}

}  // namespace iqs
