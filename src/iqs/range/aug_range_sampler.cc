#include "iqs/range/aug_range_sampler.h"

#include <algorithm>
#include <numeric>

#include "iqs/cover/cover_executor.h"

namespace iqs {

namespace {

std::vector<double> PositionKeys(size_t n) {
  std::vector<double> keys(n);
  std::iota(keys.begin(), keys.end(), 0.0);
  return keys;
}

}  // namespace

AugRangeSampler::AugRangeSampler(std::span<const double> keys,
                                 std::span<const double> weights)
    : RangeSampler(keys), tree_(weights) {
  IQS_CHECK(keys.size() == weights.size());
  BuildNodeAliases(weights);
}

AugRangeSampler::AugRangeSampler(std::span<const double> weights)
    : RangeSampler(PositionKeys(weights.size())), tree_(weights) {
  BuildNodeAliases(weights);
}

void AugRangeSampler::BuildNodeAliases(std::span<const double> weights) {
  node_alias_.resize(tree_.num_nodes());
  std::vector<double> scratch;
  for (StaticBst::NodeId u = 0; u < tree_.num_nodes(); ++u) {
    if (tree_.IsLeaf(u)) continue;
    const size_t lo = tree_.RangeLo(u);
    const size_t hi = tree_.RangeHi(u);
    scratch.assign(weights.begin() + static_cast<ptrdiff_t>(lo),
                   weights.begin() + static_cast<ptrdiff_t>(hi) + 1);
    node_alias_[u].Build(scratch);
  }
}

void AugRangeSampler::QueryPositionsBatch(
    std::span<const PositionQuery> queries, Rng* rng, ScratchArena* arena,
    const BatchOptions& opts, std::span<size_t> out) const {
  // Cover enumeration only; the CoverExecutor owns the multinomial split
  // and output layout. The draw kernel flattens the per-node urn picks of
  // a whole block of queries into one pipeline: a planning pass records
  // (table, base) per draw, then fixed-size runs do urn-index generation
  // + prefetch before any urn is read. The urn loads — the only cache
  // misses on this path — therefore overlap across the block's queries
  // instead of serializing inside each cover node's little group.
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
      [this](const CoverBlock& block) {
        const size_t total = block.dst.size();
        const std::span<const AliasTable*> tables =
            block.arena->Alloc<const AliasTable*>(total);
        const std::span<size_t> bases = block.arena->Alloc<size_t>(total);
        const std::span<const CoverGroup> groups = block.plan.groups();
        size_t d = 0;
        for (size_t g = block.first_group; g < block.end_group; ++g) {
          const auto u = static_cast<StaticBst::NodeId>(groups[g].tag);
          // Leaves have no table: they are their own sample.
          const AliasTable* table =
              tree_.IsLeaf(u) ? nullptr : &node_alias_[u];
          for (uint32_t k = 0; k < block.counts[g]; ++k) {
            tables[d] = table;
            bases[d] = groups[g].lo;
            ++d;
          }
        }
        IQS_DCHECK(d == total);
        AliasTable::SampleTargets(tables, bases, block.rng, block.dst);
      },
      out);
}

size_t AugRangeSampler::MemoryBytes() const {
  size_t bytes = tree_.MemoryBytes() + keys_.capacity() * sizeof(double) +
                 node_alias_.capacity() * sizeof(AliasTable);
  for (const AliasTable& table : node_alias_) bytes += table.MemoryBytes();
  return bytes;
}

}  // namespace iqs
