#include "iqs/range/chunked_range_sampler.h"

#include <bit>
#include <cmath>

#include "iqs/cover/cover_executor.h"
#include "iqs/sampling/multinomial.h"

namespace iqs {

namespace {

// Group tags for the batched path: a query's cover is its q1/q2/q3 split
// (paper Figure 2) — partial-chunk spans drawn categorically, and the
// chunk-aligned middle served through the chunk-level Lemma-2 structure.
constexpr uint64_t kSpanGroup = 0;
constexpr uint64_t kMiddleGroup = 1;

}  // namespace

ChunkedRangeSampler::ChunkedRangeSampler(std::span<const double> keys,
                                         std::span<const double> weights,
                                         size_t chunk_size,
                                         ThreadPool* build_pool)
    : RangeSampler(keys), weights_(weights.begin(), weights.end()) {
  IQS_CHECK(keys.size() == weights.size());
  const size_t n = weights_.size();
  chunk_size_ = chunk_size != 0
                    ? chunk_size
                    : std::max<size_t>(1, std::bit_width(n) - 1);  // ~log2 n
  const size_t g = (n + chunk_size_ - 1) / chunk_size_;

  std::vector<double> chunk_weights(g, 0.0);
  chunk_alias_.resize(g);
  // Each chunk's alias table and weight sum depend only on that chunk's
  // slice, so the builds parallelize with no cross-chunk state and the
  // result is bit-identical however they are scheduled.
  auto build_chunks = [&](size_t first, size_t last) {
    std::vector<double> scratch;
    for (size_t c = first; c < last; ++c) {
      const size_t lo = ChunkStart(c);
      const size_t hi = ChunkEnd(c);
      scratch.assign(weights_.begin() + static_cast<ptrdiff_t>(lo),
                     weights_.begin() + static_cast<ptrdiff_t>(hi) + 1);
      chunk_alias_[c].Build(scratch);
      for (double w : scratch) chunk_weights[c] += w;
    }
  };
  // Below ~4 chunks per worker the fan-out costs more than it hides.
  if (build_pool != nullptr && build_pool->num_threads() > 1 &&
      g >= build_pool->num_threads() * 4) {
    ParallelForShards(build_pool, g,
                      [&](size_t first, size_t last, size_t /*worker*/) {
                        build_chunks(first, last);
                      });
  } else {
    build_chunks(0, g);
  }

  chunk_weight_prefix_.assign(g + 1, 0.0);
  for (size_t c = 0; c < g; ++c) {
    chunk_weight_prefix_[c + 1] = chunk_weight_prefix_[c] + chunk_weights[c];
  }

  chunk_level_ = std::make_unique<AugRangeSampler>(chunk_weights);
}

void ChunkedRangeSampler::QueryPositionsBatch(
    std::span<const PositionQuery> queries, Rng* rng, ScratchArena* arena,
    const BatchOptions& opts, std::span<size_t> out) const {
  // Cover enumeration only — each query's q1/q2/q3 split (paper Figure 2)
  // becomes 1-3 plan groups — with the CoverExecutor owning the
  // multinomial splits and output layout. The draw kernel serves
  // partial-chunk spans by inverse-CDF block draws, and gathers the
  // chunk-aligned middles of a whole block of queries into a single
  // chunk-level batched call (itself the Lemma-2 pipeline) followed by
  // one blocked prefetch-then-read alias pass over every middle draw:
  // each element draw chains table header -> urn line -> sample, and
  // issuing each stage's loads for many draws lets the misses of a
  // dependent stage overlap across draws instead of serializing per draw.
  CoverPlan plan(arena);
  plan.Reserve(queries.size(), queries.size() * 3);
  for (const PositionQuery& q : queries) {
    plan.BeginQuery(q.s);
    if (q.s == 0) continue;
    IQS_DCHECK(q.a <= q.b && q.b < n());
    const size_t ca = q.a / chunk_size_;
    const size_t cb = q.b / chunk_size_;
    if (ca == cb) {
      double w = 0.0;
      for (size_t i = q.a; i <= q.b; ++i) w += weights_[i];
      plan.AddGroup(q.a, q.b, w, kSpanGroup);
      continue;
    }
    const size_t q1_hi = ChunkEnd(ca);
    const size_t q3_lo = ChunkStart(cb);
    double w1 = 0.0;
    for (size_t i = q.a; i <= q1_hi; ++i) w1 += weights_[i];
    plan.AddGroup(q.a, q1_hi, w1, kSpanGroup);
    if (cb > ca + 1) {
      const double w2 =
          chunk_weight_prefix_[cb] - chunk_weight_prefix_[ca + 1];
      plan.AddGroup(ChunkStart(ca + 1), ChunkEnd(cb - 1), w2, kMiddleGroup);
    }
    double w3 = 0.0;
    for (size_t i = q3_lo; i <= q.b; ++i) w3 += weights_[i];
    plan.AddGroup(q3_lo, q.b, w3, kSpanGroup);
  }

  CoverExecutor::Execute(
      plan, rng, arena, opts,
      [this](const CoverBlock& block) {
        const std::span<const CoverGroup> groups = block.plan.groups();
        const std::span<const double> weights(weights_);

        // Partial-chunk spans: block inverse-CDF draws straight into the
        // group's slice. Also count the middle work for the second stage.
        size_t num_middles = 0;
        size_t middle_total = 0;
        size_t cursor = 0;
        for (size_t g = block.first_group; g < block.end_group; ++g) {
          const size_t count = block.counts[g];
          if (count == 0) continue;
          if (groups[g].tag == kMiddleGroup) {
            ++num_middles;
            middle_total += count;
          } else {
            CategoricalSampleScratch(
                weights.subspan(groups[g].lo, groups[g].hi - groups[g].lo + 1),
                block.rng, block.arena, groups[g].lo,
                block.dst.subspan(cursor, count));
          }
          cursor += count;
        }
        if (middle_total == 0) return;

        // The block's chunk-aligned middles in one chunk-level batched
        // call; middle_dst[i] remembers where draw i lands in the block.
        const std::span<PositionQuery> middle_queries =
            block.arena->Alloc<PositionQuery>(num_middles);
        const std::span<size_t> middle_dst =
            block.arena->Alloc<size_t>(middle_total);
        size_t mq = 0;
        size_t md = 0;
        cursor = 0;
        for (size_t g = block.first_group; g < block.end_group; ++g) {
          const size_t count = block.counts[g];
          if (count > 0 && groups[g].tag == kMiddleGroup) {
            middle_queries[mq++] =
                PositionQuery{groups[g].lo / chunk_size_,
                              groups[g].hi / chunk_size_, count};
            for (size_t k = 0; k < count; ++k) middle_dst[md++] = cursor + k;
          }
          cursor += count;
        }
        IQS_DCHECK(md == middle_total);
        const std::span<size_t> draws = block.arena->Alloc<size_t>(middle_total);
        chunk_level_->QueryPositionsBatch(middle_queries, block.rng,
                                          block.arena, BatchOptions{}, draws);

        // One element per drawn chunk through the shared alias pipeline,
        // written over the chunk ids, then scattered to each middle
        // draw's slot (the scatter consumes no randomness).
        const std::span<const AliasTable*> tables =
            block.arena->Alloc<const AliasTable*>(middle_total);
        const std::span<size_t> bases = block.arena->Alloc<size_t>(middle_total);
        for (size_t i = 0; i < middle_total; ++i) {
          tables[i] = &chunk_alias_[draws[i]];
          __builtin_prefetch(tables[i]);
          bases[i] = ChunkStart(draws[i]);
        }
        AliasTable::SampleTargets(tables, bases, block.rng, draws);
        for (size_t i = 0; i < middle_total; ++i) {
          block.dst[middle_dst[i]] = draws[i];
        }
      },
      out);
}

size_t ChunkedRangeSampler::MemoryBytes() const {
  size_t bytes = keys_.capacity() * sizeof(double) +
                 weights_.capacity() * sizeof(double) +
                 chunk_alias_.capacity() * sizeof(AliasTable) +
                 chunk_weight_prefix_.capacity() * sizeof(double);
  for (const AliasTable& table : chunk_alias_) bytes += table.MemoryBytes();
  if (chunk_level_ != nullptr) bytes += chunk_level_->MemoryBytes();
  return bytes;
}

}  // namespace iqs
