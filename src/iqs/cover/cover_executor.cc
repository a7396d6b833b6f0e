#include "iqs/cover/cover_executor.h"

#include "iqs/range/range_sampler.h"
#include "iqs/sampling/multinomial.h"
#include "iqs/simd/dispatch.h"
#include "iqs/util/thread_pool.h"

namespace iqs {

namespace {

// Samples query q owes: its budget when it has groups, none otherwise.
size_t OwedSamples(const CoverPlan& plan, size_t q) {
  return plan.end_group(q) > plan.first_group(q) ? plan.budget(q) : 0;
}

// Splits the budgets of queries [first, last) into counts, drawing from
// `rng` with scratch from `arena`.
void SplitQueries(const CoverPlan& plan, size_t first, size_t last, Rng* rng,
                  ScratchArena* arena, std::span<uint32_t> counts) {
  const std::span<const CoverGroup> groups = plan.groups();
  for (size_t q = first; q < last; ++q) {
    const size_t fg = plan.first_group(q);
    const size_t t = plan.end_group(q) - fg;
    if (t == 0) continue;
    if (t == 1) {
      counts[fg] = static_cast<uint32_t>(plan.budget(q));
      continue;
    }
    const std::span<double> weights = arena->Alloc<double>(t);
    for (size_t i = 0; i < t; ++i) weights[i] = groups[fg + i].weight;
    MultinomialSplitScratch(weights, plan.budget(q), rng, arena,
                            counts.subspan(fg, t));
  }
}

void RecordSplitStats(const CoverPlan& plan, TelemetrySink* sink) {
  QueryStats* stats = &sink->shard(0)->stats;
  stats->queries += plan.num_queries();
  stats->cover_groups += plan.num_groups();
  for (size_t q = 0; q < plan.num_queries(); ++q) {
    // s split doubles when the budget is split across >= 2 groups.
    if (plan.end_group(q) - plan.first_group(q) >= 2) {
      stats->rng_draws += plan.budget(q);
    }
  }
  // Tag the batch with the kernel backend serving it, so exported results
  // are self-describing (telemetry.h).
  stats->backend_mask |= simd::BackendBit(simd::ActiveBackend());
}

}  // namespace

CoverSplit CoverExecutor::Split(const CoverPlan& plan, Rng* rng,
                                ScratchArena* arena, TelemetrySink* sink) {
  const size_t g = plan.num_groups();
  const std::span<uint32_t> counts = arena->Alloc<uint32_t>(g);
  SplitQueries(plan, 0, plan.num_queries(), rng, arena, counts);
  if (sink != nullptr) RecordSplitStats(plan, sink);

  const std::span<size_t> offsets = arena->Alloc<size_t>(g + 1);
  size_t total = 0;
  for (size_t i = 0; i < g; ++i) {
    offsets[i] = total;
    total += counts[i];
  }
  offsets[g] = total;
  return CoverSplit{counts, offsets, total};
}

void CoverExecutor::RunBlocks(size_t n, FunctionRef<size_t(size_t)> samples,
                              Rng* rng, ScratchArena* arena,
                              const BatchOptions& opts, BlockFn fn) {
  const Rng key(rng->Next64());
  if (n == 0) return;
  // Block b covers items [starts[b], starts[b+1]) and its draws start at
  // flat offset bases[b]. A pure function of the samples — never of the
  // thread count.
  const std::span<size_t> starts = arena->Alloc<size_t>(n + 1);
  const std::span<size_t> bases = arena->Alloc<size_t>(n + 1);
  size_t num_blocks = 0;
  size_t total = 0;
  size_t in_block = 0;
  bool open = false;
  for (size_t i = 0; i < n; ++i) {
    if (!open) {
      starts[num_blocks] = i;
      bases[num_blocks] = total;
      ++num_blocks;
      open = true;
    }
    const size_t m = samples(i);
    total += m;
    in_block += m;
    if (in_block >= kBlockSamples) {
      in_block = 0;
      open = false;
    }
  }
  starts[num_blocks] = n;
  bases[num_blocks] = total;

  // Block 0 draws from the key itself, so a one-block batch pays no fork.
  auto block_rng = [&key](size_t b) {
    return b == 0 ? key : key.ForkStream(b);
  };
  if (num_blocks == 1 || (opts.pool == nullptr && opts.num_threads <= 1)) {
    for (size_t b = 0; b < num_blocks; ++b) {
      Rng brng = block_rng(b);
      fn(starts[b], starts[b + 1], bases[b], 0, &brng, arena);
    }
    return;
  }
  ScopedPool pool(opts);
  ParallelForShards(
      pool.get(), num_blocks, [&](size_t first, size_t last, size_t worker) {
        ScratchArena* wa = pool->worker_arena(worker);
        for (size_t b = first; b < last; ++b) {
          Rng brng = block_rng(b);
          wa->Reset();
          fn(starts[b], starts[b + 1], bases[b], worker, &brng, wa);
        }
      });
}

void CoverExecutor::Execute(const CoverPlan& plan, Rng* rng,
                            ScratchArena* arena, const BatchOptions& opts,
                            CoverDrawFn draw, std::span<size_t> out) {
  // Frontend contract (BatchOptions::max_batch): a nonzero bound promises
  // the plan came from a micro-batcher that never coalesces past it.
  IQS_CHECK(opts.max_batch == 0 || plan.num_queries() <= opts.max_batch);
  IQS_DCHECK(out.size() == plan.TotalSamples());
  // Blocks write disjoint group ranges of `counts` and disjoint slices of
  // `out`, so concurrent blocks share no written state.
  const std::span<uint32_t> counts =
      arena->Alloc<uint32_t>(plan.num_groups());
  RunBlocks(
      plan.num_queries(), [&plan](size_t q) { return OwedSamples(plan, q); },
      rng, arena, opts,
      [&](size_t first, size_t last, size_t base, size_t worker, Rng* brng,
          ScratchArena* scratch) {
        size_t owed = 0;
        for (size_t q = first; q < last; ++q) owed += OwedSamples(plan, q);
        if (owed == 0) return;
        SplitQueries(plan, first, last, brng, scratch, counts);
        draw(CoverBlock{plan, counts, plan.first_group(first),
                        plan.end_group(last - 1), out.subspan(base, owed),
                        worker, brng, scratch});
      });
  if (opts.telemetry != nullptr) {
    RecordSplitStats(plan, opts.telemetry);
    QueryStats* stats = &opts.telemetry->shard(0)->stats;
    stats->samples_emitted += out.size();
    if (arena->capacity_bytes() > stats->arena_bytes_hwm) {
      stats->arena_bytes_hwm = arena->capacity_bytes();
    }
  }
}

void CoverExecutor::ExecuteOverSampler(const CoverPlan& plan,
                                       const RangeSampler& sampler, Rng* rng,
                                       ScratchArena* arena,
                                       const BatchOptions& opts,
                                       std::span<size_t> out) {
  Execute(
      plan, rng, arena, opts,
      [&sampler](const CoverBlock& block) {
        // The sampler appends each request's draws contiguously in order,
        // which is the block's group-by-group layout. The nested batch
        // runs inline and WITHOUT a sink: the executor owns the batch's
        // counters (telemetry.h ownership table).
        const std::span<const CoverGroup> groups = block.plan.groups();
        const std::span<PositionQuery> requests =
            block.arena->Alloc<PositionQuery>(block.end_group -
                                              block.first_group);
        size_t m = 0;
        for (size_t g = block.first_group; g < block.end_group; ++g) {
          if (block.counts[g] == 0) continue;
          requests[m++] = PositionQuery{groups[g].lo, groups[g].hi,
                                        static_cast<size_t>(block.counts[g])};
        }
        sampler.QueryPositionsBatch(requests.first(m), block.rng, block.arena,
                                    BatchOptions{}, block.dst);
      },
      out);
}

}  // namespace iqs
