// The shared batched sampling pipeline over CoverPlans (paper Section 4.1
// applied uniformly; engineering of DESIGN.md E19/E20).
//
// Every serving path in the library funnels through this layer: a
// structure enumerates each query's weighted disjoint groups into a
// CoverPlan, and the executor runs the batch through one pipeline —
// per-query multinomial budget splits (inverse-CDF with block RNG), arena
// scratch, and the structure's grouped draw kernel invoked once per BLOCK
// of queries, so backend cache misses (tree-node loads, alias-urn loads)
// overlap across the block's queries instead of serializing inside each
// one.
//
// The RNG contract (the only one in the library): a batch takes ONE key
// word from the caller's Rng and is cut into blocks of consecutive
// queries; a block closes once its samples reach kBlockSamples. Block 0
// draws from Rng(key), block b >= 1 from Rng(key).ForkStream(b), so a
// one-block batch pays no fork. Block boundaries depend only on the plan,
// never on the thread count; with num_threads <= 1 and no pool the blocks
// run inline on the caller (its arena, never Reset mid-batch), otherwise
// they are sharded over the pool. Either way each block writes a fixed
// slice of the output from its own stream, so the output is byte-
// identical for every num_threads. Each query's draws follow its law and
// are independent of every other query's — across blocks by the
// substreams, within a block because the queries' splits and draws are
// disjoint pieces of one stream.
//
// Consumption styles:
//   * Execute(plan, ..., draw, out): for structures with their own
//     grouped draw kernel (StaticBst lane descents, per-node alias
//     pipelines); `draw` receives one block at a time.
//   * ExecuteOverSampler(plan, sampler, ..., out): for structures whose
//     groups are plain position ranges over one RangeSampler
//     (CoverageEngine, subtree Euler intervals). Each block lowers its
//     nonzero groups to PositionQuery spans and runs the sampler's own
//     QueryPositionsBatch once.
//   * RunBlocks: the block machinery alone, for batches whose unit of
//     work is not a plan query (the range trees' coalesced runs).
//
// Snapshot discipline (util/epoch.h): the executor itself is stateless —
// a run reads only the plan and the backend it was handed, so concurrency
// against structure updates is decided entirely by WHAT the caller hands
// in. Versioned entry points (LogarithmicRangeSampler::QueryBatch,
// VersionedCoverageEngine::SampleBatch) pin ONE epoch snapshot before
// building/serving the plan and keep it pinned for the whole executor
// run; everything the executor touches then belongs to one immutable
// version, so an entire batch observes a single consistent structure even
// while writers publish new versions concurrently.

#ifndef IQS_COVER_COVER_EXECUTOR_H_
#define IQS_COVER_COVER_EXECUTOR_H_

#include <cstdint>
#include <span>

#include "iqs/cover/cover_plan.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/function_ref.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"

namespace iqs {

class RangeSampler;

// Result of a whole-plan budget split, arena-resident. For group g of
// the plan, counts[g] samples are owed and go to dst[offsets[g] ..
// offsets[g+1]); queries stay contiguous in dst because a query's groups
// are contiguous in the plan.
struct CoverSplit {
  std::span<const uint32_t> counts;  // per group
  std::span<const size_t> offsets;   // per group, size num_groups() + 1
  size_t total = 0;                  // == offsets.back()
};

// One block handed to a draw kernel: the plan groups [first_group,
// end_group) of a run of whole queries, already split. The kernel must
// write exactly counts[g] draws for each of those groups into `dst`,
// group after group in plan order (dst.size() is their sum), drawing only
// from `rng` with scratch from `arena`. Blocks may run concurrently;
// `worker` names the executing pool worker (0 inline), so a kernel may
// record into telemetry shard(worker) race-free.
struct CoverBlock {
  const CoverPlan& plan;
  std::span<const uint32_t> counts;  // per plan group; this block's are set
  size_t first_group;
  size_t end_group;
  std::span<size_t> dst;
  size_t worker;
  Rng* rng;
  ScratchArena* arena;
};

class CoverExecutor {
 public:
  // A block closes once its samples reach this count: 16 queries at
  // s = 64, 128 at s = 8 — enough for a grouped kernel to overlap its
  // misses, few enough that a batch yields shardable work.
  static constexpr size_t kBlockSamples = 1024;

  // Splits every query's budget Multinomial(s; group weights) from `rng`
  // and lays out flat output offsets, for callers that serve draws
  // themselves (range trees, the logarithmic sampler). O(groups + total
  // samples) with all scratch from `arena`. When `sink` is non-null the
  // plan's queries, cover_groups and split rng_draws (one double per
  // sample of every query with >= 2 groups; single-group queries
  // shortcut with no randomness) are recorded into shard 0 — the split
  // stage OWNS these counters (see telemetry.h).
  static CoverSplit Split(const CoverPlan& plan, Rng* rng,
                          ScratchArena* arena, TelemetrySink* sink = nullptr);

  // The block machinery on its own. Items [0, n) carry samples(i) draws
  // each; they are cut into blocks of consecutive items under the RNG
  // contract above (one key word from `rng`, exactly), and
  // fn(first, last, base, worker, block_rng, scratch) runs once per block
  // [first, last), where base is the sum of samples() over items before
  // `first` — the block's offset in a flat output. Inline runs pass the
  // caller's `arena`; pooled runs a worker arena Reset before each block.
  using BlockFn = FunctionRef<void(size_t first, size_t last, size_t base,
                                   size_t worker, Rng* rng,
                                   ScratchArena* arena)>;
  static void RunBlocks(size_t n, FunctionRef<size_t(size_t)> samples,
                        Rng* rng, ScratchArena* arena,
                        const BatchOptions& opts, BlockFn fn);

  // Full pipeline for structures with a custom grouped draw kernel:
  // splits each block's queries from the block's stream, then calls
  // draw(block) (skipped for blocks that owe nothing). `out` must have
  // exactly plan.TotalSamples() entries; query q's draws land contiguously,
  // in group order — the usual i.i.d.-multiset ORDERING CONTRACT (see
  // RangeSampler). opts selects where blocks run and carries the
  // telemetry sink, which records the batch counters into shard 0 and
  // never touches an Rng.
  using CoverDrawFn = FunctionRef<void(const CoverBlock&)>;
  static void Execute(const CoverPlan& plan, Rng* rng, ScratchArena* arena,
                      const BatchOptions& opts, CoverDrawFn draw,
                      std::span<size_t> out);

  // Execute for plans whose groups are position ranges over `sampler`:
  // each block's nonzero groups become one QueryPositionsBatch call of
  // the sampler, run inline on the block's stream.
  static void ExecuteOverSampler(const CoverPlan& plan,
                                 const RangeSampler& sampler, Rng* rng,
                                 ScratchArena* arena, const BatchOptions& opts,
                                 std::span<size_t> out);
};

}  // namespace iqs

#endif  // IQS_COVER_COVER_EXECUTOR_H_
