// Technique 2 — coverage (paper Section 5, Theorem 5) and Technique 3 —
// approximate coverage (paper Section 6, Theorem 6), as a reusable engine.
//
// Any tree structure built by in-place partitioning (our StaticBst,
// KdTree, Quadtree, ...) stores each node's elements at a contiguous run
// of positions, so "the cover of query q" is just a list of disjoint
// position ranges with weights. Given such a cover, this engine draws s
// independent weighted samples in O(|cover| + s) (*): it splits the budget
// multinomially over the ranges (Theorem 1 applied to the cover) and then
// samples inside each range with the Theorem-3 chunked structure, our
// stand-in for Lemma 4 (see DESIGN.md section 2.4).
//
// Serving goes through the shared CoverExecutor: SampleBatch takes a
// whole CoverPlan (many queries, each already reduced to cover groups)
// and runs the one batched pipeline — multinomial splits, grouped
// cross-query draws on the chunked sampler's batched path, arena scratch.
// Sample() is the single-query convenience over the same machinery.
//
// Theorem 6 is the same engine plus rejection: SampleWithRejection takes
// an *approximate* cover — ranges that may contain non-qualifying
// elements — and an acceptance predicate. The output law is exactly
// uniform/weighted over qualifying elements for ANY superset cover; the
// approximate-cover density condition (|S_q| = Omega(|union|)) only
// controls the expected number of rejection rounds.

#ifndef IQS_COVER_COVERAGE_ENGINE_H_
#define IQS_COVER_COVERAGE_ENGINE_H_

#include <span>
#include <vector>

#include "iqs/cover/cover_plan.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/epoch.h"
#include "iqs/util/thread_annotations.h"
#include "iqs/util/function_ref.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs {

class CoverageEngine {
 public:
  // `position_weights[i]` is the weight of the element at position i in
  // the structure's in-place order. O(n) space, O(n) build. A non-null
  // `build_pool` runs the underlying per-chunk alias builds as one
  // ParallelFor (bit-identical structure; the pool is used only inside
  // the constructor) — the off-read-thread rebuild path used by
  // VersionedCoverageEngine.
  explicit CoverageEngine(std::span<const double> position_weights,
                          ThreadPool* build_pool = nullptr);

  // Theorem 5: draws `s` independent weighted samples from the disjoint
  // union of the cover's ranges, appending positions to `out`.
  void Sample(std::span<const CoverRange> cover, size_t s, Rng* rng,
              std::vector<size_t>* out) const;

  // Batched Theorem 5: every query of `plan` has been reduced to cover
  // groups (group positions index this engine's position space); appends
  // plan.TotalSamples() positions to `out`, contiguous per query in plan
  // order, via one CoverExecutor run over the chunked sampler's batched
  // path. All scratch from `arena`; zero steady-state heap allocations
  // with a reused arena. opts decides where the executor's blocks run
  // (output byte-identical for every num_threads) and carries the
  // telemetry sink.
  void SampleBatch(const CoverPlan& plan, Rng* rng, ScratchArena* arena,
                   const BatchOptions& opts, std::vector<size_t>* out) const;

  // Convenience: default options.
  void SampleBatch(const CoverPlan& plan, Rng* rng, ScratchArena* arena,
                   std::vector<size_t>* out) const;

  // Theorem 6: the cover may overshoot the true result; every candidate
  // position is filtered through `accepts`, and rejected draws are retried
  // until `s` samples pass. Expected O(|cover| + s) when the cover is a
  // constant-density approximate cover. `cover_element_weight` of each
  // range must count all elements in the range (qualifying or not).
  // `accepts` is a non-owning FunctionRef — no allocation per call — and
  // all retry scratch comes from `arena`. Each retry round's deficit is
  // cut into sub-queries of one executor block each (so shardable work
  // exists even for one big query); the acceptance filtering stays on
  // the caller. Output is byte-identical for every num_threads. With a telemetry sink attached, rejection_attempts counts
  // every candidate tested through `accepts` and rejection_rounds every
  // retry round (telemetry_test cross-checks both against ground truth).
  void SampleWithRejection(std::span<const CoverRange> cover, size_t s,
                           FunctionRef<bool(size_t)> accepts, Rng* rng,
                           ScratchArena* arena, const BatchOptions& opts,
                           std::vector<size_t>* out) const;

  // Convenience: default options.
  void SampleWithRejection(std::span<const CoverRange> cover, size_t s,
                           FunctionRef<bool(size_t)> accepts, Rng* rng,
                           ScratchArena* arena,
                           std::vector<size_t>* out) const;

  // Convenience overload using a call-local arena.
  void SampleWithRejection(std::span<const CoverRange> cover, size_t s,
                           FunctionRef<bool(size_t)> accepts, Rng* rng,
                           std::vector<size_t>* out) const;

  size_t MemoryBytes() const { return sampler_.MemoryBytes(); }

 private:
  ChunkedRangeSampler sampler_;
};

// Epoch-versioned cover serving (util/epoch.h): an atomically-swapped
// immutable CoverageEngine behind a Versioned<> root, for tree structures
// whose position weights change over time (bulk reweights, rebuilds of
// the in-place layout). Every SampleBatch call pins ONE engine snapshot
// and executes the entire batch against it — readers never block on a
// Rebuild and never observe a half-built engine — while Rebuild()
// constructs the replacement off the serving threads (chunk builds on the
// maintenance pool) and publishes it with grace-period reclamation of the
// old engine. Readers scale to any thread count; Rebuild is internally
// serialized. With no concurrent Rebuild, output is byte-identical to
// serving the plain CoverageEngine.
class VersionedCoverageEngine {
 public:
  // Starts with an engine over `position_weights` (may be empty).
  explicit VersionedCoverageEngine(std::span<const double> position_weights);

  // Maintenance pool for Rebuild(): chunk builds and retired-engine
  // teardown run as ParallelFors over it. Must outlive the last Rebuild
  // and must not be mid-ParallelFor when Rebuild is called.
  void set_maintenance_pool(ThreadPool* pool) { pool_ = pool; }

  // Sink for the epoch counters, recorded by the serialized Rebuild path
  // into shard 0 (give this structure its own sink).
  void set_telemetry(TelemetrySink* sink) { sink_ = sink; }

  // Writer: builds a new engine over `position_weights` and publishes it.
  // In-flight batches finish against the engine they pinned.
  void Rebuild(std::span<const double> position_weights);

  // Readers — each call pins one snapshot for its whole duration.
  void SampleBatch(const CoverPlan& plan, Rng* rng, ScratchArena* arena,
                   const BatchOptions& opts, std::vector<size_t>* out) const;
  void SampleBatch(const CoverPlan& plan, Rng* rng, ScratchArena* arena,
                   std::vector<size_t>* out) const;
  void Sample(std::span<const CoverRange> cover, size_t s, Rng* rng,
              std::vector<size_t>* out) const;

  // Pins the current engine for a caller-scoped read (e.g. several
  // SampleWithRejection rounds against one consistent engine).
  Snapshot<CoverageEngine> Acquire() const { return engine_.Acquire(); }

  EpochManager* epoch_manager() const { return engine_.epoch_manager(); }
  uint64_t versions_published() const { return engine_.versions_published(); }

 private:
  Versioned<CoverageEngine> engine_;
  Mutex writer_mu_;  // serializes Rebuild
  ThreadPool* pool_ = nullptr;
  TelemetrySink* sink_ = nullptr;
  uint64_t last_reclaimed_ IQS_GUARDED_BY(writer_mu_) = 0;
  uint64_t last_pins_ IQS_GUARDED_BY(writer_mu_) = 0;
};

}  // namespace iqs

#endif  // IQS_COVER_COVERAGE_ENGINE_H_
