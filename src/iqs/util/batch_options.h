// Execution options for the batched serving entry points (QueryBatch,
// QueryPositionsBatch, CoverageEngine::SampleBatch, the multidim
// QueryBatch family).
//
// Two modes, selected by num_threads:
//
//   num_threads == 0 (the default)  — SEQUENTIAL LEGACY MODE. Draws come
//     from the caller's Rng stream in the historical order; behavior is
//     byte-for-byte what it was before parallel serving existed, so every
//     pre-existing call site is unchanged.
//
//   num_threads == k >= 1  — DETERMINISTIC PARALLEL MODE. The executor
//     draws ONE word from the caller's Rng as the batch key, then gives
//     every query its own substream (Rng::ForkStream of the key by query
//     index) for both its multinomial budget split and its draws. Queries
//     are sharded in contiguous ranges over the pool's workers. Because
//     each query's randomness is a pure function of (caller stream, query
//     index) and each query writes a fixed slice of the flat output, the
//     result is BIT-IDENTICAL for every k >= 1 under a fixed seed — k only
//     changes wall-clock. (It differs from mode-0 output: same law, a
//     different stream assignment.)
//
// The pool: pass a persistent ThreadPool to amortize thread creation and
// keep per-worker arenas warm across batches; with pool == nullptr a
// transient pool of num_threads workers is created for the call (fine for
// one-off batches, wasteful in a serving loop). When a pool is supplied
// its worker count wins; num_threads > 0 then just selects parallel mode.

#ifndef IQS_UTIL_BATCH_OPTIONS_H_
#define IQS_UTIL_BATCH_OPTIONS_H_

#include <algorithm>
#include <cstddef>
#include <memory>

#include "iqs/util/function_ref.h"
#include "iqs/util/thread_pool.h"

namespace iqs {

class TelemetrySink;

struct BatchOptions {
  size_t num_threads = 0;      // 0 = sequential; >= 1 = parallel mode
  ThreadPool* pool = nullptr;  // optional, not owned; see header comment

  // Optional observability sink (iqs/util/telemetry.h), not owned. When
  // null (the default) the serving path executes the uninstrumented
  // instruction stream; when set, counters and latency land in per-worker
  // shards and never touch the Rng, so attaching a sink cannot change any
  // sample. See the telemetry header for the counter-ownership rules.
  TelemetrySink* telemetry = nullptr;

  // Serving-frontend contract fields (iqs/serve/frontend.h). Both default
  // to 0 = "no contract", which is a NO-OP for every existing caller:
  // executors never read them except to IQS_CHECK the max_batch bound, so
  // a batch built without a frontend is byte-identical to before.
  //
  //   deadline_ns  queue-time budget the frontend shed against before
  //                handing the batch down; recorded for observability (a
  //                backend may use it to pick cheaper plans, never to
  //                change the law of the samples it does emit).
  //   max_batch    frontend's per-flush batch bound; when nonzero the
  //                executors IQS_CHECK num_queries <= max_batch, turning a
  //                mis-wired batcher into an abort instead of a silent
  //                oversized flush.
  uint64_t deadline_ns = 0;
  size_t max_batch = 0;

  bool sequential() const { return num_threads == 0; }
};

// Resolves a parallel-mode BatchOptions to a usable pool: the caller's,
// or a transient one owned for the scope of the serving call. Also points
// the pool at the batch's telemetry sink (steal / busy-time counters) for
// the duration of the serving call.
class ScopedPool {
 public:
  explicit ScopedPool(const BatchOptions& opts) {
    if (opts.pool != nullptr) {
      pool_ = opts.pool;
    } else {
      owned_ =
          std::make_unique<ThreadPool>(std::max<size_t>(1, opts.num_threads));
      pool_ = owned_.get();
    }
    pool_->set_telemetry(opts.telemetry);
  }

  ~ScopedPool() { pool_->set_telemetry(nullptr); }

  ThreadPool* get() const { return pool_; }
  ThreadPool* operator->() const { return pool_; }

 private:
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_;
};

// Shards [0, n) into contiguous index ranges — a few per worker, so the
// pool's stealing can rebalance uneven ranges — and runs
// fn(first, last, worker) for each. Purely an execution detail: callers
// must make output independent of the sharding (per-index substreams).
inline void ParallelForShards(ThreadPool* pool, size_t n,
                              FunctionRef<void(size_t, size_t, size_t)> fn) {
  if (n == 0) return;
  const size_t shards = std::min(n, pool->num_threads() * 4);
  pool->ParallelFor(shards, [&fn, n, shards](size_t shard, size_t worker) {
    fn(shard * n / shards, (shard + 1) * n / shards, worker);
  });
}

}  // namespace iqs

#endif  // IQS_UTIL_BATCH_OPTIONS_H_
