// Execution options for the batched serving entry points (QueryBatch,
// QueryPositionsBatch, CoverageEngine::SampleBatch, the multidim
// QueryBatch family).
//
// One RNG contract serves every num_threads (cover/cover_executor.h): a
// batch takes one key word from the caller's Rng and is cut into blocks
// of consecutive queries by sample count; block b draws from its own
// substream of the key. num_threads and pool only decide WHERE blocks
// run, so the output is byte-identical for every num_threads, 0 included:
//
//   num_threads <= 1, pool == nullptr (the default) — blocks run inline
//     on the calling thread with the caller's arena; no pool is built.
//   otherwise — blocks are sharded over the pool's workers.
//
// The pool: pass a persistent ThreadPool to amortize thread creation and
// keep per-worker arenas warm across batches; with pool == nullptr and
// num_threads >= 2 a transient pool of num_threads workers is created for
// the call (fine for one-off batches, wasteful in a serving loop). When a
// pool is supplied its worker count wins.

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
  size_t num_threads = 0;      // <= 1 = inline; >= 2 = sharded blocks
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
};

// Resolves a pooled BatchOptions to a usable pool: the caller's,
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
// must make output independent of the sharding (per-block substreams).
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
