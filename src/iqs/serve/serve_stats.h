// Per-shard serving-frontend statistics (serve/frontend.h).
//
// Unlike the sampling pipeline's TelemetrySink — which must be free when
// detached because it guards per-SAMPLE hot loops — these counters are
// always on: every recording site runs once per submit or once per
// flushed batch, against work that is micro- to milliseconds of sampling,
// so there is nothing to save by gating them. Each shard worker owns its
// shard's stats under the shard mutex (the same mutex that orders the
// queue), and snapshots are taken by copying under that mutex, so there
// are no atomics and no torn reads. The guarding is enforced at the
// owning site: ServeFrontend::ShardState declares its stats field
// IQS_GUARDED_BY(mu), so a clang -Wthread-safety build rejects any
// access outside that shard's mutex. The struct itself carries no
// annotations — it is plain data, guarded wherever it is embedded.
//
// The three histograms reuse LatencyHistogram's log₂ bucketing:
//   batch_size          Record(k) per flushed micro-batch of k queries —
//                       the coalescing histogram (buckets are counts, not
//                       ns); mean = sum/count.
//   time_in_queue_ns    submit → flush-start, one sample per flushed
//                       query (including shed ones — their queue time is
//                       exactly why they were shed).
//   time_in_batch_ns    flush-start → batch completion, one sample per
//                       executed batch. Queue time vs batch time is the
//                       saturation signal: until the worker saturates,
//                       p50(time_in_queue) stays in the same decade as
//                       time_in_batch (below saturation a query waits
//                       out at most the flush already running).

#ifndef IQS_SERVE_SERVE_STATS_H_
#define IQS_SERVE_SERVE_STATS_H_

#include <cstdint>
#include <string>

#include "iqs/util/telemetry.h"

namespace iqs {
namespace serve {

struct ServeShardStats {
  uint64_t submitted = 0;        // admitted into the queue
  uint64_t rejected = 0;         // refused (kReject policy or draining)
  uint64_t shed = 0;             // flushed past deadline_ns, not sampled
  uint64_t completed = 0;        // terminal kOk or kEmpty
  uint64_t batches_flushed = 0;  // micro-batches handed to the backend
  uint64_t queue_depth_hwm = 0;  // high-water queue depth (max-merged)

  LatencyHistogram batch_size;        // per flushed batch: query count
  LatencyHistogram time_in_queue_ns;  // per flushed query
  LatencyHistogram time_in_batch_ns;  // per executed batch

  void MergeFrom(const ServeShardStats& other);
  bool operator==(const ServeShardStats&) const = default;
};

// One JSON object / text block per snapshot; schema documented in README
// "Serving frontend". Percentiles are bucket upper bounds, as in the
// MetricsRegistry exporters.
std::string ServeStatsToJson(const ServeShardStats& stats);
std::string ServeStatsToText(const ServeShardStats& stats);

}  // namespace serve
}  // namespace iqs

#endif  // IQS_SERVE_SERVE_STATS_H_
