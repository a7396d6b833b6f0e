// The benchmark's workloads and the pieces they share.
//
// Every workload reports the same end-to-end metrics (the result line
// must carry each of them), each mapped onto that workload's own phases:
//
//   metric       serve_range           direct_batch         churn_log
//   p50_us/p99   low: request latency  single: Query call   reader QueryBatch
//   load_p50/99  mid: request latency  t0: QueryBatch call  read-only batches
//   peak_per_s   sat: requests/s       t4: samples/s        reader samples/s
//   aux_per_s    direct: queries/s     join: pairs/s        read-only samples/s
//   setup_s, peak_rss_mb, ok_ratio     (all workloads)
//
// The traced run (--trace 1) reports every per-layer metric; a layer a
// workload does not exercise reads 0.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "inputs.h"
#include "iqs/range/range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace perfbench {

void RunServeRange(const Args& args, Report* report, Tracer* tracer);
void RunDirectBatch(const Args& args, Report* report, Tracer* tracer);
void RunChurnLog(const Args& args, Report* report, Tracer* tracer);

// Every per-layer metric, with its unit, in report order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
std::span<const LayerMetric> LayerMetrics();

// Per-layer values gathered by a traced run; names not set read 0.
class LayerValues {
 public:
  void Set(const std::string& name, double value);
  // Adds every per-layer metric to `report`.
  void Emit(Report* report) const;

 private:
  std::vector<std::pair<std::string, double>> values_;
};

// QueryBatch split into its two public halves — ResolveInterval per query,
// then one QueryPositionsBatch — so the traced run can time each. Fills
// `result` as QueryBatch would. Opens "range.resolve" and `draw_span`
// spans when `tracer` is non-null, and adds the halves' durations to
// *resolve_ns and *draw_ns.
void SplitQueryBatch(const iqs::RangeSampler& sampler,
                     std::span<const iqs::BatchQuery> queries, iqs::Rng* rng,
                     iqs::ScratchArena* arena, const iqs::BatchOptions& opts,
                     iqs::BatchResult* result, Tracer* tracer,
                     const char* draw_span, uint64_t request,
                     uint64_t* resolve_ns, uint64_t* draw_ns);

// Law canary for a static range sampler: 1024 queries of 64 samples over
// the positions [a, a + kCanaryWidth) through QueryBatch under `opts`.
// Every sample must lie in the range, and the pooled positions must
// follow the exact weights at alpha 1e-6. Also confirms the position
// check rejects a corrupted copy.
constexpr size_t kCanaryWidth = 256;
void RangeLawCanary(const iqs::RangeSampler& sampler, const KeyedData& data,
                    size_t a, const iqs::BatchOptions& opts, uint64_t seed,
                    const std::string& what, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
