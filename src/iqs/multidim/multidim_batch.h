// Batch request/result types for the multidim samplers' QueryBatch entry
// points — the Section-5 analogue of RangeSampler::QueryBatch. Every
// multidim structure reduces a geometric query to cover groups
// (CoverPlan) and serves the whole batch through the shared CoverExecutor
// pipeline; these are just the flat input/output shapes.
//
// Samplers that return positions/ids (KdTreeNdSampler, RangeTreeNdSampler)
// reuse BatchResult from range_sampler.h; the 2-d samplers return points.

#ifndef IQS_MULTIDIM_MULTIDIM_BATCH_H_
#define IQS_MULTIDIM_MULTIDIM_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "iqs/cover/coverage_engine.h"
#include "iqs/multidim/point.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"

namespace iqs::multidim {

// One rectangle query of a serving batch: draw `s` independent weighted
// samples from S ∩ rect.
struct RectBatchQuery {
  Rect rect;
  size_t s = 0;
};

// Flat result of a 2-d QueryBatch call. Points for query i occupy
// points[offsets[i] .. offsets[i+1]); a query whose region holds no point
// has resolved[i] == 0 and an empty slice. Reusing one result across
// calls amortizes its buffers away.
struct PointBatchResult {
  std::vector<Point2> points;
  std::vector<size_t> offsets;    // size num_queries() + 1
  std::vector<uint8_t> resolved;  // 1 iff the region was nonempty

  size_t num_queries() const { return resolved.size(); }

  std::span<const Point2> SamplesFor(size_t i) const {
    IQS_DCHECK(i + 1 < offsets.size());
    return std::span<const Point2>(points).subspan(
        offsets[i], offsets[i + 1] - offsets[i]);
  }

  void Clear() {
    points.clear();
    offsets.clear();
    resolved.clear();
  }
};

namespace internal {

// Shared rect-batch pipeline for engine-backed 2-d samplers (kd-tree,
// quadtree): enumerate each query's cover into one CoverPlan, serve every
// draw of the batch through CoverageEngine::SampleBatch (one CoverExecutor
// run), then map positions back to points. `Tree` needs CoverQuery() and
// PointAt(). Canonical argument order (queries, rng, arena, opts, result);
// one batch latency sample is recorded when opts.telemetry is set.
template <typename Tree>
void ServeRectBatch(const Tree& tree, const CoverageEngine& engine,
                    std::span<const RectBatchQuery> queries, Rng* rng,
                    ScratchArena* arena, const BatchOptions& opts,
                    PointBatchResult* result) {
  const uint64_t start_ns = opts.telemetry != nullptr ? TelemetryNowNs() : 0;
  result->Clear();
  arena->Reset();
  CoverPlan plan(arena);
  thread_local std::vector<CoverRange> cover;
  thread_local std::vector<size_t> positions;
  const size_t q = queries.size();
  result->resolved.resize(q);
  result->offsets.resize(q + 1);
  size_t total_samples = 0;
  for (size_t i = 0; i < q; ++i) {
    result->offsets[i] = total_samples;
    cover.clear();
    tree.CoverQuery(queries[i].rect, &cover);
    const bool ok = !cover.empty();
    result->resolved[i] = ok ? 1 : 0;
    plan.BeginQuery(queries[i].s);
    if (!ok || queries[i].s == 0) continue;
    for (const CoverRange& range : cover) plan.AddGroup(range);
    total_samples += queries[i].s;
  }
  result->offsets[q] = total_samples;

  positions.clear();
  positions.reserve(total_samples);
  engine.SampleBatch(plan, rng, arena, opts, &positions);
  IQS_CHECK(positions.size() == total_samples);
  result->points.reserve(total_samples);
  for (size_t p : positions) result->points.push_back(tree.PointAt(p));
  if (opts.telemetry != nullptr) {
    opts.telemetry->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
  }
}

}  // namespace internal

}  // namespace iqs::multidim

#endif  // IQS_MULTIDIM_MULTIDIM_BATCH_H_
