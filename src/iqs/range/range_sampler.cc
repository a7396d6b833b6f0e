#include "iqs/range/range_sampler.h"

#include <algorithm>

#include "iqs/cover/cover_executor.h"
#include "iqs/util/telemetry.h"

namespace iqs {

RangeSampler::RangeSampler(std::span<const double> keys)
    : keys_(keys.begin(), keys.end()) {
  IQS_CHECK(!keys_.empty());
  for (size_t i = 1; i < keys_.size(); ++i) {
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    IQS_CHECK(keys_[i - 1] < keys_[i]);
  }
}

bool RangeSampler::ResolveInterval(double lo, double hi, size_t* a,
                                   size_t* b) const {
  if (lo > hi) return false;
  const auto first = std::lower_bound(keys_.begin(), keys_.end(), lo);
  if (first == keys_.end() || *first > hi) return false;
  const auto last = std::upper_bound(first, keys_.end(), hi);
  *a = static_cast<size_t>(first - keys_.begin());
  *b = static_cast<size_t>(last - keys_.begin()) - 1;
  return true;
}

void RangeSampler::QueryPositions(size_t a, size_t b, size_t s, Rng* rng,
                                  std::vector<size_t>* out) const {
  IQS_CHECK(a <= b && b < n());
  if (s == 0) return;
  const PositionQuery query{a, b, s};
  const std::span<const PositionQuery> one(&query, 1);
  ScratchArena arena;
  QueryPositionsBatch(one, rng, &arena, BatchOptions{}, out);
}

bool RangeSampler::Query(double lo, double hi, size_t s, Rng* rng,
                         std::vector<size_t>* out) const {
  size_t a = 0;
  size_t b = 0;
  if (!ResolveInterval(lo, hi, &a, &b)) return false;
  QueryPositions(a, b, s, rng, out);
  return true;
}

void RangeSampler::QueryBatch(std::span<const BatchQuery> queries, Rng* rng,
                              ScratchArena* arena,
                              BatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

void RangeSampler::QueryBatch(std::span<const BatchQuery> queries, Rng* rng,
                              ScratchArena* arena, const BatchOptions& opts,
                              BatchResult* result) const {
  const uint64_t start_ns = opts.telemetry != nullptr ? TelemetryNowNs() : 0;
  result->Clear();
  arena->Reset();
  const size_t q = queries.size();
  result->resolved.resize(q);
  result->offsets.resize(q + 1);

  // Resolve all intervals up front; unresolved queries keep s == 0 so the
  // position pass below can stay branch-light.
  const std::span<PositionQuery> resolved = arena->Alloc<PositionQuery>(q);
  size_t total_samples = 0;
  for (size_t i = 0; i < q; ++i) {
    PositionQuery& pq = resolved[i];
    const bool ok =
        ResolveInterval(queries[i].lo, queries[i].hi, &pq.a, &pq.b);
    result->resolved[i] = ok ? 1 : 0;
    pq.s = ok ? queries[i].s : 0;
    result->offsets[i] = total_samples;
    total_samples += pq.s;
  }
  result->offsets[q] = total_samples;

  result->positions.resize(total_samples);
  QueryPositionsBatch(resolved, rng, arena, opts,
                      std::span<size_t>(result->positions));
  if (opts.telemetry != nullptr) {
    opts.telemetry->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
  }
}

void RangeSampler::QueryPositionsBatch(std::span<const PositionQuery> queries,
                                       Rng* rng, ScratchArena* arena,
                                       const BatchOptions& opts,
                                       std::vector<size_t>* out) const {
  size_t total = 0;
  for (const PositionQuery& q : queries) total += q.s;
  const size_t base = out->size();
  out->resize(base + total);
  QueryPositionsBatch(queries, rng, arena, opts,
                      std::span<size_t>(*out).subspan(base));
}

void RangeSampler::QueryPositionsBatch(std::span<const PositionQuery> queries,
                                       Rng* rng, ScratchArena* arena,
                                       const BatchOptions& opts,
                                       std::span<size_t> out) const {
  // Generic path for structures without a grouped kernel: one group per
  // request, each drawn by QueryPositions from its block's stream.
  CoverPlan plan(arena);
  for (const PositionQuery& q : queries) {
    plan.BeginQuery(q.s);
    if (q.s > 0) plan.AddGroup(q.a, q.b, 1.0);
  }
  CoverExecutor::Execute(
      plan, rng, arena, opts,
      [this](const CoverBlock& block) {
        std::vector<size_t> drawn;
        drawn.reserve(block.dst.size());
        for (size_t g = block.first_group; g < block.end_group; ++g) {
          const CoverGroup& group = block.plan.groups()[g];
          QueryPositions(group.lo, group.hi, block.counts[g], block.rng,
                         &drawn);
        }
        IQS_DCHECK(drawn.size() == block.dst.size());
        std::copy(drawn.begin(), drawn.end(), block.dst.begin());
      },
      out);
}

}  // namespace iqs
