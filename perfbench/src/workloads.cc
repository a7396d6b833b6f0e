#include "workloads.h"

#include <utility>

namespace perfbench {

namespace {

constexpr LayerMetric kLayerMetrics[] = {
    {"serve.queue_wait_us.p50", "us"},
    {"serve.queue_wait_us.p99", "us"},
    {"serve.flush_us.p50", "us"},
    {"serve.complete_us.p50", "us"},
    {"serve.submit_ns.p50", "ns"},
    {"serve.batch_size.mean.low", "queries"},
    {"serve.batch_size.mean.mid", "queries"},
    {"serve.batch_size.mean.sat", "queries"},
    {"serve.worker_busy_share", "ratio"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.gen_late_us.p99", "us"},
    {"range.resolve_ns_per_query", "ns"},
    {"range.bst.draw_ns_per_sample", "ns"},
    {"range.aug.draw_ns_per_sample", "ns"},
    {"range.chunked.draw_ns_per_sample", "ns"},
    {"range.bst.t4_speedup", "x"},
    {"range.aug.t4_speedup", "x"},
    {"range.chunked.t4_speedup", "x"},
    {"range.bst.build_s", "s"},
    {"range.aug.build_s", "s"},
    {"range.chunked.build_s", "s"},
    {"range.bst.bytes_per_key", "B"},
    {"range.aug.bytes_per_key", "B"},
    {"range.chunked.bytes_per_key", "B"},
    {"range.single_ns.p50", "ns"},
    {"cover.groups_per_query", "groups"},
    {"cover.rng_draws_per_sample", "draws"},
    {"range.bst.nodes_per_sample", "nodes"},
    {"cover.arena_bytes_hwm", "B"},
    {"pool.busy_share", "ratio"},
    {"pool.steals_per_batch", "steals"},
    {"join.build_s", "s"},
    {"join.ns_per_pair", "ns"},
    {"join.cover_groups_per_query", "groups"},
    {"join.bytes_per_rect", "B"},
    {"epoch.rebuild_share", "ratio"},
    {"epoch.reclaim_lag", "objects"},
    {"epoch.reader_pins_per_batch", "pins"},
    {"log.components.mean", "components"},
    {"log.insert_ns.p50", "ns"},
    {"host.steal_pct", "%"},
    {"trace.overhead_pct", "%"},
};

}  // namespace

std::span<const LayerMetric> LayerMetrics() { return kLayerMetrics; }

void LayerValues::Set(const std::string& name, double value) {
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void LayerValues::Emit(Report* report) const {
  for (const LayerMetric& m : kLayerMetrics) {
    double value = 0.0;
    for (const auto& [n, v] : values_) {
      if (n == m.name) value = v;
    }
    report->Metric(m.name, value, m.unit);
  }
  for (const auto& [n, v] : values_) {
    bool listed = false;
    for (const LayerMetric& m : kLayerMetrics) listed |= n == m.name;
    if (!listed) report->Fail(1, "unlisted per-layer metric " + n);
  }
}

void SplitQueryBatch(const iqs::RangeSampler& sampler,
                     std::span<const iqs::BatchQuery> queries, iqs::Rng* rng,
                     iqs::ScratchArena* arena, const iqs::BatchOptions& opts,
                     iqs::BatchResult* result, Tracer* tracer,
                     const char* draw_span, uint64_t request,
                     uint64_t* resolve_ns, uint64_t* draw_ns) {
  result->Clear();
  arena->Reset();
  const size_t q = queries.size();
  result->resolved.resize(q);
  result->offsets.resize(q + 1);
  const std::span<iqs::PositionQuery> resolved =
      arena->Alloc<iqs::PositionQuery>(q);

  const uint64_t t0 = NowNs();
  size_t total = 0;
  {
    ScopedSpan span(tracer, "range.resolve", request);
    for (size_t i = 0; i < q; ++i) {
      iqs::PositionQuery& pq = resolved[i];
      const bool ok =
          sampler.ResolveInterval(queries[i].lo, queries[i].hi, &pq.a, &pq.b);
      result->resolved[i] = ok ? 1 : 0;
      pq.s = ok ? queries[i].s : 0;
      result->offsets[i] = total;
      total += pq.s;
    }
    result->offsets[q] = total;
  }
  const uint64_t t1 = NowNs();
  result->positions.reserve(total);
  {
    ScopedSpan span(tracer, draw_span, request);
    sampler.QueryPositionsBatch(resolved, rng, arena, opts,
                                &result->positions);
  }
  const uint64_t t2 = NowNs();
  *resolve_ns += t1 - t0;
  *draw_ns += t2 - t1;
}

void RangeLawCanary(const iqs::RangeSampler& sampler, const KeyedData& data,
                    size_t a, const iqs::BatchOptions& opts, uint64_t seed,
                    const std::string& what, Report* report) {
  constexpr size_t kQueries = 1024;
  constexpr size_t kSamples = 64;
  const size_t b = a + kCanaryWidth - 1;
  const std::vector<iqs::BatchQuery> queries(
      kQueries, iqs::BatchQuery{data.keys[a], data.keys[b], kSamples});
  iqs::Rng rng = iqs::Rng(seed).ForkStream(0xca7a);
  iqs::ScratchArena arena;
  iqs::BatchResult result;
  sampler.QueryBatch(queries, &rng, &arena, opts, &result);
  report->Attempt(1);
  for (size_t i = 0; i < kQueries; ++i) {
    if (result.resolved[i] == 0 ||
        !PositionsOk(result.SamplesFor(i), a, b, kSamples)) {
      report->Fail(1, what + " canary sample out of range");
      return;
    }
  }
  std::vector<uint64_t> counts(kCanaryWidth, 0);
  for (const size_t p : result.positions) ++counts[p - a];
  double p_value = 0.0;
  if (!LawOk(counts, RangeLaw(data.weights, a, b), &p_value)) {
    report->Fail(1, what + " law canary failed, p=" + std::to_string(p_value));
  }
  std::vector<size_t> corrupted(result.SamplesFor(0).begin(),
                                result.SamplesFor(0).end());
  corrupted[0] = b + 1;
  SelfCheck(report, "a position past the range",
            [&] { return PositionsOk(corrupted, a, b, kSamples); });
}

}  // namespace perfbench
