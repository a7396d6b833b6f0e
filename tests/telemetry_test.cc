// Tests for the serving telemetry layer (telemetry.h): counter semantics
// cross-checked against ground truth the test computes independently,
// histogram merge associativity, registry export, and the no-perturbation
// contract (attaching a sink never changes a sample stream — the
// thread-count half of that contract lives in parallel_batch_test.cc).

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/cover/coverage_engine.h"
#include "iqs/em/block_device.h"
#include "iqs/range/bst_range_sampler.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/simd/dispatch.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"
#include "iqs/util/thread_pool.h"
#include "test_util.h"

namespace iqs {
namespace {

TEST(LatencyHistogramTest, BucketBoundaries) {
  EXPECT_EQ(LatencyHistogram::BucketOf(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketOf(2), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(3), 2u);
  EXPECT_EQ(LatencyHistogram::BucketOf(4), 3u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1023), 10u);
  EXPECT_EQ(LatencyHistogram::BucketOf(1024), 11u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBoundNs(0), 0u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBoundNs(1), 1u);
  EXPECT_EQ(LatencyHistogram::BucketLowerBoundNs(11), 1024u);
  // Every value lands in the bucket whose [lower, 2*lower) range holds it.
  for (uint64_t ns : {uint64_t{5}, uint64_t{77}, uint64_t{1} << 40}) {
    const size_t b = LatencyHistogram::BucketOf(ns);
    EXPECT_GE(ns, LatencyHistogram::BucketLowerBoundNs(b));
    EXPECT_LT(ns / 2, LatencyHistogram::BucketLowerBoundNs(b + 1) / 2 + 1);
  }
}

TEST(LatencyHistogramTest, MergeIsAssociativeAcrossPartitions) {
  // Record a fixed multiset into shards three different ways (one shard,
  // two shards, seven shards) and merge: all three merged histograms must
  // be identical field for field.
  Rng rng(404);
  std::vector<uint64_t> samples(5000);
  for (uint64_t& ns : samples) {
    ns = rng.Below(1u << 20) + (rng.Below(16) == 0 ? (1u << 28) : 0);
  }
  auto merged_over = [&](size_t num_shards) {
    TelemetrySink sink(num_shards);
    for (size_t i = 0; i < samples.size(); ++i) {
      sink.shard(i % num_shards)->latency.Record(samples[i]);
    }
    return sink.MergedLatency();
  };
  const LatencyHistogram one = merged_over(1);
  EXPECT_EQ(one.count(), samples.size());
  for (size_t num_shards : {2u, 7u}) {
    const LatencyHistogram merged = merged_over(num_shards);
    EXPECT_EQ(merged, one) << num_shards << " shards";
    // Tail percentiles are derived from the merged buckets, so they must
    // be partition-invariant too — the export satellites (p999/p9999)
    // depend on exactly this.
    for (double p : {0.5, 0.99, 0.999, 0.9999}) {
      EXPECT_EQ(merged.PercentileUpperBoundNs(p),
                one.PercentileUpperBoundNs(p))
          << num_shards << " shards at p=" << p;
    }
  }
}

TEST(LatencyHistogramTest, PercentileUpperBounds) {
  LatencyHistogram h;
  for (int i = 0; i < 90; ++i) h.Record(100);   // bucket 7: [64, 128)
  for (int i = 0; i < 10; ++i) h.Record(5000);  // bucket 13: [4096, 8192)
  EXPECT_EQ(h.PercentileUpperBoundNs(0.5), 128u);
  EXPECT_EQ(h.PercentileUpperBoundNs(0.9), 128u);
  EXPECT_EQ(h.PercentileUpperBoundNs(0.99), 8192u);
  EXPECT_EQ(h.max_ns(), 5000u);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(LatencyHistogram{}.PercentileUpperBoundNs(0.5), 0u);
}

TEST(LatencyHistogramTest, TailPercentilesResolveDeepBuckets) {
  // A body at 100ns, a p999-visible shelf at 5µs, and a p9999-only spike
  // at 1ms — each tail quantile must land in its own bucket.
  LatencyHistogram h;
  for (int i = 0; i < 9980; ++i) h.Record(100);      // bucket [64, 128)
  for (int i = 0; i < 10; ++i) h.Record(5000);       // bucket [4096, 8192)
  for (int i = 0; i < 10; ++i) h.Record(1'000'000);  // [524288, 1048576)
  EXPECT_EQ(h.PercentileUpperBoundNs(0.99), 128u);
  EXPECT_EQ(h.PercentileUpperBoundNs(0.999), 8192u);
  EXPECT_EQ(h.PercentileUpperBoundNs(0.9999), 1048576u);
  EXPECT_EQ(h.PercentileUpperBoundNs(1.0), 1048576u);
}

TEST(QueryStatsTest, MergeSumsCountersAndMaxesHighWater) {
  QueryStats a;
  a.queries = 3;
  a.samples_emitted = 10;
  a.arena_bytes_hwm = 4096;
  QueryStats b;
  b.queries = 2;
  b.samples_emitted = 7;
  b.arena_bytes_hwm = 1024;
  a.backend_mask = simd::BackendBit(simd::Backend::kScalar);
  b.backend_mask = simd::BackendBit(simd::Backend::kAvx2);
  a.MergeFrom(b);
  EXPECT_EQ(a.queries, 5u);
  EXPECT_EQ(a.samples_emitted, 17u);
  EXPECT_EQ(a.arena_bytes_hwm, 4096u);  // max, not 5120
  // Backend tags merge by OR: the merged stats name every backend seen.
  EXPECT_EQ(a.backend_mask, simd::BackendBit(simd::Backend::kScalar) |
                                simd::BackendBit(simd::Backend::kAvx2));
}

TEST(TelemetryCountersTest, BatchCountersMatchGroundTruth) {
  // Sequential 1-d batch through the key-space QueryBatch entry point:
  // queries / samples_emitted are exactly computable from the query list;
  // each batch call records exactly one latency sample.
  Rng data_rng(7);
  const size_t n = 800;
  const std::vector<double> keys = UniformKeys(n, &data_rng);
  const std::vector<double> weights = ZipfWeights(n, 0.8, &data_rng);
  ChunkedRangeSampler sampler(keys, weights);

  std::vector<BatchQuery> queries;
  Rng qrng(9);
  size_t expected_samples = 0;
  for (int i = 0; i < 25; ++i) {
    const size_t a = qrng.Below(n / 2);
    const size_t b = n / 2 + qrng.Below(n / 2);
    const size_t s = 1 + qrng.Below(64);
    queries.push_back({keys[a], keys[b], s});
    expected_samples += s;
  }

  TelemetrySink sink;
  BatchOptions opts;
  opts.telemetry = &sink;
  Rng rng(1234);
  ScratchArena arena;
  BatchResult result;
  const int kBatches = 4;
  for (int round = 0; round < kBatches; ++round) {
    sampler.QueryBatch(queries, &rng, &arena, opts, &result);
    ASSERT_EQ(result.positions.size(), expected_samples);
  }

  const QueryStats stats = sink.MergedStats();
  EXPECT_EQ(stats.queries, kBatches * queries.size());
  EXPECT_EQ(stats.samples_emitted, kBatches * expected_samples);
  // The chunked structure lowers each interval to >= 1 chunk groups, and
  // only multi-group queries burn split draws (s doubles each).
  EXPECT_GE(stats.cover_groups, stats.queries);
  EXPECT_LE(stats.rng_draws, stats.samples_emitted);
  EXPECT_GT(stats.arena_bytes_hwm, 0u);
  // The batch is tagged with the kernel backend that served it.
  EXPECT_EQ(stats.backend_mask, simd::BackendBit(simd::ActiveBackend()));
  EXPECT_EQ(sink.MergedLatency().count(),
            static_cast<uint64_t>(kBatches));
}

TEST(TelemetryCountersTest, SplitDrawsCountMultiGroupQueriesOnly) {
  // A multi-group plan consumes exactly s split draws per query with
  // >= 2 groups; single-group queries consume none.
  const std::vector<double> weights(100, 1.0);
  CoverageEngine engine(weights);

  CoverPlan plan;
  plan.BeginQuery(12);  // two groups -> 12 draws
  plan.AddGroup(0, 9, 10.0);
  plan.AddGroup(50, 59, 10.0);
  plan.BeginQuery(30);  // one group -> 0 draws
  plan.AddGroup(20, 39, 20.0);

  TelemetrySink sink;
  BatchOptions opts;
  opts.telemetry = &sink;
  Rng rng(77);
  ScratchArena arena;
  std::vector<size_t> out;
  engine.SampleBatch(plan, &rng, &arena, opts, &out);
  ASSERT_EQ(out.size(), 42u);

  const QueryStats stats = sink.MergedStats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.cover_groups, 3u);
  EXPECT_EQ(stats.rng_draws, 12u);
  EXPECT_EQ(stats.samples_emitted, 42u);
}

TEST(TelemetryCountersTest, RejectionCountersMatchGroundTruth) {
  // rejection_attempts must equal the number of `accepts` invocations the
  // predicate actually saw, and rejection_rounds the number of retry
  // rounds — both counted independently by the test.
  const size_t n = 2000;
  Rng data_rng(31);
  std::vector<double> weights(n);
  for (double& w : weights) w = 0.2 + data_rng.NextDouble();
  CoverageEngine engine(weights);

  std::vector<CoverRange> cover = {{0, n - 1, 0.0}};
  for (size_t i = 0; i < n; ++i) cover[0].weight += weights[i];

  uint64_t invocations = 0;
  auto accepts = [&](size_t p) {
    ++invocations;
    return (p % 4) == 0;  // ~25% acceptance: several retry rounds
  };

  TelemetrySink sink;
  BatchOptions opts;
  opts.telemetry = &sink;
  Rng rng(55);
  ScratchArena arena;
  std::vector<size_t> out;
  engine.SampleWithRejection(cover, 5000, accepts, &rng, &arena, opts, &out);
  ASSERT_EQ(out.size(), 5000u);

  const QueryStats stats = sink.MergedStats();
  EXPECT_EQ(stats.rejection_attempts, invocations);
  EXPECT_GE(stats.rejection_rounds, 2u);  // 25% acceptance cannot one-shot
  EXPECT_EQ(stats.samples_emitted, stats.rejection_attempts);
}

TEST(TelemetryCountersTest, NodesVisitedTracksBstDescents) {
  Rng data_rng(3);
  const size_t n = 1000;
  const std::vector<double> keys = UniformKeys(n, &data_rng);
  const std::vector<double> weights = ZipfWeights(n, 0.5, &data_rng);
  BstRangeSampler sampler(keys, weights);

  std::vector<PositionQuery> queries(8, PositionQuery{10, n - 10, 100});
  TelemetrySink sink;
  BatchOptions opts;
  opts.telemetry = &sink;
  Rng rng(21);
  ScratchArena arena;
  std::vector<size_t> out;
  sampler.QueryPositionsBatch(queries, &rng, &arena, opts, &out);
  ASSERT_EQ(out.size(), 800u);
  // 800 draws each descend >= 1 level of the BST.
  EXPECT_GE(sink.MergedStats().nodes_visited, 800u);
}

TEST(TelemetryCountersTest, BlockDeviceCountersMatchDeviceCounters) {
  em::BlockDevice device(8);
  TelemetrySink sink;
  device.set_telemetry(&sink);

  std::vector<uint64_t> buf(8, 0);
  const size_t b0 = device.AllocateBlock();
  const size_t b1 = device.AllocateBlock();
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const size_t id = rng.Below(2) == 0 ? b0 : b1;
    if (rng.Below(3) == 0) {
      device.Write(id, buf);
    } else {
      device.Read(id, buf);
    }
  }
  const QueryStats stats = sink.MergedStats();
  EXPECT_EQ(stats.em_reads, device.reads());
  EXPECT_EQ(stats.em_writes, device.writes());
  EXPECT_EQ(stats.em_reads + stats.em_writes, 100u);
}

TEST(TelemetryCountersTest, ParallelBatchRecordsPoolActivity) {
  Rng data_rng(13);
  const size_t n = 3000;
  const std::vector<double> keys = UniformKeys(n, &data_rng);
  const std::vector<double> weights = ZipfWeights(n, 0.8, &data_rng);
  ChunkedRangeSampler sampler(keys, weights);

  std::vector<PositionQuery> queries(64, PositionQuery{5, n - 5, 200});
  TelemetrySink sink;
  ThreadPool pool(4);
  BatchOptions opts;
  opts.num_threads = 4;
  opts.pool = &pool;
  opts.telemetry = &sink;
  Rng rng(88);
  ScratchArena arena;
  std::vector<size_t> out;
  sampler.QueryPositionsBatch(queries, &rng, &arena, opts, &out);
  ASSERT_EQ(out.size(), 64u * 200u);

  const QueryStats stats = sink.MergedStats();
  EXPECT_EQ(stats.queries, 64u);
  EXPECT_EQ(stats.samples_emitted, 64u * 200u);
  // Multi-group queries burn split draws on the pooled path too.
  EXPECT_GE(stats.rng_draws, 1u);
  EXPECT_GT(stats.busy_ns, 0u);
  // ScopedPool must detach the sink when the batch ends.
  EXPECT_EQ(pool.telemetry(), nullptr);
}

TEST(MetricsRegistryTest, GetOrCreateIsStableAndResettable) {
  MetricsRegistry registry;
  TelemetrySink* a = registry.GetOrCreate("serving");
  TelemetrySink* b = registry.GetOrCreate("serving");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.Find("serving"), a);
  EXPECT_EQ(registry.Find("absent"), nullptr);

  a->shard(0)->stats.queries = 5;
  a->shard(0)->latency.Record(100);
  registry.ResetAll();
  EXPECT_EQ(a->MergedStats().queries, 0u);
  EXPECT_EQ(a->MergedLatency().count(), 0u);
}

TEST(MetricsRegistryTest, JsonExportContainsCountersAndBuckets) {
  MetricsRegistry registry;
  TelemetrySink* sink = registry.GetOrCreate("unit");
  sink->shard(0)->stats.queries = 7;
  sink->shard(0)->stats.samples_emitted = 99;
  sink->shard(1)->stats.queries = 3;
  sink->shard(0)->latency.Record(100);
  sink->shard(0)->latency.Record(5000);
  sink->shard(0)->stats.backend_mask =
      simd::BackendBit(simd::Backend::kScalar);
  sink->shard(1)->stats.backend_mask =
      simd::BackendBit(simd::Backend::kAvx2);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"telemetry\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"unit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"queries\": 10"), std::string::npos) << json;
  EXPECT_NE(json.find("\"samples_emitted\": 99"), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_ns\": 5000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p9999_ns\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kernel_backend\": \"scalar+avx2\""),
            std::string::npos)
      << json;

  const std::string text = registry.ToText();
  EXPECT_NE(text.find("unit"), std::string::npos) << text;
  EXPECT_NE(text.find("backend=scalar+avx2"), std::string::npos) << text;
  EXPECT_NE(text.find("p999<="), std::string::npos) << text;
  EXPECT_NE(text.find("p9999<="), std::string::npos) << text;
}

}  // namespace
}  // namespace iqs
