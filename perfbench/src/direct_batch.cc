// direct_batch — callers that use the library without the frontend.
//
// The serve layer does no work here; the cover, alias/SIMD, thread-pool
// and join layers do all of it. Phases:
//   t0      QueryBatch with default BatchOptions over BstRangeSampler,
//           AugRangeSampler and ChunkedRangeSampler at n = 2^20: batches
//           of 256 queries, s = 64, widths uniform in 2^10..2^14 keys
//           anywhere, so the working set (the aug structure alone is
//           ~466 MB) exceeds the last-level cache
//   t4      the same batches through a persistent 4-thread ThreadPool
//   single  RangeSampler::Query calls, one at a time
//   join    JoinSampler over 2^17 + 2^17 rectangles (about 1.16%
//           selectivity), SampleJoinBatch of 64 queries x 32 pairs
// t0 against t4 separates the sequential path from the parallel one, and
// the join build dominates setup_s.

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "inputs.h"
#include "iqs/join/join_sampler.h"
#include "iqs/range/aug_range_sampler.h"
#include "iqs/range/bst_range_sampler.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/util/telemetry.h"
#include "iqs/util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kKeys = size_t{1} << 20;
constexpr size_t kBatch = 256;
constexpr size_t kSamplesPerQuery = 64;
constexpr size_t kMinWidth = size_t{1} << 10;
constexpr size_t kMaxWidth = size_t{1} << 14;
constexpr size_t kDistinctBatches = 64;  // pregenerated, cycled
constexpr size_t kThreads = 4;
constexpr size_t kRectsPerRelation = size_t{1} << 17;
constexpr size_t kJoinQueries = 64;
constexpr size_t kJoinPairs = 32;
constexpr size_t kSingleBlock = 64;  // Query calls per sampler turn
// One cycle: a t0 slice, a t4 slice, a single slice, then one join batch
// (about 0.5 s on a 4-core Xeon) in the remaining share.
constexpr double kCycleSeconds = 2.0;
constexpr size_t kMinCycles = 4;  // the first is warm-up
constexpr double kT0Share = 0.3;
constexpr double kT4Share = 0.25;
constexpr double kSingleShare = 0.2;
constexpr int kSetupReps = 3;
constexpr size_t kLawBuckets = 64;  // join law: r ids in 64 equal buckets
// Traced run: one single-query call in 16 keeps a span.
constexpr uint64_t kSingleSpanEvery = 16;

constexpr size_t kNumSamplers = 3;
constexpr std::array<const char*, kNumSamplers> kNames = {"bst", "aug",
                                                          "chunked"};
constexpr std::array<const char*, kNumSamplers> kDrawSpans = {
    "range.draw.bst", "range.draw.aug", "range.draw.chunked"};
constexpr std::array<const char*, kNumSamplers> kQuerySpans = {
    "range.query.bst", "range.query.aug", "range.query.chunked"};

using Samplers = std::array<std::unique_ptr<iqs::RangeSampler>, kNumSamplers>;
using Sinks = std::array<iqs::TelemetrySink, kNumSamplers>;

struct Structures {
  Samplers samplers;
  std::unique_ptr<iqs::join::JoinSampler> join;
};

// One batch mode (t0 or t4): its options, its RNG streams and what its
// measured calls recorded. In the traced run `split_every` = k > 0 makes
// every k-th round go through SplitQueryBatch with spans and per-sampler
// sinks; the other rounds call QueryBatch as an untraced run would.
struct BatchMode {
  iqs::BatchOptions opts;
  uint64_t split_every = 0;
  std::array<iqs::Rng, kNumSamplers> rngs;
  uint64_t rounds = 0;
  // Per measured call, indexed [split]: samples drawn and seconds taken.
  std::vector<double> samples[2];
  std::vector<double> secs[2];
  Samples call_us;  // every measured call
  // Split calls only.
  Sinks sinks;
  std::array<uint64_t, kNumSamplers> draw_ns{};
  std::array<uint64_t, kNumSamplers> drawn{};
  uint64_t resolve_ns = 0;
  uint64_t queries = 0;
  uint64_t calls = 0;
};

// Every query of a batch must resolve and return s positions in its range.
uint64_t CountBadQueries(const iqs::BatchResult& result,
                         std::span<const RangeQuery> ranges) {
  uint64_t bad = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (result.resolved[i] == 0 ||
        !PositionsOk(result.SamplesFor(i), ranges[i].a, ranges[i].b,
                     ranges[i].s)) {
      ++bad;
    }
  }
  return bad;
}

class PhaseRunner {
 public:
  PhaseRunner(const Samplers& samplers, const KeyedData& data,
         const std::vector<RangeQuery>& ranges,
         const std::vector<iqs::BatchQuery>& queries, uint64_t seed,
         Tracer* tracer, Report* report)
      : samplers_(samplers),
        data_(data),
        ranges_(ranges),
        queries_(queries),
        tracer_(tracer),
        report_(report),
        single_rng_(iqs::Rng(seed).ForkStream(300)) {}

  // Rounds of one batch on each sampler, until `end_ns`.
  void RunBatches(BatchMode* mode, uint64_t end_ns, bool measured) {
    while (NowNs() < end_ns) {
      const uint64_t round = mode->rounds++;
      const size_t first = (round % kDistinctBatches) * kBatch;
      const auto batch =
          std::span<const iqs::BatchQuery>(queries_).subspan(first, kBatch);
      const bool split =
          mode->split_every > 0 && round % mode->split_every == 0;
      for (size_t k = 0; k < kNumSamplers; ++k) {
        const uint64_t t0 = NowNs();
        if (split) {
          iqs::BatchOptions inner = mode->opts;
          inner.telemetry = &mode->sinks[k];
          ScopedSpan span(tracer_, "range.query_batch", round);
          SplitQueryBatch(*samplers_[k], batch, &mode->rngs[k], &arena_, inner,
                          &result_, tracer_, kDrawSpans[k], round,
                          &mode->resolve_ns, &mode->draw_ns[k]);
          mode->drawn[k] += result_.positions.size();
          mode->queries += kBatch;
          mode->calls += 1;
        } else {
          samplers_[k]->QueryBatch(batch, &mode->rngs[k], &arena_, mode->opts,
                                   &result_);
        }
        const uint64_t t1 = NowNs();
        report_->Attempt(kBatch);
        const uint64_t bad = CountBadQueries(
            result_,
            std::span<const RangeQuery>(ranges_).subspan(first, kBatch));
        if (bad > 0) {
          report_->Fail(bad, std::string(kNames[k]) +
                                 " batch sample out of range");
        }
        if (!measured) continue;
        mode->call_us.Add(static_cast<double>(t1 - t0) / 1e3);
        mode->samples[split].push_back(
            static_cast<double>(result_.positions.size()));
        mode->secs[split].push_back(static_cast<double>(t1 - t0) / 1e9);
      }
    }
  }

  // Blocks of kSingleBlock Query calls on one sampler, then the next,
  // until `end_ns`. Each call is timed; outputs are checked per block.
  void RunSingle(uint64_t end_ns, bool measured) {
    std::vector<size_t> offsets(kSingleBlock + 1);
    std::vector<uint8_t> ok(kSingleBlock);
    while (NowNs() < end_ns) {
      const uint64_t block = single_blocks_++;
      const iqs::RangeSampler& sampler = *samplers_[block % kNumSamplers];
      const char* span_name = kQuerySpans[block % kNumSamplers];
      const size_t first = (block * kSingleBlock) % ranges_.size();
      single_out_.clear();
      for (size_t i = 0; i < kSingleBlock; ++i) {
        const RangeQuery& r = ranges_[first + i];
        const uint64_t call = block * kSingleBlock + i;
        offsets[i] = single_out_.size();
        const uint64_t t0 = NowNs();
        {
          ScopedSpan span(call % kSingleSpanEvery == 0 ? tracer_ : nullptr,
                          span_name, call);
          ok[i] = sampler.Query(data_.keys[r.a], data_.keys[r.b], r.s,
                                &single_rng_, &single_out_)
                      ? 1
                      : 0;
        }
        const uint64_t t1 = NowNs();
        if (measured) single_us_.Add(static_cast<double>(t1 - t0) / 1e3);
      }
      offsets[kSingleBlock] = single_out_.size();
      report_->Attempt(kSingleBlock);
      for (size_t i = 0; i < kSingleBlock; ++i) {
        const RangeQuery& r = ranges_[first + i];
        const std::span<const size_t> got(single_out_.data() + offsets[i],
                                          offsets[i + 1] - offsets[i]);
        if (ok[i] == 0 || !PositionsOk(got, r.a, r.b, r.s)) {
          report_->Fail(1, "single-query sample out of range");
        }
      }
    }
  }

  const Samples& single_us() const { return single_us_; }

 private:
  const Samplers& samplers_;
  const KeyedData& data_;
  const std::vector<RangeQuery>& ranges_;
  const std::vector<iqs::BatchQuery>& queries_;
  Tracer* tracer_;
  Report* report_;
  iqs::ScratchArena arena_;
  iqs::BatchResult result_;
  iqs::Rng single_rng_;
  uint64_t single_blocks_ = 0;
  std::vector<size_t> single_out_;
  Samples single_us_;
};

// Exact number of S-partners of each R rectangle, by a windowed scan over
// S sorted on x_lo — an oracle independent of the sampler's sweep.
std::vector<uint64_t> JoinDegrees(const std::vector<iqs::multidim::Rect>& r,
                                  const std::vector<iqs::multidim::Rect>& s) {
  std::vector<iqs::multidim::Rect> sorted = s;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& x, const auto& y) { return x.x_lo < y.x_lo; });
  std::vector<uint64_t> degree(r.size(), 0);
  for (size_t i = 0; i < r.size(); ++i) {
    // A partner has x_lo in [r.x_lo - kRectMaxWidthX, r.x_hi].
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), r[i].x_lo - kRectMaxWidthX,
        [](const auto& rect, double x) { return rect.x_lo < x; });
    for (; it != sorted.end() && it->x_lo <= r[i].x_hi; ++it) {
      degree[i] += r[i].Intersects(*it) ? 1 : 0;
    }
  }
  return degree;
}

}  // namespace

void RunDirectBatch(const Args& args, Report* report, Tracer* tracer) {
  const bool traced = args.trace;
  iqs::Rng rng(args.seed);
  const KeyedData data = MakeKeyedData(kKeys, &rng);
  const std::vector<RangeQuery> ranges =
      MakeRangeQueries(kDistinctBatches * kBatch, kKeys, kMinWidth, kMaxWidth,
                       0, kKeys, 0.0, kSamplesPerQuery, &rng);
  const std::vector<iqs::BatchQuery> queries =
      ToBatchQueries(ranges, data.keys);
  const std::vector<iqs::multidim::Rect> rel_r =
      MakeRects(kRectsPerRelation, &rng);
  const std::vector<iqs::multidim::Rect> rel_s =
      MakeRects(kRectsPerRelation, &rng);
  const size_t canary_start =
      static_cast<size_t>(rng.Below(kKeys - kCanaryWidth + 1));

  report->Param("keys", static_cast<double>(kKeys));
  report->Param("batch_queries", static_cast<double>(kBatch));
  report->Param("samples_per_query", static_cast<double>(kSamplesPerQuery));
  report->Param("width_keys", "[1024, 16384]");
  report->Param("threads_t4", static_cast<double>(kThreads));
  report->Param("rects_per_relation", static_cast<double>(kRectsPerRelation));
  report->Param("join_batch", "\"64 x 32\"");

  // Set-up: every structure, kSetupReps times; medians.
  Structures st;
  std::array<std::vector<double>, kNumSamplers + 1> build_s;
  std::vector<double> setup_total;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (auto& s : st.samplers) s.reset();
    st.join.reset();
    double total = 0.0;
    for (size_t k = 0; k <= kNumSamplers; ++k) {
      const uint64_t t0 = NowNs();
      if (k == 0) {
        st.samplers[0] =
            std::make_unique<iqs::BstRangeSampler>(data.keys, data.weights);
      } else if (k == 1) {
        st.samplers[1] =
            std::make_unique<iqs::AugRangeSampler>(data.keys, data.weights);
      } else if (k == 2) {
        st.samplers[2] =
            std::make_unique<iqs::ChunkedRangeSampler>(data.keys, data.weights);
      } else {
        st.join = std::make_unique<iqs::join::JoinSampler>(rel_r, rel_s);
      }
      const double s = static_cast<double>(NowNs() - t0) / 1e9;
      build_s[k].push_back(s);
      total += s;
    }
    setup_total.push_back(total);
  }
  const std::vector<uint64_t> degree = JoinDegrees(rel_r, rel_s);

  iqs::ThreadPool pool(kThreads);
  BatchMode t0;
  BatchMode t4;
  t4.opts.num_threads = kThreads;
  t4.opts.pool = &pool;
  for (size_t k = 0; k < kNumSamplers; ++k) {
    t0.rngs[k] = iqs::Rng(args.seed).ForkStream(100 + k);
    t4.rngs[k] = iqs::Rng(args.seed).ForkStream(200 + k);
  }
  if (traced) {
    // t0 alternates split-and-traced rounds with plain ones; the gap
    // between them is the tracing overhead. t4 is split throughout.
    t0.split_every = 2;
    t4.split_every = 1;
  }
  PhaseRunner runner(st.samplers, data, ranges, queries, args.seed, tracer,
                     report);

  const std::vector<iqs::join::JoinBatchQuery> join_queries(
      kJoinQueries, iqs::join::JoinBatchQuery{kJoinPairs});
  iqs::TelemetrySink join_sink;
  iqs::BatchOptions join_opts;
  if (traced) join_opts.telemetry = &join_sink;
  iqs::Rng join_rng = iqs::Rng(args.seed).ForkStream(400);
  iqs::ScratchArena join_arena;
  iqs::join::JoinBatchResult join_result;
  std::vector<double> join_batch_s;
  std::vector<uint64_t> r_buckets(kLawBuckets, 0);

  // The phases run interleaved, one slice of each per cycle, so every
  // figure samples the same stretch of the shared host's weather. The
  // first cycle is warm-up.
  const size_t cycles =
      std::max<size_t>(kMinCycles, static_cast<size_t>(args.seconds /
                                                       kCycleSeconds));
  const double cycle_s = args.seconds / static_cast<double>(cycles);
  const CpuTimes cpu_before = ReadCpuTimes();
  for (size_t c = 0; c < cycles; ++c) {
    const bool measured = c > 0;
    const uint64_t cycle_start = NowNs();
    auto at = [&](double share) {
      return cycle_start + static_cast<uint64_t>(share * cycle_s * 1e9);
    };
    runner.RunBatches(&t0, at(kT0Share), measured);
    runner.RunBatches(&t4, at(kT0Share + kT4Share), measured);
    runner.RunSingle(at(kT0Share + kT4Share + kSingleShare), measured);

    // One join batch per cycle.
    const uint64_t t0_ns = NowNs();
    {
      ScopedSpan span(tracer, "join.sample_batch", c);
      st.join->SampleJoinBatch(join_queries, &join_rng, &join_arena,
                               join_opts, &join_result);
    }
    const uint64_t t1_ns = NowNs();
    if (measured) join_batch_s.push_back(static_cast<double>(t1_ns - t0_ns) / 1e9);
    report->Attempt(kJoinQueries);
    for (size_t q = 0; q < kJoinQueries; ++q) {
      const auto pairs = join_result.SamplesFor(q);
      bool ok = join_result.resolved[q] != 0 && pairs.size() == kJoinPairs;
      for (const iqs::join::JoinPair& p : pairs) {
        ok = ok && p.r_id < rel_r.size() && p.s_id < rel_s.size() &&
             rel_r[p.r_id].Intersects(rel_s[p.s_id]);
        if (ok) ++r_buckets[p.r_id * kLawBuckets / rel_r.size()];
      }
      if (!ok) report->Fail(1, "join pair does not intersect");
    }
  }
  const CpuTimes cpu_after = ReadCpuTimes();

  // Law canaries: every range structure under both option sets, and the
  // join's r-marginal over all pairs drawn above against exact degrees.
  for (size_t k = 0; k < kNumSamplers; ++k) {
    RangeLawCanary(*st.samplers[k], data, canary_start, iqs::BatchOptions{},
                   args.seed, kNames[k], report);
    RangeLawCanary(*st.samplers[k], data, canary_start, t4.opts, args.seed,
                   std::string(kNames[k]) + " t4", report);
  }
  {
    std::vector<double> law(kLawBuckets, 0.0);
    const double total = static_cast<double>(
        std::accumulate(degree.begin(), degree.end(), uint64_t{0}));
    for (size_t i = 0; i < degree.size(); ++i) {
      law[i * kLawBuckets / degree.size()] +=
          static_cast<double>(degree[i]) / total;
    }
    double p_value = 0.0;
    report->Attempt(1);
    if (!LawOk(r_buckets, law, &p_value)) {
      report->Fail(1, "join law canary failed, p=" + std::to_string(p_value));
    }
    // A pair whose rectangles do not intersect must be rejected.
    const iqs::join::JoinPair good = join_result.SamplesFor(0)[0];
    uint32_t bad_s = 0;
    while (rel_r[good.r_id].Intersects(rel_s[bad_s])) ++bad_s;
    SelfCheck(report, "a non-intersecting join pair",
              [&] { return rel_r[good.r_id].Intersects(rel_s[bad_s]); });
  }

  // Batch time on the same footing as the windowed figures.
  const double join_batch_time_s =
      Quantile(join_batch_s, kLowerIsBetterQuantile);
  const double t0_sps = WindowedRatio(t0.samples[0], t0.secs[0], kWindows);
  const Samples& single_us = runner.single_us();
  if (!traced) {
    report->Percentiles("p50_us", "p99_us", single_us, "us", 1.0);
    report->Percentiles("load_p50_us", "load_p99_us", t0.call_us, "us", 1.0);
    report->Metric("peak_per_s",
                   WindowedRatio(t4.samples[0], t4.secs[0], kWindows), "1/s");
    report->Metric("aux_per_s", kJoinQueries * kJoinPairs / join_batch_time_s,
                   "1/s", join_batch_s.size());
    report->Metric("setup_s", Median(setup_total), "s", setup_total.size());
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Alias("p50_us", "single Query call");
    report->Alias("p99_us", "single Query call");
    report->Alias("load_p50_us", "t0 QueryBatch call");
    report->Alias("load_p99_us", "t0 QueryBatch call");
    report->Alias("peak_per_s", "batch_t4_sps");
    report->Alias("aux_per_s", "join pairs/s");
    report->Info("batch_t0_sps", t0_sps, "1/s");
    report->Info("single_qps", single_us.count() / (single_us.Sum() / 1e6),
                 "1/s", single_us.count());
    report->Info("join_batch_ms", join_batch_time_s * 1e3, "ms",
                 join_batch_s.size());
    return;
  }

  // ---- Per-layer metrics of the traced run. ----
  LayerValues layer;
  iqs::QueryStats cover;
  for (const auto& sink : t0.sinks) cover.MergeFrom(sink.MergedStats());
  layer.Set("range.resolve_ns_per_query",
            static_cast<double>(t0.resolve_ns) / t0.queries);
  for (size_t k = 0; k < kNumSamplers; ++k) {
    const std::string prefix = std::string("range.") + kNames[k];
    const double t0_ns = static_cast<double>(t0.draw_ns[k]) / t0.drawn[k];
    const double t4_ns = static_cast<double>(t4.draw_ns[k]) / t4.drawn[k];
    layer.Set(prefix + ".draw_ns_per_sample", t0_ns);
    layer.Set(prefix + ".t4_speedup", t0_ns / t4_ns);
    layer.Set(prefix + ".build_s", Median(build_s[k]));
    layer.Set(prefix + ".bytes_per_key",
              static_cast<double>(st.samplers[k]->MemoryBytes()) / kKeys);
  }
  layer.Set("range.single_ns.p50", single_us.Percentile(0.5) * 1e3);
  layer.Set("cover.groups_per_query",
            static_cast<double>(cover.cover_groups) / cover.queries);
  layer.Set("cover.rng_draws_per_sample",
            static_cast<double>(cover.rng_draws) / cover.samples_emitted);
  const iqs::QueryStats bst = t0.sinks[0].MergedStats();
  layer.Set("range.bst.nodes_per_sample",
            static_cast<double>(bst.nodes_visited) / bst.samples_emitted);
  layer.Set("cover.arena_bytes_hwm",
            static_cast<double>(cover.arena_bytes_hwm));
  iqs::QueryStats t4_stats;
  for (const auto& sink : t4.sinks) t4_stats.MergeFrom(sink.MergedStats());
  const double t4_draw_ns = static_cast<double>(
      std::accumulate(t4.draw_ns.begin(), t4.draw_ns.end(), uint64_t{0}));
  layer.Set("pool.busy_share",
            static_cast<double>(t4_stats.busy_ns) / (kThreads * t4_draw_ns));
  layer.Set("pool.steals_per_batch",
            static_cast<double>(t4_stats.steals) / t4.calls);
  const iqs::QueryStats join_stats = join_sink.MergedStats();
  layer.Set("join.build_s", Median(build_s[kNumSamplers]));
  layer.Set("join.ns_per_pair", join_batch_time_s * 1e9 / (kJoinQueries * kJoinPairs));
  layer.Set("join.cover_groups_per_query",
            static_cast<double>(join_stats.cover_groups) / join_stats.queries);
  layer.Set("join.bytes_per_rect",
            static_cast<double>(st.join->MemoryBytes()) /
                (2 * kRectsPerRelation));
  layer.Set("host.steal_pct", StealPct(cpu_before, cpu_after));
  const double t0_split_sps =
      WindowedRatio(t0.samples[1], t0.secs[1], kWindows);
  layer.Set("trace.overhead_pct",
            100.0 * (t0_sps - t0_split_sps) / t0_sps);
  layer.Emit(report);
}

}  // namespace perfbench
