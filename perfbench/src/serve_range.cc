// serve_range — what online users see.
//
// A RangeServeFrontend with the ServeOptions defaults except for 2 shards
// (so a change to a default is measured as users get it), in front
// of one ChunkedRangeSampler over 2^20 keys. Queries are narrow (16-256
// keys, s = 8) and 80% of them fall in a 2048-key hot region, so the
// working set fits in cache and the serve layer's own costs — window
// wait, wake-up, hand-off — dominate at low rates. One spinning generator
// thread drives the phases:
//   low     open-loop Poisson arrivals at 20k queries/s
//   mid     open-loop Poisson arrivals at 300k queries/s
//   sat     closed loop with 1024 tickets outstanding
//   direct  the same queries as closed-loop QueryBatch calls of 256 on 2
//           threads with no frontend, the baseline the frontend must beat
// The phases run interleaved, one slice of each per cycle, so a burst of
// load on the shared host lands in some slices of every phase rather than
// in all of one phase. Open-loop latency runs from each query's SCHEDULED
// arrival to its ticket's completion stamp, so a stalled generator or
// worker charges the wait to every query queued behind it.

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/serve/frontend.h"
#include "iqs/util/telemetry.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kKeys = size_t{1} << 20;
constexpr size_t kShards = 2;
constexpr size_t kSamplesPerQuery = 8;
constexpr size_t kMinWidth = 16;
constexpr size_t kMaxWidth = 256;
constexpr size_t kHotKeys = 2048;
constexpr double kHotShare = 0.8;
constexpr double kLowQps = 20e3;
constexpr double kMidQps = 300e3;
constexpr size_t kSatTickets = 1024;
constexpr size_t kDirectBatch = 256;
constexpr size_t kDirectThreads = 2;
constexpr size_t kQueryPool = size_t{1} << 16;
constexpr size_t kRing = size_t{1} << 16;  // open-loop tickets in flight
constexpr double kWarmupShare = 0.1;       // of each slice, not measured
// One cycle: low, mid, sat and direct slices in these shares. The sat
// phase swings between batching regimes, so it gets the largest share.
constexpr size_t kCycles = 10;
constexpr double kLowShare = 0.2;
constexpr double kMidShare = 0.2;
constexpr double kSatShare = 0.4;
constexpr double kDirectShare = 0.2;
constexpr int kSetupReps = 9;
// Traced run: every flush is timed; one flush in 32 (per shard) and one
// submit in 1024 also keep full spans, which bounds the trace's size.
constexpr uint64_t kFlushSpanEvery = 32;
constexpr uint64_t kSubmitSpanEvery = 1024;

using Frontend = iqs::serve::RangeServeFrontend;
using Ticket = iqs::serve::ServeTicket<size_t>;

// Tickets live in arrays the generator scans while workers complete them;
// padding keeps neighbouring tickets off each other's cache lines, as
// separately allocated tickets of real callers would be.
struct alignas(128) PaddedTicket {
  Ticket ticket;
};
using iqs::serve::ServeStatus;

enum Phase : uint32_t { kLow = 0, kMid = 1, kSat = 2 };

// What the traced run's BatchFn wrapper records per flush.
struct FlushRecord {
  uint64_t entry_ns = 0;
  uint64_t exit_ns = 0;
  uint64_t first_ticket = 0;
  double first_lo = 0.0;
  uint32_t size = 0;
  uint32_t phase = 0;
};

// Written only by its shard's worker (inside the BatchFn); read by the
// main thread after Drain has joined the workers.
struct alignas(64) ShardTrace {
  std::vector<FlushRecord> flushes;
  uint64_t consumed = 0;  // queries this shard has flushed so far
  uint64_t traced_flushes = 0;
  iqs::TelemetrySink sink{1};
  uint64_t resolve_ns = 0;
  uint64_t draw_ns = 0;
  uint64_t queries = 0;
  uint64_t samples = 0;
};

// Ticket g carries query g % kQueryPool and goes to shard g % kShards.
// Each shard's queue is FIFO and nothing is shed or rejected, so the k-th
// query a shard flushes is ticket k * kShards + shard: the wrapper can
// name the tickets of a flush without touching them.
class Generator {
 public:
  Generator(Frontend* frontend, const std::vector<RangeQuery>& ranges,
            const std::vector<iqs::BatchQuery>& queries, Report* report)
      : frontend_(frontend),
        ranges_(ranges),
        queries_(queries),
        report_(report) {}

  uint64_t next_ticket() const { return next_; }

  // Submits ticket id next_ticket() into `ticket`; returns its id.
  uint64_t Submit(Ticket* ticket) {
    const uint64_t g = next_++;
    const iqs::BatchQuery& q = queries_[g % kQueryPool];
    report_->Attempt(1);
    if (!timed_) {
      frontend_->Submit(g % kShards, q, ticket);
      return g;
    }
    const uint64_t start = NowNs();
    {
      ScopedSpan span(g % kSubmitSpanEvery == 0 ? tracer_ : nullptr,
                      "serve.submit", g);
      frontend_->Submit(g % kShards, q, ticket);
    }
    submit_ns_.Add(static_cast<double>(NowNs() - start));
    return g;
  }

  // Checks a completed ticket's status and samples.
  void Check(const Ticket& ticket, uint64_t g) {
    const RangeQuery& r = ranges_[g % kQueryPool];
    if (ticket.status() != ServeStatus::kOk) {
      report_->Fail(1, std::string("ticket completed ") +
                           iqs::serve::ServeStatusName(ticket.status()));
    } else if (!PositionsOk(ticket.samples(), r.a, r.b, r.s)) {
      report_->Fail(1, "serve sample outside its query's range");
    }
  }

  // Times (and sometimes spans) each Submit from now on.
  void TimeSubmits(Tracer* tracer) {
    timed_ = true;
    tracer_ = tracer;
  }
  Samples* submit_ns() { return &submit_ns_; }

 private:
  Frontend* frontend_;
  const std::vector<RangeQuery>& ranges_;
  const std::vector<iqs::BatchQuery>& queries_;
  Report* report_;
  uint64_t next_ = 0;
  bool timed_ = false;
  Tracer* tracer_ = nullptr;
  Samples submit_ns_;
};

// One open-loop phase over all its slices.
struct OpenLoopLog {
  Samples latency_us;  // scheduled arrival -> completion
  Samples late_us;     // how late the generator submitted
  // Traced run only: admission and completion stamps per arrival, and per
  // slice its first ticket id and first index into the stamps.
  std::vector<uint64_t> submit_ns;
  std::vector<uint64_t> complete_ns;
  std::vector<std::pair<uint64_t, size_t>> slices;

  // Index into the stamps of ticket g, or SIZE_MAX if g is not one of
  // this phase's arrivals.
  size_t StampIndex(uint64_t g) const {
    auto it = std::upper_bound(
        slices.begin(), slices.end(), g,
        [](uint64_t t, const auto& slice) { return t < slice.first; });
    if (it == slices.begin()) return SIZE_MAX;
    const size_t end = it == slices.end() ? submit_ns.size() : it->second;
    --it;
    const size_t index = it->second + (g - it->first);
    return index < end ? index : SIZE_MAX;
  }
};

// Runs one slice of arrivals (offsets in ns from the slice start).
void RunOpenLoop(Generator* gen, PaddedTicket* ring,
                 const std::vector<uint64_t>& schedule, bool keep_stamps,
                 OpenLoopLog* out) {
  const size_t total = schedule.size();
  const size_t warmup = static_cast<size_t>(total * kWarmupShare);
  const uint64_t first_ticket = gen->next_ticket();
  const size_t stamp_base = out->submit_ns.size();
  if (keep_stamps) {
    out->slices.emplace_back(first_ticket, stamp_base);
    out->submit_ns.resize(stamp_base + total);
    out->complete_ns.resize(stamp_base + total);
  }
  const uint64_t start = NowNs() + 200000;
  size_t next = 0;
  size_t done = 0;
  // Retires the oldest outstanding arrival if its ticket has completed.
  auto harvest = [&] {
    if (done == next) return;
    Ticket& t = ring[done % kRing].ticket;
    if (t.status() == ServeStatus::kPending) return;
    gen->Check(t, first_ticket + done);
    if (done >= warmup) {
      out->latency_us.Add(
          static_cast<double>(t.complete_ns() - (start + schedule[done])) /
          1e3);
    }
    if (keep_stamps) {
      out->submit_ns[stamp_base + done] = t.submit_ns();
      out->complete_ns[stamp_base + done] = t.complete_ns();
    }
    t.Reset();
    ++done;
  };
  while (next < total) {
    const uint64_t due = start + schedule[next];
    while (next - done >= kRing) harvest();
    while (NowNs() < due) harvest();
    if (next >= warmup) {
      out->late_us.Add(static_cast<double>(NowNs() - due) / 1e3);
    }
    gen->Submit(&ring[next % kRing].ticket);
    ++next;
  }
  while (done < next) harvest();
}

// Closed loop: kSatTickets queries always outstanding. Appends the slice's
// per-window completed queries per second (by completion stamp).
void RunClosedLoop(Generator* gen, PaddedTicket* slots, double seconds,
                   std::vector<double>* window_rates) {
  std::vector<uint64_t> ticket_id(kSatTickets);
  const uint64_t start = NowNs();
  const uint64_t window_start =
      start + static_cast<uint64_t>(seconds * kWarmupShare * 1e9);
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  RateWindows completed(window_start, end, kWindows);
  auto finish = [&](size_t j) {
    Ticket& t = slots[j].ticket;
    gen->Check(t, ticket_id[j]);
    completed.Add(t.complete_ns(), 1.0);
    t.Reset();
  };
  for (size_t j = 0; j < kSatTickets; ++j) {
    ticket_id[j] = gen->Submit(&slots[j].ticket);
  }
  while (NowNs() < end) {
    for (size_t j = 0; j < kSatTickets; ++j) {
      if (slots[j].ticket.status() == ServeStatus::kPending) continue;
      finish(j);
      ticket_id[j] = gen->Submit(&slots[j].ticket);
    }
  }
  for (size_t j = 0; j < kSatTickets; ++j) {
    slots[j].ticket.Wait();
    finish(j);
  }
  completed.AppendRates(window_rates);
}

// The frontend's baseline: the same query stream as QueryBatch calls of
// kDirectBatch queries on kDirectThreads closed-loop threads. Appends the
// slice's per-window queries per second (by batch completion).
void RunDirect(const iqs::ChunkedRangeSampler& sampler,
               const std::vector<RangeQuery>& ranges,
               const std::vector<iqs::BatchQuery>& queries, uint64_t seed,
               uint64_t stream, double seconds, Report* report,
               std::vector<double>* window_rates) {
  const uint64_t start = NowNs();
  const uint64_t window_start =
      start + static_cast<uint64_t>(seconds * kWarmupShare * 1e9);
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<RateWindows> done(kDirectThreads,
                               RateWindows(window_start, end, kWindows));
  std::vector<uint64_t> attempted(kDirectThreads, 0);
  std::vector<uint64_t> failed(kDirectThreads, 0);
  auto body = [&](size_t t) {
    iqs::Rng rng = iqs::Rng(seed).ForkStream(stream * kDirectThreads + t);
    iqs::ScratchArena arena;
    iqs::BatchResult result;
    const size_t batches = kQueryPool / kDirectBatch;
    for (size_t b = t; NowNs() < end; b += kDirectThreads) {
      const size_t first = (b % batches) * kDirectBatch;
      sampler.QueryBatch(
          std::span<const iqs::BatchQuery>(queries).subspan(first,
                                                            kDirectBatch),
          &rng, &arena, &result);
      done[t].Add(NowNs(), kDirectBatch);
      attempted[t] += kDirectBatch;
      for (size_t i = 0; i < kDirectBatch; ++i) {
        const RangeQuery& r = ranges[first + i];
        if (result.resolved[i] == 0 ||
            !PositionsOk(result.SamplesFor(i), r.a, r.b, r.s)) {
          ++failed[t];
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < kDirectThreads; ++t) threads.emplace_back(body, t);
  body(0);
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kDirectThreads; ++t) {
    if (t > 0) done[0].MergeFrom(done[t]);
    report->Attempt(attempted[t]);
    if (failed[t] > 0) report->Fail(failed[t], "direct sample out of range");
  }
  done[0].AppendRates(window_rates);
}

}  // namespace

void RunServeRange(const Args& args, Report* report, Tracer* tracer) {
  const bool traced = args.trace;
  iqs::Rng rng(args.seed);
  const KeyedData data = MakeKeyedData(kKeys, &rng);
  const size_t hot_start =
      static_cast<size_t>(rng.Below(kKeys - kHotKeys + 1));
  const std::vector<RangeQuery> ranges =
      MakeRangeQueries(kQueryPool, kKeys, kMinWidth, kMaxWidth, hot_start,
                       kHotKeys, kHotShare, kSamplesPerQuery, &rng);
  const std::vector<iqs::BatchQuery> queries =
      ToBatchQueries(ranges, data.keys);
  const double cycle_s = args.seconds / kCycles;
  std::vector<std::vector<uint64_t>> low_schedule(kCycles);
  std::vector<std::vector<uint64_t>> mid_schedule(kCycles);
  for (size_t c = 0; c < kCycles; ++c) {
    low_schedule[c] = PoissonSchedule(kLowQps, kLowShare * cycle_s, &rng);
    mid_schedule[c] = PoissonSchedule(kMidQps, kMidShare * cycle_s, &rng);
  }
  const size_t canary_start =
      hot_start + static_cast<size_t>(rng.Below(kHotKeys - kCanaryWidth + 1));

  report->Param("keys", static_cast<double>(kKeys));
  report->Param("shards", static_cast<double>(kShards));
  report->Param("samples_per_query", static_cast<double>(kSamplesPerQuery));
  report->Param("width_keys", "[16, 256]");
  report->Param("hot_keys", static_cast<double>(kHotKeys));
  report->Param("hot_share", kHotShare);
  report->Param("low_qps", kLowQps);
  report->Param("mid_qps", kMidQps);
  report->Param("sat_tickets", static_cast<double>(kSatTickets));
  report->Param("cycles", static_cast<double>(kCycles));
  report->Param("cycle_s", cycle_s);

  // Set-up: the structure build, several times; the median is setup_s.
  std::unique_ptr<iqs::ChunkedRangeSampler> sampler;
  std::vector<double> builds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sampler.reset();
    const uint64_t t0 = NowNs();
    sampler =
        std::make_unique<iqs::ChunkedRangeSampler>(data.keys, data.weights);
    builds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const double setup_s = Median(builds);

  // Traced-run state shared with the BatchFn wrapper.
  std::vector<std::unique_ptr<ShardTrace>> shard_trace;
  for (size_t s = 0; s < kShards; ++s) {
    shard_trace.push_back(std::make_unique<ShardTrace>());
  }
  std::atomic<bool> spans_on{false};
  std::atomic<uint32_t> phase{kLow};
  const iqs::ChunkedRangeSampler& backend = *sampler;

  Frontend::BatchFn batch_fn;
  if (!traced) {
    batch_fn = [&backend](size_t, std::span<const iqs::BatchQuery> q,
                          iqs::Rng* r, iqs::ScratchArena* arena,
                          const iqs::BatchOptions& opts,
                          iqs::BatchResult* result) {
      backend.QueryBatch(q, r, arena, opts, result);
    };
  } else {
    batch_fn = [&](size_t shard, std::span<const iqs::BatchQuery> q,
                   iqs::Rng* r, iqs::ScratchArena* arena,
                   const iqs::BatchOptions& opts, iqs::BatchResult* result) {
      ShardTrace& st = *shard_trace[shard];
      const uint64_t first_ticket = st.consumed * kShards + shard;
      st.consumed += q.size();
      if (!spans_on.load(std::memory_order_acquire)) {
        backend.QueryBatch(q, r, arena, opts, result);
        return;
      }
      FlushRecord rec;
      rec.entry_ns = NowNs();
      rec.first_ticket = first_ticket;
      rec.first_lo = q[0].lo;
      rec.size = static_cast<uint32_t>(q.size());
      rec.phase = phase.load(std::memory_order_relaxed);
      iqs::BatchOptions inner = opts;
      inner.telemetry = &st.sink;
      {
        Tracer* t =
            st.traced_flushes++ % kFlushSpanEvery == 0 ? tracer : nullptr;
        ScopedSpan span(t, "serve.flush", first_ticket);
        SplitQueryBatch(backend, q, r, arena, inner, result, t,
                        "range.draw.chunked", first_ticket, &st.resolve_ns,
                        &st.draw_ns);
      }
      st.queries += q.size();
      st.samples += result->positions.size();
      rec.exit_ns = NowNs();
      st.flushes.push_back(rec);
    };
  }

  iqs::serve::ServeOptions options;
  options.num_shards = kShards;
  Frontend frontend(options, batch_fn);
  Generator gen(&frontend, ranges, queries, report);
  std::unique_ptr<PaddedTicket[]> ring(new PaddedTicket[kRing]);

  OpenLoopLog low;
  OpenLoopLog mid;
  std::vector<double> sat_rates;
  std::vector<double> sat_untraced_rates;
  std::vector<double> direct_rates;
  double sat_traced_s = 0.0;
  const CpuTimes cpu_before = ReadCpuTimes();
  if (traced) {
    gen.TimeSubmits(tracer);
    spans_on.store(true, std::memory_order_release);
  }
  for (size_t c = 0; c < kCycles; ++c) {
    phase.store(kLow, std::memory_order_relaxed);
    RunOpenLoop(&gen, ring.get(), low_schedule[c], traced, &low);
    phase.store(kMid, std::memory_order_relaxed);
    RunOpenLoop(&gen, ring.get(), mid_schedule[c], traced, &mid);
    if (!traced) {
      RunClosedLoop(&gen, ring.get(), kSatShare * cycle_s, &sat_rates);
      RunDirect(backend, ranges, queries, args.seed, c,
                kDirectShare * cycle_s, report, &direct_rates);
      continue;
    }
    // The traced run's sat slice runs twice, spans off then on: the gap is
    // the tracing overhead on the headline throughput.
    spans_on.store(false, std::memory_order_release);
    RunClosedLoop(&gen, ring.get(), kSatShare * cycle_s / 2.0,
                  &sat_untraced_rates);
    spans_on.store(true, std::memory_order_release);
    phase.store(kSat, std::memory_order_relaxed);
    const uint64_t t0 = NowNs();
    RunClosedLoop(&gen, ring.get(), kSatShare * cycle_s / 2.0, &sat_rates);
    sat_traced_s += static_cast<double>(NowNs() - t0) / 1e9;
  }
  // The sat phase swings between batching regimes, and the share of
  // windows in the faster one varies from run to run, so the better
  // decile over windows read that share: over the same 10 runs it spread
  // 0.15 (interquartile range over median), the mean of the windows 0.07.
  // Every sat slice has the same length, so the mean is the pooled rate.
  const double sat_qps = Mean(sat_rates);
  const CpuTimes cpu_after = ReadCpuTimes();
  frontend.Drain();
  const iqs::serve::ServeShardStats stats = frontend.MergedStats();
  if (stats.rejected + stats.shed > 0) {
    report->Fail(stats.rejected + stats.shed, "rejected or shed queries");
  }

  RangeLawCanary(backend, data, canary_start, iqs::BatchOptions{}, args.seed,
                 "chunked", report);

  if (!traced) {
    report->Percentiles("p50_us", "p99_us", low.latency_us, "us", 1.0);
    report->Percentiles("load_p50_us", "load_p99_us", mid.latency_us, "us",
                        1.0);
    report->Metric("peak_per_s", sat_qps, "1/s");
    report->Metric("aux_per_s",
                   Quantile(direct_rates, kHigherIsBetterQuantile), "1/s");
    report->Metric("setup_s", setup_s, "s", builds.size());
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Alias("p50_us", "serve_low_p50_us");
    report->Alias("p99_us", "serve_low_p99_us");
    report->Alias("load_p50_us", "serve_mid_p50_us");
    report->Alias("load_p99_us", "serve_mid_p99_us");
    report->Alias("peak_per_s", "serve_sat_qps");
    report->Alias("aux_per_s", "direct QueryBatch qps");
    return;
  }

  // ---- Per-layer metrics of the traced run. ----
  LayerValues layer;
  Samples queue_wait_us;
  Samples flush_us;
  Samples complete_us;
  double batch_sum[3] = {0, 0, 0};
  double batch_count[3] = {0, 0, 0};
  double sat_busy_ns = 0.0;
  iqs::QueryStats cover;
  uint64_t resolve_ns = 0;
  uint64_t draw_ns = 0;
  uint64_t traced_queries = 0;
  uint64_t traced_samples = 0;
  for (size_t shard = 0; shard < kShards; ++shard) {
    const ShardTrace& st = *shard_trace[shard];
    cover.MergeFrom(st.sink.MergedStats());
    resolve_ns += st.resolve_ns;
    draw_ns += st.draw_ns;
    traced_queries += st.queries;
    traced_samples += st.samples;
    for (const FlushRecord& rec : st.flushes) {
      flush_us.Add(static_cast<double>(rec.exit_ns - rec.entry_ns) / 1e3);
      batch_sum[rec.phase] += rec.size;
      batch_count[rec.phase] += 1;
      if (rec.phase == kSat) {
        sat_busy_ns += static_cast<double>(rec.exit_ns - rec.entry_ns);
        continue;
      }
      // Match the flush's tickets to their admission/completion stamps.
      const OpenLoopLog& ol = rec.phase == kLow ? low : mid;
      const uint64_t last =
          rec.first_ticket + (uint64_t{rec.size} - 1) * kShards;
      if (ol.StampIndex(rec.first_ticket) == SIZE_MAX ||
          ol.StampIndex(last) == SIZE_MAX ||
          queries[rec.first_ticket % kQueryPool].lo != rec.first_lo) {
        report->Fail(1, "flush does not match its tickets");
        continue;
      }
      for (uint64_t g = rec.first_ticket; g <= last; g += kShards) {
        const uint64_t submit = ol.submit_ns[ol.StampIndex(g)];
        queue_wait_us.Add(static_cast<double>(rec.entry_ns - submit) / 1e3);
      }
      complete_us.Add(
          static_cast<double>(ol.complete_ns[ol.StampIndex(last)] -
                              rec.exit_ns) /
          1e3);
    }
  }
  layer.Set("serve.queue_wait_us.p50", queue_wait_us.Percentile(0.5));
  layer.Set("serve.queue_wait_us.p99", queue_wait_us.Percentile(0.99));
  layer.Set("serve.flush_us.p50", flush_us.Percentile(0.5));
  layer.Set("serve.complete_us.p50", complete_us.Percentile(0.5));
  layer.Set("serve.submit_ns.p50", gen.submit_ns()->Percentile(0.5));
  const char* kBatchNames[3] = {"serve.batch_size.mean.low",
                                "serve.batch_size.mean.mid",
                                "serve.batch_size.mean.sat"};
  for (int p = 0; p < 3; ++p) {
    layer.Set(kBatchNames[p],
              batch_count[p] > 0 ? batch_sum[p] / batch_count[p] : 0.0);
  }
  layer.Set("serve.worker_busy_share",
            sat_busy_ns / (kShards * sat_traced_s * 1e9));
  layer.Set("serve.rejected", static_cast<double>(stats.rejected));
  layer.Set("serve.shed", static_cast<double>(stats.shed));
  layer.Set("serve.gen_late_us.p99",
            std::max(low.late_us.Percentile(0.99),
                     mid.late_us.Percentile(0.99)));
  layer.Set("range.resolve_ns_per_query",
            static_cast<double>(resolve_ns) / traced_queries);
  layer.Set("range.chunked.draw_ns_per_sample",
            static_cast<double>(draw_ns) / traced_samples);
  layer.Set("range.chunked.build_s", setup_s);
  layer.Set("range.chunked.bytes_per_key",
            static_cast<double>(backend.MemoryBytes()) / kKeys);
  layer.Set("cover.groups_per_query",
            static_cast<double>(cover.cover_groups) / cover.queries);
  layer.Set("cover.rng_draws_per_sample",
            static_cast<double>(cover.rng_draws) / cover.samples_emitted);
  layer.Set("cover.arena_bytes_hwm",
            static_cast<double>(cover.arena_bytes_hwm));
  layer.Set("host.steal_pct", StealPct(cpu_before, cpu_after));
  const double sat_untraced_qps = Mean(sat_untraced_rates);
  layer.Set("trace.overhead_pct",
            100.0 * (sat_untraced_qps - sat_qps) / sat_untraced_qps);
  layer.Emit(report);
}

}  // namespace perfbench
