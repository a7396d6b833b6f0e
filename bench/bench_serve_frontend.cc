// E25 — closed-loop serving-frontend sweep: micro-batching vs no batching.
//
// Open-loop Poisson traffic (exponential inter-arrivals, schedule fixed
// up front and shared between modes, so there is no coordinated
// omission): kProducers producer threads each fire kArrivalsPerProducer
// single queries at a ChunkedRangeSampler, at offered loads swept as
// multiples of the DIRECT path's calibrated capacity. Two disciplines
// over the same structure, same queries, same arrival times:
//
//   * direct   — the no-batching baseline: the producer serves each
//     arrival itself with a singleton RangeSampler::Query call.
//   * frontend — the producer submits to a serve::ServeFrontend
//     micro-batcher and the shard worker serves coalesced QueryBatch
//     calls (opportunistic batching: each flush takes whatever queued
//     during the previous one, up to 256 queries).
//
// Latency per query is completion − SCHEDULED arrival (not actual submit),
// so producers that fall behind pay their backlog in the tail — the
// honest open-loop measurement. Percentiles come from LatencyHistogram
// (p50/p99/p999 upper bounds). The expected shape: at low load direct
// wins p50 (no queue hop or worker wakeup); as load approaches capacity
// the baseline's per-query cost saturates the core and its tail
// explodes, while the frontend's grouped batches (E19 economics) keep
// the queue bounded — the p99 crossover is the headline.
//
// Single-core caveat (as E24): producers and the shard worker timeshare,
// so absolute qps is not a scaling claim; the direct-vs-frontend tail
// split at equal offered load is the robust signal.
//
// Writes BENCH_serve_frontend.json (array of row objects).

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/range_sampler.h"
#include "iqs/serve/frontend.h"
#include "iqs/serve/ticket.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/telemetry.h"

namespace {

// Single-user traffic: each arrival wants a handful of samples from a
// modest interval. This is micro-batching's home turf — a singleton query
// pays the full O(log n) resolve + per-chunk cover setup for s=8 draws,
// while a coalesced batch amortizes those fixed costs across users
// (plus one multinomial-split pipeline for the whole flush).
constexpr size_t kN = 1 << 16;
constexpr size_t kProducers = 2;
constexpr size_t kArrivalsPerProducer = 4000;
constexpr size_t kSamplesPerQuery = 8;
// Hotspot traffic: most users query a small hot region (the usual skewed
// access pattern). Coalesced batches then share chunk-level block draws
// and cache lines across users — the E19 effect the frontend exists to
// harvest; the singleton baseline re-resolves the same region per query.
constexpr double kHotFraction = 0.8;
constexpr size_t kHotRegionKeys = 2048;
constexpr size_t kCalibrationQueries = 1024;
// The top multipliers sit deep in overload on purpose: calibration on a
// noisy shared box can underestimate capacity by tens of percent, and the
// frontend-vs-direct comparison is only guaranteed past BOTH paths'
// saturation knees (where the smaller per-query cost means strictly less
// backlog). 0.25/0.6 chart the uncontended region.
constexpr double kLoadMultipliers[] = {0.25, 0.6, 1.2, 2.0};

struct Row {
  std::string mode;  // "direct" | "frontend"
  double load_mult = 0.0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  uint64_t queries = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t max_ns = 0;
  uint64_t batches = 0;
  double mean_batch = 0.0;
};

// Sleeps until the target TelemetryNowNs instant; coarse sleep for the
// bulk, then yields — spinning hard would starve the shard worker on a
// single-core box and measure the scheduler, not the frontend.
void SleepUntilNs(uint64_t target_ns) {
  for (;;) {
    const uint64_t now = iqs::TelemetryNowNs();
    if (now >= target_ns) return;
    const uint64_t remaining = target_ns - now;
    if (remaining > 120 * 1000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(remaining - 60 * 1000));
    } else {
      std::this_thread::yield();
    }
  }
}

// The fixed per-producer workload: query i and its scheduled arrival
// offset from the run's start. Offsets are drawn once per (load,
// producer) and shared verbatim by both modes.
struct Schedule {
  std::vector<iqs::BatchQuery> queries;
  std::vector<uint64_t> offsets_ns;
};

std::vector<iqs::BatchQuery> MakeQueries(uint64_t seed) {
  iqs::Rng rng(seed);
  std::vector<iqs::BatchQuery> queries;
  queries.reserve(kArrivalsPerProducer);
  for (size_t i = 0; i < kArrivalsPerProducer; ++i) {
    const bool hot = rng.NextDouble() < kHotFraction;
    const double span =
        static_cast<double>(hot ? kHotRegionKeys : kN - 512);
    const double lo = rng.NextDouble() * span;
    const double width = 16.0 + rng.NextDouble() * 240.0;
    queries.push_back(iqs::BatchQuery{lo, lo + width, kSamplesPerQuery});
  }
  return queries;
}

std::vector<uint64_t> MakePoissonOffsets(uint64_t seed, double rate_qps) {
  iqs::Rng rng(seed);
  std::vector<uint64_t> offsets;
  offsets.reserve(kArrivalsPerProducer);
  double t_ns = 0.0;
  const double mean_gap_ns = 1e9 / rate_qps;
  for (size_t i = 0; i < kArrivalsPerProducer; ++i) {
    // Exponential inter-arrival; 1 - u avoids log(0).
    t_ns += -std::log(1.0 - rng.NextDouble()) * mean_gap_ns;
    offsets.push_back(static_cast<uint64_t>(t_ns));
  }
  return offsets;
}

Row SummarizeRun(const char* mode, double load_mult, double offered_qps,
                 const std::vector<iqs::LatencyHistogram>& latencies,
                 double elapsed_seconds) {
  Row row;
  row.mode = mode;
  row.load_mult = load_mult;
  row.offered_qps = offered_qps;
  iqs::LatencyHistogram merged;
  for (const iqs::LatencyHistogram& h : latencies) merged.MergeFrom(h);
  row.queries = merged.count();
  row.achieved_qps = static_cast<double>(merged.count()) / elapsed_seconds;
  row.p50_ns = merged.PercentileUpperBoundNs(0.50);
  row.p99_ns = merged.PercentileUpperBoundNs(0.99);
  row.p999_ns = merged.PercentileUpperBoundNs(0.999);
  row.max_ns = merged.max_ns();
  return row;
}

// No-batching baseline: each producer serves its own arrivals with
// singleton Query calls.
Row RunDirect(const iqs::ChunkedRangeSampler& sampler,
              const std::vector<Schedule>& schedules, double load_mult,
              double offered_qps) {
  std::vector<iqs::LatencyHistogram> latencies(kProducers);
  std::vector<std::thread> producers;
  const uint64_t base_ns = iqs::TelemetryNowNs();
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      iqs::Rng rng(5000 + p);
      std::vector<size_t> out;
      const Schedule& sched = schedules[p];
      for (size_t i = 0; i < sched.queries.size(); ++i) {
        const uint64_t scheduled_ns = base_ns + sched.offsets_ns[i];
        SleepUntilNs(scheduled_ns);
        out.clear();
        const iqs::BatchQuery& q = sched.queries[i];
        sampler.Query(q.lo, q.hi, q.s, &rng, &out);
        latencies[p].Record(iqs::TelemetryNowNs() - scheduled_ns);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  const double elapsed =
      static_cast<double>(iqs::TelemetryNowNs() - base_ns) / 1e9;
  return SummarizeRun("direct", load_mult, offered_qps, latencies, elapsed);
}

// Micro-batching frontend over the same sampler, queries, and schedule.
Row RunFrontend(const iqs::ChunkedRangeSampler& sampler,
                const std::vector<Schedule>& schedules, double load_mult,
                double offered_qps) {
  iqs::serve::ServeOptions options;
  options.max_batch = 256;
  options.seed = 2025;
  iqs::serve::RangeServeFrontend frontend(
      options,
      [&sampler](size_t /*shard*/, std::span<const iqs::BatchQuery> queries,
                 iqs::Rng* rng, iqs::ScratchArena* arena,
                 const iqs::BatchOptions& opts, iqs::BatchResult* result) {
        sampler.QueryBatch(queries, rng, arena, opts, result);
      });

  std::vector<std::unique_ptr<std::vector<iqs::serve::ServeTicket<size_t>>>>
      tickets;
  for (size_t p = 0; p < kProducers; ++p) {
    tickets.push_back(
        std::make_unique<std::vector<iqs::serve::ServeTicket<size_t>>>(
            kArrivalsPerProducer));
  }

  std::vector<std::thread> producers;
  const uint64_t base_ns = iqs::TelemetryNowNs();
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const Schedule& sched = schedules[p];
      for (size_t i = 0; i < sched.queries.size(); ++i) {
        SleepUntilNs(base_ns + sched.offsets_ns[i]);
        frontend.Submit(0, sched.queries[i], &(*tickets[p])[i]);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  frontend.Drain();
  const double elapsed =
      static_cast<double>(iqs::TelemetryNowNs() - base_ns) / 1e9;

  // Latency against the SCHEDULED arrival, like the baseline, so worker
  // wakeup, queueing, and submit backpressure all land in the same metric.
  std::vector<iqs::LatencyHistogram> latencies(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    const Schedule& sched = schedules[p];
    for (size_t i = 0; i < kArrivalsPerProducer; ++i) {
      const iqs::serve::ServeTicket<size_t>& ticket = (*tickets[p])[i];
      const uint64_t scheduled_ns = base_ns + sched.offsets_ns[i];
      latencies[p].Record(ticket.complete_ns() > scheduled_ns
                              ? ticket.complete_ns() - scheduled_ns
                              : 0);
    }
  }
  Row row =
      SummarizeRun("frontend", load_mult, offered_qps, latencies, elapsed);
  const iqs::serve::ServeShardStats stats = frontend.MergedStats();
  row.batches = stats.batches_flushed;
  row.mean_batch = stats.batch_size.count() != 0
                       ? static_cast<double>(stats.batch_size.sum_ns()) /
                             static_cast<double>(stats.batch_size.count())
                       : 0.0;
  return row;
}

void PrintRow(const Row& r) {
  std::printf("%-9s %5.2f %11.3e %11.3e %8" PRIu64 " %10" PRIu64 " %10" PRIu64
              " %10" PRIu64 " %11" PRIu64 " %8" PRIu64 " %10.1f\n",
              r.mode.c_str(), r.load_mult, r.offered_qps, r.achieved_qps,
              r.queries, r.p50_ns, r.p99_ns, r.p999_ns, r.max_ns, r.batches,
              r.mean_batch);
}

}  // namespace

int main() {
  iqs::Rng prep(42);
  std::vector<double> keys(kN);
  std::vector<double> weights(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = static_cast<double>(i);
    weights[i] = 0.5 + prep.NextDouble();
  }
  const iqs::ChunkedRangeSampler sampler(keys, weights);

  // Calibrate the DIRECT path's capacity: back-to-back singleton queries
  // on one thread. Offered loads sweep multiples of this, so the sweep is
  // machine-independent.
  const std::vector<iqs::BatchQuery> calibration = MakeQueries(1);
  {
    // Warm caches before timing.
    iqs::Rng rng(11);
    std::vector<size_t> out;
    for (size_t i = 0; i < 64; ++i) {
      out.clear();
      const iqs::BatchQuery& q = calibration[i];
      sampler.Query(q.lo, q.hi, q.s, &rng, &out);
    }
  }
  // Best of three passes: the MIN per-query time is the least-interfered
  // estimate, so load multipliers scale off the structure's true cost,
  // not a descheduling hiccup.
  uint64_t per_query_ns = ~uint64_t{0};
  iqs::Rng cal_rng(12);
  std::vector<size_t> cal_out;
  for (int pass = 0; pass < 3; ++pass) {
    const uint64_t cal_start = iqs::TelemetryNowNs();
    for (size_t i = 0; i < kCalibrationQueries; ++i) {
      cal_out.clear();
      const iqs::BatchQuery& q = calibration[i % calibration.size()];
      sampler.Query(q.lo, q.hi, q.s, &cal_rng, &cal_out);
    }
    const uint64_t pass_ns =
        (iqs::TelemetryNowNs() - cal_start) / kCalibrationQueries;
    if (pass_ns < per_query_ns) per_query_ns = pass_ns;
  }
  const double capacity_qps = 1e9 / static_cast<double>(per_query_ns);

  // And the batched path, for the printed amortization factor (the sweep
  // itself measures it end to end through the frontend).
  uint64_t batched_query_ns = 0;
  {
    iqs::Rng rng(13);
    iqs::ScratchArena arena;
    iqs::BatchResult result;
    const std::span<const iqs::BatchQuery> window(calibration.data(), 256);
    const uint64_t t0 = iqs::TelemetryNowNs();
    constexpr size_t kReps = 8;
    for (size_t rep = 0; rep < kReps; ++rep) {
      result.Clear();
      arena.Reset();
      sampler.QueryBatch(window, &rng, &arena, &result);
    }
    batched_query_ns =
        (iqs::TelemetryNowNs() - t0) / (kReps * window.size());
  }

  std::printf(
      "E25: serving frontend vs no-batching baseline under open-loop "
      "Poisson load (n=%zu, s=%zu/query, %zu producers, direct capacity "
      "~%.3e qps @ %" PRIu64 " ns/query; batched path %" PRIu64
      " ns/query at window 256)\n",
      kN, kSamplesPerQuery, kProducers, capacity_qps, per_query_ns,
      batched_query_ns);
  std::printf("%-9s %5s %11s %11s %8s %10s %10s %10s %11s %8s %10s\n", "mode",
              "load", "offered_qps", "achieved", "queries", "p50_ns", "p99_ns",
              "p999_ns", "max_ns", "batches", "mean_batch");

  std::vector<Row> rows;
  for (const double mult : kLoadMultipliers) {
    const double offered_qps = mult * capacity_qps;
    // Same queries and the same Poisson arrival schedule for both modes.
    std::vector<Schedule> schedules;
    for (size_t p = 0; p < kProducers; ++p) {
      Schedule sched;
      sched.queries = MakeQueries(100 + p);
      sched.offsets_ns = MakePoissonOffsets(
          static_cast<uint64_t>(mult * 1000) * 10 + p,
          offered_qps / static_cast<double>(kProducers));
      schedules.push_back(std::move(sched));
    }
    rows.push_back(RunDirect(sampler, schedules, mult, offered_qps));
    PrintRow(rows.back());
    rows.push_back(RunFrontend(sampler, schedules, mult, offered_qps));
    PrintRow(rows.back());
  }

  std::FILE* json = std::fopen("BENCH_serve_frontend.json", "w");
  if (json != nullptr) {
    std::fprintf(json, "[\n");
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          json,
          "  {\"mode\": \"%s\", \"load_mult\": %.2f, \"offered_qps\": %.6e, "
          "\"achieved_qps\": %.6e, \"queries\": %" PRIu64
          ", \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
          ", \"p999_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64
          ", \"batches\": %" PRIu64 ", \"mean_batch\": %.2f}%s\n",
          r.mode.c_str(), r.load_mult, r.offered_qps, r.achieved_qps,
          r.queries, r.p50_ns, r.p99_ns, r.p999_ns, r.max_ns, r.batches,
          r.mean_batch, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "]\n");
    std::fclose(json);
    std::printf("\nwrote BENCH_serve_frontend.json (%zu rows)\n", rows.size());
  }
  return 0;
}
