// churn_log — the range layer used with writes beside reads.
//
// A LogarithmicRangeSampler is preloaded by Insert with 2^20 even keys
// (the preload is setup_s). One writer then inserts a fixed,
// seed-determined sequence of odd keys at a fixed 20k inserts/s while two
// readers issue QueryBatch calls of 256 hot/cold queries (s = 8) in a
// closed loop. The epoch publish/reclaim path and the carry-merge
// rebuilds run only here, so a change that speeds reads by costing
// inserts or memory shows up here and nowhere else. The insert tail comes
// from carry merges, so the insert count and key order are fixed by the
// seed and --seconds alone.
//
// The run is 10 cycles of a read-only slice, in which the writer pauses
// and the readers query an identical preloaded structure that is never
// written, then a churn slice, in which the writer inserts and the
// readers query the structure it writes. A slow spell of the shared host
// thus lands in a few slices of both phases rather than in all of one.
// Every figure pools its phase's slices across the run. The better decile
// over windows that other workloads take would read only the earliest,
// fastest cycles of the churn phase, whose reads slow down as inserts add
// components; on the read-only phase it spread wider than pooling.
//
// Each of the three threads is pinned to a CPU of its own, so the writer
// never shares a core with a reader and no thread loses its caches to a
// migration. The Insert call's own latency is printed but not gated: on a
// shared 4-vCPU host its spread over runs of the same code (interquartile
// range over median, 8 to 10 seeds) was 0.16 to 0.31, about twice that of
// the reader figures (0.04 to 0.11), and too close to a 0.25 bound.
// Insert's cost is still gated as setup_s, which is 2^20 Inserts.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "iqs/range/logarithmic_range_sampler.h"
#include "iqs/util/epoch.h"
#include "iqs/util/telemetry.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kPreload = size_t{1} << 20;  // even keys 0, 2, ...
constexpr double kInsertRate = 20e3;
constexpr size_t kReaders = 2;
constexpr size_t kBatch = 256;
constexpr size_t kSamplesPerQuery = 8;
constexpr size_t kMinWidth = 16;  // in preloaded keys
constexpr size_t kMaxWidth = 256;
constexpr size_t kHotKeys = 2048;
constexpr double kHotShare = 0.8;
constexpr size_t kReaderBatches = 256;  // distinct batches per reader
constexpr size_t kCycles = 10;
constexpr double kReadOnlyShare = 0.3;  // of a cycle; the rest is churn
constexpr double kWarmupShare = 0.1;    // of each slice, not measured
constexpr int kSetupReps = 3;
// Traced run: the writer samples the component count every 64 inserts;
// one insert in 16 and one traced reader batch in 8 keep a span.
constexpr uint64_t kSampleEvery = 64;
constexpr uint64_t kInsertSpanEvery = 16;
constexpr uint64_t kReadSpanEvery = 8;
constexpr size_t kCanaryQueries = 1024;
constexpr size_t kCanarySamples = 64;

// kReadOnly and kChurn also index per-stage arrays.
enum Stage : int { kReadOnly = 0, kChurn = 1, kStop = 2 };

struct ReaderLog {
  std::vector<uint64_t> start_ns;
  std::vector<uint32_t> dur_ns;
  std::vector<uint8_t> stage;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  iqs::TelemetrySink sink{1};
};

// The full key universe: key 2i is preloaded; key 2i + 1 is inserted at
// some point iff will_insert[i].
class Membership {
 public:
  explicit Membership(std::vector<uint8_t> will_insert)
      : will_insert_(std::move(will_insert)) {}
  bool Contains(double key) const {
    if (!(key >= 0.0) || key != std::floor(key)) return false;
    const uint64_t k = static_cast<uint64_t>(key);
    if (k / 2 >= kPreload) return false;
    return k % 2 == 0 || will_insert_[k / 2] != 0;
  }

 private:
  std::vector<uint8_t> will_insert_;
};

// One reader query's samples: exactly s keys, each in [lo, hi] and each a
// key that exists.
bool KeysOk(std::span<const double> got, const iqs::KeyBatchQuery& q,
            const Membership& members) {
  if (got.size() != q.s) return false;
  for (const double k : got) {
    if (k < q.lo || k > q.hi || !members.Contains(k)) return false;
  }
  return true;
}

// One structure a reader queries, with the keys it holds.
struct ReadTarget {
  const iqs::LogarithmicRangeSampler* sampler;
  const Membership* members;
};

// Queries `churned` in churn slices and `still` in read-only ones. The
// traced run traces, and attaches the sink to, churn-slice batches only.
void ReaderLoop(ReadTarget churned, ReadTarget still,
                const std::vector<iqs::KeyBatchQuery>& queries,
                const std::atomic<int>& stage, uint64_t seed, size_t reader,
                Tracer* tracer, bool use_sink, ReaderLog* log) {
  PinCurrentThread(2 + reader);
  iqs::Rng rng = iqs::Rng(seed).ForkStream(500 + reader);
  iqs::ScratchArena arena;
  iqs::KeyBatchResult result;
  iqs::BatchOptions churn_opts;
  if (use_sink) churn_opts.telemetry = &log->sink;
  for (uint64_t b = 0;; ++b) {
    const int now_stage = stage.load(std::memory_order_acquire);
    if (now_stage == kStop) break;
    const bool churn = now_stage == kChurn;
    const ReadTarget& target = churn ? churned : still;
    const size_t first = (b % kReaderBatches) * kBatch;
    const auto batch =
        std::span<const iqs::KeyBatchQuery>(queries).subspan(first, kBatch);
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(churn && b % kReadSpanEvery == 0 ? tracer : nullptr,
                      "log.query_batch", b);
      target.sampler->QueryBatch(batch, &rng, &arena,
                                 churn ? churn_opts : iqs::BatchOptions{},
                                 &result);
    }
    const uint64_t t1 = NowNs();
    log->start_ns.push_back(t0);
    log->dur_ns.push_back(static_cast<uint32_t>(
        std::min<uint64_t>(t1 - t0, UINT32_MAX)));
    log->stage.push_back(static_cast<uint8_t>(now_stage));
    log->attempted += kBatch;
    for (size_t i = 0; i < kBatch; ++i) {
      if (result.resolved[i] == 0 ||
          !KeysOk(result.SamplesFor(i), batch[i], *target.members)) {
        ++log->failed;
      }
    }
  }
}

}  // namespace

void RunChurnLog(const Args& args, Report* report, Tracer* tracer) {
  const bool traced = args.trace;
  // The writer takes CPU index 1 and the readers 2 and 3, leaving the
  // first CPU, which serves most interrupts, to the rest of the system.
  PinCurrentThread(1);
  iqs::Rng rng(args.seed);
  std::vector<double> preload_weight(kPreload);
  for (double& w : preload_weight) w = 0.5 + 10.0 * rng.NextDouble();
  std::vector<uint32_t> preload_order(kPreload);
  for (size_t i = 0; i < kPreload; ++i) preload_order[i] = static_cast<uint32_t>(i);
  for (size_t i = kPreload - 1; i > 0; --i) {
    std::swap(preload_order[i], preload_order[rng.Below(i + 1)]);
  }
  // The writer's odd keys: a seeded prefix of a shuffle of all of them.
  const double cycle_s = args.seconds / kCycles;
  const size_t cycle_inserts = static_cast<size_t>(
      kInsertRate * (1.0 - kReadOnlyShare) * cycle_s);
  const size_t inserts = cycle_inserts * kCycles;
  std::vector<uint32_t> odd(kPreload);
  for (size_t i = 0; i < kPreload; ++i) odd[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < inserts; ++i) {
    std::swap(odd[i], odd[i + rng.Below(kPreload - i)]);
  }
  odd.resize(inserts);
  std::vector<double> odd_weight(inserts);
  for (double& w : odd_weight) w = 0.5 + 10.0 * rng.NextDouble();
  std::vector<uint8_t> will_insert(kPreload, 0);
  std::vector<uint32_t> insert_index(kPreload, UINT32_MAX);
  for (size_t j = 0; j < inserts; ++j) {
    will_insert[odd[j]] = 1;
    insert_index[odd[j]] = static_cast<uint32_t>(j);
  }
  const Membership members(std::move(will_insert));
  const Membership preloaded(std::vector<uint8_t>(kPreload, 0));

  const size_t hot_start =
      static_cast<size_t>(rng.Below(kPreload - kHotKeys + 1));
  std::vector<std::vector<iqs::KeyBatchQuery>> reader_queries(kReaders);
  for (auto& qs : reader_queries) {
    for (const RangeQuery& r :
         MakeRangeQueries(kReaderBatches * kBatch, kPreload, kMinWidth,
                          kMaxWidth, hot_start, kHotKeys, kHotShare,
                          kSamplesPerQuery, &rng)) {
      qs.push_back(iqs::KeyBatchQuery{2.0 * r.a, 2.0 * r.b, r.s});
    }
  }
  const size_t canary_start =
      hot_start + static_cast<size_t>(rng.Below(kHotKeys - kCanaryWidth + 1));

  report->Param("preload_keys", static_cast<double>(kPreload));
  report->Param("insert_rate", kInsertRate);
  report->Param("inserts", static_cast<double>(inserts));
  report->Param("readers", static_cast<double>(kReaders));
  report->Param("batch_queries", static_cast<double>(kBatch));
  report->Param("samples_per_query", static_cast<double>(kSamplesPerQuery));
  report->Param("width_keys", "[16, 256]");
  report->Param("hot_keys", static_cast<double>(kHotKeys));
  report->Param("hot_share", kHotShare);
  report->Param("cycles", static_cast<double>(kCycles));
  report->Param("cycle_s", cycle_s);

  // Set-up: the preload, kSetupReps times; the median is setup_s. The
  // first build is kept, never written, for the read-only slices; the
  // last one is the structure the writer inserts into.
  std::unique_ptr<iqs::LogarithmicRangeSampler> still;
  std::unique_ptr<iqs::LogarithmicRangeSampler> sampler;
  std::vector<double> preloads;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sampler.reset();
    const uint64_t t0 = NowNs();
    auto built = std::make_unique<iqs::LogarithmicRangeSampler>();
    for (const uint32_t i : preload_order) {
      built->Insert(2.0 * i, preload_weight[i]);
    }
    preloads.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    (rep == 0 ? still : sampler) = std::move(built);
  }
  iqs::TelemetrySink writer_sink(1);
  if (traced) sampler->set_telemetry(&writer_sink);
  iqs::EpochManager* epoch = sampler->epoch_manager();

  std::atomic<int> stage{kReadOnly};
  std::vector<std::unique_ptr<ReaderLog>> logs;
  for (size_t r = 0; r < kReaders; ++r) {
    logs.push_back(std::make_unique<ReaderLog>());
    const size_t expect = static_cast<size_t>(args.seconds * 4e3);
    logs.back()->start_ns.reserve(expect);
    logs.back()->dur_ns.reserve(expect);
    logs.back()->stage.reserve(expect);
  }

  const CpuTimes cpu_before = ReadCpuTimes();
  const uint64_t pins_before = epoch->reader_pins();
  const uint64_t run_start = NowNs();
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    // In the traced run reader 0 is traced and reader 1 is not; the gap
    // between their latencies is the tracing overhead.
    const bool traced_reader = traced && r == 0;
    readers.emplace_back(ReaderLoop, ReadTarget{sampler.get(), &members},
                         ReadTarget{still.get(), &preloaded},
                         std::cref(reader_queries[r]), std::cref(stage),
                         args.seed, r, traced_reader ? tracer : nullptr,
                         traced_reader, logs[r].get());
  }

  // The writer: each cycle holds a read-only slice, then a churn slice in
  // which the cycle's j-th insert is due j / kInsertRate after its start.
  // A slice runs from the stage switch that opens it to the next one.
  struct Slice {
    uint64_t start_ns;
    uint64_t end_ns;
    int stage;
  };
  std::vector<Slice> slices;
  Samples insert_us;       // Insert call
  Samples insert_late_us;  // scheduled time -> Insert returns
  insert_us.Reserve(inserts);
  insert_late_us.Reserve(inserts);
  double components_sum = 0.0;
  double limbo_sum = 0.0;
  uint64_t probes = 0;
  const auto cycle_ns = static_cast<uint64_t>(cycle_s * 1e9);
  const auto ro_ns = static_cast<uint64_t>(kReadOnlyShare * cycle_s * 1e9);
  auto open_slice = [&](int next_stage) {
    const uint64_t now = NowNs();
    if (!slices.empty()) slices.back().end_ns = now;
    if (next_stage != kStop) slices.push_back(Slice{now, 0, next_stage});
    stage.store(next_stage, std::memory_order_release);
  };
  slices.push_back(Slice{run_start, 0, kReadOnly});
  for (size_t c = 0; c < kCycles; ++c) {
    const uint64_t cycle_start = run_start + c * cycle_ns;
    if (c > 0) {
      SpinUntil(cycle_start);
      open_slice(kReadOnly);
    }
    const uint64_t switch_ns = cycle_start + ro_ns;
    SpinUntil(switch_ns);
    open_slice(kChurn);
    for (size_t j = 0; j < cycle_inserts; ++j) {
      const size_t i = c * cycle_inserts + j;
      const uint64_t due =
          switch_ns + static_cast<uint64_t>(static_cast<double>(j) * 1e9 /
                                            kInsertRate);
      SpinUntil(due);
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span(i % kInsertSpanEvery == 0 ? tracer : nullptr,
                        "log.insert", i);
        sampler->Insert(2.0 * odd[i] + 1.0, odd_weight[i]);
      }
      const uint64_t t1 = NowNs();
      insert_us.Add(static_cast<double>(t1 - t0) / 1e3);
      insert_late_us.Add(static_cast<double>(t1 - due) / 1e3);
      if (traced) {
        if (i % kSampleEvery == 0) {
          components_sum += static_cast<double>(sampler->num_components());
          limbo_sum += static_cast<double>(epoch->retired_pending());
          ++probes;
        }
      }
    }
  }
  SpinUntil(run_start + kCycles * cycle_ns);
  open_slice(kStop);
  for (std::thread& t : readers) t.join();
  const uint64_t churn_pins = epoch->reader_pins() - pins_before;
  const CpuTimes cpu_after = ReadCpuTimes();
  report->Attempt(inserts);

  // Reader outputs were checked in the loop; fold in their counts. A
  // batch is measured if it ran inside one slice of its own stage, past
  // that slice's warm-up; each stage's batches are merged in start order.
  auto warm_ns = [](const Slice& slice) {
    return static_cast<uint64_t>(
        kWarmupShare * static_cast<double>(slice.end_ns - slice.start_ns));
  };
  double churn_s = 0.0;       // all churn slices
  double measured_s[2] = {};  // per stage, slices past their warm-ups
  for (const Slice& slice : slices) {
    const uint64_t length = slice.end_ns - slice.start_ns;
    if (slice.stage == kChurn) churn_s += static_cast<double>(length) / 1e9;
    measured_s[slice.stage] +=
        static_cast<double>(length - warm_ns(slice)) / 1e9;
  }
  Samples traced_read_us;
  Samples plain_read_us;
  double read_samples[2] = {};  // per stage, measured batches only
  size_t churn_batches = 0;     // every churn-slice batch, measured or not
  std::vector<std::pair<uint64_t, uint32_t>> ro_reads;  // start, ns
  std::vector<std::pair<uint64_t, uint32_t>> churn_reads;
  for (size_t r = 0; r < kReaders; ++r) {
    const ReaderLog& log = *logs[r];
    report->Attempt(log.attempted);
    if (log.failed > 0) report->Fail(log.failed, "churn key out of range");
    for (size_t b = 0; b < log.start_ns.size(); ++b) {
      const uint64_t start = log.start_ns[b];
      const uint64_t end = start + log.dur_ns[b];
      if (log.stage[b] == kChurn) ++churn_batches;
      const auto it = std::upper_bound(
          slices.begin(), slices.end(), start,
          [](uint64_t t, const Slice& sl) { return t < sl.start_ns; });
      if (it == slices.begin()) continue;
      const Slice& slice = *(it - 1);
      if (slice.stage != log.stage[b] ||
          start < slice.start_ns + warm_ns(slice) || end > slice.end_ns) {
        continue;
      }
      read_samples[slice.stage] += kBatch * kSamplesPerQuery;
      if (slice.stage == kReadOnly) {
        ro_reads.emplace_back(start, log.dur_ns[b]);
      } else {
        churn_reads.emplace_back(start, log.dur_ns[b]);
        (r == 0 ? traced_read_us : plain_read_us).Add(log.dur_ns[b] / 1e3);
      }
    }
  }
  std::sort(ro_reads.begin(), ro_reads.end());
  std::sort(churn_reads.begin(), churn_reads.end());
  Samples ro_read_us;
  for (const auto& [start, ns] : ro_reads) ro_read_us.Add(ns / 1e3);
  Samples read_us;
  for (const auto& [start, ns] : churn_reads) read_us.Add(ns / 1e3);

  // Law canary on the final structure against the exact final key set.
  {
    const double lo = 2.0 * canary_start;
    const double hi = 2.0 * (canary_start + kCanaryWidth - 1);
    std::vector<double> keys;
    std::vector<double> law;
    for (size_t i = canary_start; i < canary_start + kCanaryWidth; ++i) {
      keys.push_back(2.0 * i);
      law.push_back(preload_weight[i]);
      // Odd key 2i + 1 lies inside the range when it was inserted.
      if (i + 1 < canary_start + kCanaryWidth &&
          insert_index[i] != UINT32_MAX) {
        keys.push_back(2.0 * i + 1.0);
        law.push_back(odd_weight[insert_index[i]]);
      }
    }
    double total = 0.0;
    for (const double w : law) total += w;
    for (double& w : law) w /= total;
    const std::vector<iqs::KeyBatchQuery> queries(
        kCanaryQueries, iqs::KeyBatchQuery{lo, hi, kCanarySamples});
    iqs::Rng canary_rng = iqs::Rng(args.seed).ForkStream(0xca7a);
    iqs::ScratchArena arena;
    iqs::KeyBatchResult result;
    sampler->QueryBatch(queries, &canary_rng, &arena, &result);
    report->Attempt(1);
    std::vector<uint64_t> counts(keys.size(), 0);
    bool ok = true;
    for (size_t q = 0; q < kCanaryQueries && ok; ++q) {
      ok = result.resolved[q] != 0 &&
           KeysOk(result.SamplesFor(q), queries[q], members);
    }
    for (const double k : result.keys) {
      const auto it = std::lower_bound(keys.begin(), keys.end(), k);
      if (it == keys.end() || *it != k) {
        ok = false;
        break;
      }
      ++counts[static_cast<size_t>(it - keys.begin())];
    }
    double p_value = 0.0;
    if (!ok) {
      report->Fail(1, "logarithmic canary key outside the range");
    } else if (!LawOk(counts, law, &p_value)) {
      report->Fail(1, "logarithmic law canary failed, p=" +
                          std::to_string(p_value));
    }
    std::vector<double> corrupted(result.SamplesFor(0).begin(),
                                  result.SamplesFor(0).end());
    corrupted[0] = hi + 2.0;
    SelfCheck(report, "a key past the range", [&] {
      return KeysOk(corrupted, queries[0], members);
    });
  }

  if (!traced) {
    report->Percentiles("p50_us", "p99_us", read_us, "us", 1.0, 1);
    report->Percentiles("load_p50_us", "load_p99_us", ro_read_us, "us", 1.0,
                        1);
    // Insert latency, ungated (see the top of this file): the call itself,
    // over every insert, and the p99 from each insert's schedule.
    report->Info("Insert call p50", insert_us.Percentile(0.5), "us",
                 insert_us.count());
    report->Info("Insert call p99", insert_us.Percentile(0.99), "us",
                 insert_us.count());
    report->Info("churn_insert_p99_us, from its schedule",
                 insert_late_us.Percentile(0.99), "us",
                 insert_late_us.count());
    report->Metric("peak_per_s", read_samples[kChurn] / measured_s[kChurn],
                   "1/s");
    report->Metric("aux_per_s", read_samples[kReadOnly] / measured_s[kReadOnly],
                   "1/s");
    report->Metric("setup_s", Median(preloads), "s", preloads.size());
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Alias("p50_us", "churn_read_p50_us");
    report->Alias("p99_us", "churn_read_p99_us");
    report->Alias("load_p50_us", "reader QueryBatch, no writer");
    report->Alias("load_p99_us", "reader QueryBatch, no writer");
    report->Alias("peak_per_s", "reader samples/s under churn");
    report->Alias("aux_per_s", "reader samples/s, no writer");
    return;
  }

  // ---- Per-layer metrics of the traced run. ----
  LayerValues layer;
  const iqs::QueryStats writer = writer_sink.MergedStats();
  const iqs::QueryStats cover = logs[0]->sink.MergedStats();
  layer.Set("epoch.rebuild_share",
            static_cast<double>(writer.rebuild_ns) / (churn_s * 1e9));
  layer.Set("epoch.reclaim_lag", limbo_sum / probes);
  layer.Set("epoch.reader_pins_per_batch",
            static_cast<double>(churn_pins - probes) / churn_batches);
  layer.Set("log.components.mean", components_sum / probes);
  layer.Set("log.insert_ns.p50", insert_us.Percentile(0.5) * 1e3);
  layer.Set("cover.groups_per_query",
            static_cast<double>(cover.cover_groups) / cover.queries);
  layer.Set("cover.rng_draws_per_sample",
            static_cast<double>(cover.rng_draws) / cover.samples_emitted);
  layer.Set("cover.arena_bytes_hwm",
            static_cast<double>(cover.arena_bytes_hwm));
  layer.Set("host.steal_pct", StealPct(cpu_before, cpu_after));
  const double plain_p50 = plain_read_us.Percentile(0.5);
  layer.Set("trace.overhead_pct",
            100.0 * (traced_read_us.Percentile(0.5) - plain_p50) / plain_p50);
  layer.Emit(report);
}

}  // namespace perfbench
