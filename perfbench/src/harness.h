// Shared pieces of the libiqs end-to-end benchmark: exact order
// statistics over raw per-operation samples, the metric report and the
// one-line JSON result, output checks, the in-memory span tracer and the
// run's meta block.
//
// Everything here sits OUTSIDE the library: spans are opened by the
// benchmark around calls into public libiqs functions, never inside them.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;    // the traced run writes its spans here
  std::string git_commit;   // recorded in the meta block
  std::string source_hash;  // hash of the libiqs sources that were built
};

// The steady clock the library stamps tickets with (TelemetryNowNs).
uint64_t NowNs();

// Spins (no sleep: a sleeping generator would add wake-up latency to the
// schedule it is supposed to keep) until the clock reaches `deadline_ns`.
void SpinUntil(uint64_t deadline_ns);

// Windowed figures cut their phase into consecutive parts, compute the
// figure exactly in each part, and report the better decile over parts:
// the 10th percentile of per-part latencies, the 90th of per-part rates.
// Stalls and slow spells of the shared host (vCPU preemption, late timer
// wake-ups, memory contention from neighbours) that hit up to nine tenths
// of the parts then leave the figure alone, while a change to the program
// moves every part and so moves the figure. Rates use kWindows parts;
// percentiles use as many parts, up to kMaxPercentileWindows, as leave at
// least 1000 samples (so 10 beyond the p99) in each.
constexpr size_t kWindows = 40;
constexpr size_t kMaxPercentileWindows = 100;
constexpr double kLowerIsBetterQuantile = 0.1;
constexpr double kHigherIsBetterQuantile = 0.9;

// Raw per-operation samples, in recording order, with exact nearest-rank
// percentiles.
class Samples {
 public:
  void Reserve(size_t n) { values_.reserve(n); }
  void Add(double v) { values_.push_back(v); }
  size_t count() const { return values_.size(); }
  double Sum() const;
  // The smallest sample with at least ceil(q * count) samples at or below
  // it, q in (0, 1].
  double Percentile(double q) const;
  // Cuts the samples into `windows` consecutive parts of equal count and
  // returns the better decile over parts of each part's exact q-th
  // percentile; *min_beyond receives the fewest samples any part has
  // beyond that percentile's rank.
  double WindowedPercentile(double q, size_t windows,
                            size_t* min_beyond) const;

 private:
  std::vector<double> values_;
};

// Amounts (samples, queries) recorded at their completion time and binned
// into `windows` equal slices of [start_ns, end_ns). Rate() is the better
// decile over slices of amount per second; AppendRates hands the
// per-slice rates to a caller that pools several phases' slices.
class RateWindows {
 public:
  RateWindows(uint64_t start_ns, uint64_t end_ns, size_t windows);
  void Add(uint64_t t_ns, double amount);  // ignored outside the range
  void MergeFrom(const RateWindows& other);
  void AppendRates(std::vector<double>* out) const;
  double Rate() const;

 private:
  uint64_t start_ns_;
  uint64_t end_ns_;
  std::vector<double> bins_;
};

// The q-quantile of a few values, interpolated linearly between order
// statistics (copied, so the caller's order is kept).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}
double Mean(const std::vector<double>& v);  // 0 for no values

// Cuts parallel series (e.g. samples drawn, seconds taken per call) into
// `windows` consecutive parts and returns the better decile over parts of
// sum(num) / sum(den).
double WindowedRatio(const std::vector<double>& num,
                     const std::vector<double>& den, size_t windows);

// Collects the run's metrics, its attempted/failed counts and the meta
// parameters, and prints them: a human-readable table, then one
// {"meta": ...} line, then the result line the caller parses.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  // `count` is the number of raw samples the value was computed from
  // (0 for values that are not sample statistics).
  void Metric(const std::string& name, double value, const std::string& unit,
              size_t count = 0);
  // Reports the windowed p50 of `samples` (times `scale`) under p50_name
  // and the windowed p99 under p99_name. Each window's p99 needs at least
  // 10 samples beyond it; with fewer the run is failed instead of
  // reporting a p99 that rests on a handful of points.
  // max_windows = 1 pools all samples instead.
  void Percentiles(const std::string& p50_name, const std::string& p99_name,
                   const Samples& samples, const std::string& unit,
                   double scale, size_t max_windows = kMaxPercentileWindows);
  // A figure for the human-readable table only, not in the result line.
  void Info(const std::string& name, double value, const std::string& unit,
            size_t count = 0);
  // Prints `alias` (the workload's own name for the quantity) beside
  // metric `name` in the human-readable table.
  void Alias(const std::string& name, const std::string& alias);

  // One workload parameter for the meta block; `json_value` is emitted
  // verbatim (a number, or a quoted string).
  void Param(const std::string& name, const std::string& json_value);
  void Param(const std::string& name, double value);

  void Attempt(uint64_t n) { attempted_ += n; }
  // Counts `n` failed operations; the first few reasons are printed.
  void Fail(uint64_t n, const std::string& why);

  // Prints everything; returns the process exit code (0 iff no failure).
  // In the untraced run, adds the ok_ratio metric.
  int Finish(const std::string& self_times_text);

  std::string MetaJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t count;
  };
  const Args& args_;
  std::vector<Entry> metrics_;
  std::vector<Entry> info_;
  std::vector<std::pair<std::string, std::string>> params_;
  std::vector<std::pair<std::string, std::string>> aliases_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Output checks. Each returns true iff the output is correct. ----

// One range query's samples: exactly `s` positions, each in [a, b].
bool PositionsOk(std::span<const size_t> got, size_t a, size_t b, size_t s);

// Chi-square goodness of fit of `observed` against `probs` at alpha 1e-6
// (iqs/util/stats.h); `p_value` receives the test's p-value.
bool LawOk(const std::vector<uint64_t>& observed,
           const std::vector<double>& probs, double* p_value);

// Runs `check` on a deliberately corrupted copy of a correct output and
// counts a failure in `report` unless the check rejects it, so a checker
// that accepts everything cannot pass the run.
template <typename Check>
void SelfCheck(Report* report, const char* what, Check check) {
  if (check()) report->Fail(1, std::string("self-check accepted ") + what);
}

// ---- Host ----

struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();                     // aggregate line of /proc/stat
double StealPct(const CpuTimes& a, const CpuTimes& b);
double PeakRssMb();                          // VmHWM of this process
// Pins the calling thread to the index-th CPU (modulo their count) of
// those the process may run on, so that a thread keeps its core and its
// warm caches for the whole run. Best effort: a failure leaves it unpinned.
void PinCurrentThread(size_t index);

// ---- Spans ----

// One timed interval around a call into the library. `parent` indexes
// the enclosing span in the same thread's buffer (-1 for a root);
// `request` ties the spans of one request together (the ticket index for
// serve, the batch or insert index elsewhere).
struct Span {
  const char* name = nullptr;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request = 0;
  int32_t parent = -1;
  uint32_t thread = 0;
};

// Keeps spans in memory, per thread and without locks on the hot path,
// and writes them out once every traced thread has finished. A thread's
// buffer is bounded; spans past the bound are counted as dropped.
class Tracer {
 public:
  explicit Tracer(size_t max_spans_per_thread)
      : max_spans_(max_spans_per_thread) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span on the calling thread, nested in its innermost open
  // span. Returns a handle for End, or -1 when the buffer is full.
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t handle);

  // The two below may be called only after every thread that recorded
  // spans has been joined. Per span name: count, total and self time, where a span's self time
  // is its duration minus the part its child spans cover.
  std::string SelfTimeTable() const;
  // Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
  bool WriteChromeJson(const std::string& path,
                       const std::string& meta_json) const;

 private:
  struct Buffer {
    uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<int32_t> open;
    size_t dropped = 0;
  };
  Buffer* Local();

  const size_t max_spans_;
  mutable std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span; a null tracer makes it a no-op that never reads the clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request)
      : tracer_(tracer),
        handle_(tracer != nullptr ? tracer->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
