#include "harness.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "iqs/simd/dispatch.h"
#include "iqs/util/stats.h"
#include "iqs/util/telemetry.h"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

constexpr double kLawAlpha = 1e-6;
constexpr size_t kMinBeyondP99 = 10;
constexpr size_t kMaxPrintedFailures = 8;
#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

// Shortest text that reads back as exactly `v`.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

uint64_t NowNs() { return iqs::TelemetryNowNs(); }

void SpinUntil(uint64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

// ---- Samples ----

double Samples::Sum() const {
  double sum = 0.0;
  for (const double v : values_) sum += v;
  return sum;
}

namespace {

// Nearest-rank percentile of [first, last), which it reorders.
double RankSelect(std::vector<double>::iterator first,
                  std::vector<double>::iterator last, double q,
                  size_t* beyond) {
  const size_t n = static_cast<size_t>(last - first);
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(first, first + static_cast<ptrdiff_t>(rank - 1), last);
  *beyond = n - rank;
  return *(first + static_cast<ptrdiff_t>(rank - 1));
}

}  // namespace

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> copy = values_;
  size_t beyond = 0;
  return RankSelect(copy.begin(), copy.end(), q, &beyond);
}

double Samples::WindowedPercentile(double q, size_t windows,
                                   size_t* min_beyond) const {
  *min_beyond = 0;
  if (values_.size() < windows) return 0.0;
  std::vector<double> copy = values_;
  std::vector<double> per_window;
  *min_beyond = SIZE_MAX;
  for (size_t w = 0; w < windows; ++w) {
    const auto first = copy.begin() +
                       static_cast<ptrdiff_t>(w * copy.size() / windows);
    const auto last = copy.begin() +
                      static_cast<ptrdiff_t>((w + 1) * copy.size() / windows);
    size_t beyond = 0;
    per_window.push_back(RankSelect(first, last, q, &beyond));
    *min_beyond = std::min(*min_beyond, beyond);
  }
  return Quantile(per_window, kLowerIsBetterQuantile);
}

RateWindows::RateWindows(uint64_t start_ns, uint64_t end_ns, size_t windows)
    : start_ns_(start_ns), end_ns_(end_ns), bins_(windows, 0.0) {}

void RateWindows::Add(uint64_t t_ns, double amount) {
  if (t_ns < start_ns_ || t_ns >= end_ns_) return;
  bins_[(t_ns - start_ns_) * bins_.size() / (end_ns_ - start_ns_)] += amount;
}

void RateWindows::MergeFrom(const RateWindows& other) {
  for (size_t i = 0; i < bins_.size(); ++i) bins_[i] += other.bins_[i];
}

void RateWindows::AppendRates(std::vector<double>* out) const {
  const double window_s = static_cast<double>(end_ns_ - start_ns_) / 1e9 /
                          static_cast<double>(bins_.size());
  for (const double b : bins_) out->push_back(b / window_s);
}

double RateWindows::Rate() const {
  std::vector<double> rates;
  AppendRates(&rates);
  return Quantile(rates, kHigherIsBetterQuantile);
}

double WindowedRatio(const std::vector<double>& num,
                     const std::vector<double>& den, size_t windows) {
  std::vector<double> ratios;
  for (size_t w = 0; w < windows; ++w) {
    double n = 0.0;
    double d = 0.0;
    for (size_t i = w * num.size() / windows;
         i < (w + 1) * num.size() / windows; ++i) {
      n += num[i];
      d += den[i];
    }
    if (d > 0.0) ratios.push_back(n / d);
  }
  return Quantile(ratios, kHigherIsBetterQuantile);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// ---- Report ----

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t count) {
  metrics_.push_back(Entry{name, value, unit, count});
}

void Report::Percentiles(const std::string& p50_name,
                         const std::string& p99_name, const Samples& samples,
                         const std::string& unit, double scale,
                         size_t max_windows) {
  const size_t windows =
      std::clamp<size_t>(samples.count() / 1000, 1, max_windows);
  size_t beyond = 0;
  const double p50 = samples.WindowedPercentile(0.50, windows, &beyond);
  if (beyond == 0) {
    Fail(1, "too few samples for " + p50_name);
    return;
  }
  Metric(p50_name, p50 * scale, unit, samples.count());
  const double p99 = samples.WindowedPercentile(0.99, windows, &beyond);
  if (beyond < kMinBeyondP99) {
    Fail(1, "fewer than 10 samples beyond " + p99_name + " in a window");
    return;
  }
  Metric(p99_name, p99 * scale, unit, samples.count());
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, size_t count) {
  info_.push_back(Entry{name, value, unit, count});
}

void Report::Alias(const std::string& name, const std::string& alias) {
  aliases_.emplace_back(name, alias);
}

void Report::Param(const std::string& name, const std::string& json_value) {
  params_.emplace_back(name, json_value);
}

void Report::Param(const std::string& name, double value) {
  Param(name, JsonNumber(value));
}

void Report::Fail(uint64_t n, const std::string& why) {
  failed_ += n;
  if (failures_.size() < kMaxPrintedFailures) failures_.push_back(why);
}

std::string Report::MetaJson() const {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"compiler\": " << JsonString(kCompiler)
      << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"git_commit\": " << JsonString(args_.git_commit)
      << ", \"source_hash\": " << JsonString(args_.source_hash)
      << ", \"simd_backend\": "
      << JsonString(std::string(
             iqs::simd::BackendName(iqs::simd::ActiveBackend())))
      << ", \"workload\": " << JsonString(args_.workload)
      << ", \"seed\": " << args_.seed
      << ", \"seconds\": " << JsonNumber(args_.seconds)
      << ", \"trace\": " << (args_.trace ? 1 : 0) << ", \"params\": {";
  for (size_t i = 0; i < params_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << JsonString(params_[i].first) << ": "
        << params_[i].second;
  }
  out << "}}";
  return out.str();
}

int Report::Finish(const std::string& self_times_text) {
  if (attempted_ == 0) Fail(1, "no operation was attempted");
  const double fail_ratio =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  if (!args_.trace) Metric("ok_ratio", 1.0 - fail_ratio, "ratio");

  std::printf("workload %s  seed %" PRIu64 "  seconds %g  trace %d\n",
              args_.workload.c_str(), args_.seed, args_.seconds,
              args_.trace ? 1 : 0);
  auto print = [this](const Entry& m, const char* prefix) {
    std::string label = prefix + m.name;
    for (const auto& [name, alias] : aliases_) {
      if (name == m.name) label += " = " + alias;
    }
    std::string count;
    if (m.count > 0) count = "(n=" + std::to_string(m.count) + ")";
    std::printf("  %-46s %16.6g %-6s %s\n", label.c_str(), m.value,
                m.unit.c_str(), count.c_str());
  };
  for (const Entry& m : metrics_) print(m, "");
  for (const Entry& m : info_) print(m, "info: ");
  std::printf("  %-46s %16.6g failed/attempted (%" PRIu64 "/%" PRIu64 ")\n",
              "info: fail_ratio", fail_ratio, failed_, attempted_);
  for (const std::string& why : failures_) {
    std::printf("  FAILURE: %s\n", why.c_str());
  }
  if (!self_times_text.empty()) std::printf("%s", self_times_text.c_str());

  std::printf("{\"meta\": %s}\n", MetaJson().c_str());

  std::ostringstream line;
  line << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    line << (i == 0 ? "" : ", ") << JsonString(metrics_[i].name)
         << ": {\"value\": " << JsonNumber(metrics_[i].value)
         << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

// ---- Checks ----

bool PositionsOk(std::span<const size_t> got, size_t a, size_t b, size_t s) {
  if (got.size() != s) return false;
  for (const size_t p : got) {
    if (p < a || p > b) return false;
  }
  return true;
}

bool LawOk(const std::vector<uint64_t>& observed,
           const std::vector<double>& probs, double* p_value) {
  const iqs::ChiSquareResult r = iqs::ChiSquareGoodnessOfFit(observed, probs);
  *p_value = r.p_value;
  return r.p_value >= kLawAlpha;
}

// ---- Host ----

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice).
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealPct(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void PinCurrentThread(size_t index) {
  // The CPUs the process may use, read once: a thread inherits its
  // creator's mask, which after the first pin holds a single CPU.
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

// ---- Tracer ----

Tracer::Buffer* Tracer::Local() {
  struct Slot {
    const Tracer* owner = nullptr;
    Buffer* buffer = nullptr;
  };
  thread_local Slot slot;
  if (slot.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    Buffer* b = buffers_.back().get();
    b->thread = static_cast<uint32_t>(buffers_.size() - 1);
    b->spans.reserve(std::min<size_t>(max_spans_, 1 << 16));
    slot.owner = this;
    slot.buffer = b;
  }
  return slot.buffer;
}

int32_t Tracer::Begin(const char* name, uint64_t request) {
  Buffer* b = Local();
  int32_t handle = -1;
  if (b->spans.size() < max_spans_) {
    Span span;
    span.name = name;
    span.request = request;
    span.thread = b->thread;
    span.parent = b->open.empty() ? -1 : b->open.back();
    handle = static_cast<int32_t>(b->spans.size());
    b->spans.push_back(span);
    b->spans.back().start_ns = NowNs();
  } else {
    ++b->dropped;
  }
  b->open.push_back(handle);
  return handle;
}

void Tracer::End(int32_t handle) {
  const uint64_t now = NowNs();
  Buffer* b = Local();
  if (handle >= 0) b->spans[static_cast<size_t>(handle)].end_ns = now;
  if (!b->open.empty()) b->open.pop_back();
}

namespace {

// Per span of one buffer: its duration minus its direct children's.
std::vector<uint64_t> SelfNs(const std::vector<Span>& spans) {
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    uint64_t& parent_self = self[static_cast<size_t>(s.parent)];
    const uint64_t child = s.end_ns - s.start_ns;
    parent_self -= std::min(parent_self, child);
  }
  return self;
}

}  // namespace

std::string Tracer::SelfTimeTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  struct Row {
    size_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  std::map<std::string, Row> rows;
  size_t dropped = 0;
  for (const auto& b : buffers_) {
    dropped += b->dropped;
    const std::vector<uint64_t> self = SelfNs(b->spans);
    for (size_t i = 0; i < b->spans.size(); ++i) {
      Row& row = rows[b->spans[i].name];
      row.count += 1;
      row.total_ns +=
          static_cast<double>(b->spans[i].end_ns - b->spans[i].start_ns);
      row.self_ns += static_cast<double>(self[i]);
    }
  }
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "  %-28s %10s %14s %14s\n", "span",
                "count", "total_ms", "self_ms");
  out << "self time by span (dropped " << dropped << ")\n" << line;
  for (const auto& [name, row] : rows) {
    std::snprintf(line, sizeof(line), "  %-28s %10zu %14.3f %14.3f\n",
                  name.c_str(), row.count, row.total_ns / 1e6,
                  row.self_ns / 1e6);
    out << line;
  }
  return out.str();
}

bool Tracer::WriteChromeJson(const std::string& path,
                             const std::string& meta_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
               meta_json.c_str());
  bool first = true;
  for (const auto& b : buffers_) {
    const std::vector<uint64_t> self = SelfNs(b->spans);
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"request\":%" PRIu64 ",\"self_us\":%.3f}}",
                   first ? "" : ",\n", s.name, s.thread,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent, s.request, static_cast<double>(self[i]) / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
