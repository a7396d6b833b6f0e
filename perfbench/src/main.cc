// End-to-end benchmark of libiqs through its public API.
//
//   perfbench --workload serve_range|direct_batch|churn_log --seed N
//             --seconds S --trace 0|1 [--trace-out PATH]
//             [--git-commit SHA] [--source-hash HASH]
//
// --trace 0 measures the end-to-end metrics with no sink or span attached;
// --trace 1 is a separate run that reports the per-layer metrics, keeps
// its spans in memory and writes them to --trace-out at exit. Both check
// every output; the last stdout line is the JSON result, and the exit
// code is nonzero if any check failed.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

// Bounds each thread's span buffer (48 bytes a span).
constexpr size_t kMaxSpansPerThread = size_t{1} << 18;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_range|direct_batch|churn_log --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--git-commit SHA] "
               "[--source-hash HASH]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds >= 1.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-commit") {
      args->git_commit = value;
    } else if (flag == "--source-hash") {
      args->source_hash = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad arguments");
  perfbench::Report report(args);
  perfbench::Tracer tracer(kMaxSpansPerThread);
  perfbench::Tracer* spans = args.trace ? &tracer : nullptr;
  if (args.workload == "serve_range") {
    perfbench::RunServeRange(args, &report, spans);
  } else if (args.workload == "direct_batch") {
    perfbench::RunDirectBatch(args, &report, spans);
  } else if (args.workload == "churn_log") {
    perfbench::RunChurnLog(args, &report, spans);
  } else {
    return Usage("unknown workload");
  }
  std::string self_times;
  if (args.trace) {
    self_times = tracer.SelfTimeTable();
    if (!args.trace_out.empty() &&
        !tracer.WriteChromeJson(args.trace_out, report.MetaJson())) {
      report.Fail(1, "could not write " + args.trace_out);
    }
  }
  return report.Finish(self_times);
}
