// Parallel batch serving: BatchOptions{num_threads} on BstRangeSampler.
//
// Serves one batch of range-sampling queries twice — inline on the caller,
// then sharded over a persistent thread pool — and prints the wall-clock
// for each. The executor cuts the batch into blocks of queries, each on
// its own RNG substream (Rng::ForkStream) of one batch key, so the output
// is byte-identical for every thread count under a fixed seed; the demo
// checks that too.
//
//   cmake --build build && ./build/examples/parallel_batch_demo
//
// Note: the speedup is bounded by the machine — on a single-core box the
// pool can only match the inline path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "iqs/range/bst_range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/distributions.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"
#include "iqs/util/thread_pool.h"

namespace {

double MeasureSeconds(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  // 1. Data + index: Theorem-2 BST sampler over Zipf-weighted keys.
  iqs::Rng rng(/*seed=*/2022);
  const size_t n = 1 << 20;
  const std::vector<double> keys = iqs::UniformKeys(n, &rng);
  const std::vector<double> weights = iqs::ZipfWeights(n, /*alpha=*/1.0, &rng);
  const iqs::BstRangeSampler sampler(keys, weights);

  // 2. A serving batch: 512 queries x 256 samples each.
  std::vector<iqs::BatchQuery> queries;
  for (size_t i = 0; i < 512; ++i) {
    const auto [lo, hi] = iqs::IntervalWithSelectivity(keys, n / 8, &rng);
    queries.push_back({lo, hi, 256});
  }

  // 3. Inline baseline (BatchOptions{}: blocks run on the caller).
  iqs::ScratchArena arena;
  iqs::BatchResult sequential;
  iqs::Rng seq_rng(7);
  const double seq_secs = MeasureSeconds(
      [&] { sampler.QueryBatch(queries, &seq_rng, &arena, &sequential); });
  std::printf("sequential:            %7.1f ms (%zu samples)\n",
              1e3 * seq_secs, sequential.positions.size());

  // 4. Parallel mode on a persistent pool sized to the machine.
  const size_t cores = std::max<size_t>(1, std::thread::hardware_concurrency());
  iqs::ThreadPool pool(cores);
  iqs::BatchOptions opts;
  opts.num_threads = cores;
  opts.pool = &pool;
  iqs::BatchResult parallel;
  iqs::Rng par_rng(7);
  const double par_secs = MeasureSeconds([&] {
    sampler.QueryBatch(queries, &par_rng, &arena, opts, &parallel);
  });
  std::printf("parallel (%2zu threads): %7.1f ms — %.2fx\n", cores,
              1e3 * par_secs, seq_secs / par_secs);

  // 5. Determinism: the SAME seed at any other thread count, 0 included,
  //    reproduces the output byte for byte (sharding never touches it).
  iqs::BatchOptions two;
  two.num_threads = 2;
  iqs::BatchResult check;
  iqs::Rng check_rng(7);
  sampler.QueryBatch(queries, &check_rng, &arena, two, &check);
  std::printf("bit-identical at 2 threads vs %zu: %s\n", cores,
              check.positions == parallel.positions ? "yes" : "NO (bug!)");
  std::printf("bit-identical inline vs %zu threads: %s\n", cores,
              sequential.positions == parallel.positions ? "yes" : "NO (bug!)");
  return 0;
}
