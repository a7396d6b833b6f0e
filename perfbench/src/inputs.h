// Seeded input generators. Every input of a run — keys, weights,
// queries, arrival schedules, insert sequences, rectangles — is made from
// the run's --seed before timing starts, so one seed is one input set.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "iqs/multidim/point.h"
#include "iqs/range/range_sampler.h"
#include "iqs/util/rng.h"

namespace perfbench {

struct KeyedData {
  std::vector<double> keys;     // strictly increasing
  std::vector<double> weights;  // positive, parallel to keys
};

// n keys with gaps uniform in [0.5, 1.5) and weights uniform in
// [0.5, 10.5), so neighbouring keys differ in weight by up to 21x.
KeyedData MakeKeyedData(size_t n, iqs::Rng* rng);

// A query over the sorted positions [a, b], asking for s samples.
struct RangeQuery {
  size_t a = 0;
  size_t b = 0;
  size_t s = 0;
};

// `count` position ranges over n keys with widths uniform in
// [min_width, max_width]. With probability hot_share a range lies inside
// the hot region [hot_start, hot_start + hot_len); otherwise anywhere.
std::vector<RangeQuery> MakeRangeQueries(size_t count, size_t n,
                                         size_t min_width, size_t max_width,
                                         size_t hot_start, size_t hot_len,
                                         double hot_share, size_t s,
                                         iqs::Rng* rng);

// The key interval [keys[a], keys[b]] of each range: it resolves back to
// exactly [a, b].
std::vector<iqs::BatchQuery> ToBatchQueries(
    const std::vector<RangeQuery>& ranges, const std::vector<double>& keys);

// Exact sampling law of positions [a, b]: weights normalized to sum 1.
std::vector<double> RangeLaw(const std::vector<double>& weights, size_t a,
                             size_t b);

// Open-loop Poisson arrivals at `rate_per_s` for `seconds`: offsets in ns
// from the phase start.
std::vector<uint64_t> PoissonSchedule(double rate_per_s, double seconds,
                                      iqs::Rng* rng);

// Widest x-extent MakeRects produces.
constexpr double kRectMaxWidthX = 20.0;

// n rectangles with the join benchmark's geometry: x-extents up to 2% of
// the domain and y-extents up to 80%, so a random R x S pair intersects
// with probability about 1.16%.
std::vector<iqs::multidim::Rect> MakeRects(size_t n, iqs::Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
