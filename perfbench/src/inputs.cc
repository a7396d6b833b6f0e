#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

KeyedData MakeKeyedData(size_t n, iqs::Rng* rng) {
  KeyedData d;
  d.keys.resize(n);
  d.weights.resize(n);
  double key = 0.0;
  for (size_t i = 0; i < n; ++i) {
    key += 0.5 + rng->NextDouble();
    d.keys[i] = key;
    d.weights[i] = 0.5 + 10.0 * rng->NextDouble();
  }
  return d;
}

std::vector<RangeQuery> MakeRangeQueries(size_t count, size_t n,
                                         size_t min_width, size_t max_width,
                                         size_t hot_start, size_t hot_len,
                                         double hot_share, size_t s,
                                         iqs::Rng* rng) {
  std::vector<RangeQuery> out(count);
  for (RangeQuery& q : out) {
    const size_t width =
        min_width + static_cast<size_t>(rng->Below(max_width - min_width + 1));
    const bool hot = rng->NextDouble() < hot_share;
    const size_t base = hot ? hot_start : 0;
    const size_t span = hot ? hot_len : n;
    q.a = base + static_cast<size_t>(rng->Below(span - width + 1));
    q.b = q.a + width - 1;
    q.s = s;
  }
  return out;
}

std::vector<iqs::BatchQuery> ToBatchQueries(
    const std::vector<RangeQuery>& ranges, const std::vector<double>& keys) {
  std::vector<iqs::BatchQuery> out(ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    out[i] = iqs::BatchQuery{keys[ranges[i].a], keys[ranges[i].b], ranges[i].s};
  }
  return out;
}

std::vector<double> RangeLaw(const std::vector<double>& weights, size_t a,
                             size_t b) {
  std::vector<double> law(weights.begin() + static_cast<ptrdiff_t>(a),
                          weights.begin() + static_cast<ptrdiff_t>(b) + 1);
  double total = 0.0;
  for (const double w : law) total += w;
  for (double& w : law) w /= total;
  return law;
}

std::vector<uint64_t> PoissonSchedule(double rate_per_s, double seconds,
                                      iqs::Rng* rng) {
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(rate_per_s * seconds * 1.05) + 16);
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng->NextDouble()) / rate_per_s * 1e9;
    if (t >= end_ns) break;
    out.push_back(static_cast<uint64_t>(t));
  }
  return out;
}

std::vector<iqs::multidim::Rect> MakeRects(size_t n, iqs::Rng* rng) {
  constexpr double kDomainX = 1000.0;
  constexpr double kDomainY = 200.0;
  constexpr double kMaxLenY = 160.0;
  std::vector<iqs::multidim::Rect> rects(n);
  for (iqs::multidim::Rect& r : rects) {
    r.x_lo = rng->NextDouble() * kDomainX;
    r.x_hi = r.x_lo + rng->NextDouble() * kRectMaxWidthX;
    r.y_lo = rng->NextDouble() * kDomainY;
    r.y_hi = r.y_lo + rng->NextDouble() * kMaxLenY;
  }
  return rects;
}

}  // namespace perfbench
