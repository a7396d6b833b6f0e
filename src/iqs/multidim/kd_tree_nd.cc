#include "iqs/multidim/kd_tree_nd.h"

#include <algorithm>
#include <limits>

#include "iqs/util/telemetry.h"

namespace iqs::multidim {

KdTreeNd::KdTreeNd(size_t dim, std::span<const double> coords,
                   std::span<const double> weights)
    : dim_(dim), coords_(coords.begin(), coords.end()) {
  IQS_CHECK(dim_ >= 1);
  IQS_CHECK(!coords_.empty());
  IQS_CHECK(coords_.size() % dim_ == 0);
  const size_t n = coords_.size() / dim_;
  if (weights.empty()) {
    weights_.assign(n, 1.0);
  } else {
    IQS_CHECK(weights.size() == n);
    weights_.assign(weights.begin(), weights.end());
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    for (double w : weights_) IQS_CHECK(w > 0.0);
  }
  nodes_.reserve(2 * n);
  const uint32_t root = Build(0, n - 1, 0);
  IQS_CHECK(root == 0);
  boxes_bytes_ = nodes_.size() * 2 * dim_ * sizeof(double);
}

uint32_t KdTreeNd::Build(size_t lo, size_t hi, size_t depth) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[id].box = BoxNd(dim_);
  for (size_t k = 0; k < dim_; ++k) {
    nodes_[id].box.set(k, std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity());
  }
  double weight = 0.0;
  for (size_t i = lo; i <= hi; ++i) {
    weight += weights_[i];
    for (size_t k = 0; k < dim_; ++k) {
      const double c = coords_[i * dim_ + k];
      nodes_[id].box.bounds[2 * k] =
          std::min(nodes_[id].box.bounds[2 * k], c);
      nodes_[id].box.bounds[2 * k + 1] =
          std::max(nodes_[id].box.bounds[2 * k + 1], c);
    }
  }
  nodes_[id].weight = weight;
  nodes_[id].lo = static_cast<uint32_t>(lo);
  nodes_[id].hi = static_cast<uint32_t>(hi);
  if (lo == hi) return id;

  const size_t axis = depth % dim_;
  const size_t mid = lo + (hi - lo) / 2;
  std::vector<uint32_t> order(hi - lo + 1);
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(lo + i);
  }
  std::nth_element(order.begin(), order.begin() + (mid - lo), order.end(),
                   [&](uint32_t a, uint32_t b) {
                     return coords_[a * dim_ + axis] <
                            coords_[b * dim_ + axis];
                   });
  std::vector<double> tmp_coords(order.size() * dim_);
  std::vector<double> tmp_weights(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    std::copy(coords_.begin() + order[i] * dim_,
              coords_.begin() + (order[i] + 1) * dim_,
              tmp_coords.begin() + i * dim_);
    tmp_weights[i] = weights_[order[i]];
  }
  std::copy(tmp_coords.begin(), tmp_coords.end(),
            coords_.begin() + lo * dim_);
  std::copy(tmp_weights.begin(), tmp_weights.end(), weights_.begin() + lo);

  const uint32_t left = Build(lo, mid, depth + 1);
  const uint32_t right = Build(mid + 1, hi, depth + 1);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

void KdTreeNd::CoverQuery(const BoxNd& q,
                          std::vector<CoverRange>* cover) const {
  IQS_CHECK(q.dim() == dim_);
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    const Node& node = nodes_[id];
    if (!q.Intersects(node.box)) continue;
    if (q.ContainsBox(node.box)) {
      cover->push_back({node.lo, node.hi, node.weight});
      continue;
    }
    if (node.left == kNull) {
      if (q.Contains(PointAt(node.lo))) {
        cover->push_back({node.lo, node.hi, weights_[node.lo]});
      }
      continue;
    }
    stack.push_back(node.left);
    stack.push_back(node.right);
  }
}

void KdTreeNd::Report(const BoxNd& q, std::vector<size_t>* out) const {
  std::vector<CoverRange> cover;
  CoverQuery(q, &cover);
  for (const CoverRange& range : cover) {
    for (size_t p = range.lo; p <= range.hi; ++p) out->push_back(p);
  }
}

bool KdTreeNdSampler::QueryBox(const BoxNd& q, size_t s, Rng* rng,
                               std::vector<size_t>* out) const {
  std::vector<CoverRange> cover;
  tree_.CoverQuery(q, &cover);
  if (cover.empty()) return false;
  engine_.Sample(cover, s, rng, out);
  return true;
}

void KdTreeNdSampler::QueryBatch(std::span<const BoxBatchQuery> queries,
                                 Rng* rng, ScratchArena* arena,
                                 const BatchOptions& opts,
                                 BatchResult* result) const {
  const uint64_t start_ns = opts.telemetry != nullptr ? TelemetryNowNs() : 0;
  result->Clear();
  arena->Reset();
  CoverPlan plan(arena);
  thread_local std::vector<CoverRange> cover;
  const size_t q = queries.size();
  result->resolved.resize(q);
  result->offsets.resize(q + 1);
  size_t total_samples = 0;
  for (size_t i = 0; i < q; ++i) {
    result->offsets[i] = total_samples;
    cover.clear();
    tree_.CoverQuery(queries[i].box, &cover);
    const bool ok = !cover.empty();
    result->resolved[i] = ok ? 1 : 0;
    plan.BeginQuery(queries[i].s);
    if (!ok || queries[i].s == 0) continue;
    for (const CoverRange& range : cover) plan.AddGroup(range);
    total_samples += queries[i].s;
  }
  result->offsets[q] = total_samples;

  result->positions.clear();
  result->positions.reserve(total_samples);
  engine_.SampleBatch(plan, rng, arena, opts, &result->positions);
  IQS_CHECK(result->positions.size() == total_samples);
  if (opts.telemetry != nullptr) {
    opts.telemetry->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
  }
}

void KdTreeNdSampler::QueryBatch(std::span<const BoxBatchQuery> queries,
                                 Rng* rng, ScratchArena* arena,
                                 BatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

}  // namespace iqs::multidim
