#include "iqs/multidim/range_tree.h"

#include <algorithm>
#include <numeric>

#include "iqs/cover/cover_executor.h"
#include "iqs/sampling/multinomial.h"
#include "iqs/util/check.h"
#include "iqs/util/telemetry.h"

namespace iqs::multidim {

RangeTree2DSampler::RangeTree2DSampler(std::span<const Point2> points,
                                       std::span<const double> weights,
                                       size_t leaf_size)
    : leaf_size_(std::max<size_t>(leaf_size, 1)) {
  IQS_CHECK(!points.empty());
  const size_t n = points.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return points[a].x < points[b].x ||
           (points[a].x == points[b].x && points[a].y < points[b].y);
  });
  points_by_x_.resize(n);
  weights_by_x_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    points_by_x_[i] = points[order[i]];
    weights_by_x_[i] = weights.empty() ? 1.0 : weights[order[i]];
    // iqs-lint: allow(check-in-loop) -- cold build-path input validation
    IQS_CHECK(weights_by_x_[i] > 0.0);
  }
  nodes_.reserve(4 * (n / leaf_size_ + 2));
  const uint32_t root = Build(0, n - 1);
  IQS_CHECK(root == 0);
  // With fractional cascading only the root's y VALUES are searched; the
  // other nodes navigate by bridges, so their value arrays can be freed.
  for (size_t id = 1; id < nodes_.size(); ++id) {
    nodes_[id].y_sorted_ys.clear();
    nodes_[id].y_sorted_ys.shrink_to_fit();
  }
}

uint32_t RangeTree2DSampler::Build(size_t lo, size_t hi) {
  const uint32_t id = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  // NOTE: nodes_ may reallocate during child builds; never hold a Node&
  // across a recursive call.
  nodes_[id].x_lo = static_cast<uint32_t>(lo);
  nodes_[id].x_hi = static_cast<uint32_t>(hi);

  if (hi - lo + 1 > leaf_size_) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint32_t left = Build(lo, mid);
    const uint32_t right = Build(mid + 1, hi);
    nodes_[id].left = left;
    nodes_[id].right = right;
  }

  Node& node = nodes_[id];
  // Secondary structure: ids below this node sorted by y. Internal nodes
  // merge their children's y-orders (mergesort style, O(n log n) total).
  if (node.left == kNull) {
    node.ids_by_y.resize(hi - lo + 1);
    std::iota(node.ids_by_y.begin(), node.ids_by_y.end(),
              static_cast<uint32_t>(lo));
    std::sort(node.ids_by_y.begin(), node.ids_by_y.end(),
              [&](uint32_t a, uint32_t b) {
                return points_by_x_[a].y < points_by_x_[b].y;
              });
  } else {
    // Manual merge so the fractional-cascading bridge can be recorded:
    // bridge_left[i] = left-child entries among the first i merged ones.
    const auto& left_ids = nodes_[node.left].ids_by_y;
    const auto& right_ids = nodes_[node.right].ids_by_y;
    node.ids_by_y.reserve(left_ids.size() + right_ids.size());
    node.bridge_left.reserve(left_ids.size() + right_ids.size() + 1);
    node.bridge_left.push_back(0);
    size_t li = 0;
    size_t ri = 0;
    while (li < left_ids.size() || ri < right_ids.size()) {
      const bool take_left =
          ri == right_ids.size() ||
          (li < left_ids.size() &&
           points_by_x_[left_ids[li]].y <= points_by_x_[right_ids[ri]].y);
      node.ids_by_y.push_back(take_left ? left_ids[li++] : right_ids[ri++]);
      node.bridge_left.push_back(static_cast<uint32_t>(li));
    }
  }

  const size_t m = node.ids_by_y.size();
  node.y_sorted_ys.resize(m);
  node.weight_prefix.assign(m + 1, 0.0);
  std::vector<double> y_weights(m);
  for (size_t i = 0; i < m; ++i) {
    node.y_sorted_ys[i] = points_by_x_[node.ids_by_y[i]].y;
    y_weights[i] = weights_by_x_[node.ids_by_y[i]];
    node.weight_prefix[i + 1] = node.weight_prefix[i] + y_weights[i];
  }
  std::vector<double> position_keys(m);
  std::iota(position_keys.begin(), position_keys.end(), 0.0);
  node.sampler =
      std::make_unique<ChunkedRangeSampler>(position_keys, y_weights);
  return id;
}

void RangeTree2DSampler::CollectPieces(const Rect& q, size_t a, size_t b,
                                       std::vector<Piece>* pieces) const {
  // ONE binary search at the root, then O(1) bridge arithmetic per node
  // (fractional cascading, paper footnote 5). [ya, yb) is half-open in
  // the current node's merged y-order.
  const Node& root_node = nodes_[0];
  const auto first = std::lower_bound(root_node.y_sorted_ys.begin(),
                                      root_node.y_sorted_ys.end(), q.y_lo);
  const auto last =
      std::upper_bound(first, root_node.y_sorted_ys.end(), q.y_hi);
  if (first == last) return;

  struct Frame {
    uint32_t id;
    uint32_t ya;
    uint32_t yb;  // half-open
  };
  std::vector<Frame> stack = {
      {0, static_cast<uint32_t>(first - root_node.y_sorted_ys.begin()),
       static_cast<uint32_t>(last - root_node.y_sorted_ys.begin())}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.ya >= frame.yb) continue;
    const Node& node = nodes_[frame.id];
    if (node.x_lo > b || node.x_hi < a) continue;
    if (a <= node.x_lo && node.x_hi <= b) {
      pieces->push_back({frame.id, frame.ya, frame.yb - 1,
                         node.weight_prefix[frame.yb] -
                             node.weight_prefix[frame.ya]});
      continue;
    }
    if (node.left == kNull) {
      // Boundary leaf: the y-index range already restricts y; emit the
      // points whose x-position also qualifies as singleton pieces.
      for (uint32_t y_pos = frame.ya; y_pos < frame.yb; ++y_pos) {
        const uint32_t pid = node.ids_by_y[y_pos];
        if (pid < a || pid > b) continue;
        pieces->push_back({frame.id, y_pos, y_pos, weights_by_x_[pid]});
      }
      continue;
    }
    // Bridge the y-range into both children.
    const uint32_t left_ya = node.bridge_left[frame.ya];
    const uint32_t left_yb = node.bridge_left[frame.yb];
    stack.push_back({node.left, left_ya, left_yb});
    stack.push_back(
        {node.right, frame.ya - left_ya, frame.yb - left_yb});
  }
}

bool RangeTree2DSampler::ResolveX(const Rect& q, size_t* a, size_t* b) const {
  // x-range in x-sorted positions.
  auto x_key = [&](size_t i) { return points_by_x_[i].x; };
  size_t lo = 0;
  size_t hi = points_by_x_.size();
  // lower_bound for q.x_lo over positions.
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (x_key(mid) < q.x_lo) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  *a = lo;
  size_t lo2 = lo;
  size_t hi2 = points_by_x_.size();
  while (lo2 < hi2) {
    const size_t mid = (lo2 + hi2) / 2;
    if (x_key(mid) <= q.x_hi) {
      lo2 = mid + 1;
    } else {
      hi2 = mid;
    }
  }
  if (*a >= lo2) return false;  // empty x-range
  *b = lo2 - 1;
  return true;
}

bool RangeTree2DSampler::QueryRect(const Rect& q, size_t s, Rng* rng,
                                   std::vector<Point2>* out) const {
  size_t a = 0;
  size_t b = 0;
  if (!ResolveX(q, &a, &b)) return false;

  std::vector<Piece> pieces;
  CollectPieces(q, a, b, &pieces);
  if (pieces.empty()) return false;
  if (s == 0) return true;

  std::vector<double> piece_weights;
  piece_weights.reserve(pieces.size());
  for (const Piece& piece : pieces) piece_weights.push_back(piece.weight);
  const std::vector<uint32_t> counts = MultinomialSplit(piece_weights, s, rng);

  out->reserve(out->size() + s);
  std::vector<size_t> positions;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (counts[i] == 0) continue;
    const Piece& piece = pieces[i];
    const Node& node = nodes_[piece.node];
    positions.clear();
    node.sampler->QueryPositions(piece.y_a, piece.y_b, counts[i], rng,
                                 &positions);
    for (size_t y_pos : positions) {
      out->push_back(points_by_x_[node.ids_by_y[y_pos]]);
    }
  }
  return true;
}

void RangeTree2DSampler::QueryBatch(std::span<const RectBatchQuery> queries,
                                    Rng* rng, ScratchArena* arena,
                                    PointBatchResult* result) const {
  QueryBatch(queries, rng, arena, BatchOptions{}, result);
}

void RangeTree2DSampler::QueryBatch(std::span<const RectBatchQuery> queries,
                                    Rng* rng, ScratchArena* arena,
                                    const BatchOptions& opts,
                                    PointBatchResult* result) const {
  const uint64_t start_ns = opts.telemetry != nullptr ? TelemetryNowNs() : 0;
  // One batch latency sample regardless of which exit path is taken.
  auto record_latency = [&] {
    if (opts.telemetry != nullptr) {
      opts.telemetry->shard(0)->latency.Record(TelemetryNowNs() - start_ns);
    }
  };
  result->Clear();
  arena->Reset();
  CoverPlan plan(arena);
  thread_local std::vector<Piece> pieces;
  pieces.clear();
  const size_t nq = queries.size();
  result->resolved.resize(nq);
  result->offsets.resize(nq + 1);
  size_t total_samples = 0;
  for (size_t i = 0; i < nq; ++i) {
    result->offsets[i] = total_samples;
    plan.BeginQuery(queries[i].s);
    size_t a = 0;
    size_t b = 0;
    if (!ResolveX(queries[i].rect, &a, &b)) {
      result->resolved[i] = 0;
      continue;
    }
    const size_t piece_base = pieces.size();
    CollectPieces(queries[i].rect, a, b, &pieces);
    const bool ok = pieces.size() > piece_base;
    result->resolved[i] = ok ? 1 : 0;
    if (!ok || queries[i].s == 0) continue;
    for (size_t j = piece_base; j < pieces.size(); ++j) {
      plan.AddGroup(pieces[j].y_a, pieces[j].y_b, pieces[j].weight, j);
    }
    total_samples += queries[i].s;
  }
  result->offsets[nq] = total_samples;

  const CoverSplit split = CoverExecutor::Split(plan, rng, arena,
                                                opts.telemetry);
  IQS_CHECK(split.total == total_samples);
  result->points.resize(total_samples);
  if (opts.telemetry != nullptr) {
    // Manual-serve path: this QueryBatch owns its draw loops, so it owns
    // samples_emitted and the arena high-water mark (telemetry.h).
    QueryStats* stats = &opts.telemetry->shard(0)->stats;
    stats->samples_emitted += split.total;
    if (arena->capacity_bytes() > stats->arena_bytes_hwm) {
      stats->arena_bytes_hwm = arena->capacity_bytes();
    }
  }
  if (total_samples == 0) {
    record_latency();
    return;
  }

  // Coalesce nonzero groups by their secondary node so every piece that
  // hits the same node's y-structure — across all queries of the batch —
  // rides one chunked QueryPositionsBatch call. Each group's draws land
  // at split.offsets[g] of the flat output, which keeps every query's
  // slice contiguous regardless of the serving order.
  //
  // `pieces` is thread_local, so lambdas that may run on pool workers
  // must go through this caller-bound view — a bare `pieces` inside the
  // lambda would resolve to the worker's own (empty) instance.
  const std::span<const Piece> batch_pieces(pieces);
  const std::span<const CoverGroup> groups = plan.groups();
  const std::span<uint32_t> order = arena->Alloc<uint32_t>(groups.size());
  size_t active = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (split.counts[g] > 0) order[active++] = static_cast<uint32_t>(g);
  }
  std::sort(order.begin(), order.begin() + static_cast<ptrdiff_t>(active),
            [&](uint32_t ga, uint32_t gb) {
              const uint32_t na = batch_pieces[groups[ga].tag].node;
              const uint32_t nb = batch_pieces[groups[gb].tag].node;
              return na != nb ? na < nb : ga < gb;
            });

  // Run boundaries over the sorted order: one run per secondary node.
  const std::span<size_t> run_start = arena->Alloc<size_t>(active + 1);
  const std::span<size_t> run_samples = arena->Alloc<size_t>(active);
  size_t num_runs = 0;
  for (size_t k = 0; k < active;) {
    run_start[num_runs] = k;
    run_samples[num_runs] = 0;
    const uint32_t node_id = batch_pieces[groups[order[k]].tag].node;
    while (k < active && batch_pieces[groups[order[k]].tag].node == node_id) {
      run_samples[num_runs] += split.counts[order[k]];
      ++k;
    }
    ++num_runs;
  }
  run_start[num_runs] = active;

  // Runs are the items of the executor's block contract: each block of
  // runs draws from its own substream of one key, and each group's draws
  // land at split.offsets[g] of the flat output, so blocks write disjoint
  // slices and the output is byte-identical for every thread count.
  CoverExecutor::RunBlocks(
      num_runs, [&](size_t r) { return run_samples[r]; }, rng, arena, opts,
      [&](size_t first, size_t last, size_t /*base*/, size_t /*worker*/,
          Rng* block_rng, ScratchArena* scratch) {
        for (size_t r = first; r < last; ++r) {
          const size_t rs = run_start[r];
          const size_t re = run_start[r + 1];
          const Node& node = nodes_[batch_pieces[groups[order[rs]].tag].node];
          const std::span<PositionQuery> requests =
              scratch->Alloc<PositionQuery>(re - rs);
          for (size_t k = rs; k < re; ++k) {
            const Piece& piece = batch_pieces[groups[order[k]].tag];
            requests[k - rs] =
                PositionQuery{piece.y_a, piece.y_b,
                              static_cast<size_t>(split.counts[order[k]])};
          }
          // The requests' draws come back contiguously in order; scatter
          // them to the groups' flat slices.
          const std::span<size_t> drawn =
              scratch->Alloc<size_t>(run_samples[r]);
          node.sampler->QueryPositionsBatch(requests, block_rng, scratch,
                                            BatchOptions{}, drawn);
          size_t cursor = 0;
          for (size_t k = rs; k < re; ++k) {
            const uint32_t g = order[k];
            const size_t dst = split.offsets[g];
            for (uint32_t d = 0; d < split.counts[g]; ++d) {
              result->points[dst + d] =
                  points_by_x_[node.ids_by_y[drawn[cursor++]]];
            }
          }
        }
      });
  record_latency();
}

void RangeTree2DSampler::Report(const Rect& q, std::vector<size_t>* out) const {
  for (size_t id = 0; id < points_by_x_.size(); ++id) {
    if (q.Contains(points_by_x_[id])) out->push_back(id);
  }
}

size_t RangeTree2DSampler::MemoryBytes() const {
  size_t bytes = points_by_x_.capacity() * sizeof(Point2) +
                 weights_by_x_.capacity() * sizeof(double) +
                 nodes_.capacity() * sizeof(Node);
  for (const Node& node : nodes_) {
    bytes += node.ids_by_y.capacity() * sizeof(uint32_t) +
             node.y_sorted_ys.capacity() * sizeof(double) +
             node.weight_prefix.capacity() * sizeof(double) +
             node.bridge_left.capacity() * sizeof(uint32_t);
    if (node.sampler != nullptr) bytes += node.sampler->MemoryBytes();
  }
  return bytes;
}

}  // namespace iqs::multidim
