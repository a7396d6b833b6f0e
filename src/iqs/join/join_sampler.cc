#include "iqs/join/join_sampler.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string_view>
#include <vector>

#include "iqs/cover/cover_executor.h"
#include "iqs/cover/cover_plan.h"
#include "iqs/join/join_batch.h"
#include "iqs/multidim/point.h"
#include "iqs/range/range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/check.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::join {
namespace {

using multidim::Rect;

// One rectangle's extent on an axis, in the strict start order
// (lo, rel, id) == (lo, entity).
struct Extent {
  double lo;
  double hi;
  uint32_t entity;
};

std::vector<Extent> StartOrder(std::span<const Rect> r,
                               std::span<const Rect> s, double Rect::*lo,
                               double Rect::*hi) {
  std::vector<Extent> order;
  order.reserve(r.size() + s.size());
  for (size_t i = 0; i < r.size(); ++i) {
    order.push_back({r[i].*lo, r[i].*hi, static_cast<uint32_t>(i)});
  }
  for (size_t i = 0; i < s.size(); ++i) {
    order.push_back(
        {s[i].*lo, s[i].*hi, static_cast<uint32_t>(r.size() + i)});
  }
  std::sort(order.begin(), order.end(), [](const Extent& a, const Extent& b) {
    return a.lo != b.lo ? a.lo < b.lo : a.entity < b.entity;
  });
  return order;
}

// Last rank whose start is <= the hi of rank `i`. Starts are sorted by
// value first, so these ranks are a prefix, and it reaches at least i
// (lo <= hi): gallop forward from i, then binary-search the last step.
uint32_t LastStartAtOrBefore(const std::vector<Extent>& order, size_t i) {
  const double hi = order[i].hi;
  size_t lo = i + 1;  // first rank not yet known to start <= hi
  size_t step = 1;
  while (lo + step <= order.size() && order[lo + step - 1].lo <= hi) {
    lo += step;
    step *= 2;
  }
  const auto end = order.begin() + std::min(lo + step, order.size());
  const auto it =
      std::upper_bound(order.begin() + lo, end, hi,
                       [](double v, const Extent& k) { return v < k.lo; });
  return static_cast<uint32_t>(it - order.begin()) - 1;
}

// Visits the canonical nodes of leaf range [l, r) in the bottom-up tree
// of n leaves (leaf i is node n + i, node v's parent is v / 2). They
// partition [l, r) for every n, power of two or not.
template <typename Fn>
void ForEachCanonical(size_t n, size_t l, size_t r, Fn&& fn) {
  for (l += n, r += n; l < r; l >>= 1, r >>= 1) {
    if (l & 1) fn(l++);
    if (r & 1) fn(--r);
  }
}

// Fenwick tree of counts over y-ranks for the phase-1 sweep.
class CountFenwick {
 public:
  explicit CountFenwick(size_t n) : tree_(n + 1, 0) {}

  void Add(size_t i, int32_t delta) {
    for (size_t j = i + 1; j < tree_.size(); j += j & (~j + 1)) {
      tree_[j] += static_cast<uint32_t>(delta);
    }
  }

  // Count in positions [0, i).
  uint32_t PrefixCount(size_t i) const {
    uint32_t sum = 0;
    for (size_t j = i; j > 0; j -= j & (~j + 1)) sum += tree_[j];
    return sum;
  }

 private:
  std::vector<uint32_t> tree_;
};

// The uniform view of the slot array that CoverExecutor draws through:
// every slot of a group's run is equally likely. Keyless, so it costs
// nothing to stand up per batch.
class SlotView final : public RangeSampler {
 public:
  explicit SlotView(size_t num_slots) : num_slots_(num_slots) {}

  size_t n() const override { return num_slots_; }

  void QueryPositions(size_t a, size_t b, size_t s, Rng* rng,
                      std::vector<size_t>* out) const override {
    IQS_DCHECK(a <= b && b < n());
    for (size_t i = 0; i < s; ++i) {
      out->push_back(a + static_cast<size_t>(rng->Below(b - a + 1)));
    }
  }
  size_t MemoryBytes() const override { return 0; }
  std::string_view name() const override { return "join-slots"; }

 private:
  size_t num_slots_;
};

// Phase-3 bookkeeping per plan query: the batch query it serves and its
// anchor rectangle (the plan's budget is its draw count).
struct PlanItem {
  uint32_t q;
  uint32_t entity;
};

}  // namespace

JoinSampler::JoinSampler(std::span<const Rect> r, std::span<const Rect> s)
    : num_r_(static_cast<uint32_t>(r.size())),
      num_s_(static_cast<uint32_t>(s.size())) {
  // Entities, ranks and slot offsets are 32-bit.
  IQS_CHECK(r.size() + s.size() < (size_t{1} << 31));
  n_ = num_r_ + num_s_;
  for (const std::span<const Rect> rel : {r, s}) {
    for (const Rect& rect : rel) {
      // Also rejects NaN, which would corrupt the comparator sorts below.
      // iqs-lint: allow(check-in-loop) -- cold build-path input validation
      IQS_CHECK(rect.x_lo <= rect.x_hi && rect.y_lo <= rect.y_hi);
    }
  }
  if (n_ == 0) return;

  // Rank both axes in the strict start order.
  std::vector<uint32_t> x_rank_of(n_);
  by_x_.resize(n_);
  {
    const std::vector<Extent> x_order =
        StartOrder(r, s, &Rect::x_lo, &Rect::x_hi);
    for (uint32_t a = 0; a < n_; ++a) {
      x_rank_of[x_order[a].entity] = a;
      by_x_[a].entity = x_order[a].entity;
      by_x_[a].x_end = LastStartAtOrBefore(x_order, a);
    }
    const std::vector<Extent> y_order =
        StartOrder(r, s, &Rect::y_lo, &Rect::y_hi);
    entity_by_y_.resize(n_);
    for (uint32_t b = 0; b < n_; ++b) {
      entity_by_y_[b] = y_order[b].entity;
      Anchor& anchor = by_x_[x_rank_of[y_order[b].entity]];
      anchor.y_rank = b;
      anchor.y_end = LastStartAtOrBefore(y_order, b);
    }
  }

  // Phase 1: sweep x-ranks. An opposite v is an EDGE partner of u when v
  // starts earlier on x and u's start is within v's x_end (v is active),
  // a CORNER partner when v's start is in (u's start, u's x_end]; both
  // need v's y-rank in (u.y_rank, u.y_end]. Corner counts are the
  // difference of two prefix states, taken at u's start and after u's
  // x_end (anchors bucketed by x_end).
  std::vector<uint32_t> end_first(n_ + 1, 0);
  for (const Anchor& u : by_x_) ++end_first[u.x_end + 1];
  for (uint32_t a = 0; a < n_; ++a) end_first[a + 1] += end_first[a];
  std::vector<uint32_t> ends(n_);
  {
    std::vector<uint32_t> cursor(end_first.begin(), end_first.end() - 1);
    for (uint32_t a = 0; a < n_; ++a) ends[cursor[by_x_[a].x_end]++] = a;
  }
  std::vector<double> weight(n_);
  CountFenwick all[2] = {CountFenwick(n_), CountFenwick(n_)};
  CountFenwick active[2] = {CountFenwick(n_), CountFenwick(n_)};
  const auto partners_in = [](const CountFenwick& f, const Anchor& u) {
    return static_cast<double>(f.PrefixCount(u.y_end + 1) -
                               f.PrefixCount(u.y_rank + 1));
  };
  for (uint32_t a = 0; a < n_; ++a) {
    const Anchor& u = by_x_[a];
    const uint32_t rel = RelOf(u.entity);
    weight[a] = partners_in(active[1 - rel], u) - partners_in(all[1 - rel], u);
    all[rel].Add(u.y_rank, +1);
    active[rel].Add(u.y_rank, +1);
    for (uint32_t k = end_first[a]; k < end_first[a + 1]; ++k) {
      const Anchor& v = by_x_[ends[k]];
      const uint32_t vrel = RelOf(v.entity);
      weight[ends[k]] += partners_in(all[1 - vrel], v);
      active[vrel].Add(v.y_rank, -1);
    }
  }
  for (const double w : weight) join_size_ += static_cast<uint64_t>(w);
  if (join_size_ > 0) alias_.Build(weight);

  // The x-rank trees: per relation, each corner at its leaf's ancestors
  // (not the root: a corner query never spans every leaf, it excludes its
  // own anchor) and each x-extent at its canonical nodes. Sizes are
  // counted in x order (neighbours share nodes); filling in y-rank order
  // leaves every list sorted by y-rank.
  const auto for_each_list = [&](uint32_t a, auto&& fn) {
    const uint32_t rel = RelOf(by_x_[a].entity);
    for (size_t v = n_ + a; v > 1; v >>= 1) fn(ListOf(v, rel, kCorners));
    ForEachCanonical(n_, a, by_x_[a].x_end + 1,
                     [&](size_t v) { fn(ListOf(v, rel, kEdges)); });
  };
  std::vector<uint64_t> list_size(ListOf(2 * n_, 0, 0) + 1, 0);
  for (uint32_t a = 0; a < n_; ++a) {
    for_each_list(a, [&](size_t l) { ++list_size[l + 1]; });
  }
  std::partial_sum(list_size.begin(), list_size.end(), list_size.begin());
  IQS_CHECK(list_size.back() < (uint64_t{1} << 32));
  list_first_.assign(list_size.begin(), list_size.end());
  list_size = {};
  slots_.resize(list_first_.back());
  for (uint32_t b = 0; b < n_; ++b) {
    for_each_list(x_rank_of[entity_by_y_[b]],
                  [&](size_t l) { slots_[list_first_[l]++] = b; });
  }
  // Filling advanced each list's first to its end, i.e. the next list's
  // first; shift back.
  for (size_t l = list_first_.size() - 1; l > 0; --l) {
    list_first_[l] = list_first_[l - 1];
  }
  list_first_[0] = 0;

#ifndef NDEBUG
  // The two counting structures must agree: every anchor's cover holds
  // exactly its swept weight.
  CoverPlan check;
  for (uint32_t a = 0; a < n_; ++a) {
    check.Clear();
    check.BeginQuery(1);
    IQS_DCHECK(AppendPartnerCover(a, &check) ==
               static_cast<uint64_t>(weight[a]));
  }
#endif
}

uint64_t JoinSampler::AppendPartnerCover(uint32_t a, CoverPlan* plan) const {
  const Anchor& u = by_x_[a];
  const uint32_t opp = 1 - RelOf(u.entity);
  // The nonempty lists to search: corners over the canonical nodes of
  // x-ranks (a, x_end], edges on the leaf-to-root path of a (at most two
  // and one per level of a tree of < 2^32 nodes).
  constexpr size_t kMaxLists = 3 * 32;
  uint32_t lo[kMaxLists];
  uint32_t hi[kMaxLists];
  uint32_t len[kMaxLists];
  size_t m = 0;
  const auto add_list = [&](size_t l) {
    if (list_first_[l] == list_first_[l + 1]) return;
    IQS_DCHECK(m < kMaxLists);
    lo[m] = hi[m] = list_first_[l];
    len[m] = list_first_[l + 1] - list_first_[l];
    ++m;
  };
  ForEachCanonical(n_, a + 1, u.x_end + 1, [&](size_t v) {
    IQS_DCHECK(v > 1);
    add_list(ListOf(v, opp, kCorners));
  });
  for (size_t v = n_ + a; v > 0; v >>= 1) add_list(ListOf(v, opp, kEdges));

  // A list's partners are its y-ranks in (u.y_rank, u.y_end]: one run,
  // found by two branchless upper bounds. All lists step in lockstep, so
  // their cache misses overlap instead of queueing.
  for (bool more = true; more;) {
    more = false;
    for (size_t j = 0; j < m; ++j) {
      if (len[j] <= 1) continue;
      const uint32_t half = len[j] / 2;
      lo[j] += slots_[lo[j] + half] <= u.y_rank ? half : 0;
      hi[j] += slots_[hi[j] + half] <= u.y_end ? half : 0;
      len[j] -= half;
      more |= len[j] > 1;
    }
  }
  uint64_t total = 0;
  for (size_t j = 0; j < m; ++j) {
    const size_t begin = lo[j] + (slots_[lo[j]] <= u.y_rank ? 1 : 0);
    const size_t end = hi[j] + (slots_[hi[j]] <= u.y_end ? 1 : 0);
    if (begin == end) continue;
    plan->AddGroup(begin, end - 1, static_cast<double>(end - begin));
    total += end - begin;
  }
  return total;
}

void JoinSampler::SampleJoinBatch(std::span<const JoinBatchQuery> queries,
                                  Rng* rng, ScratchArena* arena,
                                  const BatchOptions& opts,
                                  JoinBatchResult* result) const {
  IQS_CHECK(rng != nullptr && arena != nullptr && result != nullptr);
  IQS_CHECK(opts.max_batch == 0 || queries.size() <= opts.max_batch);
  IQS_CHECK(queries.size() < (size_t{1} << 32));

  result->Clear();
  const size_t nq = queries.size();
  result->offsets.resize(nq + 1);
  result->resolved.resize(nq);
  size_t total = 0;
  for (size_t q = 0; q < nq; ++q) {
    result->offsets[q] = total;
    result->resolved[q] = join_size_ > 0 ? 1 : 0;
    if (join_size_ > 0) total += queries[q].s;
  }
  result->offsets[nq] = total;
  result->pairs.resize(total);
  if (total == 0) return;

  arena->Reset();

  // Phase 2: alias-assign every slot to its anchor's x-rank, then sort
  // the (x-rank, query) keys so equal keys run together and anchors come
  // in x order (neighbouring covers share tree paths). All alias draws
  // happen before any executor fork, so this stage is identical for
  // every opts threading mode.
  std::span<size_t> keys = arena->Alloc<size_t>(total);
  size_t k = 0;
  for (size_t q = 0; q < nq; ++q) {
    const std::span<size_t> draws = keys.subspan(k, queries[q].s);
    if (draws.empty()) continue;
    alias_.SampleBlock(rng, 0, draws);
    for (size_t& d : draws) d = (d << 32) | q;
    k += draws.size();
  }
  IQS_DCHECK(k == total);
  std::sort(keys.begin(), keys.end());

  // Phase 3: one plan query per (anchor, query) run, every cover built
  // against the immutable trees, then one executor pass for the batch.
  CoverPlan plan(arena);
  std::span<PlanItem> items = arena->Alloc<PlanItem>(total);
  size_t num_items = 0;
  for (size_t i = 0; i < total;) {
    size_t j = i;
    while (j < total && keys[j] == keys[i]) ++j;
    const uint32_t a = static_cast<uint32_t>(keys[i] >> 32);
    plan.BeginQuery(j - i);
    const uint64_t w = AppendPartnerCover(a, &plan);
    IQS_DCHECK(w > 0);  // the alias never picks a zero-weight anchor
    (void)w;
    items[num_items++] = {static_cast<uint32_t>(keys[i] & 0xffffffffu),
                          by_x_[a].entity};
    i = j;
  }

  // Plan queries are (anchor, query) pairs, so the frontend's max_batch
  // contract does not apply below this point.
  BatchOptions inner = opts;
  inner.max_batch = 0;
  std::vector<size_t> positions;
  positions.reserve(total);
  CoverExecutor::ExecuteOverSampler(plan, SlotView(slots_.size()), rng, arena,
                                    inner, &positions);
  IQS_DCHECK(positions.size() == total);

  // Scatter: per-query write cursors keep each query's pairs contiguous.
  std::span<size_t> cursors = arena->Alloc<size_t>(nq);
  for (size_t q = 0; q < nq; ++q) cursors[q] = result->offsets[q];
  size_t off = 0;
  for (size_t i = 0; i < num_items; ++i) {
    const PlanItem& item = items[i];
    const uint32_t anchor_id = IdOf(item.entity);
    const bool anchor_in_r = RelOf(item.entity) == 0;
    for (size_t d = 0; d < plan.budget(i); ++d) {
      const uint32_t partner_id = IdOf(entity_by_y_[slots_[positions[off++]]]);
      result->pairs[cursors[item.q]++] = anchor_in_r
                                             ? JoinPair{anchor_id, partner_id}
                                             : JoinPair{partner_id, anchor_id};
    }
  }
  IQS_DCHECK(off == total);
}

size_t JoinSampler::MemoryBytes() const {
  return by_x_.capacity() * sizeof(Anchor) +
         entity_by_y_.capacity() * sizeof(uint32_t) +
         list_first_.capacity() * sizeof(uint32_t) +
         slots_.capacity() * sizeof(uint32_t) + alias_.MemoryBytes();
}

}  // namespace iqs::join
