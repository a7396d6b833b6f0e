// The uniform "query -> weighted disjoint groups" representation behind
// every IQS technique in this library (paper Section 4.1 / Theorem 5).
//
// Each technique — canonical BST covers (Sections 3-4), kd/quad/range-tree
// covers (Section 5), Euler-tour subtree intervals (Lemma 4), Bentley-Saxe
// components — reduces a query to the same shape: a list of disjoint
// groups, each a contiguous position range with a total weight, from which
// the sample budget is split multinomially and per-group draws are made.
// CoverPlan is that shape for a whole serving batch: a flat group arena
// with per-query extents and budgets, reusable across calls (Clear() keeps
// capacity, so steady-state batches allocate nothing). A plan built inside
// one call can instead live in the caller's ScratchArena (CoverPlan(arena),
// util/scratch_arena.h), so its buffers count toward the arena's size.
//
// CoverExecutor (cover_executor.h) consumes a plan and owns the batched
// sampling pipeline; structure-specific code only *enumerates* groups.

#ifndef IQS_COVER_COVER_PLAN_H_
#define IQS_COVER_COVER_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <span>
#include <vector>

#include "iqs/util/check.h"

namespace iqs {

// One piece of a cover: the elements at positions [lo, hi] with total
// weight `weight`. (Theorem 5's currency; kept bare because multidim
// cover enumerators build vectors of these.)
struct CoverRange {
  size_t lo = 0;
  size_t hi = 0;
  double weight = 0.0;
};

// Convenience: total weight of a cover.
inline double CoverWeight(std::span<const CoverRange> cover) {
  double total = 0.0;
  for (const CoverRange& range : cover) total += range.weight;
  return total;
}

// A CoverRange plus an opaque tag the enumerating structure uses to name
// its backend-specific sampling unit (a StaticBst node id, a range-tree
// piece index, a chunked q1/q2/q3 part kind, ...). The executor never
// interprets the tag; it only routes it to the structure's draw backend.
struct CoverGroup {
  size_t lo = 0;
  size_t hi = 0;  // inclusive position range
  double weight = 0.0;
  uint64_t tag = 0;
};

// A batch of queries, each reduced to its weighted disjoint groups.
// Usage:
//   plan.Clear();
//   for each query q: plan.BeginQuery(q.s); plan.AddGroup(...)...;
// A query with zero groups (unresolvable / empty region) contributes no
// samples regardless of its budget; a query with groups contributes
// exactly its budget.
class CoverPlan {
 public:
  CoverPlan() = default;
  // Storage from `resource` (e.g. a ScratchArena) instead of the heap.
  explicit CoverPlan(std::pmr::memory_resource* resource)
      : groups_(resource), query_first_(resource), budgets_(resource) {}

  void Clear() {
    groups_.clear();
    query_first_.clear();
    budgets_.clear();
  }

  // Starts the next query of the batch with sample budget `s`.
  void BeginQuery(size_t s) {
    query_first_.push_back(groups_.size());
    budgets_.push_back(s);
  }

  // Adds one group to the most recent BeginQuery. When the query has more
  // than one group, `weight` must be the group's true total weight (the
  // multinomial split is taken over them); a single-group query's weight
  // only needs to be positive.
  void AddGroup(size_t lo, size_t hi, double weight, uint64_t tag = 0) {
    IQS_DCHECK(!budgets_.empty());
    IQS_DCHECK(lo <= hi);
    IQS_DCHECK(weight > 0.0);
    groups_.push_back(CoverGroup{lo, hi, weight, tag});
  }
  void AddGroup(const CoverRange& range, uint64_t tag = 0) {
    AddGroup(range.lo, range.hi, range.weight, tag);
  }

  size_t num_queries() const { return budgets_.size(); }
  size_t num_groups() const { return groups_.size(); }
  std::span<const CoverGroup> groups() const { return groups_; }
  size_t budget(size_t q) const { return budgets_[q]; }

  // Extent of query q's groups inside groups().
  size_t first_group(size_t q) const { return query_first_[q]; }
  size_t end_group(size_t q) const {
    return q + 1 < query_first_.size() ? query_first_[q + 1] : groups_.size();
  }
  std::span<const CoverGroup> GroupsFor(size_t q) const {
    return groups().subspan(first_group(q), end_group(q) - first_group(q));
  }

  // Samples the whole batch owes: sum of budgets over queries with at
  // least one group.
  size_t TotalSamples() const {
    size_t total = 0;
    for (size_t q = 0; q < num_queries(); ++q) {
      if (end_group(q) > first_group(q)) total += budgets_[q];
    }
    return total;
  }

 private:
  std::pmr::vector<CoverGroup> groups_;
  std::pmr::vector<size_t> query_first_;  // parallel to budgets_
  std::pmr::vector<size_t> budgets_;
};

}  // namespace iqs

#endif  // IQS_COVER_COVER_PLAN_H_
