// JoinSampler — i.i.d. uniform sampling from the result of a 2-d
// rectangle intersection join WITHOUT materializing it (the SJS
// three-phase shape of SNIPPETS.md §2 lowered onto this library's cover
// pipeline, with the canonical-node reduction of independent range
// sampling in place of a per-batch sweep).
//
// Join: J = { (r, s) : r.Intersects(s) } over two relations of closed
// rectangles. |J| can be Θ(n^2) while a query only wants s independent
// uniform pairs — the enumeration cost is exactly what the paper's IQS
// separation (query time independent of the result size) eliminates, and
// this module is the generality test of that machinery beyond range
// queries.
//
// Four classes. Starts are ordered strictly by (lo, rel, id) on each
// axis, so of two intersecting rectangles exactly one starts later on x
// and exactly one starts later on y. Either the same rectangle starts
// later on both axes — its lower-left corner lies in the other (a CORNER
// pair, R's corner or S's corner) — or not, and then the later-x one's
// left edge crosses the later-y one's bottom edge (an EDGE pair, R's
// left edge or S's). Charging a corner pair to the rectangle holding the
// corner and an edge pair to the one whose left edge is crossed gives
//   w_u = (opposite corners in u) + (opposite bottom edges crossing u's
//         left edge),
// i.e. the opposite rectangles that meet u and start later on y, and
// sum_u w_u = |J| exactly.
//
// Three phases:
//   1. (construction) Rank both axes; an offline sweep over x-ranks with
//      count Fenwicks over y-ranks computes every w_u in O(log n). Per
//      relation, one x-rank tree holds y-rank-sorted node lists in a
//      flat slot array: each rectangle's corner at its leaf's ancestors
//      (the corner range query, as in multidim/range_tree.h) and its
//      x-extent at its canonical nodes (the edge stab query). An alias
//      table over {w_u} is built once.
//   2. (per batch) The alias table assigns every sample slot of the batch
//      to its anchor u in O(1) per draw — the marginal must be w_u / |J|
//      for pairs to be uniform over J.
//   3. (per batch) u's partners are the valid slots of about 3 log n
//      node lists (2 log n canonical nodes of the corner query, log n
//      path nodes of the stab query), each a contiguous run after two
//      binary searches — a CoverPlan group weighted by its length. The
//      whole batch is drawn by one CoverExecutor::Execute call whose
//      kernel picks a uniform slot of each group's run; the multinomial
//      split, block substreams, parallelism and telemetry are the shared
//      executor pipeline.
//
// Costs for n = |R| + |S| rectangles: construction O(n log n); space
// O(n log n) (each rectangle sits in about log n point lists and at most
// 2 log n edge lists); a batch with total budget s costs O(s log^2 n)
// for its covers plus the executor's O(s + groups) draws — independent
// of |J| and of n beyond the log factors.
//
// Concurrency: the sampler is immutable after construction, so
// SampleJoinBatch is const and any number of threads may call it at once
// (each with its own Rng, arena and result); opts.num_threads adds
// executor parallelism within a batch.
//
// Determinism: fixed seed + fixed inputs give byte-identical batches,
// for every opts.num_threads (the executor's block substream contract).

#ifndef IQS_JOIN_JOIN_SAMPLER_H_
#define IQS_JOIN_JOIN_SAMPLER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "iqs/alias/alias_table.h"
#include "iqs/cover/cover_plan.h"
#include "iqs/join/join_batch.h"
#include "iqs/multidim/point.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs::join {

class JoinSampler {
 public:
  // Copies what it needs of the relations (rect ids in sampled pairs
  // index these spans) and runs phase 1. Every rectangle must be
  // well-formed — x_lo <= x_hi and y_lo <= y_hi, which also rejects NaN
  // coordinates — or construction aborts.
  JoinSampler(std::span<const multidim::Rect> r,
              std::span<const multidim::Rect> s);

  size_t num_r() const { return num_r_; }
  size_t num_s() const { return num_s_; }

  // Exact join cardinality |J| (a phase-1 byproduct — the sweep counts
  // the join without enumerating it).
  uint64_t JoinSize() const { return join_size_; }

  // THE CANONICAL BATCH SIGNATURE (see RangeSampler::QueryBatch): for
  // each query draws q.s i.i.d. uniform pairs from J into `result`
  // (cleared first), flat with per-query offsets. When J is empty every
  // query has resolved[i] == 0 and an empty slice. Per-query draws obey
  // the usual ORDERING CONTRACT (i.i.d. multiset, order unspecified —
  // here grouped by anchor rectangle); shuffle for an i.i.d. sequence.
  void SampleJoinBatch(std::span<const JoinBatchQuery> queries, Rng* rng,
                       ScratchArena* arena, const BatchOptions& opts,
                       JoinBatchResult* result) const;

  // Convenience: default options.
  void SampleJoinBatch(std::span<const JoinBatchQuery> queries, Rng* rng,
                       ScratchArena* arena, JoinBatchResult* result) const {
    SampleJoinBatch(queries, rng, arena, BatchOptions{}, result);
  }

  size_t MemoryBytes() const;

 private:
  // One rectangle in x-start order. Entities number R's rectangles
  // 0..num_r-1 and S's num_r..n-1, so entity order is (rel, id) order.
  struct Anchor {
    uint32_t entity;
    uint32_t x_end;   // last x-rank whose start is <= this x_hi
    uint32_t y_rank;  // rank of this start in y order
    uint32_t y_end;   // last y-rank whose start is <= this y_hi
  };

  // Node list kinds per relation: corners (points) or x-extents (edges).
  static constexpr uint32_t kCorners = 0;
  static constexpr uint32_t kEdges = 1;

  uint32_t RelOf(uint32_t entity) const { return entity < num_r_ ? 0 : 1; }
  uint32_t IdOf(uint32_t entity) const {
    return entity < num_r_ ? entity : entity - num_r_;
  }
  // Index into list_first_ of the (node, rel, kind) list.
  static size_t ListOf(size_t node, uint32_t rel, uint32_t kind) {
    return 4 * node + 2 * rel + kind;
  }

  // Appends the anchor at x-rank `a`'s partners to the current query of
  // `plan` as runs of slots_, each weighted by its length; returns the
  // total, which equals a's weight.
  uint64_t AppendPartnerCover(uint32_t a, CoverPlan* plan) const;

  uint32_t num_r_ = 0;
  uint32_t num_s_ = 0;
  uint32_t n_ = 0;                      // leaves of the x-rank trees
  std::vector<Anchor> by_x_;            // x-rank -> anchor
  std::vector<uint32_t> entity_by_y_;   // y-rank -> entity
  // Tree node v in [1, 2n) (bottom-up layout, leaf of x-rank a at n + a)
  // owns, per relation and kind, the y-ranks
  // slots_[list_first_[ListOf(v, rel, kind)] .. list_first_[... + 1]),
  // ascending.
  std::vector<uint32_t> list_first_;
  std::vector<uint32_t> slots_;
  AliasTable alias_;                    // over x-ranks, weight w_u
  uint64_t join_size_ = 0;
};

}  // namespace iqs::join

#endif  // IQS_JOIN_JOIN_SAMPLER_H_
