// Integer-domain weighted range sampling (paper Section 4.3): Afshani &
// Wei's observation that when keys come from an integer universe [0, U),
// the O(log n) interval-resolution term of Theorem 3 drops to
// O(log log U) — giving O(log log U + s) queries in O(n) space.
//
// Substrate: a static y-fast predecessor structure (StaticYFastIndex).
// The sorted keys are cut into buckets of ~log2(U) keys; an x-fast trie
// over the bucket representatives answers "longest existing prefix" by
// binary search over the bits+1 trie levels (O(log bits) = O(log log U)
// hash probes), and a final binary search inside one bucket costs another
// O(log log U). Space: O(n) — the trie holds <= (n / bits) * bits = n
// prefix nodes.
//
// IntegerRangeSampler = StaticYFastIndex for interval resolution +
// the Theorem-3 chunked sampler for the draws.

#ifndef IQS_RANGE_INTEGER_RANGE_SAMPLER_H_
#define IQS_RANGE_INTEGER_RANGE_SAMPLER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/range_sampler.h"  // BatchResult
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs {

// One integer-interval query of a serving batch.
struct IntegerBatchQuery {
  uint64_t lo = 0;
  uint64_t hi = 0;
  size_t s = 0;
};

// Static predecessor index over sorted distinct uint64 keys drawn from
// [0, 2^key_bits). Predecessor(q) = index of the largest key <= q in
// O(log key_bits) expected time.
class StaticYFastIndex {
 public:
  // `keys` sorted and distinct, all < 2^key_bits.
  StaticYFastIndex(std::span<const uint64_t> keys, int key_bits);

  // Index of the largest key <= q; nullopt when q < keys[0].
  std::optional<size_t> Predecessor(uint64_t q) const;

  size_t n() const { return keys_.size(); }
  int key_bits() const { return key_bits_; }

  size_t MemoryBytes() const;

 private:
  struct TrieNode {
    uint32_t min_rep = 0;  // smallest representative index below
    uint32_t max_rep = 0;  // largest representative index below
  };

  int key_bits_;
  size_t bucket_size_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> reps_;  // first key of each bucket
  // levels_[l] maps (rep >> l) -> node; level key_bits_ is the root.
  std::vector<std::unordered_map<uint64_t, TrieNode>> levels_;
};

class IntegerRangeSampler {
 public:
  // `keys` sorted, distinct, < 2^key_bits; `weights` positive, parallel.
  IntegerRangeSampler(std::span<const uint64_t> keys,
                      std::span<const double> weights, int key_bits = 32);

  // Draws `s` independent weighted samples from keys in [lo, hi],
  // appending POSITIONS (indices into the sorted key order); false when
  // the range is empty. O(log log U + log n·(chunk draws) + s) — interval
  // resolution is O(log log U), the rest matches Theorem 3.
  bool Query(uint64_t lo, uint64_t hi, size_t s, Rng* rng,
             std::vector<size_t>* out) const;

  // Resolves [lo, hi] to inclusive positions via the y-fast index.
  bool ResolveInterval(uint64_t lo, uint64_t hi, size_t* a, size_t* b) const;

  // Batched serving fast path (mirrors RangeSampler::QueryBatch): every
  // interval is resolved once through the y-fast index, then all draws
  // ride the Theorem-3 structure's single CoverExecutor run.
  // result->positions holds sorted-order positions.
  // opts decides where the executor's blocks run, never the output
  // (see BatchOptions). Canonical order
  // (queries, rng, arena, opts, &result).
  void QueryBatch(std::span<const IntegerBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  BatchResult* result) const;

  // Convenience: default options.
  void QueryBatch(std::span<const IntegerBatchQuery> queries, Rng* rng,
                  ScratchArena* arena, BatchResult* result) const;

  uint64_t key_at(size_t position) const { return keys_[position]; }
  size_t n() const { return keys_.size(); }

  size_t MemoryBytes() const {
    return index_.MemoryBytes() + sampler_->MemoryBytes() +
           keys_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> keys_;
  StaticYFastIndex index_;
  std::unique_ptr<ChunkedRangeSampler> sampler_;  // over positions
};

}  // namespace iqs

#endif  // IQS_RANGE_INTEGER_RANGE_SAMPLER_H_
