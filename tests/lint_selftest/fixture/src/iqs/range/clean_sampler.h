// Fixture: a fully clean header — canonical batch signature, DCHECK in
// the loop, no raw randomness, no naked mutex. Must produce NO findings.
#ifndef FIXTURE_IQS_RANGE_CLEAN_SAMPLER_H_
#define FIXTURE_IQS_RANGE_CLEAN_SAMPLER_H_

#include <cstddef>
#include <span>
#include <vector>

namespace iqs {

class Rng;
class ScratchArena;
struct BatchOptions;
struct PositionQuery;

class CleanSampler {
 public:
  // Canonical order: inputs, Rng*, ScratchArena*, BatchOptions, output.
  void QueryBatch(std::span<const PositionQuery> queries, Rng* rng,
                  ScratchArena* arena, const BatchOptions& opts,
                  std::vector<size_t>* out) const;

  // Span output (caller-sized): also an output, so also last.
  void QueryPositionsBatch(std::span<const PositionQuery> queries, Rng* rng,
                           ScratchArena* arena, const BatchOptions& opts,
                           std::span<size_t> out) const;

  // Convenience overload omitting opts: still canonical.
  void QueryBatch(std::span<const PositionQuery> queries, Rng* rng,
                  ScratchArena* arena, std::vector<size_t>* out) const;

  void Validate(size_t n) const {
    for (size_t i = 0; i < n; ++i) {
      IQS_DCHECK(i < n);  // DCHECK in a loop is fine
    }
  }
};

}  // namespace iqs

#endif  // FIXTURE_IQS_RANGE_CLEAN_SAMPLER_H_
