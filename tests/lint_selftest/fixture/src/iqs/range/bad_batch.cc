// Fixture: batch-signature violation — the output parameter is not
// last (Rng* trails it). Expected finding: batch-signature.
#include "iqs/range/clean_sampler.h"

namespace iqs {

class BadBatch {
 public:
  // Output before Rng*: out of canonical order.
  void SampleBatch(std::span<const PositionQuery> queries,  // VIOLATION: batch-signature
                   std::vector<size_t>* out, Rng* rng) const;

  // A span output before Rng*: out of canonical order too.
  void QueryPositionsBatch(std::span<const PositionQuery> queries,  // VIOLATION: batch-signature
                           std::span<size_t> out, Rng* rng) const;
};

}  // namespace iqs
