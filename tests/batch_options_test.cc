// Tests for the BatchOptions serving-contract fields (deadline_ns /
// max_batch, PR 8): defaults must be a byte-identical NO-OP for every
// pre-existing call site, and the armed max_batch bound must accept any
// batch within the window. (The violated-bound path is an IQS_CHECK
// abort, exercised implicitly by the serve layer's armed batches.)

#include <cstddef>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/range_sampler.h"
#include "iqs/util/batch_options.h"
#include "iqs/util/rng.h"
#include "iqs/util/scratch_arena.h"

namespace iqs {
namespace {

TEST(BatchOptionsTest, ContractFieldsDefaultToNoContract) {
  const BatchOptions opts;
  EXPECT_EQ(opts.deadline_ns, 0u);
  EXPECT_EQ(opts.max_batch, 0u);
  EXPECT_EQ(opts.num_threads, 0u);
  EXPECT_EQ(opts.pool, nullptr);
}

class BatchOptionsContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(7);
    std::vector<double> keys(256);
    std::vector<double> weights(256);
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<double>(i);
      weights[i] = 0.5 + rng.NextDouble();
    }
    sampler_ = std::make_unique<ChunkedRangeSampler>(keys, weights);
    for (size_t q = 0; q < 48; ++q) {
      const double lo = rng.NextDouble() * 200.0;
      queries_.push_back(
          BatchQuery{lo, lo + 40.0, 1 + (q % 9)});
    }
  }

  BatchResult Run(const BatchOptions& opts, uint64_t seed) {
    Rng rng(seed);
    ScratchArena arena;
    BatchResult result;
    sampler_->QueryBatch(queries_, &rng, &arena, opts, &result);
    return result;
  }

  std::unique_ptr<ChunkedRangeSampler> sampler_;
  std::vector<BatchQuery> queries_;
};

TEST_F(BatchOptionsContractTest, DefaultsAreByteIdenticalToPreContractCalls) {
  // An old call site is exactly `BatchOptions{}` (or the convenience
  // overload that builds one): setting the new fields to their defaults
  // must not perturb a single sample, in either execution mode.
  for (size_t num_threads : {0u, 2u}) {
    BatchOptions old_site;
    old_site.num_threads = num_threads;

    BatchOptions new_site = old_site;
    new_site.deadline_ns = 0;
    new_site.max_batch = 0;

    const BatchResult a = Run(old_site, 1234);
    const BatchResult b = Run(new_site, 1234);
    EXPECT_EQ(a.positions, b.positions) << num_threads << " threads";
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.resolved, b.resolved);
  }
}

TEST_F(BatchOptionsContractTest, ArmedContractIsANoOpWithinTheWindow) {
  // A nonzero max_batch >= the batch size, and any deadline, only arm
  // validation — the samples must still be byte-identical.
  for (size_t num_threads : {0u, 2u}) {
    BatchOptions plain;
    plain.num_threads = num_threads;

    BatchOptions armed = plain;
    armed.max_batch = queries_.size();  // tight bound: exactly the batch
    armed.deadline_ns = 1;              // executors never act on it

    const BatchResult a = Run(plain, 5678);
    const BatchResult b = Run(armed, 5678);
    EXPECT_EQ(a.positions, b.positions) << num_threads << " threads";
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.resolved, b.resolved);
  }
}

}  // namespace
}  // namespace iqs
