#include "iqs/cover/coverage_engine.h"

#include <algorithm>
#include <numeric>

#include "iqs/cover/cover_executor.h"
#include "iqs/util/check.h"
#include "iqs/util/telemetry.h"

namespace iqs {

namespace {

std::vector<double> PositionKeys(size_t n) {
  std::vector<double> keys(n);
  std::iota(keys.begin(), keys.end(), 0.0);
  return keys;
}

}  // namespace

CoverageEngine::CoverageEngine(std::span<const double> position_weights,
                               ThreadPool* build_pool)
    : sampler_(PositionKeys(position_weights.size()), position_weights,
               /*chunk_size=*/0, build_pool) {}

void CoverageEngine::SampleBatch(const CoverPlan& plan, Rng* rng,
                                 ScratchArena* arena, const BatchOptions& opts,
                                 std::vector<size_t>* out) const {
  const size_t base = out->size();
  out->resize(base + plan.TotalSamples());
  CoverExecutor::ExecuteOverSampler(plan, sampler_, rng, arena, opts,
                                    std::span<size_t>(*out).subspan(base));
}

void CoverageEngine::SampleBatch(const CoverPlan& plan, Rng* rng,
                                 ScratchArena* arena,
                                 std::vector<size_t>* out) const {
  SampleBatch(plan, rng, arena, BatchOptions{}, out);
}

void CoverageEngine::Sample(std::span<const CoverRange> cover, size_t s,
                            Rng* rng, std::vector<size_t>* out) const {
  if (s == 0 || cover.empty()) return;
  ScratchArena arena;
  CoverPlan plan(&arena);
  plan.BeginQuery(s);
  for (const CoverRange& range : cover) {
    IQS_DCHECK(range.lo <= range.hi);
    plan.AddGroup(range);
  }
  SampleBatch(plan, rng, &arena, out);
}

void CoverageEngine::SampleWithRejection(std::span<const CoverRange> cover,
                                         size_t s,
                                         FunctionRef<bool(size_t)> accepts,
                                         Rng* rng, ScratchArena* arena,
                                         const BatchOptions& opts,
                                         std::vector<size_t>* out) const {
  if (s == 0 || cover.empty()) return;
  CoverPlan plan(arena);
  out->reserve(out->size() + s);
  const size_t base = out->size();
  size_t produced = 0;
  // Draw candidate batches of the remaining deficit directly into `out`
  // and compact the accepted ones in place — no candidate buffer; the
  // split/draw scratch of every retry round comes from `arena`. With a
  // constant-density approximate cover each round converts a constant
  // fraction, so the expected total work is O(s).
  size_t round = 0;
  uint64_t attempts = 0;
  while (produced < s) {
    const size_t deficit = s - produced;
    // Cut the deficit into sub-queries of one executor block each, so a
    // single large query still yields shardable blocks. The slicing
    // depends only on the deficit and slices land contiguously in plan
    // order, so the round's candidate block is byte-identical for every
    // thread count, and the sequential compaction below keeps it so.
    plan.Clear();
    for (size_t done = 0; done < deficit;
         done += CoverExecutor::kBlockSamples) {
      plan.BeginQuery(std::min(CoverExecutor::kBlockSamples, deficit - done));
      for (const CoverRange& range : cover) plan.AddGroup(range);
    }
    SampleBatch(plan, rng, arena, opts, out);
    size_t write = base + produced;
    attempts += out->size() - write;
    for (size_t read = write; read < out->size(); ++read) {
      if (accepts((*out)[read])) (*out)[write++] = (*out)[read];
    }
    produced = write - base;
    out->resize(base + produced);
    // Guard against a cover that contains no qualifying element at all —
    // a caller bug: the acceptance rate would be 0 and the loop endless.
    // iqs-lint: allow(check-in-loop) -- aborts a non-converging rejection loop
    IQS_CHECK(++round < 64 * (s + 1) &&
              "rejection sampling is not converging; is the cover valid?");
  }
  if (opts.telemetry != nullptr) {
    QueryStats* stats = &opts.telemetry->shard(0)->stats;
    stats->rejection_attempts += attempts;
    stats->rejection_rounds += round;
  }
}

void CoverageEngine::SampleWithRejection(std::span<const CoverRange> cover,
                                         size_t s,
                                         FunctionRef<bool(size_t)> accepts,
                                         Rng* rng, ScratchArena* arena,
                                         std::vector<size_t>* out) const {
  SampleWithRejection(cover, s, accepts, rng, arena, BatchOptions{}, out);
}

void CoverageEngine::SampleWithRejection(std::span<const CoverRange> cover,
                                         size_t s,
                                         FunctionRef<bool(size_t)> accepts,
                                         Rng* rng,
                                         std::vector<size_t>* out) const {
  ScratchArena arena;
  SampleWithRejection(cover, s, accepts, rng, &arena, BatchOptions{}, out);
}

VersionedCoverageEngine::VersionedCoverageEngine(
    std::span<const double> position_weights)
    : engine_(std::make_unique<const CoverageEngine>(position_weights)) {}

void VersionedCoverageEngine::Rebuild(
    std::span<const double> position_weights) {
  MutexLock lock(&writer_mu_);
  const uint64_t start_ns = sink_ != nullptr ? TelemetryNowNs() : 0;
  // The full replacement engine is built privately (chunk builds on the
  // pool) before a single atomic publish — readers never see it partial.
  auto next = std::make_unique<const CoverageEngine>(position_weights, pool_);
  engine_.Publish(std::move(next), pool_);
  if (sink_ != nullptr) {
    // Serialized writer path; shard 0 of the structure's own sink.
    QueryStats* stats = &sink_->shard(0)->stats;
    stats->versions_published += 1;
    const EpochManager* epoch = engine_.epoch_manager();
    const uint64_t reclaimed = epoch->reclaimed();
    stats->versions_reclaimed += reclaimed - last_reclaimed_;
    last_reclaimed_ = reclaimed;
    const uint64_t pins = epoch->reader_pins();
    stats->reader_pins += pins - last_pins_;
    last_pins_ = pins;
    stats->rebuild_ns += TelemetryNowNs() - start_ns;
  }
}

void VersionedCoverageEngine::SampleBatch(const CoverPlan& plan, Rng* rng,
                                          ScratchArena* arena,
                                          const BatchOptions& opts,
                                          std::vector<size_t>* out) const {
  // One pin serves the entire batch: every query of the plan executes
  // against the same engine no matter what Rebuild() publishes meanwhile.
  const Snapshot<CoverageEngine> snap = engine_.Acquire();
  snap->SampleBatch(plan, rng, arena, opts, out);
}

void VersionedCoverageEngine::SampleBatch(const CoverPlan& plan, Rng* rng,
                                          ScratchArena* arena,
                                          std::vector<size_t>* out) const {
  SampleBatch(plan, rng, arena, BatchOptions{}, out);
}

void VersionedCoverageEngine::Sample(std::span<const CoverRange> cover,
                                     size_t s, Rng* rng,
                                     std::vector<size_t>* out) const {
  const Snapshot<CoverageEngine> snap = engine_.Acquire();
  snap->Sample(cover, s, rng, out);
}

}  // namespace iqs
