// Tests for the micro-batching serving frontend (iqs/serve/frontend.h):
// round-trip correctness, opportunistic flush sizing (each flush takes
// what queued during the previous one), deterministic flushed output
// across inner thread counts and configs, drain/shutdown exactly-once
// completion, admission control (block and reject), deadline shedding,
// distribution through the batcher, and a churn stress over the
// versioned LogarithmicRangeSampler (the TSan target). The serve-layer
// redesign (multi-workload routing) adds: continuation-mode tickets (set_on_complete, including a
// continuation churn stress for TSan), workload routing with per-class
// stats and per-class determinism, ValidateServeOptions death tests (one
// per rejected config), and join traffic served as a second class via a
// JoinServeFrontend next to a range frontend in one process.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "iqs/join/join_sampler.h"
#include "iqs/multidim/point.h"
#include "iqs/range/chunked_range_sampler.h"
#include "iqs/range/logarithmic_range_sampler.h"
#include "iqs/serve/frontend.h"
#include "iqs/serve/serve_stats.h"
#include "iqs/serve/ticket.h"
#include "iqs/util/rng.h"
#include "iqs/util/thread_pool.h"
#include "test_util.h"

namespace iqs {
namespace serve {
namespace {

// A queue-time budget far past any test's runtime: never sheds.
constexpr uint64_t kNeverShedNs = 30ull * 1000 * 1000 * 1000;

std::vector<double> MakeKeys(size_t n) {
  std::vector<double> keys(n);
  std::iota(keys.begin(), keys.end(), 0.0);
  return keys;
}

std::vector<double> MakeWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) w = 0.25 + rng.NextDouble();
  return weights;
}

// Frontend over one ChunkedRangeSampler shard (the paper's Theorem 3
// structure — the batch backend every range test in the repo trusts).
ServeFrontend<BatchQuery, size_t, BatchResult>::BatchFn PositionBackend(
    const ChunkedRangeSampler* sampler) {
  return [sampler](size_t /*shard*/, std::span<const BatchQuery> queries,
                   Rng* rng, ScratchArena* arena, const BatchOptions& opts,
                   BatchResult* result) {
    sampler->QueryBatch(queries, rng, arena, opts, result);
  };
}

// Default ServeOptions: a lone query flushes as soon as the worker wakes,
// with no window to wait out.
TEST(ServeFrontendTest, SingleQueryRoundTrip) {
  const std::vector<double> keys = MakeKeys(64);
  const std::vector<double> weights = MakeWeights(64, 1);
  const ChunkedRangeSampler sampler(keys, weights);

  RangeServeFrontend frontend(ServeOptions{}, PositionBackend(&sampler));

  ServeTicket<size_t> ticket;
  ASSERT_TRUE(frontend.Submit(0, BatchQuery{4.0, 40.0, 16}, &ticket));
  EXPECT_EQ(ticket.Wait(), ServeStatus::kOk);
  ASSERT_EQ(ticket.samples().size(), 16u);
  for (size_t position : ticket.samples()) {
    EXPECT_GE(position, 4u);
    EXPECT_LE(position, 40u);
  }
  EXPECT_GE(ticket.complete_ns(), ticket.submit_ns());

  frontend.Drain();
  const ServeShardStats stats = frontend.ShardStats(0);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.batches_flushed, 1u);
  EXPECT_EQ(stats.batch_size.max_ns(), 1u);
}

TEST(ServeFrontendTest, EmptyIntervalCompletesEmpty) {
  const std::vector<double> keys = MakeKeys(16);
  const std::vector<double> weights = MakeWeights(16, 2);
  const ChunkedRangeSampler sampler(keys, weights);

  ServeOptions options;
  RangeServeFrontend frontend(options, PositionBackend(&sampler));

  ServeTicket<size_t> ticket;
  ASSERT_TRUE(frontend.Submit(0, BatchQuery{100.0, 200.0, 8}, &ticket));
  EXPECT_EQ(ticket.Wait(), ServeStatus::kEmpty);
  EXPECT_TRUE(ticket.samples().empty());
}

// Test rig whose backend parks each batch inside the callback until
// released, so tests can fill the queue while the worker is busy — which
// is what makes admission and flush boundaries deterministic.
class GatedBackend {
 public:
  // Lets every parked batch through, and every later one as well.
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = std::numeric_limits<uint64_t>::max();
    cv_.notify_all();
  }

  // Lets the batches parked so far through; later batches park again.
  void ReleaseParked() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = entered_;
    cv_.notify_all();
  }

  // Blocks until a batch is parked in the backend.
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_ > released_; });
  }

  RangeServeFrontend::BatchFn Wrap(const ChunkedRangeSampler* sampler) {
    return [this, sampler](size_t /*shard*/,
                           std::span<const BatchQuery> queries, Rng* rng,
                           ScratchArena* arena, const BatchOptions& opts,
                           BatchResult* result) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        const uint64_t turn = entered_++;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_ > turn; });
      }
      sampler->QueryBatch(queries, rng, arena, opts, result);
    };
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t entered_ = 0;   // batches that have reached the gate
  uint64_t released_ = 0;  // batches [0, released_) may pass
};

// Parks shard 0's worker inside a one-query batch of `gate_workload`
// (served by `gate`), runs `enqueue` while it is parked, then releases
// it. The worker's next flushes therefore take exactly what `enqueue`
// queued, in max_batch-sized pieces — batch boundaries pinned without
// any reliance on timing. The gate class draws from its own stream, so
// it leaves every other class's output untouched.
template <typename Enqueue>
void WhileWorkerParked(RangeServeFrontend* frontend, GatedBackend* gate,
                       size_t gate_workload, Enqueue enqueue) {
  ServeTicket<size_t> gate_ticket;
  ASSERT_TRUE(frontend->Submit(0, gate_workload, BatchQuery{0.0, 1.0, 1},
                               &gate_ticket));
  gate->AwaitEntered();
  enqueue();
  gate->ReleaseParked();
  EXPECT_EQ(gate_ticket.Wait(), ServeStatus::kOk);
}

// Collected terminal state of one run: (status, samples) per query, in
// submission order — the byte-identity unit of the determinism tests.
struct RunOutput {
  std::vector<ServeStatus> statuses;
  std::vector<std::vector<size_t>> samples;

  bool operator==(const RunOutput&) const = default;
};

// Submits `waves` waves of `wave_size` (<= options.max_batch) workload-0
// queries from one producer, each queued while the worker is parked in a
// gate batch (workload 1) and waited out before the next, so workload 0's
// batch boundaries are pinned to [0,W), [W,2W), ... regardless of
// scheduling.
RunOutput RunPinnedWaves(const ServeOptions& options,
                         const ChunkedRangeSampler& sampler, size_t waves,
                         size_t wave_size) {
  GatedBackend gate;
  RangeServeFrontend frontend(options,
                              {PositionBackend(&sampler), gate.Wrap(&sampler)});
  RunOutput out;
  Rng query_rng(99);  // query CONTENT stream, independent of the frontend
  std::vector<std::unique_ptr<ServeTicket<size_t>>> tickets;
  for (size_t i = 0; i < wave_size; ++i) {
    tickets.push_back(std::make_unique<ServeTicket<size_t>>());
  }
  for (size_t wave = 0; wave < waves; ++wave) {
    WhileWorkerParked(&frontend, &gate, /*gate_workload=*/1, [&] {
      for (size_t i = 0; i < wave_size; ++i) {
        tickets[i]->Reset();
        const double lo = query_rng.NextDouble() * 48.0;
        const double hi = lo + query_rng.NextDouble() * 16.0;
        const size_t s = 1 + (query_rng.Next64() % 7);
        EXPECT_TRUE(
            frontend.Submit(0, BatchQuery{lo, hi, s}, tickets[i].get()));
      }
    });
    for (size_t i = 0; i < wave_size; ++i) {
      out.statuses.push_back(tickets[i]->Wait());
      out.samples.emplace_back(tickets[i]->samples());
    }
  }
  frontend.Drain();
  return out;
}

TEST(ServeFrontendTest, DeterministicAcrossInnerThreadCounts) {
  const std::vector<double> keys = MakeKeys(64);
  const std::vector<double> weights = MakeWeights(64, 3);
  const ChunkedRangeSampler sampler(keys, weights);

  std::vector<RunOutput> runs;
  for (size_t num_threads : {1u, 2u, 7u}) {
    ServeOptions options;
    options.max_batch = 16;
    options.seed = 4242;
    options.batch.num_threads = num_threads;
    runs.push_back(
        RunPinnedWaves(options, sampler, /*waves=*/4, /*wave_size=*/16));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  // And the output is not vacuously empty.
  size_t total = 0;
  for (const std::vector<size_t>& s : runs[0].samples) total += s.size();
  EXPECT_GT(total, 0u);
}

TEST(ServeFrontendTest, DeterministicAcrossWindowConfigs) {
  const std::vector<double> keys = MakeKeys(64);
  const std::vector<double> weights = MakeWeights(64, 4);
  const ChunkedRangeSampler sampler(keys, weights);

  // Three configs with the same seed and the same pinned waves (hence
  // the same batch boundaries) that differ in everything else: the batch
  // bound, queue bound, admission policy, and the deadline budget
  // (generous enough never to shed) must all be invisible in the output.
  ServeOptions a;
  a.max_batch = 8;
  a.seed = 777;

  ServeOptions b = a;
  b.max_batch = 32;  // room to spare: the 8-query waves still flush whole
  b.queue_capacity = 64;
  b.admission = AdmissionPolicy::kReject;

  ServeOptions c = a;
  c.deadline_ns = kNeverShedNs;

  constexpr size_t kWaves = 6;
  constexpr size_t kWaveSize = 8;
  const RunOutput ra = RunPinnedWaves(a, sampler, kWaves, kWaveSize);
  const RunOutput rb = RunPinnedWaves(b, sampler, kWaves, kWaveSize);
  const RunOutput rc = RunPinnedWaves(c, sampler, kWaves, kWaveSize);
  EXPECT_EQ(ra, rb);
  EXPECT_EQ(ra, rc);
}

TEST(ServeFrontendTest, DrainCompletesEveryTicketExactlyOnce) {
  const std::vector<double> keys = MakeKeys(32);
  const std::vector<double> weights = MakeWeights(32, 5);
  const ChunkedRangeSampler sampler(keys, weights);

  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 200;

  ServeOptions options;
  options.num_shards = 2;
  options.max_batch = 32;
  {
    RangeServeFrontend frontend(options, PositionBackend(&sampler));
    std::vector<std::vector<ServeTicket<size_t>>> tickets(kProducers);
    for (auto& row : tickets) row = std::vector<ServeTicket<size_t>>(
        kPerProducer);
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = 0; i < kPerProducer; ++i) {
          // Producers race the main thread's Drain below: a submit either
          // admits (its ticket then MUST complete) or reports rejection.
          frontend.Submit((p + i) % options.num_shards,
                          BatchQuery{2.0, 28.0, 3}, &tickets[p][i]);
        }
      });
    }
    // Drain concurrently with live producers — the hard half of the
    // shutdown contract. (Drain blocks until queues are empty.)
    frontend.Drain();
    for (std::thread& t : producers) t.join();

    uint64_t ok = 0, rejected = 0;
    for (const auto& row : tickets) {
      for (const ServeTicket<size_t>& ticket : row) {
        const ServeStatus status = ticket.status();
        // Nothing may still be pending after Drain + producer join: every
        // future is lost-or-completed exactly once, and ServeTicket
        // aborts on double completion, so terminal status here IS the
        // exactly-once proof.
        ASSERT_NE(status, ServeStatus::kPending);
        if (status == ServeStatus::kOk) {
          ok += 1;
          EXPECT_EQ(ticket.samples().size(), 3u);
        } else {
          ASSERT_EQ(status, ServeStatus::kRejected);
          rejected += 1;
        }
      }
    }
    EXPECT_EQ(ok + rejected, kProducers * kPerProducer);
    const ServeShardStats stats = frontend.MergedStats();
    EXPECT_EQ(stats.submitted, ok);
    EXPECT_EQ(stats.completed, ok);
    EXPECT_EQ(stats.rejected, rejected);
    EXPECT_EQ(stats.shed, 0u);
  }
}

TEST(ServeFrontendTest, DrainIsIdempotentAndDestructorSafe) {
  const std::vector<double> keys = MakeKeys(8);
  const std::vector<double> weights = MakeWeights(8, 6);
  const ChunkedRangeSampler sampler(keys, weights);

  ServeOptions options;
  RangeServeFrontend frontend(options, PositionBackend(&sampler));
  frontend.Drain();
  frontend.Drain();
  ServeTicket<size_t> ticket;
  EXPECT_FALSE(frontend.Submit(0, BatchQuery{0.0, 7.0, 1}, &ticket));
  EXPECT_EQ(ticket.status(), ServeStatus::kRejected);
  // Destructor drains again on scope exit — must be a no-op.
}

TEST(ServeFrontendTest, RejectPolicyShedsAtTheDoorWhenFull) {
  const std::vector<double> keys = MakeKeys(16);
  const std::vector<double> weights = MakeWeights(16, 7);
  const ChunkedRangeSampler sampler(keys, weights);

  GatedBackend gate;
  ServeOptions options;
  options.max_batch = 2;
  options.queue_capacity = 4;
  options.admission = AdmissionPolicy::kReject;
  RangeServeFrontend frontend(options, gate.Wrap(&sampler));

  // First submit enters a batch and parks the worker inside the backend.
  ServeTicket<size_t> parked;
  ASSERT_TRUE(frontend.Submit(0, BatchQuery{1.0, 14.0, 2}, &parked));
  gate.AwaitEntered();

  // With the worker parked, the queue admits exactly queue_capacity more;
  // the next submit must be rejected immediately (no blocking).
  std::vector<ServeTicket<size_t>> queued(options.queue_capacity);
  for (ServeTicket<size_t>& ticket : queued) {
    ASSERT_TRUE(frontend.Submit(0, BatchQuery{1.0, 14.0, 2}, &ticket));
  }
  ServeTicket<size_t> overflow;
  EXPECT_FALSE(frontend.Submit(0, BatchQuery{1.0, 14.0, 2}, &overflow));
  EXPECT_EQ(overflow.status(), ServeStatus::kRejected);

  gate.Release();
  EXPECT_EQ(parked.Wait(), ServeStatus::kOk);
  for (ServeTicket<size_t>& ticket : queued) {
    EXPECT_EQ(ticket.Wait(), ServeStatus::kOk);
  }
  frontend.Drain();
  const ServeShardStats stats = frontend.ShardStats(0);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.queue_depth_hwm, options.queue_capacity);
}

TEST(ServeFrontendTest, BlockPolicyAppliesBackpressure) {
  const std::vector<double> keys = MakeKeys(16);
  const std::vector<double> weights = MakeWeights(16, 8);
  const ChunkedRangeSampler sampler(keys, weights);

  GatedBackend gate;
  ServeOptions options;
  options.max_batch = 2;
  options.queue_capacity = 2;
  options.admission = AdmissionPolicy::kBlock;
  RangeServeFrontend frontend(options, gate.Wrap(&sampler));

  ServeTicket<size_t> parked;
  ASSERT_TRUE(frontend.Submit(0, BatchQuery{1.0, 14.0, 2}, &parked));
  gate.AwaitEntered();

  // Fill the queue, then submit one more from a side thread: it must
  // BLOCK (not reject) until the gate releases and the worker drains.
  std::vector<ServeTicket<size_t>> queued(options.queue_capacity);
  for (ServeTicket<size_t>& ticket : queued) {
    ASSERT_TRUE(frontend.Submit(0, BatchQuery{1.0, 14.0, 2}, &ticket));
  }
  ServeTicket<size_t> blocked;
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    EXPECT_TRUE(frontend.Submit(0, BatchQuery{1.0, 14.0, 2}, &blocked));
    admitted.store(true);
  });
  // The producer cannot have been admitted while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());

  gate.Release();
  producer.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_EQ(blocked.Wait(), ServeStatus::kOk);
  frontend.Drain();
  EXPECT_EQ(frontend.ShardStats(0).rejected, 0u);
}

TEST(ServeFrontendTest, DeadlineShedsStaleQueries) {
  // A 1ns budget is unmeetable — even an instant flush observes more
  // queue time than that — so every query must complete kShed and the
  // backend must never run (an all-shed flush skips the batch call).
  std::atomic<bool> backend_ran{false};
  ServeOptions options;
  options.max_batch = 4;
  options.deadline_ns = 1;
  RangeServeFrontend frontend(
      options, [&backend_ran](size_t /*shard*/,
                              std::span<const BatchQuery> /*queries*/,
                              Rng* /*rng*/, ScratchArena* /*arena*/,
                              const BatchOptions& /*opts*/,
                              BatchResult* /*result*/) {
        backend_ran.store(true);
      });

  std::vector<ServeTicket<size_t>> stale(8);
  for (ServeTicket<size_t>& ticket : stale) {
    ASSERT_TRUE(frontend.Submit(0, BatchQuery{1.0, 14.0, 2}, &ticket));
  }
  for (ServeTicket<size_t>& ticket : stale) {
    EXPECT_EQ(ticket.Wait(), ServeStatus::kShed);
    EXPECT_TRUE(ticket.samples().empty());
  }
  frontend.Drain();
  EXPECT_FALSE(backend_ran.load());
  const ServeShardStats stats = frontend.ShardStats(0);
  EXPECT_EQ(stats.shed, 8u);
  EXPECT_EQ(stats.completed, 0u);
  // Shed queries still contribute their queue time to the histogram —
  // that time is exactly why they were shed.
  EXPECT_EQ(stats.time_in_queue_ns.count(), 8u);
}

TEST(ServeFrontendTest, DistributionThroughTheBatcherMatchesWeights) {
  constexpr size_t kN = 8;
  const std::vector<double> keys = MakeKeys(kN);
  std::vector<double> weights(kN);
  for (size_t i = 0; i < kN; ++i) weights[i] = 1.0 + static_cast<double>(i);
  const ChunkedRangeSampler sampler(keys, weights);

  ServeOptions options;
  options.max_batch = 64;
  options.seed = 31337;
  RangeServeFrontend frontend(options, PositionBackend(&sampler));

  // Micro-batching must be distribution-neutral: per-query draws through
  // the frontend are i.i.d. from the same law as direct sampling.
  std::vector<size_t> samples;
  std::vector<ServeTicket<size_t>> tickets(options.max_batch);
  constexpr size_t kWaves = 24;
  constexpr size_t kPerQuery = 40;
  for (size_t wave = 0; wave < kWaves; ++wave) {
    for (ServeTicket<size_t>& ticket : tickets) {
      ticket.Reset();
      ASSERT_TRUE(frontend.Submit(
          0, BatchQuery{0.0, static_cast<double>(kN - 1), kPerQuery},
          &ticket));
    }
    for (ServeTicket<size_t>& ticket : tickets) {
      ASSERT_EQ(ticket.Wait(), ServeStatus::kOk);
      samples.insert(samples.end(), ticket.samples().begin(),
                     ticket.samples().end());
    }
  }
  ASSERT_EQ(samples.size(), kWaves * options.max_batch * kPerQuery);
  iqs::testing::ExpectSamplesMatchWeights(samples, weights);
}

TEST(ServeFrontendTest, StatsBatchSizeNeverExceedsWindow) {
  const std::vector<double> keys = MakeKeys(32);
  const std::vector<double> weights = MakeWeights(32, 10);
  const ChunkedRangeSampler sampler(keys, weights);

  GatedBackend gate;
  ServeOptions options;
  options.max_batch = 16;
  // A nonzero BatchOptions::max_batch arms the executor-side IQS_CHECK,
  // so an oversized flush would abort inside the backend as well.
  RangeServeFrontend frontend(options,
                              {PositionBackend(&sampler), gate.Wrap(&sampler)});

  // All 300 queue up behind the parked worker, so the coalescing below
  // is guaranteed rather than a matter of producer/worker timing.
  std::vector<ServeTicket<size_t>> tickets(300);
  WhileWorkerParked(&frontend, &gate, /*gate_workload=*/1, [&] {
    for (ServeTicket<size_t>& ticket : tickets) {
      ASSERT_TRUE(frontend.Submit(0, BatchQuery{4.0, 28.0, 2}, &ticket));
    }
  });
  for (ServeTicket<size_t>& ticket : tickets) {
    EXPECT_EQ(ticket.Wait(), ServeStatus::kOk);
  }
  frontend.Drain();
  const ServeShardStats stats = frontend.ShardStats(0);
  EXPECT_LE(stats.batch_size.max_ns(), options.max_batch);
  EXPECT_EQ(stats.batch_size.sum_ns(), tickets.size() + 1);  // + the gate
  EXPECT_EQ(stats.time_in_batch_ns.count(), stats.batches_flushed);
  // Coalescing happened: 300 queued queries flush as ceil(300/16) = 19
  // batches, not 300 batches of one.
  EXPECT_EQ(frontend.WorkloadStats(0, 0).batches_flushed, 19u);
}

// The opportunistic-batching contract: a flush takes everything queued
// during the previous flush, up to max_batch, with no timed wait — so K
// queries queued behind a busy worker flush as one batch of K (K <=
// max_batch), or as max_batch-sized batches plus the remainder.
TEST(ServeFrontendTest, FlushTakesEverythingQueuedDuringPreviousFlush) {
  const std::vector<double> keys = MakeKeys(32);
  const std::vector<double> weights = MakeWeights(32, 21);
  const ChunkedRangeSampler sampler(keys, weights);

  constexpr size_t kMaxBatch = 8;
  for (size_t k : {size_t{1}, size_t{5}, kMaxBatch, 2 * kMaxBatch + 1}) {
    SCOPED_TRACE(k);
    GatedBackend gate;
    ServeOptions options;
    options.max_batch = kMaxBatch;
    RangeServeFrontend frontend(
        options, {PositionBackend(&sampler), gate.Wrap(&sampler)});

    std::vector<ServeTicket<size_t>> tickets(k);
    WhileWorkerParked(&frontend, &gate, /*gate_workload=*/1, [&] {
      for (ServeTicket<size_t>& ticket : tickets) {
        ASSERT_TRUE(frontend.Submit(0, BatchQuery{4.0, 28.0, 2}, &ticket));
      }
    });
    for (ServeTicket<size_t>& ticket : tickets) {
      EXPECT_EQ(ticket.Wait(), ServeStatus::kOk);
    }
    frontend.Drain();

    const ServeShardStats stats = frontend.WorkloadStats(0, 0);
    const LatencyHistogram& sizes = stats.batch_size;
    EXPECT_EQ(sizes.sum_ns(), k);
    if (k <= kMaxBatch) {
      // Exactly one follow-up flush, of size K.
      EXPECT_EQ(stats.batches_flushed, 1u);
      EXPECT_EQ(sizes.count(), 1u);
      EXPECT_EQ(sizes.max_ns(), k);
    } else {
      // max_batch, max_batch, 1: three flushes summing to K, the largest
      // max_batch, and exactly one of size 1 (the only value in its
      // histogram bucket) — which forces the middle one to max_batch too.
      EXPECT_EQ(stats.batches_flushed, 3u);
      EXPECT_EQ(sizes.count(), 3u);
      EXPECT_EQ(sizes.max_ns(), kMaxBatch);
      EXPECT_EQ(sizes.bucket(LatencyHistogram::BucketOf(1)), 1u);
      EXPECT_EQ(sizes.bucket(LatencyHistogram::BucketOf(kMaxBatch)), 2u);
    }
  }
}

// The TSan workhorse: multi-producer traffic over the versioned
// LogarithmicRangeSampler while a writer inserts concurrently — the full
// PR-6 epoch path under the frontend, every layer racing by design.
TEST(ServeFrontendTest, ChurnStressOverVersionedSampler) {
  LogarithmicRangeSampler sampler;
  for (size_t i = 0; i < 512; ++i) {
    sampler.Insert(static_cast<double>(i), 1.0 + (i % 7));
  }

  ServeOptions options;
  options.num_shards = 2;
  options.max_batch = 32;
  options.batch.num_threads = 2;
  KeyServeFrontend frontend(
      options,
      [&sampler](size_t /*shard*/, std::span<const KeyBatchQuery> queries,
                 Rng* rng, ScratchArena* arena, const BatchOptions& opts,
                 KeyBatchResult* result) {
        sampler.QueryBatch(queries, rng, arena, opts, result);
      });

  std::atomic<bool> stop_writer{false};
  std::thread writer([&] {
    double next_key = 10000.0;
    while (!stop_writer.load(std::memory_order_relaxed)) {
      sampler.Insert(next_key, 2.0);
      next_key += 1.0;
      std::this_thread::yield();
    }
  });

  constexpr size_t kProducers = 3;
  constexpr size_t kPerProducer = 400;
  std::vector<std::vector<ServeTicket<double>>> tickets(kProducers);
  for (auto& row : tickets) row = std::vector<ServeTicket<double>>(
      kPerProducer);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(1000 + p);
      for (size_t i = 0; i < kPerProducer; ++i) {
        const double lo = rng.NextDouble() * 400.0;
        const KeyBatchQuery query{lo, lo + 64.0, 4};
        ASSERT_TRUE(frontend.Submit(i % options.num_shards, query,
                                    &tickets[p][i]));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  frontend.Drain();
  stop_writer.store(true, std::memory_order_relaxed);
  writer.join();

  uint64_t ok = 0;
  for (const auto& row : tickets) {
    for (const ServeTicket<double>& ticket : row) {
      const ServeStatus status = ticket.status();
      ASSERT_TRUE(status == ServeStatus::kOk || status == ServeStatus::kEmpty);
      if (status == ServeStatus::kOk) {
        ok += 1;
        ASSERT_EQ(ticket.samples().size(), 4u);
      }
    }
  }
  EXPECT_GT(ok, 0u);
  const ServeShardStats stats = frontend.MergedStats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.completed, kProducers * kPerProducer);
  // Exporters must serialize whatever the run produced.
  EXPECT_FALSE(ServeStatsToJson(stats).empty());
  EXPECT_FALSE(ServeStatsToText(stats).empty());
}

// --------------------------------------------------------------------
// Continuation mode: ServeTicket::set_on_complete.

TEST(ServeTicketTest, OnCompleteDeliversWithoutWait) {
  const std::vector<double> keys = MakeKeys(32);
  const std::vector<double> weights = MakeWeights(32, 11);
  const ChunkedRangeSampler sampler(keys, weights);

  ServeOptions options;
  RangeServeFrontend frontend(options, PositionBackend(&sampler));

  std::atomic<uint32_t> fires{0};
  ServeTicket<size_t> ticket;
  ticket.set_on_complete([&fires](const ServeTicket<size_t>& t) {
    // The terminal state is published before the hook runs: status and
    // samples must already be readable here, with no Wait anywhere.
    EXPECT_EQ(t.status(), ServeStatus::kOk);
    EXPECT_EQ(t.samples().size(), 5u);
    for (size_t position : t.samples()) {
      EXPECT_GE(position, 2u);
      EXPECT_LE(position, 30u);
    }
    EXPECT_GE(t.complete_ns(), t.submit_ns());
    fires.fetch_add(1, std::memory_order_release);
    fires.notify_all();
  });
  ASSERT_TRUE(frontend.Submit(0, BatchQuery{2.0, 30.0, 5}, &ticket));
  fires.wait(0, std::memory_order_acquire);  // the hook IS the signal
  EXPECT_EQ(fires.load(std::memory_order_acquire), 1u);
  frontend.Drain();
  // Exactly once: drain re-fires nothing, and the ticket stayed terminal.
  EXPECT_EQ(fires.load(std::memory_order_acquire), 1u);
  EXPECT_EQ(ticket.status(), ServeStatus::kOk);
}

TEST(ServeTicketTest, OnCompleteSurvivesResetAcrossResubmits) {
  const std::vector<double> keys = MakeKeys(32);
  const std::vector<double> weights = MakeWeights(32, 12);
  const ChunkedRangeSampler sampler(keys, weights);

  ServeOptions options;
  RangeServeFrontend frontend(options, PositionBackend(&sampler));

  // Armed ONCE; Reset must keep the continuation armed, so a reusable
  // ticket pays the std::function setup per ticket, not per submit.
  std::atomic<uint32_t> fires{0};
  ServeTicket<size_t> ticket;
  ticket.set_on_complete([&fires](const ServeTicket<size_t>& t) {
    EXPECT_NE(t.status(), ServeStatus::kPending);
    fires.fetch_add(1, std::memory_order_relaxed);
  });
  constexpr uint32_t kWaves = 8;
  for (uint32_t wave = 0; wave < kWaves; ++wave) {
    if (wave > 0) ticket.Reset();
    ASSERT_TRUE(frontend.Submit(0, BatchQuery{1.0, 30.0, 3}, &ticket));
    // Blocking and continuation modes compose: Wait paces the loop, the
    // hook fired inside the same Complete that Wait observed.
    EXPECT_EQ(ticket.Wait(), ServeStatus::kOk);
  }
  frontend.Drain();
  EXPECT_EQ(fires.load(std::memory_order_relaxed), kWaves);
}

TEST(ServeTicketTest, OnCompleteOnRejectionRunsOnSubmittingThread) {
  const std::vector<double> keys = MakeKeys(8);
  const std::vector<double> weights = MakeWeights(8, 13);
  const ChunkedRangeSampler sampler(keys, weights);

  ServeOptions options;
  RangeServeFrontend frontend(options, PositionBackend(&sampler));
  frontend.Drain();  // admission now rejects everything

  uint32_t fires = 0;
  std::thread::id hook_thread;
  ServeTicket<size_t> ticket;
  ticket.set_on_complete([&](const ServeTicket<size_t>& t) {
    EXPECT_EQ(t.status(), ServeStatus::kRejected);
    EXPECT_TRUE(t.samples().empty());
    hook_thread = std::this_thread::get_id();
    fires += 1;
  });
  // A rejected submit completes the ticket synchronously, so the hook has
  // run (on THIS thread) by the time Submit returns — no atomics needed.
  EXPECT_FALSE(frontend.Submit(0, BatchQuery{0.0, 7.0, 1}, &ticket));
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(hook_thread, std::this_thread::get_id());
}

// Continuation-mode twin of DrainCompletesEveryTicketExactlyOnce, and a
// TSan target: producers race Drain with hooks armed, so completions fire
// from shard workers (flushed) and producer threads (rejected) while the
// counters they touch are shared.
TEST(ServeFrontendTest, OnCompleteChurnDeliversEveryTicketExactlyOnce) {
  const std::vector<double> keys = MakeKeys(32);
  const std::vector<double> weights = MakeWeights(32, 14);
  const ChunkedRangeSampler sampler(keys, weights);

  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 200;

  ServeOptions options;
  options.num_shards = 2;
  options.max_batch = 32;
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> rejected{0};
  {
    RangeServeFrontend frontend(options, PositionBackend(&sampler));
    // Warmup wave from this thread, waited out BEFORE the race below (the
    // race may reject everything): guarantees the worker-side hook path
    // runs, not just the submitter-side rejection path.
    constexpr size_t kWarmup = 8;
    std::vector<ServeTicket<size_t>> warmup(kWarmup);
    for (ServeTicket<size_t>& ticket : warmup) {
      ticket.set_on_complete([&ok](const ServeTicket<size_t>& t) {
        EXPECT_EQ(t.status(), ServeStatus::kOk);
        ok.fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_TRUE(frontend.Submit(0, BatchQuery{2.0, 28.0, 3}, &ticket));
    }
    for (ServeTicket<size_t>& ticket : warmup) {
      ASSERT_EQ(ticket.Wait(), ServeStatus::kOk);
    }
    EXPECT_EQ(ok.load(std::memory_order_relaxed), kWarmup);

    std::vector<std::vector<ServeTicket<size_t>>> tickets(kProducers);
    for (auto& row : tickets) row = std::vector<ServeTicket<size_t>>(
        kPerProducer);
    std::vector<std::thread> producers;
    for (size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = 0; i < kPerProducer; ++i) {
          ServeTicket<size_t>& ticket = tickets[p][i];
          ticket.set_on_complete([&ok, &rejected](
                                     const ServeTicket<size_t>& t) {
            if (t.status() == ServeStatus::kOk) {
              ok.fetch_add(1, std::memory_order_relaxed);
            } else {
              EXPECT_EQ(t.status(), ServeStatus::kRejected);
              rejected.fetch_add(1, std::memory_order_relaxed);
            }
          });
          frontend.Submit((p + i) % options.num_shards,
                          BatchQuery{2.0, 28.0, 3}, &ticket);
        }
      });
    }
    frontend.Drain();  // races the producers, as in the blocking twin
    for (std::thread& t : producers) t.join();
  }  // destructor drains again; any re-completion would abort
  // Every ticket fired its continuation exactly once (per-ticket
  // double-fire would have aborted inside Complete; a lost one would
  // leave the sum short).
  EXPECT_EQ(ok.load() + rejected.load(), kProducers * kPerProducer + 8);
  EXPECT_GE(ok.load(), 8u);  // at least the warmup completed kOk
}

// --------------------------------------------------------------------
// Workload routing: one frontend, many traffic classes.

// A backend whose output is unmistakable: every sample is `value`.
RangeServeFrontend::BatchFn ConstantBackend(size_t value) {
  return [value](size_t /*shard*/, std::span<const BatchQuery> queries,
                 Rng* /*rng*/, ScratchArena* /*arena*/,
                 const BatchOptions& /*opts*/, BatchResult* result) {
    result->Clear();
    result->offsets.push_back(0);
    for (const BatchQuery& query : queries) {
      for (size_t i = 0; i < query.s; ++i) result->positions.push_back(value);
      result->offsets.push_back(result->positions.size());
      result->resolved.push_back(1);
    }
  };
}

TEST(ServeFrontendTest, WorkloadRoutingRoutesClassesToTheirBackends) {
  const std::vector<double> keys = MakeKeys(32);
  const std::vector<double> weights = MakeWeights(32, 15);
  const ChunkedRangeSampler sampler(keys, weights);

  constexpr size_t kMarker = 777;  // far outside the sampler's key space
  ServeOptions options;
  RangeServeFrontend frontend(
      options, {PositionBackend(&sampler), ConstantBackend(kMarker)});
  ASSERT_EQ(frontend.num_workloads(), 2u);

  constexpr size_t kEach = 24;
  std::vector<ServeTicket<size_t>> sampled(kEach);
  std::vector<ServeTicket<size_t>> marked(kEach);
  for (size_t i = 0; i < kEach; ++i) {
    // Interleaved into ONE shard queue: the flush must de-interleave by
    // class, not by arrival.
    ASSERT_TRUE(frontend.Submit(0, 0, BatchQuery{2.0, 28.0, 4}, &sampled[i]));
    ASSERT_TRUE(frontend.Submit(0, 1, BatchQuery{2.0, 28.0, 4}, &marked[i]));
  }
  for (size_t i = 0; i < kEach; ++i) {
    ASSERT_EQ(sampled[i].Wait(), ServeStatus::kOk);
    for (size_t position : sampled[i].samples()) {
      EXPECT_GE(position, 2u);
      EXPECT_LE(position, 28u);
    }
    ASSERT_EQ(marked[i].Wait(), ServeStatus::kOk);
    ASSERT_EQ(marked[i].samples().size(), 4u);
    for (size_t position : marked[i].samples()) EXPECT_EQ(position, kMarker);
  }
  frontend.Drain();

  // Per-class splits carry their own counters; the aggregate still sees
  // the union (so pre-routing dashboards keep working unchanged).
  const ServeShardStats w0 = frontend.WorkloadStats(0, 0);
  const ServeShardStats w1 = frontend.WorkloadStats(0, 1);
  const ServeShardStats all = frontend.ShardStats(0);
  EXPECT_EQ(w0.submitted, kEach);
  EXPECT_EQ(w1.submitted, kEach);
  EXPECT_EQ(w0.completed, kEach);
  EXPECT_EQ(w1.completed, kEach);
  EXPECT_EQ(w0.rejected + w1.rejected, 0u);
  EXPECT_GE(w0.batches_flushed, 1u);
  EXPECT_GE(w1.batches_flushed, 1u);
  EXPECT_EQ(all.submitted, 2 * kEach);
  EXPECT_EQ(all.completed, 2 * kEach);
  EXPECT_EQ(all.batches_flushed, w0.batches_flushed + w1.batches_flushed);
  EXPECT_EQ(w0.batch_size.sum_ns() + w1.batch_size.sum_ns(),
            all.batch_size.sum_ns());
  // One shard: the merged view IS the shard view, per class.
  EXPECT_EQ(frontend.MergedWorkloadStats(0), w0);
  EXPECT_EQ(frontend.MergedWorkloadStats(1), w1);
}

// RunPinnedWaves over a two-class routing table: each wave interleaves
// both workloads into pinned boundaries (the gate is a third class, id
// 2), collecting outputs per class.
RunOutput RunRoutedPinnedWaves(const ServeOptions& options,
                               const ChunkedRangeSampler& sampler_a,
                               const ChunkedRangeSampler& sampler_b,
                               size_t waves) {
  GatedBackend gate;
  RangeServeFrontend frontend(
      options, {PositionBackend(&sampler_a), PositionBackend(&sampler_b),
                gate.Wrap(&sampler_a)});
  RunOutput out;
  Rng query_rng(99);
  std::vector<std::unique_ptr<ServeTicket<size_t>>> tickets;
  for (size_t i = 0; i < options.max_batch; ++i) {
    tickets.push_back(std::make_unique<ServeTicket<size_t>>());
  }
  for (size_t wave = 0; wave < waves; ++wave) {
    WhileWorkerParked(&frontend, &gate, /*gate_workload=*/2, [&] {
      for (size_t i = 0; i < options.max_batch; ++i) {
        tickets[i]->Reset();
        const double lo = query_rng.NextDouble() * 48.0;
        const double hi = lo + query_rng.NextDouble() * 16.0;
        const size_t s = 1 + (query_rng.Next64() % 7);
        EXPECT_TRUE(frontend.Submit(0, i % 2, BatchQuery{lo, hi, s},
                                    tickets[i].get()));
      }
    });
    for (size_t i = 0; i < options.max_batch; ++i) {
      out.statuses.push_back(tickets[i]->Wait());
      out.samples.emplace_back(tickets[i]->samples());
    }
  }
  frontend.Drain();
  return out;
}

TEST(ServeFrontendTest, RoutedFlushesDeterministicAcrossInnerThreadCounts) {
  const std::vector<double> keys = MakeKeys(64);
  const ChunkedRangeSampler sampler_a(keys, MakeWeights(64, 16));
  const ChunkedRangeSampler sampler_b(keys, MakeWeights(64, 17));

  // Per-class determinism: with routing in the path, flushed output must
  // still be byte-identical across inner thread counts (each class's
  // stream is a function of its own batch boundaries alone).
  std::vector<RunOutput> runs;
  for (size_t num_threads : {1u, 2u, 7u}) {
    ServeOptions options;
    options.max_batch = 16;
    options.seed = 2718;
    options.batch.num_threads = num_threads;
    runs.push_back(
        RunRoutedPinnedWaves(options, sampler_a, sampler_b, /*waves=*/4));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  size_t total = 0;
  for (const std::vector<size_t>& s : runs[0].samples) total += s.size();
  EXPECT_GT(total, 0u);
}

// --------------------------------------------------------------------
// Join traffic as a second class: two frontends, one process — the
// cross-type-family routing story from the frontend header. Range
// queries flow through a RangeServeFrontend while join queries flow
// through a JoinServeFrontend over a JoinSampler, each micro-batching
// independently.

TEST(ServeFrontendTest, JoinWorkloadServedAsSecondTrafficClass) {
  Rng rect_rng(0x5eed);
  auto random_rects = [&rect_rng](size_t n) {
    std::vector<multidim::Rect> rects(n);
    for (multidim::Rect& rect : rects) {
      rect.x_lo = rect_rng.NextDouble() * 80.0;
      rect.x_hi = rect.x_lo + rect_rng.NextDouble() * 30.0;
      rect.y_lo = rect_rng.NextDouble() * 80.0;
      rect.y_hi = rect.y_lo + rect_rng.NextDouble() * 30.0;
    }
    return rects;
  };
  const std::vector<multidim::Rect> rel_r = random_rects(48);
  const std::vector<multidim::Rect> rel_s = random_rects(48);
  const join::JoinSampler join_sampler(rel_r, rel_s);
  ASSERT_GT(join_sampler.JoinSize(), 0u);

  const std::vector<double> keys = MakeKeys(32);
  const std::vector<double> weights = MakeWeights(32, 18);
  const ChunkedRangeSampler range_sampler(keys, weights);

  ServeOptions options;
  RangeServeFrontend range_frontend(options, PositionBackend(&range_sampler));
  JoinServeFrontend join_frontend(
      options,
      [&join_sampler](size_t /*shard*/,
                      std::span<const join::JoinBatchQuery> queries, Rng* rng,
                      ScratchArena* arena, const BatchOptions& opts,
                      join::JoinBatchResult* result) {
        join_sampler.SampleJoinBatch(queries, rng, arena, opts, result);
      });

  constexpr size_t kEach = 16;
  std::vector<ServeTicket<size_t>> range_tickets(kEach);
  std::vector<ServeTicket<join::JoinPair>> join_tickets(kEach);
  for (size_t i = 0; i < kEach; ++i) {
    ASSERT_TRUE(range_frontend.Submit(0, BatchQuery{2.0, 28.0, 4},
                                      &range_tickets[i]));
    ASSERT_TRUE(
        join_frontend.Submit(0, join::JoinBatchQuery{5}, &join_tickets[i]));
  }
  for (size_t i = 0; i < kEach; ++i) {
    ASSERT_EQ(range_tickets[i].Wait(), ServeStatus::kOk);
    EXPECT_EQ(range_tickets[i].samples().size(), 4u);
    ASSERT_EQ(join_tickets[i].Wait(), ServeStatus::kOk);
    ASSERT_EQ(join_tickets[i].samples().size(), 5u);
    for (const join::JoinPair& pair : join_tickets[i].samples()) {
      ASSERT_LT(pair.r_id, rel_r.size());
      ASSERT_LT(pair.s_id, rel_s.size());
      // Every served pair really is in the join result.
      EXPECT_TRUE(rel_r[pair.r_id].Intersects(rel_s[pair.s_id]));
    }
  }
  range_frontend.Drain();
  join_frontend.Drain();
  EXPECT_EQ(join_frontend.MergedStats().completed, kEach);
  EXPECT_EQ(range_frontend.MergedStats().completed, kEach);
}

// --------------------------------------------------------------------
// ServeOptions validation: one regression test per rejected config. The
// library has no exceptions — a bad config aborts via IQS_CHECK at the
// construction site, so these are death tests on the validator (and one
// on the constructor itself, proving it validates).

TEST(ServeOptionsDeathTest, RejectsZeroShards) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeOptions options;
  options.num_shards = 0;
  EXPECT_DEATH(ValidateServeOptions(options), "num_shards >= 1");
}

TEST(ServeOptionsDeathTest, RejectsZeroMaxBatch) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeOptions options;
  options.max_batch = 0;
  EXPECT_DEATH(ValidateServeOptions(options), "max_batch >= 1");
}

TEST(ServeOptionsDeathTest, RejectsQueueSmallerThanWindow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeOptions options;
  options.max_batch = 64;
  options.queue_capacity = 63;  // could never hold a full batch
  EXPECT_DEATH(ValidateServeOptions(options), "queue_capacity");
}

TEST(ServeOptionsDeathTest, RejectsCallerSuppliedPool) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(1);
        ServeOptions options;
        options.batch.pool = &pool;  // each shard worker owns its pool
        ValidateServeOptions(options);
      },
      "batch.pool == nullptr");
}

TEST(ServeOptionsDeathTest, RejectsContradictoryBatchWindow) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeOptions options;
  options.max_batch = 16;
  options.batch.max_batch = 8;  // below the batch bound it must admit
  EXPECT_DEATH(ValidateServeOptions(options), "batch.max_batch");
}

TEST(ServeOptionsDeathTest, RejectsTelemetryOnMultiShard) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        TelemetrySink sink;
        ServeOptions options;
        options.num_shards = 2;  // two workers would race on the sink
        options.batch.telemetry = &sink;
        ValidateServeOptions(options);
      },
      "telemetry");
}

TEST(ServeOptionsDeathTest, ConstructorValidates) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> keys = MakeKeys(8);
  const std::vector<double> weights = MakeWeights(8, 19);
  const ChunkedRangeSampler sampler(keys, weights);
  ServeOptions options;
  options.max_batch = 0;
  EXPECT_DEATH(RangeServeFrontend(options, PositionBackend(&sampler)),
               "max_batch >= 1");
}

TEST(ServeOptionsDeathTest, RejectsEmptyRoutingTable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ServeOptions options;
  EXPECT_DEATH(
      RangeServeFrontend(options, std::vector<RangeServeFrontend::BatchFn>{}),
      "empty");
}

TEST(ServeOptionsDeathTest, RejectsNullWorkloadEntry) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<double> keys = MakeKeys(8);
  const std::vector<double> weights = MakeWeights(8, 20);
  const ChunkedRangeSampler sampler(keys, weights);
  ServeOptions options;
  std::vector<RangeServeFrontend::BatchFn> table;
  table.push_back(PositionBackend(&sampler));
  table.push_back(nullptr);  // a routed class with no backend
  EXPECT_DEATH(RangeServeFrontend(options, std::move(table)), "nullptr");
}

TEST(ServeStatsTest, MergeCombinesShards) {
  ServeShardStats a;
  a.submitted = 5;
  a.queue_depth_hwm = 3;
  a.batch_size.Record(4);
  ServeShardStats b;
  b.submitted = 7;
  b.rejected = 2;
  b.queue_depth_hwm = 9;
  b.batch_size.Record(16);

  ServeShardStats merged;
  merged.MergeFrom(a);
  merged.MergeFrom(b);
  EXPECT_EQ(merged.submitted, 12u);
  EXPECT_EQ(merged.rejected, 2u);
  EXPECT_EQ(merged.queue_depth_hwm, 9u);
  EXPECT_EQ(merged.batch_size.count(), 2u);
  EXPECT_EQ(merged.batch_size.sum_ns(), 20u);
}

}  // namespace
}  // namespace serve
}  // namespace iqs
