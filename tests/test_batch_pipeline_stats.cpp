// Regression tests for the BatchPipeline locking discipline surfaced by the
// thread-safety-annotation audit: stall_seconds()/assemble_seconds() are part
// of the public API and may be polled from a monitoring thread while an epoch
// runs, in BOTH prefetch modes.  The prefetch=0 path originally updated the
// stats counters and consume cursor without mu_, racing those accessors; the
// fix routes every shared-state update through the lock.  These tests pin the
// contract (run them under the `pipeline-stats-tsan` preset to let TSan see
// the poller), plus the mid-epoch shutdown path and prefetch bit-identity at
// the pipeline level.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "data/spike_data.hpp"
#include "snn/batch_pipeline.hpp"
#include "snn/trainer.hpp"
#include "util/rng.hpp"

namespace r4ncl {
namespace {

data::Dataset tiny_dataset(std::size_t n, std::size_t T, std::size_t C) {
  data::Dataset ds;
  ds.reserve(n);
  Rng rng(901);
  for (std::size_t i = 0; i < n; ++i) {
    data::SpikeRaster r(T, C);
    for (auto& b : r.bits) b = rng.bernoulli(0.15) ? 1 : 0;
    ds.push_back({std::move(r), static_cast<std::int32_t>(i % 4)});
  }
  return ds;
}

snn::SampleSource source_over(const data::Dataset& ds) {
  snn::SampleSource source;
  source.size = ds.size();
  source.fetch = [&ds](std::size_t i) -> const data::Sample& { return ds[i]; };
  return source;
}

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

// Drive several epochs while a second thread hammers the stats accessors.
// Under TSan this is the regression for the unguarded prefetch=0 updates;
// under any sanitizer the monotonicity asserts catch torn reads.
void run_with_stats_poller(std::size_t prefetch) {
  const data::Dataset ds = tiny_dataset(24, 10, 32);
  const snn::SampleSource source = source_over(ds);
  snn::BatchPipeline pipeline(source, /*batch_size=*/5, prefetch);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> polls{0};
  std::thread poller([&] {
    double last_stall = 0.0;
    double last_assemble = 0.0;
    while (!done.load(std::memory_order_acquire)) {
      const double stall = pipeline.stall_seconds();
      const double assemble = pipeline.assemble_seconds();
      EXPECT_GE(stall, last_stall);
      EXPECT_GE(assemble, last_assemble);
      last_stall = stall;
      last_assemble = assemble;
      polls.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  const std::vector<std::size_t> order = identity_order(ds.size());
  std::size_t batches = 0;
  std::size_t epochs = 0;
  // At least 4 epochs, then keep going until the poller has provably run at
  // least once (on a loaded single-core runner it may not be scheduled
  // during the first few sub-millisecond epochs).
  while (epochs < 4 || (polls.load() == 0 && epochs < 10000)) {
    pipeline.begin_epoch(order);
    while (const snn::PreparedBatch* pb = pipeline.next_batch()) {
      EXPECT_GT(pb->count, 0u);
      ++batches;
    }
    ++epochs;
  }
  done.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(batches, epochs * ((ds.size() + 4) / 5));
  EXPECT_GT(pipeline.assemble_seconds(), 0.0);
  EXPECT_GT(polls.load(), 0u);
}

TEST(BatchPipelineStats, ConcurrentPollingSynchronousPath) {
  run_with_stats_poller(/*prefetch=*/0);
}

TEST(BatchPipelineStats, ConcurrentPollingPrefetchedPath) {
  run_with_stats_poller(/*prefetch=*/2);
}

TEST(BatchPipelineStats, MidEpochDestructionShutsDownProducer) {
  const data::Dataset ds = tiny_dataset(40, 10, 32);
  const snn::SampleSource source = source_over(ds);
  const std::vector<std::size_t> order = identity_order(ds.size());
  // Destroying the pipeline with most of the epoch unconsumed must wake the
  // parked producer and join it: no hang, no leak, no touched-after-free slot.
  for (std::size_t consumed : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    auto pipeline = std::make_unique<snn::BatchPipeline>(source, 4, /*prefetch=*/3);
    pipeline->begin_epoch(order);
    for (std::size_t i = 0; i < consumed; ++i) {
      ASSERT_NE(pipeline->next_batch(), nullptr);
    }
    pipeline.reset();
  }
}

TEST(BatchPipelineStats, PrefetchedBatchesBitIdenticalToSynchronous) {
  const data::Dataset ds = tiny_dataset(19, 8, 24);
  const snn::SampleSource source = source_over(ds);
  std::vector<std::size_t> order = identity_order(ds.size());
  Rng rng(7);
  rng.shuffle(order);

  snn::BatchPipeline sync_pipe(source, 4, /*prefetch=*/0);
  snn::BatchPipeline async_pipe(source, 4, /*prefetch=*/2);
  sync_pipe.begin_epoch(order);
  async_pipe.begin_epoch(order);
  for (;;) {
    const snn::PreparedBatch* a = sync_pipe.next_batch();
    const snn::PreparedBatch* b = async_pipe.next_batch();
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a == nullptr) break;
    EXPECT_EQ(a->lo, b->lo);
    EXPECT_EQ(a->count, b->count);
    EXPECT_EQ(a->labels, b->labels);
    ASSERT_NE(a->events, nullptr);
    ASSERT_NE(b->events, nullptr);
    EXPECT_TRUE(*a->events == *b->events);
  }
}

}  // namespace
}  // namespace r4ncl
