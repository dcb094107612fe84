// The event-list data path: minibatches are assembled from the samples'
// rasters straight into spike event lists (compress::BatchEventBuilder), the
// lists are handed from layer to layer (RecurrentLifLayer::forward(SpikeList))
// and the readout runs event-driven from them.  Every piece is pinned here
// bit for bit against the dense formulation it replaces:
//  - the builder against events_from_batch(make_batch(...)) over random
//    densities, all-zero and all-one timesteps, B = 1, partial last batches
//    and non-binary bytes;
//  - event-chained run_hidden / forward_logits / evaluate / frozen_latents /
//    train_step against SparseForward::kNever (dense kernels, dense cubes
//    between layers), under fixed and adaptive thresholds;
//  - the event readout forward against a test-local copy of the dense
//    readout (zero-skipping matmul + count_nonzero), logits and stats, at
//    threads 1 and 4.
#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compress/aer.hpp"
#include "data/spike_data.hpp"
#include "snn/layer.hpp"
#include "snn/network.hpp"
#include "snn/readout.hpp"
#include "snn/trainer.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl {
namespace {

data::SpikeRaster random_raster(std::size_t T, std::size_t C, double density,
                                std::uint64_t seed) {
  data::SpikeRaster r(T, C);
  Rng rng(seed);
  for (auto& b : r.bits) b = rng.bernoulli(density) ? 1 : 0;
  return r;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.values().data(), b.values().data(),
                     a.values().size() * sizeof(float)) == 0;
}

void expect_same_stats(const snn::SpikeOpStats& a, const snn::SpikeOpStats& b) {
  EXPECT_EQ(a.synops, b.synops);
  EXPECT_EQ(a.neuron_updates, b.neuron_updates);
  EXPECT_EQ(a.spikes, b.spikes);
  EXPECT_EQ(a.timestep_slots, b.timestep_slots);
  EXPECT_EQ(a.backward_synops, b.backward_synops);
  EXPECT_EQ(a.decompress_bits, b.decompress_bits);
}

/// Restores the process-wide kernel selection and thread count.
struct KernelGuard {
  int threads = num_threads();
  ~KernelGuard() {
    snn::set_sparse_forward(snn::SparseForward::kAuto);
    set_num_threads(threads);
  }
};

/// 11 samples of a T×C geometry at the given density; sample 3 has an
/// all-zero timestep 2 and an all-ones timestep 5, sample 7 is empty.
data::Dataset dataset_at(std::size_t T, std::size_t C, double density, std::uint64_t seed) {
  data::Dataset ds;
  for (std::size_t i = 0; i < 11; ++i) {
    ds.push_back({random_raster(T, C, density, seed + i), static_cast<std::int32_t>(i % 5)});
  }
  for (std::size_t c = 0; c < C; ++c) {
    ds[3].raster.bits[2 * C + c] = 0;
    ds[3].raster.bits[5 * C + c] = 1;
  }
  std::fill(ds[7].raster.bits.begin(), ds[7].raster.bits.end(), 0);
  return ds;
}

/// The builder's list for dataset[lo, hi) in order.
snn::SpikeList build(compress::BatchEventBuilder& builder, const data::Dataset& ds,
                     std::size_t lo, std::size_t hi) {
  builder.begin(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) builder.add(ds[i].raster);
  return builder.finish();
}

std::vector<std::size_t> range(std::size_t lo, std::size_t hi) {
  std::vector<std::size_t> idx(hi - lo);
  std::iota(idx.begin(), idx.end(), lo);
  return idx;
}

// ---- Builder ≡ events_from_batch(make_batch(...)) ----------------------------

TEST(EventBuilder, MatchesEventsFromMakeBatch) {
  compress::BatchEventBuilder builder;  // one scratch across every geometry below
  for (const std::size_t C : {std::size_t{7}, std::size_t{16}, std::size_t{37}}) {
    for (const double density : {0.0, 0.02, 0.1, 0.5, 1.0}) {
      const data::Dataset ds = dataset_at(9, C, density, 100 + C);
      // Batches of 4 (the last one partial: 3 rows) and of 1.
      for (const std::size_t batch : {std::size_t{4}, std::size_t{1}}) {
        for (std::size_t lo = 0; lo < ds.size(); lo += batch) {
          const std::size_t hi = std::min(ds.size(), lo + batch);
          const std::vector<std::size_t> idx = range(lo, hi);
          const compress::BatchEventList want = compress::events_from_batch(
              data::make_batch(ds, idx));
          const snn::SpikeList got = build(builder, ds, lo, hi);
          EXPECT_TRUE(*got == want) << "C=" << C << " density=" << density
                                    << " batch=" << batch << " rows " << lo << ".." << hi;
        }
      }
    }
  }
}

TEST(EventBuilder, NonBinaryBytesKeepTheirValue) {
  data::Dataset ds = dataset_at(6, 12, 0.3, 900);
  ds[1].raster.bits[7] = 2;
  ds[4].raster.bits[30] = 255;
  compress::BatchEventBuilder builder;
  const snn::SpikeList got = build(builder, ds, 0, 5);
  EXPECT_FALSE(got->unit_values);
  EXPECT_TRUE(*got == compress::events_from_batch(data::make_batch(ds, range(0, 5))));
  // A later all-binary batch is unit again.
  const snn::SpikeList next = build(builder, ds, 5, 9);
  EXPECT_TRUE(next->unit_values);
  EXPECT_TRUE(*next == compress::events_from_batch(data::make_batch(ds, range(5, 9))));
}

TEST(EventBuilder, RejectsMixedShapesAndShortBatches) {
  compress::BatchEventBuilder builder;
  builder.begin(2);
  builder.add(random_raster(5, 8, 0.2, 1));
  EXPECT_THROW(builder.add(random_raster(5, 9, 0.2, 2)), Error);
  builder.begin(3);
  builder.add(random_raster(5, 8, 0.2, 3));
  EXPECT_THROW((void)builder.finish(), Error);
}

TEST(EventBuilder, ReusesItsScratchWithinAGeometry) {
  const data::Dataset ds = dataset_at(9, 16, 0.2, 300);
  compress::BatchEventBuilder builder;
  const std::uint64_t before = compress::batch_event_allocations();
  for (int epoch = 0; epoch < 3; ++epoch) {
    for (std::size_t lo = 0; lo < ds.size(); lo += 4) {
      (void)build(builder, ds, lo, std::min(ds.size(), lo + 4));
    }
  }
  EXPECT_EQ(compress::batch_event_allocations() - before, 1u);
}

TEST(EventList, DenseRoundTripAndRasterRows) {
  const data::Dataset ds = dataset_at(9, 37, 0.2, 500);
  const Tensor x = data::make_batch(ds, range(0, 11));
  const compress::BatchEventList ev = compress::events_from_batch(x);
  EXPECT_TRUE(same_bits(compress::batch_from_events(ev), x));
  for (std::size_t b = 0; b < ev.batch; ++b) {
    EXPECT_EQ(compress::raster_from_events(ev, b), data::batch_to_raster(x, b)) << b;
  }
}

// ---- Event-chained network ≡ dense kernels -----------------------------------

snn::NetworkConfig chain_config() {
  snn::NetworkConfig cfg;
  cfg.layer_sizes = {24, 16, 12, 8};
  cfg.num_classes = 5;
  cfg.seed = 41;
  return cfg;
}

snn::ThresholdPolicy policy_for(bool adaptive, std::size_t T) {
  return adaptive ? snn::ThresholdPolicy::adaptive(static_cast<int>(T))
                  : snn::ThresholdPolicy::fixed(1.0f);
}

class EventChain : public ::testing::TestWithParam<bool> {};

TEST_P(EventChain, RunHiddenForwardLogitsAndEvaluateMatchDenseKernels) {
  KernelGuard guard;
  const bool adaptive = GetParam();
  const std::size_t T = 12;
  const snn::SnnNetwork net(chain_config());
  const snn::ThresholdPolicy policy = policy_for(adaptive, T);
  const data::Dataset ds = dataset_at(T, 24, 0.25, 700);
  compress::BatchEventBuilder builder;
  for (const std::size_t lo : {std::size_t{0}, std::size_t{8}}) {
    const std::size_t hi = std::min(ds.size(), lo + 8);
    const Tensor cube = data::make_batch(ds, range(lo, hi));
    for (std::size_t to = 0; to <= net.num_hidden(); ++to) {
      snn::SpikeOpStats event_stats, dense_stats;
      const snn::SpikeList events =
          net.run_hidden(build(builder, ds, lo, hi), 0, to, policy, &event_stats);
      snn::set_sparse_forward(snn::SparseForward::kNever);
      const Tensor dense = net.run_hidden(cube, 0, to, policy, &dense_stats);
      snn::set_sparse_forward(snn::SparseForward::kAuto);
      EXPECT_TRUE(same_bits(compress::batch_from_events(*events), dense)) << "to=" << to;
      EXPECT_TRUE(*events == compress::events_from_batch(dense)) << "to=" << to;
      expect_same_stats(event_stats, dense_stats);
    }
    snn::SpikeOpStats event_stats, dense_stats;
    const Tensor event_logits =
        net.forward_logits(build(builder, ds, lo, hi), 0, policy, &event_stats);
    snn::set_sparse_forward(snn::SparseForward::kNever);
    const Tensor dense_logits = net.forward_logits(cube, 0, policy, &dense_stats);
    snn::set_sparse_forward(snn::SparseForward::kAuto);
    EXPECT_TRUE(same_bits(event_logits, dense_logits));
    expect_same_stats(event_stats, dense_stats);
  }

  // evaluate() and frozen_latents() over the whole set, blocks of 4 (the
  // last block partial).
  snn::SpikeOpStats event_stats, dense_stats;
  const double event_acc = snn::evaluate(net, ds, 0, policy, 4, &event_stats);
  const data::Dataset event_latents = snn::frozen_latents(net, ds, 2, policy, 4, &event_stats);
  snn::set_sparse_forward(snn::SparseForward::kNever);
  const double dense_acc = snn::evaluate(net, ds, 0, policy, 4, &dense_stats);
  const data::Dataset dense_latents = snn::frozen_latents(net, ds, 2, policy, 4, &dense_stats);
  snn::set_sparse_forward(snn::SparseForward::kAuto);
  EXPECT_EQ(event_acc, dense_acc);
  expect_same_stats(event_stats, dense_stats);
  ASSERT_EQ(event_latents.size(), dense_latents.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(event_latents[i].raster, dense_latents[i].raster) << i;
    EXPECT_EQ(event_latents[i].label, dense_latents[i].label) << i;
  }
}

TEST_P(EventChain, TrainStepMatchesDenseKernels) {
  KernelGuard guard;
  const bool adaptive = GetParam();
  const std::size_t T = 12;
  const snn::ThresholdPolicy policy = policy_for(adaptive, T);
  const data::Dataset ds = dataset_at(T, 24, 0.25, 800);
  for (const std::size_t from : {std::size_t{0}, std::size_t{2}, std::size_t{3}}) {
    snn::SnnNetwork event_net(chain_config());
    snn::SnnNetwork dense_net(chain_config());
    // Inputs at the insertion point: the frozen prefix's latents.
    const data::Dataset latents = snn::frozen_latents(event_net, ds, from, policy, 11);
    snn::AdamOptimizer event_opt, dense_opt;
    compress::BatchEventBuilder builder;
    for (std::size_t step = 0; step < 3; ++step) {
      const std::size_t lo = (step * 4) % 8, hi = lo + 4;
      std::vector<std::int32_t> labels;
      for (std::size_t i = lo; i < hi; ++i) labels.push_back(latents[i].label);
      snn::SpikeOpStats event_stats, dense_stats;
      std::vector<std::uint8_t> event_rows, dense_rows;
      const snn::StepResult a =
          event_net.train_step(build(builder, latents, lo, hi), labels, from, policy, event_opt,
                               1e-2f, snn::SpikeMode::kHard, &event_stats, &event_rows);
      snn::set_sparse_forward(snn::SparseForward::kNever);
      const snn::StepResult b =
          dense_net.train_step(data::make_batch(latents, range(lo, hi)), labels, from, policy,
                               dense_opt, 1e-2f, snn::SpikeMode::kHard, &dense_stats,
                               &dense_rows);
      snn::set_sparse_forward(snn::SparseForward::kAuto);
      EXPECT_EQ(a.loss, b.loss) << "from=" << from << " step " << step;
      EXPECT_EQ(a.correct, b.correct);
      EXPECT_EQ(event_rows, dense_rows);
      expect_same_stats(event_stats, dense_stats);
    }
    for (std::size_t i = 0; i < event_net.num_hidden(); ++i) {
      EXPECT_TRUE(same_bits(event_net.hidden(i).w_ff(), dense_net.hidden(i).w_ff())) << i;
      EXPECT_TRUE(same_bits(event_net.hidden(i).w_rec(), dense_net.hidden(i).w_rec())) << i;
    }
    EXPECT_TRUE(same_bits(event_net.readout().w(), dense_net.readout().w())) << "from=" << from;
  }
}

INSTANTIATE_TEST_SUITE_P(FixedAndAdaptive, EventChain, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "adaptive" : "fixed");
                         });

// ---- Event readout ≡ the dense readout ---------------------------------------

/// The dense readout forward as it was before the event path: per timestep a
/// zero-skipping X(t)·W, the leaky trace, and count_nonzero synops.
Tensor dense_readout_forward(const snn::LeakyReadout& ro, const Tensor& x,
                             snn::SpikeOpStats* stats) {
  const std::size_t T = x.dim(0), B = x.dim(1), C = ro.n_classes();
  Tensor logits(B, C), v(B, C), current(B, C);
  for (std::size_t t = 0; t < T; ++t) {
    kernels::matmul(x.slab(t).data(), B, ro.n_in(), ro.w().raw(), C, current.raw(), false);
    for (std::size_t i = 0; i < B * C; ++i) {
      v.raw()[i] = ro.beta() * v.raw()[i] + current.raw()[i];
      logits.raw()[i] += v.raw()[i];
    }
    const std::size_t events = kernels::count_nonzero(x.slab(t).data(), B * ro.n_in());
    stats->synops += static_cast<std::uint64_t>(events) * C;
    stats->neuron_updates += B * C;
    stats->timestep_slots += B;
  }
  const float inv_t = 1.0f / static_cast<float>(T);
  for (auto& l : logits.values()) l *= inv_t;
  return logits;
}

TEST(EventReadout, ForwardMatchesDenseReadoutAtAnyThreadCount) {
  KernelGuard guard;
  Rng init(61);
  const snn::LeakyReadout ro(50, 20, 0.9f, init, 1.0f);
  for (const std::size_t B : {std::size_t{1}, std::size_t{7}, std::size_t{16}}) {
    for (const bool valued : {false, true}) {
      Tensor x(13, B, 50);
      Rng rng(70 + B);
      for (auto& v : x.values()) {
        if (rng.bernoulli(0.15)) v = valued ? static_cast<float>(rng.uniform(0.1, 2.0)) : 1.0f;
      }
      snn::SpikeOpStats want_stats;
      const Tensor want = dense_readout_forward(ro, x, &want_stats);
      const compress::BatchEventList ev = compress::events_from_batch(x);
      for (const int threads : {1, 4}) {
        set_num_threads(threads);
        snn::SpikeOpStats got_stats, tensor_stats;
        EXPECT_TRUE(same_bits(ro.forward(ev, &got_stats), want))
            << "B=" << B << " valued=" << valued << " threads=" << threads;
        expect_same_stats(got_stats, want_stats);
        EXPECT_TRUE(same_bits(ro.forward(x, &tensor_stats), want));
        expect_same_stats(tensor_stats, want_stats);
      }
    }
  }
}

}  // namespace
}  // namespace r4ncl
