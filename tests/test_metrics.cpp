// Cost models and accuracy bookkeeping.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/shd_synth.hpp"
#include "data/tasks.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/cost_model.hpp"

namespace r4ncl::metrics {
namespace {

TEST(CostModel, ZeroStatsZeroCost) {
  const snn::SpikeOpStats stats{};
  EXPECT_DOUBLE_EQ(EnergyModel().energy_uj(stats), 0.0);
  EXPECT_DOUBLE_EQ(LatencyModel().latency_ms(stats), 0.0);
}

TEST(CostModel, EnergyIsLinearInOps) {
  snn::SpikeOpStats a{};
  a.synops = 1000;
  a.neuron_updates = 500;
  snn::SpikeOpStats b = a;
  b.synops *= 2;
  b.neuron_updates *= 2;
  const EnergyModel model;
  EXPECT_NEAR(model.energy_uj(b), 2.0 * model.energy_uj(a), 1e-12);
}

TEST(CostModel, EnergyMatchesHandComputation) {
  EnergyModelParams p;
  p.synop_pj = 10.0;
  p.neuron_update_pj = 2.0;
  p.spike_pj = 1.0;
  p.backward_op_pj = 0.5;
  p.decompress_bit_pj = 0.1;
  p.timestep_slot_pj = 3.0;
  snn::SpikeOpStats s{};
  s.synops = 4;
  s.neuron_updates = 5;
  s.spikes = 6;
  s.backward_synops = 8;
  s.decompress_bits = 10;
  s.timestep_slots = 2;
  // 40 + 10 + 6 + 4 + 1 + 6 = 67 pJ.
  EXPECT_NEAR(EnergyModel(p).energy_uj(s), 67e-6, 1e-12);
}

TEST(CostModel, LatencyMatchesHandComputation) {
  LatencyModelParams p;
  p.synop_ns = 2.0;
  p.neuron_update_ns = 1.0;
  p.spike_ns = 0.0;
  p.backward_op_ns = 0.25;
  p.decompress_bit_ns = 0.5;
  p.timestep_slot_ns = 10.0;
  snn::SpikeOpStats s{};
  s.synops = 10;
  s.neuron_updates = 20;
  s.backward_synops = 8;
  s.decompress_bits = 4;
  s.timestep_slots = 1;
  // 20 + 20 + 2 + 2 + 10 = 54 ns.
  EXPECT_NEAR(LatencyModel(p).latency_ms(s), 54e-6, 1e-12);
}

TEST(CostModel, StatsAddAccumulates) {
  snn::SpikeOpStats a{}, b{};
  a.synops = 1;
  a.spikes = 2;
  b.synops = 10;
  b.backward_synops = 5;
  a.add(b);
  EXPECT_EQ(a.synops, 11u);
  EXPECT_EQ(a.spikes, 2u);
  EXPECT_EQ(a.backward_synops, 5u);
}

TEST(Forgetting, TracksBestMinusCurrent) {
  ForgettingTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.update(0.8), 0.0);
  EXPECT_DOUBLE_EQ(tracker.update(0.9), 0.0);
  EXPECT_DOUBLE_EQ(tracker.update(0.6), 0.3);
  EXPECT_DOUBLE_EQ(tracker.best(), 0.9);
  EXPECT_DOUBLE_EQ(tracker.update(0.95), 0.0);
}

TEST(EvalSettings, DefaultsMatchSota) {
  const EvalSettings s;
  EXPECT_EQ(s.timesteps, 100u);
  EXPECT_EQ(s.policy.mode, snn::ThresholdMode::kFixed);
}

// ---------------------------------------------------------------------------
// Evaluation from the insertion layer: test sets pushed through the frozen
// prefix once and scored from layer k must reproduce the layer-0 accuracy
// exactly, for every k and under both threshold policies.

struct PreparedEvalFixture {
  data::ClassIncrementalTasks tasks;
  snn::SnnNetwork net{snn::NetworkConfig{}};
};

const PreparedEvalFixture& prepared_eval_fixture() {
  static const PreparedEvalFixture f = [] {
    data::ShdSynthParams gen;
    gen.channels = 24;
    gen.classes = 4;
    gen.timesteps = 20;
    gen.ridge_width = 3.0;
    gen.position_pool = 5;
    gen.seed = 7;
    data::TaskSplitParams split;
    split.train_per_class = 6;
    // 3 old classes x 3 = 9 old-task samples (not a multiple of the batch
    // size 4 below); 3 new-task samples (less than one batch).
    split.test_per_class = 3;
    split.replay_per_class = 2;
    split.new_class = 3;
    split.seed = 9;
    snn::NetworkConfig net_cfg;
    net_cfg.layer_sizes = {24, 16, 12, 8};
    net_cfg.num_classes = 4;
    net_cfg.seed = 5;
    PreparedEvalFixture fx{data::build_class_incremental(data::SyntheticShdGenerator(gen), split),
                           snn::SnnNetwork(net_cfg)};
    snn::AdamOptimizer opt;
    snn::TrainOptions opts;
    opts.epochs = 4;
    opts.batch_size = 6;
    (void)snn::train_supervised(fx.net, fx.tasks.pretrain_train, opt, opts);
    return fx;
  }();
  return f;
}

class PreparedEval : public ::testing::TestWithParam<bool> {};

TEST_P(PreparedEval, EveryInsertionMatchesLayerZero) {
  const PreparedEvalFixture& fx = prepared_eval_fixture();
  EvalSettings settings;
  settings.timesteps = 10;
  // A steep adaptive gain makes each block's threshold trajectory, and so
  // the predictions, visibly depend on which samples share the block.
  settings.policy = GetParam() ? snn::ThresholdPolicy::adaptive(10, 1.0f, 2, 0.3f)
                               : snn::ThresholdPolicy::fixed(1.0f);
  settings.batch_size = 4;
  ASSERT_NE(fx.tasks.pretrain_test.size() % settings.batch_size, 0u);
  ASSERT_LT(fx.tasks.new_test.size(), settings.batch_size);

  const TaskAccuracy want = evaluate_tasks(fx.net, fx.tasks, settings);
  // Independent of the prepared path: rescale and score from layer 0.
  const auto layer0 = [&](const data::Dataset& test) {
    return snn::evaluate(fx.net, data::time_rescale(test, settings.timesteps, settings.rescale),
                         0, settings.policy, settings.batch_size);
  };
  EXPECT_EQ(want.old_tasks, layer0(fx.tasks.pretrain_test));
  EXPECT_EQ(want.new_task, layer0(fx.tasks.new_test));

  for (std::size_t k = 0; k <= fx.net.num_hidden(); ++k) {
    SCOPED_TRACE("insertion " + std::to_string(k));
    const PreparedTasks prepared = prepare_tasks(fx.net, fx.tasks, settings, k);
    EXPECT_EQ(prepared.old_tasks.insertion, k);
    ASSERT_EQ(prepared.old_tasks.latents.size(), fx.tasks.pretrain_test.size());
    ASSERT_EQ(prepared.new_task.latents.size(), fx.tasks.new_test.size());
    EXPECT_EQ(prepared.old_tasks.latents.front().raster.channels, fx.net.insertion_width(k));
    // The latents are the cube a layer-0 evaluation computes at layer k,
    // block by block.
    const data::Dataset rescaled =
        data::time_rescale(fx.tasks.pretrain_test, settings.timesteps, settings.rescale);
    std::vector<std::size_t> block;
    for (std::size_t lo = 0; lo < rescaled.size(); lo += settings.batch_size) {
      block.clear();
      for (std::size_t i = lo; i < std::min(rescaled.size(), lo + settings.batch_size); ++i) {
        block.push_back(i);
      }
      const Tensor cube =
          fx.net.run_hidden(data::make_batch(rescaled, block), 0, k, settings.policy);
      for (std::size_t b = 0; b < block.size(); ++b) {
        EXPECT_EQ(prepared.old_tasks.latents[lo + b].raster.bits,
                  data::batch_to_raster(cube, b).bits)
            << "sample " << lo + b;
      }
    }
    const TaskAccuracy got = evaluate_tasks(fx.net, prepared);
    EXPECT_EQ(got.old_tasks, want.old_tasks);
    EXPECT_EQ(got.new_task, want.new_task);
  }
}

INSTANTIATE_TEST_SUITE_P(ThresholdPolicies, PreparedEval, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "Adaptive" : "Fixed";
                         });

}  // namespace
}  // namespace r4ncl::metrics
