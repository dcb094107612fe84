// Sequential multi-task continual learning: stream protocol, buffer growth,
// knowledge retention.
#include <gtest/gtest.h>

#include "core/pretrain.hpp"
#include "core/sequential.hpp"

namespace r4ncl::core {
namespace {

PretrainConfig stream_config() {
  PretrainConfig cfg;
  cfg.network.layer_sizes = {96, 48, 24, 12};
  cfg.network.num_classes = 6;
  cfg.network.seed = 31;
  cfg.data_params.channels = 96;
  cfg.data_params.classes = 6;
  cfg.data_params.timesteps = 24;
  cfg.data_params.ridge_width = 5.0;
  cfg.data_params.position_pool = 8;
  cfg.data_params.background_rate = 0.004;
  cfg.data_params.rate_jitter = 0.08;
  cfg.data_params.channel_jitter = 1.5;
  cfg.data_params.time_jitter = 1.0;
  cfg.data_params.seed = 37;
  cfg.split.train_per_class = 14;
  cfg.split.test_per_class = 5;
  cfg.split.replay_per_class = 3;
  cfg.split.seed = 41;
  cfg.epochs = 30;
  cfg.batch_size = 8;
  return cfg;
}

data::SequentialTasks make_stream(std::size_t num_tasks) {
  const data::SyntheticShdGenerator gen(stream_config().data_params);
  return data::build_sequential_tasks(gen, stream_config().split, num_tasks);
}

snn::SnnNetwork pretrained_on_base(const data::SequentialTasks& tasks) {
  snn::SnnNetwork net(stream_config().network);
  snn::AdamOptimizer opt;
  snn::TrainOptions opts;
  opts.epochs = stream_config().epochs;
  opts.batch_size = 8;
  (void)snn::train_supervised(net, tasks.pretrain_train, opt, opts);
  return net;
}

SequentialRunConfig stream_run() {
  SequentialRunConfig cfg;
  cfg.method = NclMethodConfig::replay4ncl(12);
  cfg.method.lr_cl = 5e-4f;
  cfg.method.batch_size = 8;
  cfg.insertion_layer = 1;
  cfg.epochs_per_task = 25;
  cfg.replay_per_new_class = 4;
  return cfg;
}

TEST(SequentialTasksSplit, Partition) {
  const auto tasks = make_stream(2);
  EXPECT_EQ(tasks.base_classes, (std::vector<std::int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(tasks.task_classes, (std::vector<std::int32_t>{4, 5}));
  ASSERT_EQ(tasks.task_train.size(), 2u);
  ASSERT_EQ(tasks.task_test.size(), 2u);
  EXPECT_EQ(tasks.task_train[0].front().label, 4);
  EXPECT_EQ(tasks.task_train[1].front().label, 5);
  const std::int32_t held_out[] = {4, 5};
  EXPECT_EQ(data::fraction_with_labels(tasks.pretrain_train, held_out), 0.0);
}

TEST(SequentialTasksSplit, RejectsDegenerateCounts) {
  const data::SyntheticShdGenerator gen(stream_config().data_params);
  EXPECT_THROW((void)data::build_sequential_tasks(gen, stream_config().split, 0), Error);
  EXPECT_THROW((void)data::build_sequential_tasks(gen, stream_config().split, 6), Error);
}

TEST(SequentialRun, LearnsStreamWithoutCollapsingBase) {
  const auto tasks = make_stream(2);
  snn::SnnNetwork net = pretrained_on_base(tasks);
  const SequentialRunResult res = run_sequential(net, tasks, stream_run());
  ASSERT_EQ(res.rows.size(), 2u);
  for (const auto& row : res.rows) {
    EXPECT_GT(row.acc_base, 0.4) << "base knowledge collapsed at task " << row.task_index;
    EXPECT_GE(row.acc_current, 0.0);
  }
  EXPECT_GT(res.rows.back().acc_learned, 0.5)
      << "stream classes must be at least partially retained";
}

TEST(SequentialRun, BufferGrowsWithEachTask) {
  const auto tasks = make_stream(2);
  snn::SnnNetwork net = pretrained_on_base(tasks);
  SequentialRunConfig cfg = stream_run();
  cfg.epochs_per_task = 2;  // growth is training-independent
  const SequentialRunResult res = run_sequential(net, tasks, cfg);
  ASSERT_EQ(res.rows.size(), 2u);
  EXPECT_GT(res.rows[0].latent_memory_bytes, 0u);
  EXPECT_GT(res.rows[1].latent_memory_bytes, res.rows[0].latent_memory_bytes);
}

TEST(SequentialRun, CostsAccumulate) {
  const auto tasks = make_stream(2);
  snn::SnnNetwork net = pretrained_on_base(tasks);
  SequentialRunConfig cfg = stream_run();
  cfg.epochs_per_task = 2;
  const SequentialRunResult res = run_sequential(net, tasks, cfg);
  double sum = 0.0;
  for (const auto& row : res.rows) sum += row.latency_ms;
  EXPECT_GT(res.total_latency_ms, sum) << "total must include the preparation phase";
  EXPECT_GT(res.total_energy_uj, 0.0);
}

TEST(SequentialRun, InsertionZeroStoresRawInputLatents) {
  const auto tasks = make_stream(1);
  snn::SnnNetwork net = pretrained_on_base(tasks);
  SequentialRunConfig cfg = stream_run();
  cfg.insertion_layer = 0;
  cfg.epochs_per_task = 2;
  const SequentialRunResult res = run_sequential(net, tasks, cfg);
  // Raw-input latents are 96 channels wide → bigger buffer than layer-1's 48.
  SequentialRunConfig cfg1 = stream_run();
  cfg1.epochs_per_task = 2;
  snn::SnnNetwork net1 = pretrained_on_base(tasks);
  const SequentialRunResult res1 = run_sequential(net1, tasks, cfg1);
  EXPECT_GT(res.rows.back().latent_memory_bytes, res1.rows.back().latent_memory_bytes);
}

TEST(SequentialRun, RejectsBadConfig) {
  const auto tasks = make_stream(1);
  snn::SnnNetwork net = pretrained_on_base(tasks);
  SequentialRunConfig cfg = stream_run();
  cfg.insertion_layer = 7;
  EXPECT_THROW((void)run_sequential(net, tasks, cfg), Error);
  cfg = stream_run();
  cfg.epochs_per_task = 0;
  EXPECT_THROW((void)run_sequential(net, tasks, cfg), Error);
}

// The stream engine is latent replay by construction; a no-replay method
// must fail up front instead of silently seeding and replaying.
TEST(SequentialRun, RejectsMethodWithoutReplay) {
  const auto tasks = make_stream(1);
  snn::SnnNetwork net(stream_config().network);
  SequentialRunConfig cfg = stream_run();
  cfg.method = NclMethodConfig::naive_baseline();
  try {
    (void)run_sequential(net, tasks, cfg);
    ADD_FAILURE() << "naive_baseline() stream was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "run_sequential needs latent replay: method 'Baseline' has use_replay=false"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace r4ncl::core
