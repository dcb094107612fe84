// Bit-identity of the frozen-prefix latent cache.
//
// Layers [0, insertion) are frozen for a whole run, so the engines run them
// once per run: A_new once before the epoch loop, the evaluation sets once
// per run (then scored from the insertion layer).  The reference loops below
// re-run the frozen prefix every epoch and evaluate from layer 0 — Alg. 1 as
// written — and every row of the cached engines must match them exactly,
// including the modelled cost, which still charges the per-epoch A_new
// inference.
#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/continual_trainer.hpp"
#include "core/pretrain.hpp"
#include "core/replay_stream.hpp"
#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {
namespace {

// Old test set: 3 classes x 12 = 36 samples (more than one 32-sample
// evaluation block, and not a multiple of it); new test set: 12 (less than
// one block).  A_new is 6 samples under batch_size 4 (one full block, one
// partial block).
PretrainConfig cache_config() {
  PretrainConfig cfg;
  cfg.network.layer_sizes = {24, 16, 12, 8};
  cfg.network.num_classes = 4;
  cfg.network.seed = 5;
  cfg.data_params.channels = 24;
  cfg.data_params.classes = 4;
  cfg.data_params.timesteps = 20;
  cfg.data_params.ridge_width = 3.0;
  cfg.data_params.position_pool = 5;
  cfg.data_params.channel_jitter = 1.5;
  cfg.data_params.time_jitter = 1.0;
  cfg.data_params.seed = 7;
  cfg.split.train_per_class = 6;
  cfg.split.test_per_class = 12;
  cfg.split.replay_per_class = 3;
  cfg.split.new_class = 3;
  cfg.split.seed = 9;
  cfg.epochs = 30;
  cfg.batch_size = 6;
  cfg.lr = 1e-2f;
  return cfg;
}

// Pre-trained in-process (no on-disk cache): ctest runs every case as its own
// process, and this micro network trains in milliseconds.
const PretrainedScenario& scenario() {
  static const PretrainedScenario s =
      make_pretrained_scenario(cache_config(), ::testing::TempDir(), false);
  return s;
}

enum class ReplayPath { kMaterialized, kStreamedFeedback };

NclMethodConfig cache_method(ReplayPath path, bool adaptive) {
  NclMethodConfig m = NclMethodConfig::replay4ncl(10);
  m.adaptive_threshold = adaptive;
  m.adjust_interval = 2;  // re-adapt often: latents depend more on their block
  m.lr_cl = 5e-3f;
  m.batch_size = 4;
  if (path == ReplayPath::kStreamedFeedback) {
    m.replay_stream = true;
    m.importance_feedback = true;
    m.replay_budget.policy = ReplayPolicy::kLowImportance;
    m.replay_samples_per_epoch = 5;
  }
  return m;
}

/// Frozen-prefix inference in contiguous batch_size blocks, written out here
/// so the reference does not share the engines' helper.
data::Dataset reference_latents(const snn::SnnNetwork& net, const data::Dataset& dataset,
                                std::size_t insertion, const snn::ThresholdPolicy& policy,
                                std::size_t batch_size, snn::SpikeOpStats* stats) {
  if (insertion == 0) return dataset;
  data::Dataset out;
  std::vector<std::size_t> idx;
  for (std::size_t lo = 0; lo < dataset.size(); lo += batch_size) {
    idx.clear();
    for (std::size_t i = lo; i < std::min(dataset.size(), lo + batch_size); ++i) idx.push_back(i);
    const Tensor latent =
        net.run_hidden(data::make_batch(dataset, idx), 0, insertion, policy, stats);
    for (std::size_t b = 0; b < idx.size(); ++b) {
      out.push_back({data::batch_to_raster(latent, b), dataset[idx[b]].label});
    }
  }
  return out;
}

/// One Alg. 1 CL epoch against `buffer`: A_new recomputed by frozen
/// inference, replay drawn exactly as the engines draw it.  Returns the
/// epoch's training record; every charge lands in `stats`.
snn::EpochRecord reference_epoch(snn::SnnNetwork& net, const data::Dataset& new_rescaled,
                                 std::size_t insertion, const NclMethodConfig& m,
                                 ShardedReplayEngine& buffer, snn::AdamOptimizer& optimizer,
                                 std::uint64_t shuffle_seed, Rng& replay_rng,
                                 snn::SpikeOpStats& stats) {
  const snn::ThresholdPolicy policy = m.policy();
  snn::TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = m.batch_size;
  opts.lr = m.lr_cl;
  opts.insertion_layer = insertion;
  opts.policy = policy;
  opts.shuffle_seed = shuffle_seed;
  data::Dataset mixed =
      reference_latents(net, new_rescaled, insertion, policy, m.batch_size, &stats);
  const std::size_t new_count = mixed.size();
  const std::size_t draw =
      m.replay_samples_per_epoch > 0 ? m.replay_samples_per_epoch : buffer.size();
  const bool feedback = m.importance_feedback && is_importance_policy(m.replay_budget.policy);
  std::vector<snn::EpochRecord> history;
  if (m.replay_stream) {
    ReplayStream stream = buffer.stream(draw, replay_rng, m.batch_size, &stats);
    snn::SampleSource source;
    source.size = mixed.size() + stream.size();
    source.fetch = [&mixed, &stream, new_count](std::size_t i) -> const data::Sample& {
      return i < new_count ? mixed[i] : stream.fetch(i - new_count);
    };
    if (feedback) opts.sample_outcome = buffer.outcome_hook(stream.drawn(), new_count);
    history = snn::train_supervised(net, source, optimizer, opts);
  } else {
    std::vector<std::size_t> drawn;
    if (feedback) {
      drawn = buffer.sample_into(draw, replay_rng, mixed, &stats);
      opts.sample_outcome = buffer.outcome_hook(drawn, new_count);
    } else {
      data::Dataset replay = m.replay_samples_per_epoch > 0
                                 ? buffer.sample(draw, replay_rng, &stats)
                                 : buffer.materialize(&stats);
      mixed.insert(mixed.end(), replay.begin(), replay.end());
    }
    history = snn::train_supervised(net, mixed, optimizer, opts);
  }
  stats.add(history.front().stats);
  return history.front();
}

/// run_continual_learning as Alg. 1 writes it: frozen inference of TS_cl
/// every epoch, evaluate_tasks from layer 0.
std::vector<ClEpochRow> reference_continual(snn::SnnNetwork net,
                                            const data::ClassIncrementalTasks& tasks,
                                            const ClRunConfig& cfg) {
  const NclMethodConfig& m = cfg.method;
  const metrics::EnergyModel energy(cfg.energy_params);
  const metrics::LatencyModel latency(cfg.latency_params);
  ShardedReplayEngine buffer(m.storage_codec, m.cl_timesteps,
                             m.replay_budget.with_run_seed(cfg.seed), m.replay_sharding);
  snn::SpikeOpStats prep;
  for (const auto& s : reference_latents(
           net, data::time_rescale(tasks.replay_subset, m.cl_timesteps, m.rescale),
           cfg.insertion_layer, m.policy(), m.batch_size, &prep)) {
    buffer.add(s.raster, s.label);
  }
  const data::Dataset new_rescaled = data::time_rescale(tasks.new_train, m.cl_timesteps, m.rescale);
  metrics::EvalSettings eval;
  eval.timesteps = m.cl_timesteps;
  eval.rescale = m.rescale;
  eval.policy = m.policy();

  snn::AdamOptimizer optimizer;
  Rng epoch_rng(cfg.seed);
  Rng replay_rng(cfg.seed ^ kReplayDrawSeedSalt);
  std::vector<ClEpochRow> rows;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    ClEpochRow row;
    row.epoch = epoch;
    row.loss = reference_epoch(net, new_rescaled, cfg.insertion_layer, m, buffer, optimizer,
                               epoch_rng(), replay_rng, row.stats)
                   .loss;
    row.latency_ms = latency.latency_ms(row.stats);
    row.energy_uj = energy.energy_uj(row.stats);
    if (epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs) {
      const metrics::TaskAccuracy acc = metrics::evaluate_tasks(net, tasks, eval);
      row.acc_old = acc.old_tasks;
      row.acc_new = acc.new_task;
    }
    rows.push_back(row);
  }
  return rows;
}

void expect_same_stats(const snn::SpikeOpStats& x, const snn::SpikeOpStats& y) {
  EXPECT_EQ(x.synops, y.synops);
  EXPECT_EQ(x.neuron_updates, y.neuron_updates);
  EXPECT_EQ(x.spikes, y.spikes);
  EXPECT_EQ(x.timestep_slots, y.timestep_slots);
  EXPECT_EQ(x.backward_synops, y.backward_synops);
  EXPECT_EQ(x.decompress_bits, y.decompress_bits);
}

void expect_same_rows(const std::vector<ClEpochRow>& want, const std::vector<ClEpochRow>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t e = 0; e < want.size(); ++e) {
    SCOPED_TRACE("epoch " + std::to_string(e));
    EXPECT_EQ(want[e].epoch, got[e].epoch);
    EXPECT_EQ(want[e].loss, got[e].loss);
    EXPECT_EQ(want[e].acc_old, got[e].acc_old);
    EXPECT_EQ(want[e].acc_new, got[e].acc_new);
    EXPECT_EQ(want[e].latency_ms, got[e].latency_ms);
    EXPECT_EQ(want[e].energy_uj, got[e].energy_uj);
    expect_same_stats(want[e].stats, got[e].stats);
  }
}

ClRunConfig cache_run(std::size_t insertion, ReplayPath path, bool adaptive,
                      std::size_t eval_every) {
  ClRunConfig cfg;
  cfg.method = cache_method(path, adaptive);
  cfg.insertion_layer = insertion;
  cfg.epochs = 4;
  cfg.eval_every = eval_every;
  cfg.seed = 31;
  return cfg;
}

using CacheParam = std::tuple<std::size_t, ReplayPath, bool, std::size_t>;

class ContinualCache : public ::testing::TestWithParam<CacheParam> {};

TEST_P(ContinualCache, RowsMatchPerEpochRecompute) {
  const auto [insertion, path, adaptive, eval_every] = GetParam();
  const ClRunConfig cfg = cache_run(insertion, path, adaptive, eval_every);
  snn::SnnNetwork net = scenario().net.clone();
  const ClRunResult got = run_continual_learning(net, scenario().tasks, cfg);
  expect_same_rows(reference_continual(scenario().net.clone(), scenario().tasks, cfg),
                   got.rows);
}

INSTANTIATE_TEST_SUITE_P(
    InsertionPathThresholdCadence, ContinualCache,
    ::testing::Combine(::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                                         std::size_t{3}),
                       ::testing::Values(ReplayPath::kMaterialized,
                                         ReplayPath::kStreamedFeedback),
                       ::testing::Bool(), ::testing::Values(std::size_t{1}, std::size_t{3})),
    [](const ::testing::TestParamInfo<CacheParam>& p) {
      return "L" + std::to_string(std::get<0>(p.param)) +
             (std::get<1>(p.param) == ReplayPath::kMaterialized ? "_materialized" : "_streamed") +
             (std::get<2>(p.param) ? "_adaptive" : "_fixed") + "_every" +
             std::to_string(std::get<3>(p.param));
    });

// A resumed run rebuilds its caches from the restored network; the rows it
// appends must still match the uninterrupted per-epoch reference.
TEST(ContinualCacheResume, StopAndResumeMatchesPerEpochRecompute) {
  ClRunConfig cfg = cache_run(2, ReplayPath::kStreamedFeedback, true, 1);
  cfg.epochs = 5;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "frozen_cache_resume.ckpt").string();
  snn::SnnNetwork killed = scenario().net.clone();
  CheckpointOptions save;
  save.save_path = path;
  save.stop_after_units = 2;
  ASSERT_EQ(run_continual_learning(killed, scenario().tasks, cfg, save).rows.size(), 2u);

  snn::SnnNetwork resumed_net(cache_config().network);
  CheckpointOptions resume;
  resume.resume_path = path;
  const ClRunResult resumed = run_continual_learning(resumed_net, scenario().tasks, cfg, resume);
  std::filesystem::remove(path);
  expect_same_rows(reference_continual(scenario().net.clone(), scenario().tasks, cfg),
                   resumed.rows);
}

// ---------------------------------------------------------------------------
// run_sequential: A_new once per task, base/task test sets once per call.

data::SequentialTasks sequential_tasks() {
  const PretrainConfig cfg = cache_config();
  data::TaskSplitParams split = cfg.split;
  split.test_per_class = 5;
  return data::build_sequential_tasks(data::SyntheticShdGenerator(cfg.data_params), split, 3);
}

/// run_sequential as Alg. 1 writes it: frozen inference of each task's data
/// every epoch, every test set rescaled and scored from layer 0.
std::vector<SequentialTaskRow> reference_sequential(snn::SnnNetwork net,
                                                    const data::SequentialTasks& tasks,
                                                    const SequentialRunConfig& cfg) {
  const NclMethodConfig& m = cfg.method;
  const snn::ThresholdPolicy policy = m.policy();
  const metrics::EnergyModel energy(cfg.energy_params);
  const metrics::LatencyModel latency(cfg.latency_params);
  ShardedReplayEngine buffer(m.storage_codec, m.cl_timesteps,
                             m.replay_budget.with_run_seed(cfg.seed), m.replay_sharding);
  for (const auto& s : reference_latents(
           net, data::time_rescale(tasks.replay_subset, m.cl_timesteps, m.rescale),
           cfg.insertion_layer, policy, m.batch_size, nullptr)) {
    buffer.add(s.raster, s.label);
  }
  const auto accuracy = [&](const data::Dataset& test) {
    return snn::evaluate(net, data::time_rescale(test, m.cl_timesteps, m.rescale), 0, policy);
  };
  Rng seed_rng(cfg.seed);
  Rng replay_rng(cfg.seed ^ kReplayDrawSeedSalt);
  std::vector<SequentialTaskRow> rows;
  for (std::size_t task = 0; task < tasks.task_classes.size(); ++task) {
    SequentialTaskRow row;
    row.task_index = task;
    row.class_id = tasks.task_classes[task];
    snn::SpikeOpStats stats;
    const data::Dataset new_rescaled =
        data::time_rescale(tasks.task_train[task], m.cl_timesteps, m.rescale);
    snn::AdamOptimizer optimizer;
    for (std::size_t epoch = 0; epoch < cfg.epochs_per_task; ++epoch) {
      (void)reference_epoch(net, new_rescaled, cfg.insertion_layer, m, buffer, optimizer,
                            seed_rng(), replay_rng, stats);
    }
    const data::Dataset keep = data::take_per_class(
        new_rescaled, std::span<const std::int32_t>(&row.class_id, 1), cfg.replay_per_new_class);
    for (const auto& s :
         reference_latents(net, keep, cfg.insertion_layer, policy, m.batch_size, &stats)) {
      buffer.add(s.raster, s.label);
    }
    row.latent_memory_bytes = buffer.memory_bytes();
    row.buffer_entries = buffer.size();
    row.buffer_evictions = buffer.evictions();
    row.latency_ms = latency.latency_ms(stats);
    row.energy_uj = energy.energy_uj(stats);
    row.acc_base = accuracy(tasks.pretrain_test);
    double learned = 0.0;
    for (std::size_t seen = 0; seen <= task; ++seen) {
      const double acc = accuracy(tasks.task_test[seen]);
      learned += acc;
      if (seen == task) row.acc_current = acc;
    }
    row.acc_learned = learned / static_cast<double>(task + 1);
    rows.push_back(row);
  }
  return rows;
}

class SequentialCache : public ::testing::TestWithParam<ReplayPath> {};

TEST_P(SequentialCache, ThreeTaskRowsMatchPerEpochRecompute) {
  const data::SequentialTasks tasks = sequential_tasks();
  SequentialRunConfig cfg;
  cfg.method = cache_method(GetParam(), true);
  cfg.insertion_layer = 2;
  cfg.epochs_per_task = 3;
  cfg.replay_per_new_class = 3;
  cfg.seed = 17;
  snn::SnnNetwork net = scenario().net.clone();
  const SequentialRunResult got = run_sequential(net, tasks, cfg);
  const std::vector<SequentialTaskRow> want =
      reference_sequential(scenario().net.clone(), tasks, cfg);
  ASSERT_EQ(got.rows.size(), want.size());
  for (std::size_t t = 0; t < want.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    EXPECT_EQ(want[t].class_id, got.rows[t].class_id);
    EXPECT_EQ(want[t].acc_base, got.rows[t].acc_base);
    EXPECT_EQ(want[t].acc_learned, got.rows[t].acc_learned);
    EXPECT_EQ(want[t].acc_current, got.rows[t].acc_current);
    EXPECT_EQ(want[t].latent_memory_bytes, got.rows[t].latent_memory_bytes);
    EXPECT_EQ(want[t].buffer_entries, got.rows[t].buffer_entries);
    EXPECT_EQ(want[t].buffer_evictions, got.rows[t].buffer_evictions);
    EXPECT_EQ(want[t].latency_ms, got.rows[t].latency_ms);
    EXPECT_EQ(want[t].energy_uj, got.rows[t].energy_uj);
  }
}

INSTANTIATE_TEST_SUITE_P(ReplayPaths, SequentialCache,
                         ::testing::Values(ReplayPath::kMaterialized,
                                           ReplayPath::kStreamedFeedback),
                         [](const ::testing::TestParamInfo<ReplayPath>& p) {
                           return p.param == ReplayPath::kMaterialized ? "Materialized"
                                                                       : "Streamed";
                         });

}  // namespace
}  // namespace r4ncl::core
