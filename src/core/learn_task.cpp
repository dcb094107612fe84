#include "core/learn_task.hpp"

#include <optional>

#include "core/latent_source.hpp"
#include "core/replay_stream.hpp"
#include "obs/metrics.hpp"

namespace r4ncl::core {

namespace {

using Fetch = std::function<const data::Sample&(std::size_t)>;

/// Draws this epoch's A_LR and trains on A_new ∪ A_LR: new samples first,
/// replay rows after them, the order the outcome hook indexes.
TaskEpoch train_epoch(snn::SnnNetwork& net, const TaskStep& step, const Fetch& new_sample,
                      std::size_t new_count, snn::TrainOptions opts) {
  const NclMethodConfig& method = step.method;
  TaskEpoch out;
  std::optional<ReplayStream> stream;
  data::Dataset replay;
  std::vector<std::size_t> sampled;
  if (method.use_replay) {
    const std::size_t draw = method.replay_samples_per_epoch > 0
                                 ? method.replay_samples_per_epoch
                                 : step.buffer.size();
    if (method.replay_stream) {
      // Each drawn raster decodes only when batch assembly reaches it.
      stream.emplace(step.buffer.stream(draw, step.replay_rng, method.batch_size, &out.stats));
    } else {
      sampled = step.buffer.sample_into(draw, step.replay_rng, replay, &out.stats);
    }
    if (step.outcome_feedback) {
      opts.sample_outcome =
          step.buffer.outcome_hook(stream ? stream->drawn() : sampled, new_count);
    }
  }
  snn::SampleSource source;
  source.size = new_count + (stream ? stream->size() : replay.size());
  source.fetch = [&](std::size_t i) -> const data::Sample& {
    if (i < new_count) return new_sample(i);
    return stream ? stream->fetch(i - new_count) : replay[i - new_count];
  };
  const snn::EpochRecord trained =
      snn::train_supervised(net, source, step.optimizer, opts).front();
  out.loss = trained.loss;
  out.stats.add(trained.stats);
  return out;
}

}  // namespace

ShardedReplayEngine make_replay_store(const NclMethodConfig& method, std::uint64_t run_seed,
                                      std::size_t num_tasks) {
  ReplayBufferConfig budget = method.replay_budget.with_run_seed(run_seed);
  if (method.budget_schedule.active()) {
    budget.capacity_bytes =
        method.budget_schedule.capacity_for_task(0, num_tasks, budget.capacity_bytes);
  }
  return ShardedReplayEngine(method.storage_codec, method.cl_timesteps, budget,
                             method.replay_sharding);
}

snn::SpikeOpStats seed_replay_store(ShardedReplayEngine& buffer, const snn::SnnNetwork& net,
                                    const data::Dataset& replay_subset,
                                    const NclMethodConfig& method, std::size_t insertion_layer) {
  snn::SpikeOpStats stats;
  const data::Dataset rescaled =
      data::time_rescale(replay_subset, method.cl_timesteps, method.rescale);
  for (const auto& s : snn::frozen_latents(net, rescaled, insertion_layer, method.policy(),
                                           method.batch_size, &stats)) {
    buffer.add(s.raster, s.label);
  }
  return stats;
}

void learn_task(snn::SnnNetwork& net, const data::Dataset& train, const TaskStep& step,
                std::size_t first_epoch, std::size_t epochs, const TaskHooks& hooks) {
  if (first_epoch >= epochs) return;
  const NclMethodConfig& method = step.method;
  snn::TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = method.batch_size;
  opts.lr = method.lr_cl;
  opts.insertion_layer = step.insertion_layer;
  opts.policy = method.policy();
  opts.prefetch = method.prefetch ? 1 : 0;

  // A_new = inference(net_f, TS_cl) (Alg. 1 line 23), reused by every epoch.
  snn::SpikeOpStats new_stats;
  std::optional<PackedLatentSet> packed;
  data::Dataset dense;
  if (method.replay_stream) {
    packed.emplace(net, train, step.insertion_layer, opts.policy, method.batch_size,
                   &new_stats);
  } else {
    dense = snn::frozen_latents(net, train, step.insertion_layer, opts.policy,
                                method.batch_size, &new_stats);
  }
  const Fetch new_sample = [&](std::size_t i) -> const data::Sample& {
    return packed ? packed->fetch(i) : dense[i];
  };
  const std::size_t new_count = packed ? packed->size() : dense.size();

  obs::MetricsRegistry& reg = obs::metrics();
  obs::Counter& obs_synops = reg.counter("snn.synops");
  obs::Counter& obs_backward_synops = reg.counter("snn.backward_synops");
  obs::Counter& obs_spikes = reg.counter("snn.spikes");
  obs::Counter& obs_neuron_updates = reg.counter("snn.neuron_updates");
  for (std::size_t epoch = first_epoch; epoch < epochs; ++epoch) {
    if (hooks.before_epoch) hooks.before_epoch(epoch);
    opts.shuffle_seed = step.shuffle_rng();
    TaskEpoch done = train_epoch(net, step, new_sample, new_count, opts);
    done.epoch = epoch;
    done.stats.add(new_stats);
    obs_synops.add(done.stats.synops);
    obs_backward_synops.add(done.stats.backward_synops);
    obs_spikes.add(done.stats.spikes);
    obs_neuron_updates.add(done.stats.neuron_updates);
    if (!hooks.on_epoch(done)) return;
  }
}

}  // namespace r4ncl::core
