#include "core/continual_trainer.hpp"

#include <optional>

#include "core/checkpoint.hpp"
#include "core/learn_task.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace r4ncl::core {

double ClRunResult::total_latency_ms() const noexcept {
  double total = prep_latency_ms;
  for (const auto& r : rows) total += r.latency_ms;
  return total;
}

double ClRunResult::total_energy_uj() const noexcept {
  double total = prep_energy_uj;
  for (const auto& r : rows) total += r.energy_uj;
  return total;
}

ClRunResult run_continual_learning(snn::SnnNetwork& net,
                                   const data::ClassIncrementalTasks& tasks,
                                   const ClRunConfig& config) {
  return run_continual_learning(net, tasks, config, CheckpointOptions{});
}

ClRunResult run_continual_learning(snn::SnnNetwork& net,
                                   const data::ClassIncrementalTasks& tasks,
                                   const ClRunConfig& config, const CheckpointOptions& ckpt) {
  const NclMethodConfig& method = config.method;
  R4NCL_CHECK(config.insertion_layer <= net.num_hidden(),
              "insertion layer " << config.insertion_layer << " out of range");
  R4NCL_CHECK(config.epochs > 0, "need at least one epoch");
  R4NCL_CHECK(config.eval_every > 0, "eval_every must be positive");
  R4NCL_CHECK(ckpt.every >= 1, "checkpoint_every must be >= 1");
  if (method.threads > 0) set_num_threads(method.threads);

  Stopwatch total_watch;
  const metrics::EnergyModel energy_model(config.energy_params);
  const metrics::LatencyModel latency_model(config.latency_params);

  ClRunResult result;
  result.method_name = method.name;
  result.insertion_layer = config.insertion_layer;

  // A budget schedule sees this engine as a 1-task stream: the task-0
  // capacity applies from preparation on.
  ShardedReplayEngine buffer = make_replay_store(method, config.seed, 1);
  const CheckpointMeta meta = make_checkpoint_meta(
      CheckpointKind::kContinual, method, config.insertion_layer, config.seed, config.epochs);
  snn::AdamOptimizer optimizer;
  Rng epoch_rng(config.seed);
  Rng replay_rng(config.seed ^ kReplayDrawSeedSalt);
  std::size_t first_epoch = 0;
  double prior_wall_seconds = 0.0;
  if (ckpt.resuming()) {
    // A resumed run replaces the preparation phase: the restored engine
    // already holds the prepared latents, prep costs live in the restored
    // result fields, and the run-long optimizer + rng streams continue
    // exactly where the killed run left them.
    Checkpoint loaded = load_checkpoint(ckpt.resume_path, meta, net, &optimizer, buffer);
    result.rows = std::move(loaded.cl_rows);
    result.prep_stats = loaded.prep_stats;
    result.prep_latency_ms = loaded.prep_latency_ms;
    result.prep_energy_uj = loaded.prep_energy_uj;
    result.latent_memory_bytes = static_cast<std::size_t>(loaded.latent_memory_bytes);
    result.final_acc_old = loaded.final_acc_old;
    result.final_acc_new = loaded.final_acc_new;
    prior_wall_seconds = loaded.total_wall_seconds;
    epoch_rng.restore(loaded.unit_rng);
    replay_rng.restore(loaded.replay_rng);
    first_epoch = static_cast<std::size_t>(loaded.meta.next_unit);
  } else {
    if (method.use_replay) {
      result.prep_stats = seed_replay_store(buffer, net, tasks.replay_subset, method,
                                            config.insertion_layer);
      result.latent_memory_bytes = buffer.memory_bytes();
    }
    result.prep_latency_ms = latency_model.latency_ms(result.prep_stats);
    result.prep_energy_uj = energy_model.energy_uj(result.prep_stats);
  }

  // The test sets go through the frozen prefix once, under the method's
  // deployment settings; each evaluation then runs only the learning layers.
  const metrics::PreparedTasks eval_sets =
      metrics::prepare_tasks(net, tasks, method.eval_settings(), config.insertion_layer);

  // ---- NCL training: one task step, one row per epoch --------------------
  result.rows.reserve(config.epochs);
  std::size_t completed_here = 0;
  std::optional<obs::TraceSpan> epoch_span;
  Stopwatch epoch_watch;
  TaskHooks hooks;
  hooks.before_epoch = [&](std::size_t) {
    obs::metrics().counter("core.cl_epochs").add(1);
    epoch_span.emplace(obs::metrics(), "core.cl_epoch_seconds");
    epoch_watch.restart();
  };
  hooks.on_epoch = [&](const TaskEpoch& trained) {
    ClEpochRow row{.epoch = trained.epoch, .loss = trained.loss, .stats = trained.stats};
    row.latency_ms = latency_model.latency_ms(row.stats);
    row.energy_uj = energy_model.energy_uj(row.stats);

    const std::size_t epoch = trained.epoch;
    if (epoch % config.eval_every == 0 || epoch + 1 == config.epochs) {
      const metrics::TaskAccuracy acc = metrics::evaluate_tasks(net, eval_sets);
      row.acc_old = acc.old_tasks;
      row.acc_new = acc.new_task;
      result.final_acc_old = acc.old_tasks;
      result.final_acc_new = acc.new_task;
    }
    row.wall_seconds = epoch_watch.elapsed_seconds();
    if (config.verbose) {
      R4NCL_INFO(method.name << " L" << config.insertion_layer << " epoch " << epoch
                             << ": loss=" << row.loss << " old=" << row.acc_old
                             << " new=" << row.acc_new << " (" << row.wall_seconds << "s)");
    }
    result.rows.push_back(std::move(row));

    // Epoch boundary: snapshot and/or power down (see run_sequential; units
    // here are epochs, and the run-long Adam moments ride along).
    ++completed_here;
    const std::size_t done = epoch + 1;
    const bool finished = done == config.epochs;
    const bool stopping =
        ckpt.stop_after_units > 0 && completed_here >= ckpt.stop_after_units && !finished;
    if (ckpt.saving() && (finished || stopping || done % ckpt.every == 0)) {
      Checkpoint ck;
      ck.meta = meta;
      ck.meta.next_unit = done;
      ck.unit_rng = epoch_rng.state();
      ck.replay_rng = replay_rng.state();
      ck.cl_rows = result.rows;
      ck.prep_stats = result.prep_stats;
      ck.prep_latency_ms = result.prep_latency_ms;
      ck.prep_energy_uj = result.prep_energy_uj;
      ck.latent_memory_bytes = result.latent_memory_bytes;
      ck.final_acc_old = result.final_acc_old;
      ck.final_acc_new = result.final_acc_new;
      ck.total_wall_seconds = prior_wall_seconds + total_watch.elapsed_seconds();
      save_checkpoint(ckpt.save_path, ck, net, &optimizer, buffer);
    }
    epoch_span.reset();
    return !stopping;
  };
  learn_task(net, data::time_rescale(tasks.new_train, method.cl_timesteps, method.rescale),
             {.method = method, .insertion_layer = config.insertion_layer, .buffer = buffer,
              .optimizer = optimizer, .shuffle_rng = epoch_rng, .replay_rng = replay_rng},
             first_epoch, config.epochs, hooks);
  result.total_wall_seconds = prior_wall_seconds + total_watch.elapsed_seconds();
  return result;
}

}  // namespace r4ncl::core
