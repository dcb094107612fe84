#include "core/sequential.hpp"

#include <optional>

#include "core/checkpoint.hpp"
#include "core/learn_task.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {

SequentialRunResult run_sequential(snn::SnnNetwork& net, const data::SequentialTasks& tasks,
                                   const SequentialRunConfig& config) {
  return run_sequential(net, tasks, config, CheckpointOptions{});
}

SequentialRunResult run_sequential(snn::SnnNetwork& net, const data::SequentialTasks& tasks,
                                   const SequentialRunConfig& config,
                                   const CheckpointOptions& ckpt) {
  const NclMethodConfig& method = config.method;
  R4NCL_CHECK(!tasks.task_classes.empty(), "no tasks to learn");
  R4NCL_CHECK(method.use_replay, "run_sequential needs latent replay: method '"
                                     << method.name << "' has use_replay=false");
  R4NCL_CHECK(config.insertion_layer <= net.num_hidden(), "insertion layer out of range");
  R4NCL_CHECK(config.epochs_per_task > 0, "need at least one epoch per task");
  R4NCL_CHECK(ckpt.every >= 1, "checkpoint_every must be >= 1");
  if (method.threads > 0) set_num_threads(method.threads);

  const metrics::EnergyModel energy_model(config.energy_params);
  const metrics::LatencyModel latency_model(config.latency_params);

  SequentialRunResult result;
  result.method_name = method.name;

  // Base-class latents seed the store (Alg. 1 network preparation) under the
  // task-0 cap of an active schedule, so the task-0 boundary set_capacity
  // below is a no-op.
  ShardedReplayEngine buffer = make_replay_store(method, config.seed, tasks.task_classes.size());
  const CheckpointMeta meta =
      make_checkpoint_meta(CheckpointKind::kSequential, method, config.insertion_layer,
                           config.seed, tasks.task_classes.size());
  Rng seed_rng(config.seed);
  Rng replay_rng(config.seed ^ kReplayDrawSeedSalt);
  std::size_t first_task = 0;
  if (ckpt.resuming()) {
    // A resumed run replaces the seeding phase entirely: the restored engine
    // already holds the seeded (and since-evolved) latents, the restored
    // totals already include the prep charge, and the restored rng streams
    // put every subsequent draw exactly where the killed run left it.
    const Checkpoint loaded =
        load_checkpoint(ckpt.resume_path, meta, net, nullptr, buffer);
    result.rows = loaded.seq_rows;
    result.total_latency_ms = loaded.seq_total_latency_ms;
    result.total_energy_uj = loaded.seq_total_energy_uj;
    seed_rng.restore(loaded.unit_rng);
    replay_rng.restore(loaded.replay_rng);
    first_task = static_cast<std::size_t>(loaded.meta.next_unit);
  } else {
    const snn::SpikeOpStats prep_stats =
        seed_replay_store(buffer, net, tasks.replay_subset, method, config.insertion_layer);
    result.total_latency_ms += latency_model.latency_ms(prep_stats);
    result.total_energy_uj += energy_model.energy_uj(prep_stats);
  }

  // Evaluation sets go through the frozen prefix once per call: the base
  // test set now, each task's test set the first time it is scored.  Each
  // evaluation then runs only the learning layers (bit-identical to scoring
  // the rescaled set from layer 0, see metrics::PreparedTestSet).
  const metrics::EvalSettings eval_settings = method.eval_settings();
  const metrics::PreparedTestSet base_test =
      metrics::prepare_test_set(net, tasks.pretrain_test, eval_settings, config.insertion_layer);
  std::vector<std::optional<metrics::PreparedTestSet>> task_tests(tasks.task_classes.size());
  std::size_t completed_here = 0;
  for (std::size_t task = first_task; task < tasks.task_classes.size(); ++task) {
    obs::metrics().counter("core.tasks").add(1);
    obs::TraceSpan task_span(obs::metrics(), "core.task_seconds");
    SequentialTaskRow row;
    row.task_index = task;
    row.class_id = tasks.task_classes[task];
    snn::SpikeOpStats task_stats;

    // Task boundary: re-apply the byte-budget schedule before this task's CL
    // phase; a shrink re-evicts deterministically per the buffer's policy.
    // The default const schedule never calls set_capacity, so unscheduled
    // runs stay bit-identical.
    if (method.budget_schedule.active()) {
      buffer.set_capacity(method.budget_schedule.capacity_for_task(
          task, tasks.task_classes.size(), method.replay_budget.capacity_bytes));
    }

    const data::Dataset new_rescaled = data::time_rescale(
        tasks.task_train[task], method.cl_timesteps, method.rescale);

    // CL phase for this task (Alg. 1 lines 21–33 against the current store);
    // Adam state is per task.
    snn::AdamOptimizer optimizer;
    learn_task(net, new_rescaled,
               {.method = method, .insertion_layer = config.insertion_layer, .buffer = buffer,
                .optimizer = optimizer, .shuffle_rng = seed_rng, .replay_rng = replay_rng,
                .outcome_feedback = method.importance_feedback &&
                                    is_importance_policy(method.replay_budget.policy)},
               0, config.epochs_per_task,
               {.on_epoch = [&task_stats](const TaskEpoch& trained) {
                 task_stats.add(trained.stats);
                 return true;
               }});

    // Record the just-learned class into the buffer (on-device latents).
    // `keep` is its own inference: A_new's cached latents were computed in
    // different blocks, which the adaptive threshold would see.
    {
      data::Dataset keep = data::take_per_class(
          new_rescaled, std::span<const std::int32_t>(&row.class_id, 1),
          config.replay_per_new_class);
      for (const auto& s : snn::frozen_latents(net, keep, config.insertion_layer,
                                               method.policy(), method.batch_size,
                                               &task_stats)) {
        buffer.add(s.raster, s.label);
      }
    }
    row.latent_memory_bytes = buffer.memory_bytes();
    row.budget_bytes = buffer.capacity_bytes();
    row.buffer_entries = buffer.size();
    row.buffer_evictions = buffer.evictions();
    row.latency_ms = latency_model.latency_ms(task_stats);
    row.energy_uj = energy_model.energy_uj(task_stats);
    result.total_latency_ms += row.latency_ms;
    result.total_energy_uj += row.energy_uj;

    // Evaluation: base classes + every task seen so far.
    row.acc_base = metrics::evaluate_prepared(net, base_test);
    double learned_sum = 0.0;
    for (std::size_t seen = 0; seen <= task; ++seen) {
      if (!task_tests[seen]) {
        task_tests[seen] = metrics::prepare_test_set(net, tasks.task_test[seen], eval_settings,
                                                     config.insertion_layer);
      }
      const double acc = metrics::evaluate_prepared(net, *task_tests[seen]);
      learned_sum += acc;
      if (seen == task) row.acc_current = acc;
    }
    row.acc_learned = learned_sum / static_cast<double>(task + 1);
    if (config.verbose) {
      R4NCL_INFO(method.name << " task " << task << " (class " << row.class_id
                             << "): base=" << row.acc_base << " learned=" << row.acc_learned
                             << " mem=" << row.latent_memory_bytes << "B");
    }
    result.rows.push_back(row);

    // Task boundary: snapshot and/or power down.  stop_after_units is the
    // kill/resume drill — force a save and return the partial result so a
    // fresh process can resume= from here and finish bit-identically.
    ++completed_here;
    const std::size_t done = task + 1;
    const bool finished = done == tasks.task_classes.size();
    const bool stopping =
        ckpt.stop_after_units > 0 && completed_here >= ckpt.stop_after_units && !finished;
    if (ckpt.saving() && (finished || stopping || done % ckpt.every == 0)) {
      Checkpoint ck;
      ck.meta = meta;
      ck.meta.next_unit = done;
      ck.unit_rng = seed_rng.state();
      ck.replay_rng = replay_rng.state();
      ck.seq_rows = result.rows;
      ck.seq_total_latency_ms = result.total_latency_ms;
      ck.seq_total_energy_uj = result.total_energy_uj;
      // Per-task Adam state dies at the boundary anyway, so nothing to save.
      save_checkpoint(ckpt.save_path, ck, net, nullptr, buffer);
    }
    if (stopping) return result;
  }
  return result;
}

}  // namespace r4ncl::core
