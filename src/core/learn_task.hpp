// One Alg. 1 task step, shared by both run engines.
//
// run_continual_learning and run_sequential run the same NCL phase (Alg. 1
// lines 21–33) against a latent replay store; this file holds it once.
// make_replay_store / seed_replay_store are the network preparation (lines
// 6–20).  learn_task computes A_new once per task (the frozen prefix cannot
// change during its epochs), then per epoch draws A_LR, trains the learning
// layers on A_new ∪ A_LR and charges each epoch the work Alg. 1 does: the
// A_new inference it would recompute, the draw's decompression and the
// training.  The engines keep their rows, evaluation cadence,
// checkpoint/resume, budget-schedule boundaries and class recording.
#pragma once

#include <cstdint>
#include <functional>

#include "core/method_config.hpp"
#include "core/sharded_engine.hpp"
#include "snn/trainer.hpp"
#include "util/rng.hpp"

namespace r4ncl::core {

/// The run's replay store: the method's budget with the run seed mixed in.
/// An active budget schedule binds from construction with its task-0
/// capacity of a `num_tasks`-task stream (the single-task engine is a
/// 1-task stream), so seeding never exceeds the scheduled region.
[[nodiscard]] ShardedReplayEngine make_replay_store(const NclMethodConfig& method,
                                                    std::uint64_t run_seed,
                                                    std::size_t num_tasks);

/// Stores the frozen-prefix latents of `replay_subset` (rescaled to the
/// method's time base) in `buffer`; returns the inference work.
snn::SpikeOpStats seed_replay_store(ShardedReplayEngine& buffer, const snn::SnnNetwork& net,
                                    const data::Dataset& replay_subset,
                                    const NclMethodConfig& method, std::size_t insertion_layer);

/// What a task step trains with, borrowed from the engine.
struct TaskStep {
  const NclMethodConfig& method;
  std::size_t insertion_layer;
  ShardedReplayEngine& buffer;  // not read when !method.use_replay
  snn::AdamOptimizer& optimizer;
  Rng& shuffle_rng;  // one draw per epoch: its shuffle seed
  Rng& replay_rng;
  /// Feed each replayed row's training error back to its entry (the
  /// importance policies' scores).  Scores only matter to a store that
  /// still adds and evicts after this task, so only the stream engine sets
  /// it (under importance_feedback with an importance policy).
  bool outcome_feedback = false;
};

struct TaskEpoch {
  std::size_t epoch = 0;
  double loss = 0.0;
  snn::SpikeOpStats stats;  // A_new inference + draw decompression + training
};

struct TaskHooks {
  std::function<void(std::size_t epoch)> before_epoch{};  // optional
  /// Receives every trained epoch; returning false ends the step.
  std::function<bool(const TaskEpoch&)> on_epoch;
};

/// Runs epochs [first_epoch, epochs) of the NCL phase on `train` (TS_cl in
/// the method's time base).  With replay_stream, A_new and the draw stay
/// packed (PackedLatentSet, ReplayStream); otherwise both are dense.  Either
/// way the batches are identical.  A draw takes replay_samples_per_epoch
/// entries, or the whole buffer in storage order (no rng consumed) at 0.
/// Each epoch's stats are also added to the registry counters snn.synops,
/// snn.backward_synops, snn.spikes and snn.neuron_updates.
void learn_task(snn::SnnNetwork& net, const data::Dataset& train, const TaskStep& step,
                std::size_t first_epoch, std::size_t epochs, const TaskHooks& hooks);

}  // namespace r4ncl::core
