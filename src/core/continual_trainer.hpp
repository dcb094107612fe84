// The continual-learning engine implementing Alg. 1 for every method.
//
// Phases (Alg. 1):
//   1. Network preparation — run the frozen prefix (layers below the LR
//      insertion layer) over TS_replay under the method's threshold policy
//      and timestep setting and store the latents, codec-compressed, in the
//      replay store (core::make_replay_store / core::seed_replay_store).
//   2. NCL training — one core::learn_task step over TS_cl (lines 21–33):
//      A_new once, then per epoch a replay draw A_LR and training of the
//      learning layers on A_new ∪ A_LR.  This engine turns each epoch into
//      a ClEpochRow, evaluates on its eval_every cadence and checkpoints.
//
// The frozen prefix cannot change during phase 2, so it runs once per run:
// A_new before the first epoch, and the test sets once, then evaluated from
// the insertion layer (metrics::prepare_tasks).  Both keep the batch
// blocking of a recompute, so every row is bit-identical to Alg. 1's
// per-epoch recompute.
//
// Modelled latency/energy is charged from the event counts of the work
// Alg. 1 performs (frozen inference, decompression, forward/backward of the
// learning layers): each epoch is charged its A_new inference even though
// the cached latents are reused, so wall-clock time and modelled cost
// deliberately differ.  Evaluation passes are never charged.
#pragma once

#include <cstdint>
#include <vector>

#include "core/latent_buffer.hpp"
#include "core/method_config.hpp"
#include "data/tasks.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/cost_model.hpp"
#include "snn/trainer.hpp"

namespace r4ncl::core {

/// One continual-learning run = (method, insertion layer, epochs).
struct ClRunConfig {
  NclMethodConfig method;
  /// LR insertion layer j ∈ [0, num_hidden]; hidden layers < j are frozen.
  std::size_t insertion_layer = 3;
  std::size_t epochs = 50;
  /// Evaluate old/new accuracy every k epochs (1 = every epoch); the final
  /// epoch is always evaluated.
  std::size_t eval_every = 1;
  std::uint64_t seed = 2024;
  metrics::EnergyModelParams energy_params{};
  metrics::LatencyModelParams latency_params{};
  bool verbose = false;
};

/// Per-epoch result row (the series plotted in Figs. 8, 11, 13).
struct ClEpochRow {
  std::size_t epoch = 0;
  double loss = 0.0;
  /// Top-1 accuracies (−1 when this epoch was not evaluated).
  double acc_old = -1.0;
  double acc_new = -1.0;
  /// Modelled cost of this epoch's training work.
  double latency_ms = 0.0;
  double energy_uj = 0.0;
  double wall_seconds = 0.0;
  snn::SpikeOpStats stats;
};

/// Complete result of a continual-learning run.
struct ClRunResult {
  std::string method_name;
  std::size_t insertion_layer = 0;
  std::vector<ClEpochRow> rows;
  /// Latent-memory footprint of the replay buffer (Fig. 12).
  std::size_t latent_memory_bytes = 0;
  /// Cost of the one-time preparation phase (latent generation).
  snn::SpikeOpStats prep_stats;
  double prep_latency_ms = 0.0;
  double prep_energy_uj = 0.0;
  /// Final accuracies (last evaluated epoch).
  double final_acc_old = 0.0;
  double final_acc_new = 0.0;
  double total_wall_seconds = 0.0;

  /// Sum of per-epoch modelled training latency (ms) / energy (µJ),
  /// including the preparation phase.
  [[nodiscard]] double total_latency_ms() const noexcept;
  [[nodiscard]] double total_energy_uj() const noexcept;
};

/// Runs one continual-learning scenario on a *copy*-modifiable network.
/// The network must already be pre-trained on the old classes; it is mutated
/// in place (clone it first to compare methods from the same checkpoint).
ClRunResult run_continual_learning(snn::SnnNetwork& net,
                                   const data::ClassIncrementalTasks& tasks,
                                   const ClRunConfig& config);

}  // namespace r4ncl::core
