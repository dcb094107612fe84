// Task-level accuracy bookkeeping for the class-incremental scenario.
#pragma once

#include "data/tasks.hpp"
#include "snn/trainer.hpp"

namespace r4ncl::metrics {

/// Old-task / new-task Top-1 accuracies at one evaluation point.
struct TaskAccuracy {
  double old_tasks = 0.0;
  double new_task = 0.0;
};

/// Evaluation conditions: the deployed configuration of a method (its
/// timestep setting and threshold policy) must also be used at test time.
struct EvalSettings {
  std::size_t timesteps = 100;  // test rasters are rescaled to this
  data::TimeRescaleMethod rescale = data::TimeRescaleMethod::kGroupOr;
  snn::ThresholdPolicy policy = snn::ThresholdPolicy::fixed(1.0f);
  /// Samples per forward block.  Under the adaptive threshold each block
  /// sets its own threshold trajectory, so the block size is part of the
  /// result, not just a speed knob: accuracies (and prepared latents) are
  /// only comparable at the same batch_size.
  std::size_t batch_size = 32;
};

/// A test set held at an insertion point for repeated evaluation while the
/// layers [0, insertion) stay frozen: rescaled to settings.timesteps and run
/// through the frozen prefix once, in settings.batch_size blocks — the same
/// blocks a layer-0 evaluation pushes through the prefix, so scoring the
/// latents from `insertion` gives exactly the layer-0 accuracy.
struct PreparedTestSet {
  EvalSettings settings;
  std::size_t insertion = 0;
  data::Dataset latents;
};

/// Rescales `test` and runs it through the frozen prefix [0, insertion).
PreparedTestSet prepare_test_set(const snn::SnnNetwork& net, const data::Dataset& test,
                                 const EvalSettings& settings, std::size_t insertion);

/// Top-1 accuracy of `net` on a prepared set, scored from its insertion
/// layer.  Valid while net's layers [0, set.insertion) are the ones that
/// prepared the set.
double evaluate_prepared(const snn::SnnNetwork& net, const PreparedTestSet& set);

/// Both task test sets, prepared at one insertion layer.
struct PreparedTasks {
  PreparedTestSet old_tasks;
  PreparedTestSet new_task;
};

PreparedTasks prepare_tasks(const snn::SnnNetwork& net, const data::ClassIncrementalTasks& tasks,
                            const EvalSettings& settings, std::size_t insertion);

/// Evaluates the network on both prepared task test sets.
TaskAccuracy evaluate_tasks(const snn::SnnNetwork& net, const PreparedTasks& prepared);

/// Evaluates the network on both task test sets under the given settings
/// (prepare_tasks at layer 0, then evaluate).
TaskAccuracy evaluate_tasks(const snn::SnnNetwork& net,
                            const data::ClassIncrementalTasks& tasks,
                            const EvalSettings& settings);

/// Forgetting = best old-task accuracy seen so far − current old-task
/// accuracy (the standard continual-learning forgetting measure).
class ForgettingTracker {
 public:
  /// Records an old-task accuracy; returns current forgetting.
  double update(double old_task_accuracy) noexcept;

  [[nodiscard]] double best() const noexcept { return best_; }
  [[nodiscard]] double forgetting() const noexcept { return forgetting_; }

 private:
  double best_ = 0.0;
  double forgetting_ = 0.0;
};

}  // namespace r4ncl::metrics
