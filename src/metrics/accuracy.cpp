#include "metrics/accuracy.hpp"

#include <utility>

namespace r4ncl::metrics {

PreparedTestSet prepare_test_set(const snn::SnnNetwork& net, const data::Dataset& test,
                                 const EvalSettings& settings, std::size_t insertion) {
  PreparedTestSet set;
  set.settings = settings;
  set.insertion = insertion;
  data::Dataset rescaled = data::time_rescale(test, settings.timesteps, settings.rescale);
  set.latents = insertion == 0 ? std::move(rescaled)
                               : snn::frozen_latents(net, rescaled, insertion, settings.policy,
                                                     settings.batch_size);
  return set;
}

double evaluate_prepared(const snn::SnnNetwork& net, const PreparedTestSet& set) {
  return snn::evaluate(net, set.latents, set.insertion, set.settings.policy,
                       set.settings.batch_size);
}

PreparedTasks prepare_tasks(const snn::SnnNetwork& net, const data::ClassIncrementalTasks& tasks,
                            const EvalSettings& settings, std::size_t insertion) {
  return {prepare_test_set(net, tasks.pretrain_test, settings, insertion),
          prepare_test_set(net, tasks.new_test, settings, insertion)};
}

TaskAccuracy evaluate_tasks(const snn::SnnNetwork& net, const PreparedTasks& prepared) {
  return {evaluate_prepared(net, prepared.old_tasks), evaluate_prepared(net, prepared.new_task)};
}

TaskAccuracy evaluate_tasks(const snn::SnnNetwork& net,
                            const data::ClassIncrementalTasks& tasks,
                            const EvalSettings& settings) {
  return evaluate_tasks(net, prepare_tasks(net, tasks, settings, 0));
}

double ForgettingTracker::update(double old_task_accuracy) noexcept {
  if (old_task_accuracy > best_) best_ = old_task_accuracy;
  forgetting_ = best_ - old_task_accuracy;
  return forgetting_;
}

}  // namespace r4ncl::metrics
