#include "snn/trainer.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "snn/batch_pipeline.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace r4ncl::snn {

std::vector<EpochRecord> train_supervised(SnnNetwork& net, const data::Dataset& dataset,
                                          AdamOptimizer& optimizer, const TrainOptions& options,
                                          const EpochHook& hook) {
  SampleSource source;
  source.size = dataset.size();
  source.fetch = [&dataset](std::size_t i) -> const data::Sample& { return dataset[i]; };
  return train_supervised(net, source, optimizer, options, hook);
}

std::vector<EpochRecord> train_supervised(SnnNetwork& net, const SampleSource& source,
                                          AdamOptimizer& optimizer, const TrainOptions& options,
                                          const EpochHook& hook) {
  R4NCL_CHECK(source.size > 0, "cannot train on an empty dataset");
  R4NCL_CHECK(static_cast<bool>(source.fetch), "SampleSource.fetch must be set");
  R4NCL_CHECK(options.batch_size > 0, "batch_size must be positive");
  Rng shuffle_rng(options.shuffle_seed);
  std::vector<EpochRecord> history;
  history.reserve(options.epochs);
  std::vector<std::uint8_t> row_correct;

  // Samples are copied into a persistent scratch batch one at a time, so a
  // lazy source only ever needs its current sample alive — the streaming
  // replay contract.  With prefetch > 0 the pipeline decodes the next batch
  // on a background thread while this one trains.
  BatchPipeline pipeline(source, options.batch_size, options.prefetch);
  double assemble_base = 0.0;
  double stall_base = 0.0;
  obs::MetricsRegistry& reg = obs::metrics();
  obs::Histogram& obs_epoch =
      reg.histogram("trainer.epoch_seconds", obs::kLatencyEdgesSeconds);
  obs::Counter& obs_epochs = reg.counter("trainer.epochs");

  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    Stopwatch watch;
    EpochRecord rec;
    rec.epoch = epoch;
    auto order = shuffle_rng.permutation(source.size);
    pipeline.begin_epoch(order);
    std::size_t correct = 0;
    double loss_sum = 0.0;
    std::size_t batches = 0;
    while (const PreparedBatch* pb = pipeline.next_batch()) {
      const StepResult step =
          net.train_step(pb->events, pb->labels, options.insertion_layer, options.policy,
                         optimizer, options.lr, options.mode, &rec.stats,
                         options.sample_outcome ? &row_correct : nullptr);
      loss_sum += step.loss;
      correct += step.correct;
      if (options.sample_outcome) {
        for (std::size_t b = 0; b < pb->count; ++b) {
          options.sample_outcome(order[pb->lo + b], row_correct[b] != 0 ? 0.0f : 1.0f);
        }
      }
      ++batches;
    }
    rec.loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
    rec.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(source.size);
    rec.wall_seconds = watch.elapsed_seconds();
    obs_epoch.record(rec.wall_seconds);
    obs_epochs.add(1);
    rec.assembly_seconds = pipeline.assemble_seconds() - assemble_base;
    rec.assembly_stall_seconds = pipeline.stall_seconds() - stall_base;
    assemble_base += rec.assembly_seconds;
    stall_base += rec.assembly_stall_seconds;
    if (options.verbose) {
      R4NCL_INFO("epoch " << epoch << ": loss=" << rec.loss
                          << " train_acc=" << rec.train_accuracy << " ("
                          << rec.wall_seconds << "s, assembly stall "
                          << rec.assembly_stall_seconds << "s)");
    }
    if (hook) hook(rec);
    history.push_back(std::move(rec));
  }
  return history;
}

double evaluate(const SnnNetwork& net, const data::Dataset& dataset,
                std::size_t insertion_layer, const ThresholdPolicy& policy,
                std::size_t batch_size, SpikeOpStats* stats) {
  SampleSource source;
  source.size = dataset.size();
  source.fetch = [&dataset](std::size_t i) -> const data::Sample& { return dataset[i]; };
  return evaluate(net, source, insertion_layer, policy, batch_size, stats);
}

double evaluate(const SnnNetwork& net, const SampleSource& source, std::size_t insertion_layer,
                const ThresholdPolicy& policy, std::size_t batch_size, SpikeOpStats* stats) {
  if (source.size == 0) return 0.0;
  obs::metrics().counter("trainer.evals").add(1);
  obs::TraceSpan eval_span(obs::metrics(), "trainer.eval_seconds");
  R4NCL_CHECK(static_cast<bool>(source.fetch), "SampleSource.fetch must be set");
  R4NCL_CHECK(batch_size > 0, "batch_size must be positive");
  std::size_t correct = 0;
  // One event-list scratch reused across the whole sweep: samples stream
  // into it one at a time, so peak assembly memory is a single minibatch.
  compress::BatchEventBuilder batch;
  std::vector<std::int32_t> labels;
  labels.reserve(batch_size);
  for (std::size_t lo = 0; lo < source.size; lo += batch_size) {
    const std::size_t hi = std::min(source.size, lo + batch_size);
    batch.begin(hi - lo);
    labels.clear();
    for (std::size_t i = lo; i < hi; ++i) {
      const data::Sample& s = source.fetch(i);
      batch.add(s.raster);
      labels.push_back(s.label);
    }
    const Tensor logits = net.forward_logits(batch.finish(), insertion_layer, policy, stats);
    const auto preds = argmax_rows(logits);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (preds[i] == labels[i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(source.size);
}

void for_each_latent(const SnnNetwork& net, const data::Dataset& dataset, std::size_t insertion,
                     const ThresholdPolicy& policy, std::size_t batch_size, SpikeOpStats* stats,
                     const LatentSink& sink) {
  if (insertion == 0) {
    for (const data::Sample& s : dataset) sink(data::SpikeRaster(s.raster), s.label);
    return;
  }
  R4NCL_CHECK(batch_size > 0, "batch_size must be positive");
  compress::BatchEventBuilder batch;
  for (std::size_t lo = 0; lo < dataset.size(); lo += batch_size) {
    const std::size_t hi = std::min(dataset.size(), lo + batch_size);
    batch.begin(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) batch.add(dataset[i].raster);
    const SpikeList latent = net.run_hidden(batch.finish(), 0, insertion, policy, stats);
    for (std::size_t i = lo; i < hi; ++i) {
      sink(compress::raster_from_events(*latent, i - lo), dataset[i].label);
    }
  }
}

data::Dataset frozen_latents(const SnnNetwork& net, const data::Dataset& dataset,
                             std::size_t insertion, const ThresholdPolicy& policy,
                             std::size_t batch_size, SpikeOpStats* stats) {
  data::Dataset out;
  out.reserve(dataset.size());
  for_each_latent(net, dataset, insertion, policy, batch_size, stats,
                  [&out](data::SpikeRaster&& latent, std::int32_t label) {
                    out.push_back({std::move(latent), label});
                  });
  return out;
}

}  // namespace r4ncl::snn
