// Supervised training / evaluation loops over spike datasets.
//
// train_supervised drives the pre-training phase (Alg. 1 lines 1–5) and is
// reused by the continual-learning trainers in src/core; evaluate() computes
// Top-1 accuracy from any insertion point, so latent datasets can be scored
// with the same code path as raw input data.  for_each_latent() is the one
// frozen-prefix inference loop that produces those latent datasets.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "data/spike_data.hpp"
#include "snn/network.hpp"

namespace r4ncl::snn {

/// Options for a supervised training run.
struct TrainOptions {
  std::size_t epochs = 10;
  std::size_t batch_size = 16;
  float lr = 1e-3f;
  /// Hidden-layer index the inputs are injected at (0 = raw input).
  std::size_t insertion_layer = 0;
  ThresholdPolicy policy = ThresholdPolicy::fixed(1.0f);
  SpikeMode mode = SpikeMode::kHard;
  std::uint64_t shuffle_seed = 99;
  bool verbose = false;
  /// Minibatches to decode ahead of the train loop on a background thread
  /// (0 = synchronous).  Batch contents and visit order are independent of
  /// this knob, so results are bit-identical for any value — it only moves
  /// sample decode off the critical path (see snn::BatchPipeline).
  std::size_t prefetch = 0;
  /// Optional per-sample outcome hook: called once per trained sample per
  /// epoch with the sample's source index and its pre-update top-1 error
  /// (0.0 = correct, 1.0 = miss).  This is the trainer→replay-buffer
  /// feedback channel of the importance-aware eviction policies
  /// (core::LatentReplayBuffer::report_outcome); unset costs nothing.
  std::function<void(std::size_t index, float error)> sample_outcome;
};

/// Per-epoch record of a training run.
struct EpochRecord {
  std::size_t epoch = 0;
  double loss = 0.0;
  double train_accuracy = 0.0;
  double wall_seconds = 0.0;
  /// Seconds spent decoding samples + filling batch tensors this epoch.
  double assembly_seconds = 0.0;
  /// Seconds the train loop was blocked waiting on batch assembly; equals
  /// assembly_seconds when prefetch = 0, shrinks toward 0 with overlap.
  double assembly_stall_seconds = 0.0;
  SpikeOpStats stats;  // forward+backward work of this epoch
};

/// Per-epoch hook: called after each epoch (e.g. to evaluate held-out sets).
using EpochHook = std::function<void(const EpochRecord&)>;

/// Random-access view over a virtual training set: `size` samples produced
/// on demand.  fetch(i) may return a reference into an internal scratch slot
/// that is only valid until the next fetch — the trainer adds each sample
/// to the batch's event list before fetching the next one, which is what lets a
/// streaming replay source decode one sample at a time instead of
/// materializing the whole set (see core::ReplayStream).
struct SampleSource {
  std::size_t size = 0;
  std::function<const data::Sample&(std::size_t)> fetch;
};

/// Trains `net` on `dataset` (spike cubes at `insertion_layer`).  Returns the
/// per-epoch history.  The caller owns the optimizer so moment state can
/// persist across phases when desired.
std::vector<EpochRecord> train_supervised(SnnNetwork& net, const data::Dataset& dataset,
                                          AdamOptimizer& optimizer, const TrainOptions& options,
                                          const EpochHook& hook = nullptr);

/// train_supervised over a lazily-fetched source.  Bit-identical to the
/// Dataset overload for the same shuffle seed and sample values — the
/// Dataset overload is implemented on top of this one.
std::vector<EpochRecord> train_supervised(SnnNetwork& net, const SampleSource& source,
                                          AdamOptimizer& optimizer, const TrainOptions& options,
                                          const EpochHook& hook = nullptr);

/// Top-1 accuracy of `net` on `dataset` fed at `insertion_layer`.
double evaluate(const SnnNetwork& net, const data::Dataset& dataset,
                std::size_t insertion_layer = 0,
                const ThresholdPolicy& policy = ThresholdPolicy::fixed(1.0f),
                std::size_t batch_size = 32, SpikeOpStats* stats = nullptr);

/// evaluate() over a lazily-fetched source: samples stream one at a time
/// into a single reused event-list scratch, so a replay-buffer-backed source is
/// scored without ever materializing the set densely.  Bit-identical to the
/// Dataset overload (which is implemented on top of this one).
double evaluate(const SnnNetwork& net, const SampleSource& source,
                std::size_t insertion_layer = 0,
                const ThresholdPolicy& policy = ThresholdPolicy::fixed(1.0f),
                std::size_t batch_size = 32, SpikeOpStats* stats = nullptr);

/// Receives one latent sample of for_each_latent(), in dataset order.
using LatentSink = std::function<void(data::SpikeRaster&& latent, std::int32_t label)>;

/// Runs the frozen prefix [0, insertion) of `net` over `dataset` in
/// contiguous batch_size blocks and hands each sample's latent (the spike
/// cube entering hidden layer `insertion`) to `sink`.  Under the adaptive
/// threshold a latent depends on every sample of its block, so latents are
/// reproducible only under the same blocking.  `stats` receives the
/// inference work.  With insertion == 0 the raw rasters are passed through
/// and nothing is charged.
void for_each_latent(const SnnNetwork& net, const data::Dataset& dataset, std::size_t insertion,
                     const ThresholdPolicy& policy, std::size_t batch_size, SpikeOpStats* stats,
                     const LatentSink& sink);

/// for_each_latent() collected into a dataset.
data::Dataset frozen_latents(const SnnNetwork& net, const data::Dataset& dataset,
                             std::size_t insertion, const ThresholdPolicy& policy,
                             std::size_t batch_size, SpikeOpStats* stats = nullptr);

}  // namespace r4ncl::snn
