// Double-buffered minibatch assembly for the supervised training loop.
//
// BatchPipeline turns a SampleSource + epoch permutation into a sequence of
// ready-to-train PreparedBatch slots, each batch assembled straight from the
// samples' rasters into its spike event list (compress::BatchEventBuilder —
// no float cube).  With prefetch = 0 it assembles each batch synchronously
// into a persistent scratch list (the allocation-free fast path the trainer
// always gets).  With prefetch ≥ 1 a single background
// producer thread decodes batch t+1..t+prefetch into spare slots while the
// consumer trains on batch t, overlapping replay decompression with the
// forward/backward pass.
//
// Correctness contracts:
//  - All SampleSource::fetch calls happen on one thread (the producer when
//    prefetch ≥ 1, the caller otherwise), preserving the source's
//    single-scratch streaming contract.
//  - Batch contents and consumption order are independent of `prefetch`, so
//    prefetch=N is bit-identical to prefetch=0 (pinned by tests/bench).
//  - Producer-side exceptions are captured and rethrown from next_batch().
//
// stall_seconds() (consumer wait) vs assemble_seconds() (decode + fill work)
// is the overlap headline: with prefetch=0 every assembled second stalls the
// train loop; with prefetch=1 only the un-overlapped remainder does.
#pragma once

#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

#include "compress/aer.hpp"
#include "snn/trainer.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace r4ncl::obs {
class Histogram;
}  // namespace r4ncl::obs

namespace r4ncl::snn {

/// One assembled minibatch: the (T × count × C) input batch's event list,
/// its labels, and its offset into the epoch permutation (order[lo + b] is
/// row b's source index — what the sample_outcome hook reports against).
struct PreparedBatch {
  SpikeList events;
  std::vector<std::int32_t> labels;
  std::size_t lo = 0;
  std::size_t count = 0;
};

class BatchPipeline {
 public:
  /// `source` must outlive the pipeline.  `prefetch` is the number of batches
  /// decoded ahead of the consumer (0 = synchronous).
  BatchPipeline(const SampleSource& source, std::size_t batch_size, std::size_t prefetch);
  ~BatchPipeline();

  BatchPipeline(const BatchPipeline&) = delete;
  BatchPipeline& operator=(const BatchPipeline&) = delete;

  /// Starts an epoch over the given permutation of [0, source.size).  The
  /// previous epoch must have been fully consumed.
  void begin_epoch(const std::vector<std::size_t>& order) R4NCL_EXCLUDES(mu_);

  /// Next assembled batch, or nullptr at epoch end.  The returned slot stays
  /// valid until the next next_batch() call.  Rethrows producer exceptions.
  const PreparedBatch* next_batch() R4NCL_EXCLUDES(mu_);

  /// Cumulative seconds the consumer spent blocked waiting for a batch.
  /// Per-instance compatibility shim: the same stalls feed the registry's
  /// `pipeline.stall_seconds` histogram (one record per wait), so the fleet
  /// view is obs::MetricsRegistry::snapshot() — prefer it for new telemetry.
  [[nodiscard]] double stall_seconds() const R4NCL_EXCLUDES(mu_);
  /// Cumulative seconds spent decoding + filling batch tensors.  Shim over
  /// the registry's `pipeline.assemble_seconds` histogram, as above.
  [[nodiscard]] double assemble_seconds() const R4NCL_EXCLUDES(mu_);

 private:
  struct Slot {
    /// Batch payload.  Deliberately not guarded by mu_: a slot's pb is owned
    /// by the producer while !ready and by the consumer while it is the held
    /// slot; the `ready` flip under mu_ publishes the hand-off.
    PreparedBatch pb;
    compress::BatchEventBuilder builder;  // owns pb.events; same ownership as pb
    bool ready = false;  // guarded by mu_ (see field block below)
  };

  void assemble(Slot& slot, std::size_t batch_index) R4NCL_EXCLUDES(mu_);
  void producer_main() R4NCL_EXCLUDES(mu_);

  const SampleSource& source_;
  std::size_t batch_size_;
  std::size_t prefetch_;
  /// Slot vector shape is construction-fixed; element `ready` flags follow
  /// the mu_ discipline, element payloads the ownership protocol above.
  std::vector<Slot> slots_;
  /// Epoch-stable: written by begin_epoch under mu_ while the producer is
  /// parked (the fully-consumed precondition proves it cannot be decoding),
  /// read without the lock by assemble() for the rest of the epoch.
  std::vector<std::size_t> order_;

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  // Shared cursor/stat state.  Everything below is guarded by mu_ in *both*
  // modes: the prefetch=0 path has no producer thread, but stall_seconds()/
  // assemble_seconds() may legitimately be polled from another thread while
  // an epoch runs, so the synchronous path takes the (uncontended) lock too.
  std::size_t num_batches_ R4NCL_GUARDED_BY(mu_) = 0;
  std::size_t next_consume_ R4NCL_GUARDED_BY(mu_) = 0;
  std::size_t held_slot_ R4NCL_GUARDED_BY(mu_) = kNoSlot;
  std::size_t produce_next_ R4NCL_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ R4NCL_GUARDED_BY(mu_);
  bool shutdown_ R4NCL_GUARDED_BY(mu_) = false;
  double stall_seconds_ R4NCL_GUARDED_BY(mu_) = 0.0;
  double assemble_seconds_ R4NCL_GUARDED_BY(mu_) = 0.0;

  mutable Mutex mu_;
  CondVar cv_producer_;
  CondVar cv_consumer_;
  std::thread producer_;

  /// Registry handles (obs::metrics()), resolved at construction.  record()
  /// is lock-free, so publishing under mu_ adds no lock-ordering edge; a
  /// disarmed registry reduces each record to one relaxed load.
  obs::Histogram* obs_stall_;
  obs::Histogram* obs_assemble_;
};

}  // namespace r4ncl::snn
