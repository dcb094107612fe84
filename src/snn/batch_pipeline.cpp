#include "snn/batch_pipeline.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace r4ncl::snn {

BatchPipeline::BatchPipeline(const SampleSource& source, std::size_t batch_size,
                             std::size_t prefetch)
    : source_(source), batch_size_(batch_size), prefetch_(prefetch),
      obs_stall_(&obs::metrics().histogram("pipeline.stall_seconds",
                                           obs::kLatencyEdgesSeconds)),
      obs_assemble_(&obs::metrics().histogram("pipeline.assemble_seconds",
                                              obs::kLatencyEdgesSeconds)) {
  R4NCL_CHECK(batch_size_ > 0, "batch_size must be positive");
  R4NCL_CHECK(static_cast<bool>(source_.fetch), "SampleSource.fetch must be set");
  // prefetch batches in flight + the one the consumer holds.
  slots_.resize(prefetch_ + 1);
  if (prefetch_ > 0) {
    producer_ = std::thread([this] { producer_main(); });
  }
}

BatchPipeline::~BatchPipeline() {
  if (producer_.joinable()) {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    cv_producer_.notify_all();
    producer_.join();
  }
}

void BatchPipeline::begin_epoch(const std::vector<std::size_t>& order) {
  {
    MutexLock lock(mu_);
    R4NCL_CHECK(next_consume_ == num_batches_ && held_slot_ == kNoSlot,
                "begin_epoch before the previous epoch was fully consumed");
    // The producer is parked in its work-wait here (produce_next_ ==
    // num_batches_, and a producer decoding batch i implies i is neither
    // produced nor consumed, contradicting the fully-consumed check above),
    // so mutating shared state — including the unguarded epoch-stable
    // order_ — under the lock is safe.
    order_ = order;
    num_batches_ = (order_.size() + batch_size_ - 1) / batch_size_;
    next_consume_ = 0;
    produce_next_ = 0;
    for (Slot& s : slots_) s.ready = false;
  }
  cv_producer_.notify_all();
}

void BatchPipeline::assemble(Slot& slot, std::size_t batch_index) {
  PreparedBatch& pb = slot.pb;
  const std::size_t lo = batch_index * batch_size_;
  const std::size_t hi = std::min(order_.size(), lo + batch_size_);
  pb.lo = lo;
  pb.count = hi - lo;
  pb.labels.clear();
  slot.builder.begin(pb.count);
  for (std::size_t b = 0; b < pb.count; ++b) {
    const data::Sample& s = source_.fetch(order_[lo + b]);
    slot.builder.add(s.raster);
    pb.labels.push_back(s.label);
  }
  pb.events = slot.builder.finish();
}

void BatchPipeline::producer_main() {
  for (;;) {
    std::size_t idx = 0;
    {
      MutexLock lock(mu_);
      while (!shutdown_ && produce_next_ >= num_batches_) cv_producer_.wait(mu_);
      if (shutdown_) return;
      idx = produce_next_;
      while (!shutdown_ && slots_[idx % slots_.size()].ready) cv_producer_.wait(mu_);
      if (shutdown_) return;
    }
    // A non-ready slot is producer-exclusive and order_/source_ are stable
    // for the whole epoch, so the decode runs outside the lock.
    Slot& slot = slots_[idx % slots_.size()];
    double seconds = 0.0;
    std::exception_ptr err;
    try {
      Stopwatch watch;
      assemble(slot, idx);
      seconds = watch.elapsed_seconds();
    } catch (...) {
      err = std::current_exception();
    }
    MutexLock lock(mu_);
    if (err != nullptr) {
      error_ = err;
      produce_next_ = num_batches_;  // abandon the epoch
      cv_consumer_.notify_all();
      continue;
    }
    assemble_seconds_ += seconds;
    obs_assemble_->record(seconds);
    slot.ready = true;
    produce_next_ = idx + 1;
    cv_consumer_.notify_all();
  }
}

const PreparedBatch* BatchPipeline::next_batch() {
  if (prefetch_ == 0) {
    // Synchronous path: no producer thread exists, but the cursor and the
    // stat accumulators stay under mu_ so stall_seconds() / assemble_seconds()
    // can be polled from another thread mid-epoch without a race.
    std::size_t idx = 0;
    {
      MutexLock lock(mu_);
      if (next_consume_ == num_batches_) return nullptr;
      idx = next_consume_;
    }
    // The whole assembly is train-loop stall by definition.
    Stopwatch watch;
    assemble(slots_[0], idx);
    const double seconds = watch.elapsed_seconds();
    MutexLock lock(mu_);
    assemble_seconds_ += seconds;
    stall_seconds_ += seconds;
    obs_assemble_->record(seconds);
    obs_stall_->record(seconds);
    next_consume_ = idx + 1;
    return &slots_[0].pb;
  }

  MutexLock lock(mu_);
  if (held_slot_ != kNoSlot) {
    slots_[held_slot_].ready = false;
    held_slot_ = kNoSlot;
    cv_producer_.notify_all();
  }
  if (error_ != nullptr) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    next_consume_ = num_batches_;
    std::rethrow_exception(err);
  }
  if (next_consume_ == num_batches_) return nullptr;
  const std::size_t slot_idx = next_consume_ % slots_.size();
  Stopwatch watch;
  while (!slots_[slot_idx].ready && error_ == nullptr) cv_consumer_.wait(mu_);
  const double waited = watch.elapsed_seconds();
  stall_seconds_ += waited;
  obs_stall_->record(waited);
  if (error_ != nullptr) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    next_consume_ = num_batches_;
    std::rethrow_exception(err);
  }
  held_slot_ = slot_idx;
  ++next_consume_;
  return &slots_[slot_idx].pb;
}

double BatchPipeline::stall_seconds() const {
  MutexLock lock(mu_);
  return stall_seconds_;
}

double BatchPipeline::assemble_seconds() const {
  MutexLock lock(mu_);
  return assemble_seconds_;
}

}  // namespace r4ncl::snn
