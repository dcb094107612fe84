// Packed streaming source of new-task latents.
//
// core::learn_task computes the new-task latent activations (Alg. 1 line 23)
// once per task — the frozen prefix cannot change during its CL epochs — and
// reuses them every epoch.  Without replay_stream it holds them as a dense
// data::Dataset — size × (T × C) bytes for the whole task.  PackedLatentSet
// runs the same snn::for_each_latent() inference over the same contiguous
// batch_size blocks (bit-identical latents — the adaptive threshold couples
// each sample's latent to its block, so the blocking must match
// snn::frozen_latents exactly), but stores every raster compressed: per
// sample the smaller of AER and 1-bit packing (compress::aer_is_smaller), the
// same crossover the replay buffer's format analysis exposes.  fetch(i)
// decodes into a single scratch slot, so the SNN trainer's streaming batch
// assembly never materializes the set densely.
//
// When insertion == 0 the "latents" are the raw input samples; the set
// borrows the dataset and fetch is a zero-copy passthrough.
//
// Decoding charges nothing to SpikeOpStats, matching the materialized path
// (snn::frozen_latents charges only the inference, which this constructor
// charges identically).
#pragma once

#include <cstdint>
#include <vector>

#include "compress/aer.hpp"
#include "compress/bitpack.hpp"
#include "data/spike_data.hpp"
#include "snn/network.hpp"

namespace r4ncl::core {

class PackedLatentSet {
 public:
  /// Runs the frozen prefix [0, insertion) over `dataset` in contiguous
  /// batch_size blocks, packing each latent raster as it is produced.
  /// `stats` receives the inference work (exactly what snn::frozen_latents
  /// charges).
  /// With insertion == 0, borrows `dataset` (which must outlive the set).
  PackedLatentSet(const snn::SnnNetwork& net, const data::Dataset& dataset,
                  std::size_t insertion, const snn::ThresholdPolicy& policy,
                  std::size_t batch_size, snn::SpikeOpStats* stats);

  [[nodiscard]] std::size_t size() const noexcept {
    return passthrough_ != nullptr ? passthrough_->size() : entries_.size();
  }
  [[nodiscard]] std::int32_t label(std::size_t i) const;

  /// Sample `i`, decoded into an internal scratch slot — valid until the
  /// next fetch() (the snn::SampleSource streaming contract).
  const data::Sample& fetch(std::size_t i);

  /// Compressed payload bytes held (0 in passthrough mode).
  [[nodiscard]] std::size_t packed_bytes() const noexcept { return packed_bytes_; }
  /// Entries for which AER beat bit-packing.
  [[nodiscard]] std::size_t aer_entries() const noexcept { return aer_entries_; }

 private:
  struct Entry {
    bool use_aer = false;
    compress::PackedRaster packed;  // when !use_aer
    compress::AerRaster aer;        // when use_aer
    std::int32_t label = 0;
  };

  const data::Dataset* passthrough_ = nullptr;
  std::vector<Entry> entries_;
  data::Sample scratch_;
  std::size_t packed_bytes_ = 0;
  std::size_t aer_entries_ = 0;
};

}  // namespace r4ncl::core
