#include "core/latent_source.hpp"

#include <utility>

#include "snn/trainer.hpp"

namespace r4ncl::core {

PackedLatentSet::PackedLatentSet(const snn::SnnNetwork& net, const data::Dataset& dataset,
                                 std::size_t insertion, const snn::ThresholdPolicy& policy,
                                 std::size_t batch_size, snn::SpikeOpStats* stats) {
  if (insertion == 0 || dataset.empty()) {
    passthrough_ = &dataset;
    return;
  }
  entries_.reserve(dataset.size());
  snn::for_each_latent(
      net, dataset, insertion, policy, batch_size, stats,
      [this](data::SpikeRaster&& raster, std::int32_t label) {
        Entry e;
        e.label = label;
        e.use_aer = compress::aer_is_smaller(raster);
        if (e.use_aer) {
          e.aer = compress::aer_encode(raster);
          packed_bytes_ += e.aer.payload_bytes();
          ++aer_entries_;
        } else {
          e.packed = compress::pack(raster);
          packed_bytes_ += e.packed.payload_bytes();
        }
        entries_.push_back(std::move(e));
      });
}

std::int32_t PackedLatentSet::label(std::size_t i) const {
  if (passthrough_ != nullptr) return (*passthrough_)[i].label;
  return entries_.at(i).label;
}

const data::Sample& PackedLatentSet::fetch(std::size_t i) {
  if (passthrough_ != nullptr) return (*passthrough_)[i];
  const Entry& e = entries_.at(i);
  if (e.use_aer) {
    compress::aer_decode_into(e.aer, scratch_.raster);
  } else {
    compress::unpack_into(e.packed, scratch_.raster);
  }
  scratch_.label = e.label;
  return scratch_;
}

}  // namespace r4ncl::core
