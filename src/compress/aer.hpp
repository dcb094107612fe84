// Address-Event Representation (AER) storage of spike rasters.
//
// Neuromorphic sensors and chips exchange spikes as (timestep, channel)
// event tuples rather than dense bitmaps.  For sparse rasters AER is the
// smaller encoding; for dense rasters bit-packing wins.  The latent-replay
// buffer's bitmap format (bitpack.hpp) is what the paper's memory accounting
// uses; this module provides the AER alternative plus the crossover analysis
// (aer_is_smaller) so deployments can pick per-layer.
//
// Encoding: events sorted by (t, channel); timestep stored as a delta from
// the previous event's timestep (u8 with 255-escape), channel as u16.
//
// Beyond storage, this header is also the event-*iteration* surface of the
// repo: aer_visit() walks an encoded stream without densifying it, and
// BatchEventList is the batched per-timestep active-channel list the SNN
// hot path consumes and hands from layer to layer, built from a batch's
// rasters (BatchEventBuilder), from AER samples, or from a dense
// (T × B × C) float batch.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "data/spike_data.hpp"
#include "tensor/tensor.hpp"

namespace r4ncl::compress {

/// AER-encoded raster.
struct AerRaster {
  std::uint32_t timesteps = 0;
  std::uint32_t channels = 0;
  /// Encoded event stream (delta-t / channel pairs).
  std::vector<std::uint8_t> payload;
  /// Number of events (spikes) encoded.
  std::uint32_t num_events = 0;

  [[nodiscard]] std::size_t payload_bytes() const noexcept { return payload.size(); }
};

/// Encodes a dense raster into the AER event stream.
AerRaster aer_encode(const data::SpikeRaster& raster);

/// Decodes back to a dense raster; exact inverse of aer_encode.
data::SpikeRaster aer_decode(const AerRaster& aer);

/// aer_decode() into a caller-owned raster, reusing its allocation when the
/// geometry already matches — the streaming scratch path (every cell is
/// rewritten, so stale contents cannot leak through).
void aer_decode_into(const AerRaster& aer, data::SpikeRaster& out);

/// Walks the encoded event stream in (t, channel) order without densifying
/// it, invoking visit(t, channel) once per event — the iteration primitive
/// batch event lists and event-driven consumers are built from.
void aer_visit(const AerRaster& aer,
               const std::function<void(std::size_t t, std::size_t channel)>& visit);

/// Batched per-timestep active-channel lists: for every (t, b) row of a
/// (T × B × C) spike cube, the channels with a non-zero value, ascending —
/// CSR over rows in t-major order, so one timestep's rows are contiguous.
///
/// Values are stored alongside the channels so non-binary activations stay
/// exact; `unit_values` marks the common all-spikes-are-1.0f case, which
/// lets consumers use add-only kernels.  Iterating a row's events in stored
/// (ascending-channel) order reproduces kernels::matmul's zero-skipping
/// accumulation order exactly, which is what makes the event-driven forward
/// bit-identical to the dense one.
struct BatchEventList {
  std::size_t timesteps = 0;
  std::size_t batch = 0;
  std::size_t channels = 0;
  /// offsets[t * batch + b] .. offsets[t * batch + b + 1) indexes `channel`/
  /// `value` for row (t, b); size timesteps·batch + 1.
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> channel;
  std::vector<float> value;
  bool unit_values = true;

  [[nodiscard]] std::size_t row_begin(std::size_t t, std::size_t b) const noexcept {
    return offsets[t * batch + b];
  }
  [[nodiscard]] std::size_t row_end(std::size_t t, std::size_t b) const noexcept {
    return offsets[t * batch + b + 1];
  }
  /// Events in timestep t across the whole batch (rows are t-major).
  [[nodiscard]] std::size_t events_in_timestep(std::size_t t) const noexcept {
    return offsets[(t + 1) * batch] - offsets[t * batch];
  }
  [[nodiscard]] std::size_t num_events() const noexcept { return channel.size(); }

  bool operator==(const BatchEventList&) const = default;
};

/// Builds the event list of a dense (T × B × C) float batch in one scan.
/// Every cell with a non-zero value becomes an event carrying that value.
BatchEventList events_from_batch(const Tensor& x);

/// The dense (T × B × C) cube of an event list: each event's value in its
/// cell, 0 elsewhere — the inverse of events_from_batch().
Tensor batch_from_events(const BatchEventList& events);

/// Batch row b of an event list as a binary raster (value > 0.5 → spike),
/// equal to data::batch_to_raster(batch_from_events(events), b).
data::SpikeRaster raster_from_events(const BatchEventList& events, std::size_t b);

/// Builds the event list of B rasters handed in one at a time, in batch-row
/// order: events_from_batch(data::make_batch(...)) without the float cube,
/// and equal to it (a raster byte v becomes an event of value float(v)).
/// Each raster is scanned once, inside add(), so a streaming source's sample
/// only has to live until add() returns.  The scratch and the output list
/// are sized for an all-spikes batch the first time a geometry needs it and
/// reused for every later batch; their pages are touched only as events are
/// written.
class BatchEventBuilder {
 public:
  BatchEventBuilder();

  /// Starts a batch of `rows` rasters; the first add() fixes the geometry.
  void begin(std::size_t rows);
  /// Appends the next batch row.
  void add(const data::SpikeRaster& raster);
  /// Concatenates the rows t-major and returns the list.  The builder
  /// rewrites the same list on its next finish(), so it is valid until then.
  [[nodiscard]] std::shared_ptr<const BatchEventList> finish();

 private:
  std::size_t rows_ = 0;
  std::size_t added_ = 0;
  std::size_t timesteps_ = 0;
  std::size_t channels_ = 0;
  std::size_t stride_ = 0;    // slots per timestep bucket: B·C
  std::size_t capacity_ = 0;  // slots the scratch and the output can hold
  /// Row (t, b)'s event count at t·B + b, and events per timestep so far.
  std::vector<std::uint32_t> count_;
  std::vector<std::size_t> fill_;
  /// Timestep t's event channels, in row order, from slot t·stride_.
  std::unique_ptr<std::uint32_t[]> channel_;
  /// (row, raster bytes) of the rows holding a byte other than 0 and 1.
  std::vector<std::pair<std::size_t, std::vector<std::uint8_t>>> non_unit_rows_;
  std::shared_ptr<BatchEventList> out_;
};

/// Process-wide count of BatchEventBuilder scratch (re)allocations — the
/// batch-assembly allocation probe: a trainer slot or an evaluation sweep
/// allocates once per geometry, never per batch.
std::uint64_t batch_event_allocations() noexcept;

/// Builds the event list of B AER-encoded samples (sample i = batch row i)
/// without densifying any of them; all samples must share geometry.  The
/// result equals events_from_batch() over the decoded dense batch.
BatchEventList events_from_aer(std::span<const AerRaster> samples);

/// Bytes the AER encoding needs for a raster of the given geometry/density
/// (without encoding it): events·3 bytes + escape bytes are density-data
/// dependent, so this computes the exact size by encoding-free counting.
std::size_t aer_bytes(const data::SpikeRaster& raster);

/// True when AER storage is smaller than byte-padded bit-packing for this
/// raster — the sparse/dense crossover used for per-layer format selection.
bool aer_is_smaller(const data::SpikeRaster& raster);

}  // namespace r4ncl::compress
