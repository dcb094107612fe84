#include "compress/aer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>

#include "compress/bitpack.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace r4ncl::compress {

namespace {
constexpr std::uint8_t kDeltaEscape = 0xff;  // delta ≥ 255 → escape + u16 delta

std::atomic<std::uint64_t> g_event_allocations{0};

/// For each 8-bit mask: how many bits are set and their positions,
/// ascending (unused slots 0) — the compaction table of the raster scan.
struct BitPositions {
  std::array<std::uint32_t, 8> at{};
  std::uint32_t count = 0;
};
constexpr std::array<BitPositions, 256> kBitPositions = [] {
  std::array<BitPositions, 256> table{};
  for (std::size_t mask = 0; mask < 256; ++mask) {
    for (std::uint32_t bit = 0; bit < 8; ++bit) {
      if ((mask >> bit) & 1u) table[mask].at[table[mask].count++] = bit;
    }
  }
  return table;
}();
}  // namespace

AerRaster aer_encode(const data::SpikeRaster& raster) {
  R4NCL_CHECK(raster.channels < 0x10000, "AER channel field is u16");
  AerRaster out;
  out.timesteps = static_cast<std::uint32_t>(raster.timesteps);
  out.channels = static_cast<std::uint32_t>(raster.channels);
  std::size_t prev_t = 0;
  for (std::size_t t = 0; t < raster.timesteps; ++t) {
    for (std::size_t c = 0; c < raster.channels; ++c) {
      if (raster.bits[t * raster.channels + c] == 0) continue;
      std::size_t delta = t - prev_t;
      while (delta >= kDeltaEscape) {
        // Escape: emit 0xff + u16 chunk of the delta (handles long silences).
        out.payload.push_back(kDeltaEscape);
        const std::uint16_t chunk =
            delta > 0xffff ? 0xffff : static_cast<std::uint16_t>(delta);
        out.payload.push_back(static_cast<std::uint8_t>(chunk & 0xff));
        out.payload.push_back(static_cast<std::uint8_t>(chunk >> 8));
        delta -= chunk;
      }
      out.payload.push_back(static_cast<std::uint8_t>(delta));
      out.payload.push_back(static_cast<std::uint8_t>(c & 0xff));
      out.payload.push_back(static_cast<std::uint8_t>(c >> 8));
      prev_t = t;
      ++out.num_events;
    }
  }
  return out;
}

void aer_visit(const AerRaster& aer,
               const std::function<void(std::size_t t, std::size_t channel)>& visit) {
  std::size_t t = 0;
  std::size_t i = 0;
  std::uint32_t decoded = 0;
  while (i < aer.payload.size()) {
    std::size_t delta = 0;
    while (aer.payload[i] == kDeltaEscape) {
      R4NCL_CHECK(i + 2 < aer.payload.size(), "truncated AER escape");
      delta += static_cast<std::size_t>(aer.payload[i + 1]) |
               (static_cast<std::size_t>(aer.payload[i + 2]) << 8);
      i += 3;
      R4NCL_CHECK(i < aer.payload.size(), "truncated AER stream");
    }
    delta += aer.payload[i];
    ++i;
    R4NCL_CHECK(i + 1 < aer.payload.size(), "truncated AER channel");
    const std::size_t c = static_cast<std::size_t>(aer.payload[i]) |
                          (static_cast<std::size_t>(aer.payload[i + 1]) << 8);
    i += 2;
    t += delta;
    R4NCL_CHECK(t < aer.timesteps && c < aer.channels, "AER event out of bounds");
    visit(t, c);
    ++decoded;
  }
  R4NCL_CHECK(decoded == aer.num_events, "AER event count mismatch");
}

data::SpikeRaster aer_decode(const AerRaster& aer) {
  data::SpikeRaster out(aer.timesteps, aer.channels);
  aer_visit(aer, [&out](std::size_t t, std::size_t c) { out.bits[t * out.channels + c] = 1; });
  return out;
}

void aer_decode_into(const AerRaster& aer, data::SpikeRaster& out) {
  out.timesteps = aer.timesteps;
  out.channels = aer.channels;
  out.bits.assign(static_cast<std::size_t>(aer.timesteps) * aer.channels, 0);
  aer_visit(aer, [&out](std::size_t t, std::size_t c) { out.bits[t * out.channels + c] = 1; });
}

BatchEventList events_from_batch(const Tensor& x) {
  R4NCL_CHECK(x.rank() == 3, "events_from_batch needs a (T × B × C) cube");
  BatchEventList out;
  out.timesteps = x.dim(0);
  out.batch = x.dim(1);
  out.channels = x.dim(2);
  const std::size_t rows = out.timesteps * out.batch;
  out.offsets.resize(rows + 1);
  const float* p = x.raw();
  const std::size_t C = out.channels;
  // Rows come out t-major and each row's channels ascending, the order the
  // bit-identity contract requires.  Each (t, b) row is independent, so both
  // passes parallelise over rows with disjoint writes — the result is
  // byte-identical at any thread count.
  // Pass 1: count the active channels of each row (and whether any value
  // departs from 1.0f), then CSR offsets by exclusive prefix sum.
  std::vector<std::uint32_t> counts(rows);
  std::vector<std::uint8_t> non_unit(rows, 0);
  parallel_for(
      0, rows,
      [&](std::size_t r) {
        const float* row = p + r * C;
        std::uint32_t n = 0;
        std::uint32_t nu = 0;
        // Branch-free so the loop vectorizes (this pass touches every
        // element of the cube — it must run at memory speed).
        for (std::size_t c = 0; c < C; ++c) {
          const float v = row[c];
          n += v != 0.0f ? 1u : 0u;
          nu += (v != 0.0f && v != 1.0f) ? 1u : 0u;
        }
        counts[r] = n;
        non_unit[r] = nu != 0 ? 1 : 0;
      },
      C);
  std::uint32_t cursor = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    out.offsets[r] = cursor;
    cursor += counts[r];
    if (non_unit[r] != 0) out.unit_values = false;
  }
  out.offsets[rows] = cursor;
  // Pass 2: fill — every row writes its own [offsets[r], offsets[r+1]) range.
  out.channel.resize(cursor);
  out.value.resize(cursor);
  parallel_for(
      0, rows,
      [&](std::size_t r) {
        const float* row = p + r * C;
        std::uint32_t w = out.offsets[r];
        // Quad-skip: spike rows are mostly zero, so test four elements per
        // branch and only fall into the per-element loop on a live quad.
        std::size_t c = 0;
        for (; c + 4 <= C; c += 4) {
          if (row[c] == 0.0f && row[c + 1] == 0.0f && row[c + 2] == 0.0f &&
              row[c + 3] == 0.0f) {
            continue;
          }
          for (std::size_t q = c; q < c + 4; ++q) {
            const float v = row[q];
            if (v == 0.0f) continue;
            out.channel[w] = static_cast<std::uint32_t>(q);
            out.value[w] = v;
            ++w;
          }
        }
        for (; c < C; ++c) {
          const float v = row[c];
          if (v == 0.0f) continue;
          out.channel[w] = static_cast<std::uint32_t>(c);
          out.value[w] = v;
          ++w;
        }
      },
      C);
  return out;
}

Tensor batch_from_events(const BatchEventList& events) {
  Tensor out(events.timesteps, events.batch, events.channels);
  float* p = out.raw();
  const std::size_t rows = events.timesteps * events.batch;
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = p + r * events.channels;
    for (std::size_t e = events.offsets[r]; e < events.offsets[r + 1]; ++e) {
      row[events.channel[e]] = events.value[e];
    }
  }
  return out;
}

data::SpikeRaster raster_from_events(const BatchEventList& events, std::size_t b) {
  R4NCL_CHECK(b < events.batch, "batch index out of range");
  data::SpikeRaster out(events.timesteps, events.channels);
  for (std::size_t t = 0; t < events.timesteps; ++t) {
    std::uint8_t* row = out.bits.data() + t * events.channels;
    for (std::size_t e = events.row_begin(t, b); e < events.row_end(t, b); ++e) {
      row[events.channel[e]] = events.value[e] > 0.5f ? 1 : 0;
    }
  }
  return out;
}

BatchEventBuilder::BatchEventBuilder() : out_(std::make_shared<BatchEventList>()) {}

void BatchEventBuilder::begin(std::size_t rows) {
  rows_ = rows;
  added_ = 0;
}

void BatchEventBuilder::add(const data::SpikeRaster& raster) {
  R4NCL_CHECK(added_ < rows_, "batch already holds " << rows_ << " rasters");
  const std::size_t T = raster.timesteps, C = raster.channels, B = rows_;
  if (added_ == 0) {
    timesteps_ = T;
    channels_ = C;
    stride_ = B * C;
    count_.resize(T * B);
    fill_.assign(T, 0);
    non_unit_rows_.clear();
    const std::size_t cells = T * stride_;
    if (cells > capacity_) {
      channel_ = std::make_unique_for_overwrite<std::uint32_t[]>(cells);
      out_->channel.reserve(cells);
      out_->value.reserve(cells);
      capacity_ = cells;
      g_event_allocations.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    R4NCL_CHECK(T == timesteps_ && C == channels_, "raster shape mismatch inside batch");
  }
  // Timestep t's events of every row land in bucket t (from slot t·stride),
  // appended in row order, so the buckets concatenate into the t-major list.
  // Eight channels are taken per load: the bytes' non-zero mask indexes the
  // table of their positions, and eight slots are written unconditionally —
  // no branch per event.  The writes stay inside the bucket: before channel
  // c of row b it holds at most b·C + c events, and c + 8 <= C.
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr std::uint64_t kHigh = 0x8080808080808080ULL;
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kGather = 0x0102040810204080ULL;  // bit 8k+7 → bit 56+k
  const std::size_t b = added_;
  std::uint64_t non_unit = 0;
  for (std::size_t t = 0; t < T; ++t) {
    const std::uint8_t* row = raster.bits.data() + t * C;
    std::uint32_t* chan = channel_.get() + t * stride_ + fill_[t];
    std::uint32_t n = 0;
    std::size_t c = 0;
    if constexpr (std::endian::native == std::endian::little) {
      for (; c + 8 <= C; c += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, row + c, sizeof word);
        non_unit |= word & ~kOnes;
        const std::uint64_t live = (((word & kLow7) + kLow7) | word) & kHigh;
        const BitPositions& p = kBitPositions[((live >> 7) * kGather) >> 56];
        const auto base = static_cast<std::uint32_t>(c);
        for (std::size_t i = 0; i < 8; ++i) chan[n + i] = base + p.at[i];
        n += p.count;
      }
    }
    for (; c < C; ++c) {
      if (row[c] == 0) continue;
      non_unit |= row[c] & ~1u;
      chan[n++] = static_cast<std::uint32_t>(c);
    }
    count_[t * B + b] = n;
    fill_[t] += n;
  }
  // Non-binary bytes are rare: such a row keeps a copy of its raster, read
  // back when finish() writes the values.
  if (non_unit != 0) non_unit_rows_.emplace_back(b, raster.bits);
  ++added_;
}

std::shared_ptr<const BatchEventList> BatchEventBuilder::finish() {
  R4NCL_CHECK(added_ == rows_ && rows_ > 0,
              "batch of " << rows_ << " rows finished after " << added_ << " rasters");
  BatchEventList& out = *out_;
  const std::size_t T = timesteps_, B = rows_, C = channels_;
  out.timesteps = T;
  out.batch = B;
  out.channels = C;
  out.unit_values = non_unit_rows_.empty();
  out.offsets.resize(T * B + 1);
  std::uint32_t cursor = 0;
  for (std::size_t r = 0; r < T * B; ++r) {
    out.offsets[r] = cursor;
    cursor += count_[r];
  }
  out.offsets[T * B] = cursor;
  out.channel.resize(cursor);
  for (std::size_t t = 0; t < T; ++t) {
    std::copy_n(channel_.get() + t * stride_, fill_[t], out.channel.data() + out.offsets[t * B]);
  }
  out.value.assign(cursor, 1.0f);
  for (const auto& [b, bits] : non_unit_rows_) {
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t e = out.row_begin(t, b); e < out.row_end(t, b); ++e) {
        out.value[e] = static_cast<float>(bits[t * C + out.channel[e]]);
      }
    }
  }
  return out_;
}

std::uint64_t batch_event_allocations() noexcept {
  return g_event_allocations.load(std::memory_order_relaxed);
}

BatchEventList events_from_aer(std::span<const AerRaster> samples) {
  BatchEventList out;
  if (samples.empty()) return out;
  out.timesteps = samples[0].timesteps;
  out.batch = samples.size();
  out.channels = samples[0].channels;
  const std::size_t rows = out.timesteps * out.batch;
  // Pass 1: events per (t, b) row → CSR offsets by exclusive prefix sum.
  std::vector<std::uint32_t> counts(rows, 0);
  for (std::size_t b = 0; b < samples.size(); ++b) {
    const AerRaster& aer = samples[b];
    R4NCL_CHECK(aer.timesteps == out.timesteps && aer.channels == out.channels,
                "AER batch samples must share geometry");
    aer_visit(aer, [&](std::size_t t, std::size_t) { ++counts[t * out.batch + b]; });
  }
  out.offsets.resize(rows + 1);
  std::uint32_t cursor = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    out.offsets[r] = cursor;
    cursor += counts[r];
  }
  out.offsets[rows] = cursor;
  out.channel.resize(cursor);
  out.value.assign(cursor, 1.0f);  // AER events are binary spikes
  // Pass 2: fill.  aer_visit yields (t, c) sorted ascending, so each row's
  // channels land ascending too.
  std::vector<std::uint32_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t b = 0; b < samples.size(); ++b) {
    aer_visit(samples[b], [&](std::size_t t, std::size_t c) {
      out.channel[fill[t * out.batch + b]++] = static_cast<std::uint32_t>(c);
    });
  }
  return out;
}

std::size_t aer_bytes(const data::SpikeRaster& raster) {
  // Encoding is cheap enough to just do; kept as a function for call sites
  // that only need the size.
  return aer_encode(raster).payload_bytes();
}

bool aer_is_smaller(const data::SpikeRaster& raster) {
  return aer_bytes(raster) < pack(raster).payload_bytes();
}

}  // namespace r4ncl::compress
