#include "snn/readout.hpp"

#include <cmath>

#include "compress/aer.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace r4ncl::snn {

namespace {
constexpr std::uint32_t kReadoutTag = make_tag("RDOT");
}

LeakyReadout::LeakyReadout(std::size_t n_in, std::size_t n_classes, float beta, Rng& rng,
                           float gain)
    : n_in_(n_in), n_classes_(n_classes), beta_(beta), w_(n_in, n_classes),
      d_w_(n_in, n_classes) {
  R4NCL_CHECK(n_in > 0 && n_classes > 0, "readout dims must be positive");
  w_.fill_normal(rng, gain / std::sqrt(static_cast<float>(n_in)));
}

Tensor LeakyReadout::forward(const compress::BatchEventList& x, SpikeOpStats* stats) const {
  R4NCL_CHECK(x.channels == n_in_, "readout input shape mismatch");
  const std::size_t T = x.timesteps, B = x.batch, C = n_classes_;
  Tensor logits(B, C);
  Tensor v(B, C);
  Tensor current(B, C);
  // Rows are independent, so each runs its whole T-step trace on one thread;
  // every element sees the same op sequence at any thread count.
  const std::uint32_t* offs = x.offsets.data();
  const std::uint32_t* chan = x.channel.data();
  const float* val = x.value.data();
  const bool unit = x.unit_values;
  const float* w = w_.raw();
  const float beta = beta_;
  parallel_for(
      0, B,
      [&](std::size_t b) {
        float* crow = current.raw() + b * C;
        float* vrow = v.raw() + b * C;
        float* lrow = logits.raw() + b * C;
        for (std::size_t t = 0; t < T; ++t) {
          std::fill(crow, crow + C, 0.0f);
          const std::size_t lo = offs[t * B + b], hi = offs[t * B + b + 1];
          if (unit) {
            for (std::size_t e = lo; e < hi; ++e) {
              const float* wrow = w + chan[e] * C;
              for (std::size_t j = 0; j < C; ++j) crow[j] += wrow[j];
            }
          } else {
            for (std::size_t e = lo; e < hi; ++e) {
              const float av = val[e];
              const float* wrow = w + chan[e] * C;
              for (std::size_t j = 0; j < C; ++j) crow[j] += av * wrow[j];
            }
          }
          for (std::size_t j = 0; j < C; ++j) {
            vrow[j] = beta * vrow[j] + crow[j];
            lrow[j] += vrow[j];
          }
        }
      },
      T * C * 4);
  if (stats != nullptr) {
    stats->synops += static_cast<std::uint64_t>(x.num_events()) * C;
    stats->neuron_updates += static_cast<std::uint64_t>(T) * B * C;
    stats->timestep_slots += static_cast<std::uint64_t>(T) * B;
  }
  // Time-mean normalisation (see header): keeps the softmax temperature
  // independent of T.
  const float inv_t = 1.0f / static_cast<float>(T);
  for (auto& l : logits.values()) l *= inv_t;
  return logits;
}

Tensor LeakyReadout::forward(const Tensor& x, SpikeOpStats* stats) const {
  R4NCL_CHECK(x.rank() == 3 && x.dim(2) == n_in_, "readout input shape mismatch");
  return forward(compress::events_from_batch(x), stats);
}

void LeakyReadout::backward(const Tensor& x, const Tensor& d_logits, Tensor* d_in,
                            SpikeOpStats* stats, const compress::BatchEventList* x_events) {
  R4NCL_CHECK(x.rank() == 3 && x.dim(2) == n_in_, "readout input shape mismatch");
  if (x_events == nullptr) {
    backward(compress::events_from_batch(x), d_logits, d_in, stats);
    return;
  }
  R4NCL_CHECK(x_events->timesteps == x.dim(0) && x_events->batch == x.dim(1) &&
                  x_events->channels == n_in_,
              "x_events does not describe x");
  backward(*x_events, d_logits, d_in, stats);
}

void LeakyReadout::backward(const compress::BatchEventList& x, const Tensor& d_logits,
                            Tensor* d_in, SpikeOpStats* stats) {
  R4NCL_CHECK(x.channels == n_in_, "readout input shape mismatch");
  const std::size_t T = x.timesteps, B = x.batch;
  R4NCL_CHECK(d_logits.rank() == 2 && d_logits.rows() == B && d_logits.cols() == n_classes_,
              "d_logits shape mismatch");
  if (d_in != nullptr) {
    R4NCL_CHECK(d_in->rank() == 3 && d_in->dim(0) == T && d_in->dim(1) == B &&
                    d_in->dim(2) == n_in_,
                "d_in shape mismatch");
  }
  // Wᵀ once per call, so dX(t) = c(t)·Wᵀ runs as unit-stride row updates.
  std::vector<float> w_t(d_in != nullptr ? n_in_ * n_classes_ : 0);
  if (d_in != nullptr) kernels::transpose(w_.raw(), n_in_, n_classes_, w_t.data());
  // logits = (1/T)·Σ_t V(t) with V(t) = β V(t−1) + I(t)  ⇒
  // ∂L/∂I(t) = (1/T)·Σ_{t'≥t} β^{t'−t} ∂L/∂logits ≡ c(t), built backward:
  // c(T−1) = d_logits/T; c(t) = d_logits/T + β·c(t+1).
  Tensor c(B, n_classes_);
  const std::size_t bc = B * n_classes_;
  const float inv_t = 1.0f / static_cast<float>(T);
  std::uint64_t bwd_ops = 0;
  for (std::size_t ti = T; ti-- > 0;) {
    float* cp = c.raw();
    const float* gp = d_logits.raw();
    for (std::size_t i = 0; i < bc; ++i) cp[i] = gp[i] * inv_t + beta_ * cp[i];
    // dW += X(t)ᵀ·c(t), scattered from x's event list.
    kernels::csr_at_b_accum(x.offsets.data() + ti * B, x.channel.data(),
                            x.unit_values ? nullptr : x.value.data(), B, n_in_, cp, n_classes_,
                            d_w_.raw());
    bwd_ops += static_cast<std::uint64_t>(B) * n_in_ * n_classes_;
    if (d_in != nullptr) {
      kernels::matmul_dense(cp, B, n_classes_, w_t.data(), n_in_, d_in->slab(ti).data());
      bwd_ops += static_cast<std::uint64_t>(B) * n_in_ * n_classes_;
    }
  }
  if (stats != nullptr) stats->backward_synops += bwd_ops;
}

void LeakyReadout::zero_grad() { d_w_.zero(); }

void LeakyReadout::save(BinaryWriter& out) const {
  out.write_tag(kReadoutTag);
  out.write_u64(n_in_);
  out.write_u64(n_classes_);
  out.write_f32(beta_);
  out.write_f32_vector({w_.values().begin(), w_.values().end()});
}

void LeakyReadout::load(BinaryReader& in) {
  in.expect_tag(kReadoutTag);
  const std::size_t n_in = in.read_u64();
  const std::size_t n_classes = in.read_u64();
  R4NCL_CHECK(n_in == n_in_ && n_classes == n_classes_, "readout shape mismatch");
  beta_ = in.read_f32();
  const auto w = in.read_f32_vector();
  R4NCL_CHECK(w.size() == w_.size(), "readout weight size mismatch");
  std::copy(w.begin(), w.end(), w_.values().begin());
}

}  // namespace r4ncl::snn
