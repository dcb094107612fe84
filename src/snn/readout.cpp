#include "snn/readout.hpp"

#include <cmath>

#include "compress/aer.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

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

Tensor LeakyReadout::forward(const Tensor& x, SpikeOpStats* stats) const {
  R4NCL_CHECK(x.rank() == 3 && x.dim(2) == n_in_, "readout input shape mismatch");
  const std::size_t T = x.dim(0), B = x.dim(1);
  Tensor logits(B, n_classes_);
  Tensor v(B, n_classes_);
  Tensor current(B, n_classes_);
  const std::size_t bc = B * n_classes_;
  for (std::size_t t = 0; t < T; ++t) {
    kernels::matmul(x.slab(t).data(), B, n_in_, w_.raw(), n_classes_, current.raw(), false);
    float* vp = v.raw();
    const float* ip = current.raw();
    float* lp = logits.raw();
    for (std::size_t i = 0; i < bc; ++i) {
      vp[i] = beta_ * vp[i] + ip[i];
      lp[i] += vp[i];
    }
    if (stats != nullptr) {
      const std::size_t events = kernels::count_nonzero(x.slab(t).data(), B * n_in_);
      stats->synops += static_cast<std::uint64_t>(events) * n_classes_;
      stats->neuron_updates += bc;
      stats->timestep_slots += B;
    }
  }
  // Time-mean normalisation (see header): keeps the softmax temperature
  // independent of T.
  const float inv_t = 1.0f / static_cast<float>(T);
  for (auto& l : logits.values()) l *= inv_t;
  return logits;
}

void LeakyReadout::backward(const Tensor& x, const Tensor& d_logits, Tensor* d_in,
                            SpikeOpStats* stats, const compress::BatchEventList* x_events) {
  R4NCL_CHECK(x.rank() == 3 && x.dim(2) == n_in_, "readout input shape mismatch");
  const std::size_t T = x.dim(0), B = x.dim(1);
  R4NCL_CHECK(d_logits.rank() == 2 && d_logits.rows() == B && d_logits.cols() == n_classes_,
              "d_logits shape mismatch");
  if (d_in != nullptr) {
    R4NCL_CHECK(d_in->same_shape(x), "d_in shape mismatch");
  }
  compress::BatchEventList built;
  if (x_events == nullptr) {
    built = compress::events_from_batch(x);
    x_events = &built;
  }
  R4NCL_CHECK(x_events->timesteps == T && x_events->batch == B && x_events->channels == n_in_,
              "x_events does not describe x");
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
    kernels::csr_at_b_accum(x_events->offsets.data() + ti * B, x_events->channel.data(),
                            x_events->unit_values ? nullptr : x_events->value.data(), B, n_in_,
                            cp, n_classes_, d_w_.raw());
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
