#include "snn/layer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace r4ncl::snn {

namespace {
constexpr std::uint32_t kLayerTag = make_tag("LAYR");

std::atomic<SparseForward> g_sparse_forward{SparseForward::kAuto};

/// Packs the spike indices forward_sparse recorded into the t-major CSR
/// event list of its output cube.  Batch row b's indices sit in
/// idx[b·T·N, …), timestep after timestep; count[t·B + b] is row (t, b)'s
/// spike count.
SpikeList pack_spike_rows(std::size_t T, std::size_t B, std::size_t N, const std::uint32_t* idx,
                          const std::vector<std::uint32_t>& count) {
  auto out = std::make_shared<compress::BatchEventList>();
  out->timesteps = T;
  out->batch = B;
  out->channels = N;
  const std::size_t rows = T * B;
  out->offsets.resize(rows + 1);
  std::uint32_t cursor = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    out->offsets[r] = cursor;
    cursor += count[r];
  }
  out->offsets[rows] = cursor;
  out->channel.resize(cursor);
  out->value.assign(cursor, 1.0f);
  // A copy of the spikes alone — too little work to be worth a dispatch.
  for (std::size_t b = 0; b < B; ++b) {
    const std::uint32_t* src = idx + b * T * N;
    for (std::size_t t = 0; t < T; ++t) {
      const std::uint32_t n = count[t * B + b];
      std::copy(src, src + n, out->channel.data() + out->offsets[t * B + b]);
      src += n;
    }
  }
  return out;
}
}  // namespace

SpikeList spike_list(const Tensor& x) {
  return std::make_shared<const compress::BatchEventList>(compress::events_from_batch(x));
}

void set_sparse_forward(SparseForward mode) noexcept {
  g_sparse_forward.store(mode, std::memory_order_relaxed);
}

SparseForward sparse_forward() noexcept {
  return g_sparse_forward.load(std::memory_order_relaxed);
}

RecurrentLifLayer::RecurrentLifLayer(std::size_t n_in, std::size_t n_out, const LifParams& lif,
                                     const SurrogateParams& surrogate, Rng& rng, float gain,
                                     float rec_gain)
    : n_in_(n_in),
      n_out_(n_out),
      lif_(lif),
      surrogate_(surrogate),
      w_ff_(n_in, n_out),
      w_rec_(lif.recurrent ? n_out : 0, lif.recurrent ? n_out : 0),
      d_w_ff_(n_in, n_out),
      d_w_rec_(lif.recurrent ? n_out : 0, lif.recurrent ? n_out : 0) {
  R4NCL_CHECK(n_in > 0 && n_out > 0, "layer dims must be positive");
  w_ff_.fill_normal(rng, gain / std::sqrt(static_cast<float>(n_in)));
  if (lif_.recurrent) {
    w_rec_.fill_normal(rng, rec_gain / std::sqrt(static_cast<float>(n_out)));
  }
}

bool RecurrentLifLayer::dense_kernels(SpikeMode mode) noexcept {
  return mode == SpikeMode::kSoft || sparse_forward() == SparseForward::kNever;
}

Tensor RecurrentLifLayer::forward(const Tensor& x, SpikeMode mode,
                                  const ThresholdPolicy& policy, LayerCache* cache,
                                  SpikeOpStats* stats, SpikeList x_events) const {
  R4NCL_CHECK(x.rank() == 3, "input must be (T × B × n_in)");
  R4NCL_CHECK(x.dim(2) == n_in_, "input feature dim " << x.dim(2) << " != " << n_in_);
  if (x_events != nullptr) {
    R4NCL_CHECK(x_events->timesteps == x.dim(0) && x_events->batch == x.dim(1) &&
                    x_events->channels == n_in_,
                "x_events does not describe x");
  }
  // Hard mode goes event-driven from x's list (one scan of x when the caller
  // has none).  Soft mode (gradcheck) keeps the dense kernels.  A caching
  // pass needs both lists either way: backward scatters from them.
  Tensor out;
  SpikeList out_events;
  if (dense_kernels(mode)) {
    out = forward_dense(x, mode, policy, cache, stats);
    if (cache != nullptr) out_events = spike_list(out);
  } else {
    if (x_events == nullptr) x_events = spike_list(x);
    out = Tensor(x.dim(0), x.dim(1), n_out_);
    out_events = forward_sparse(*x_events, policy, cache, stats, &out);
  }
  if (cache != nullptr) {
    cache->in_events = x_events != nullptr ? std::move(x_events) : spike_list(x);
    cache->out_events = std::move(out_events);
  }
  return out;
}

SpikeList RecurrentLifLayer::forward(SpikeList x, SpikeMode mode, const ThresholdPolicy& policy,
                                     LayerCache* cache, SpikeOpStats* stats) const {
  R4NCL_CHECK(x != nullptr, "forward needs an input event list");
  R4NCL_CHECK(x->channels == n_in_, "input feature dim " << x->channels << " != " << n_in_);
  SpikeList out = dense_kernels(mode)
                      ? spike_list(forward_dense(compress::batch_from_events(*x), mode, policy,
                                                cache, stats))
                      : forward_sparse(*x, policy, cache, stats, nullptr);
  if (cache != nullptr) {
    cache->in_events = std::move(x);
    cache->out_events = out;
  }
  return out;
}

Tensor RecurrentLifLayer::forward_events(const compress::BatchEventList& events, SpikeMode mode,
                                         const ThresholdPolicy& policy,
                                         SpikeOpStats* stats) const {
  R4NCL_CHECK(mode == SpikeMode::kHard, "event-driven forward is hard-mode only");
  R4NCL_CHECK(events.channels == n_in_,
              "event-list channel count " << events.channels << " != " << n_in_);
  Tensor out(events.timesteps, events.batch, n_out_);
  (void)forward_sparse(events, policy, nullptr, stats, &out);
  return out;
}

SpikeList RecurrentLifLayer::forward_sparse(const compress::BatchEventList& events,
                                            const ThresholdPolicy& policy, LayerCache* cache,
                                            SpikeOpStats* stats, Tensor* dense_out) const {
  const std::size_t T = events.timesteps, B = events.batch;
  Tensor v(B, n_out_);        // current membrane
  Tensor s(B, n_out_);        // S(t−1), overwritten in place by S(t)
  Tensor current(B, n_out_);  // I(t)
  const bool record = cache != nullptr;
  if (record) {
    cache->membrane = Tensor(T, B, n_out_);
    cache->theta.assign(T, policy.fixed_value);
  }

  ThresholdState th(policy);
  float theta_prev = policy.fixed_value;
  const std::size_t bn = B * n_out_;

  // Each row records its spike indices while it computes them: row b
  // appends every step's indices to its own T·N slice, so the previous
  // step's indices are the recurrent *events* of this one (hard-mode spikes
  // are exactly 1.0f, and the indices are ascending — the dense kernel's
  // accumulation order), and at the end the slices pack into the output
  // list.  step_count[t·B + b] is row (t, b)'s spike count.
  const std::size_t slice = T * n_out_;
  const auto spike_idx = std::make_unique_for_overwrite<std::uint32_t[]>(B * slice);
  std::vector<std::uint32_t> step_count(T * B);

  // Everything the inner loops touch is hoisted into locals: member and
  // vector accesses through `this`/`events` would otherwise defeat the
  // auto-vectorizer (a float store could alias lif_.beta).
  const std::size_t N = n_out_;
  const float beta = lif_.beta;
  const bool recurrent = lif_.recurrent;
  const float* wff = w_ff_.raw();
  const float* wrec = recurrent ? w_rec_.raw() : nullptr;
  const std::uint32_t* offs = events.offsets.data();
  const std::uint32_t* chan = events.channel.data();
  const float* val = events.value.data();
  const bool unit = events.unit_values;
  float* outp = dense_out != nullptr ? dense_out->raw() : nullptr;

  // Fixed threshold: θ(t) never depends on the batch's spike counts, so the
  // rows are fully independent — each batch row runs its entire T-step
  // sequence on one thread (one parallel dispatch per pass instead of one
  // per timestep, and row state stays hot in cache).  The per-(b, t) FP op
  // sequence is exactly the per-timestep loop below, so the output is
  // bit-identical to it (and to the dense kernel) at any thread count.
  if (policy.mode == ThresholdMode::kFixed) {
    const float theta = policy.fixed_value;
    float* cmem = record ? cache->membrane.raw() : nullptr;
    std::uint32_t* counts = step_count.data();
    std::vector<std::size_t> row_total(B, 0);  // spikes over all T
    std::vector<std::size_t> row_last(B, 0);   // spikes at t = T−1
    parallel_for(
        0, B,
        [&](std::size_t b) {
          float* vrow = v.raw() + b * N;
          float* srow = s.raw() + b * N;
          float* crow = current.raw() + b * N;
          std::uint32_t* row_idx = spike_idx.get() + b * slice;
          const std::uint32_t* prev_idx = row_idx;  // S(t−1)'s spike indices
          std::uint32_t rn = 0;
          std::size_t total = 0, last = 0;
          for (std::size_t t = 0; t < T; ++t) {
            std::fill(crow, crow + N, 0.0f);
            const std::size_t lo = offs[t * B + b], hi = offs[t * B + b + 1];
            if (unit) {
              for (std::size_t e = lo; e < hi; ++e) {
                const float* wrow = wff + chan[e] * N;
                for (std::size_t j = 0; j < N; ++j) crow[j] += wrow[j];
              }
            } else {
              for (std::size_t e = lo; e < hi; ++e) {
                const float av = val[e];
                const float* wrow = wff + chan[e] * N;
                for (std::size_t j = 0; j < N; ++j) crow[j] += av * wrow[j];
              }
            }
            if (recurrent && t > 0) {
              for (std::uint32_t e = 0; e < rn; ++e) {
                const float* wrow = wrec + prev_idx[e] * N;
                for (std::size_t j = 0; j < N; ++j) crow[j] += wrow[j];
              }
            }
            // Membrane update + spike emission, branch-free over j so it
            // vectorizes; the select equals hard_spike(vt − θ) exactly.
            // srow holds S(t−1) on entry and S(t) on exit.
            for (std::size_t j = 0; j < N; ++j) {
              const float vt = beta * vrow[j] - theta * srow[j] + crow[j];
              vrow[j] = vt;
              srow[j] = vt - theta > 0.0f ? 1.0f : 0.0f;
            }
            if (outp != nullptr) std::copy(srow, srow + N, outp + (t * B + b) * N);
            // Spike-index scan, kept out of the arithmetic loop above so its
            // data-dependent branch cannot block vectorization.
            std::uint32_t* cur_idx = row_idx + total;
            std::uint32_t count = 0;
            for (std::size_t j = 0; j < N; ++j) {
              if (srow[j] != 0.0f) cur_idx[count++] = static_cast<std::uint32_t>(j);
            }
            prev_idx = cur_idx;
            rn = count;
            total += count;
            if (t + 1 == T) last = count;
            counts[t * B + b] = count;
            if (record) std::copy(vrow, vrow + N, cmem + (t * B + b) * N);
          }
          row_total[b] = total;
          row_last[b] = last;
        },
        T * n_out_ * 4);
    if (stats != nullptr) {
      // Fixed-order reduction over rows (integer sums, but keep row order
      // anyway).  ff synops = every event × n_out; recurrent synops at step
      // t charge the spikes of step t−1, i.e. all spikes except t = T−1's.
      std::size_t spike_total = 0, rec_events = 0;
      for (std::size_t b = 0; b < B; ++b) {
        spike_total += row_total[b];
        rec_events += row_total[b] - row_last[b];
      }
      stats->synops += static_cast<std::uint64_t>(events.num_events()) * n_out_;
      if (lif_.recurrent) {
        stats->synops += static_cast<std::uint64_t>(rec_events) * n_out_;
      }
      stats->neuron_updates += static_cast<std::uint64_t>(T) * bn;
      stats->spikes += spike_total;
      stats->timestep_slots += static_cast<std::uint64_t>(T) * B;
    }
    return pack_spike_rows(T, B, N, spike_idx.get(), step_count);
  }

  // Per row: the previous step's spike count and the number of indices
  // recorded so far (the previous step's indices end there).
  std::vector<std::uint32_t> rec_len(B, 0);
  std::vector<std::size_t> row_fill(B, 0);
  std::vector<std::size_t> row_spikes(B, 0);
  std::size_t prev_spike_total = 0;  // spikes at t−1 = this step's recurrent events

  for (std::size_t t = 0; t < T; ++t) {
    const float theta_t = th.threshold_at(static_cast<int>(t));

    // Per batch row: event-driven I(t), membrane update, spike emission and
    // next-step recurrent event recording.  Rows write disjoint slices, so
    // any thread count produces identical bits; the per-row grain keeps tiny
    // layers serial (parallel_for's 2048-element floor).
    parallel_for(
        0, B,
        [&](std::size_t b) {
          // Locals, as in the fixed-threshold path: float stores through
          // the row pointers could otherwise alias the operands.
          const float th_prev = theta_prev, th_t = theta_t;
          float* crow = current.raw() + b * N;
          std::fill(crow, crow + N, 0.0f);
          // I(t) = X(t)·W_ff: accumulate the weight row of every active
          // input channel, ascending — bit-identical to kernels::matmul's
          // zero-skipping k loop over the dense slab.
          const std::size_t lo = offs[t * B + b], hi = offs[t * B + b + 1];
          if (unit) {
            for (std::size_t e = lo; e < hi; ++e) {
              const float* wrow = wff + chan[e] * N;
              for (std::size_t j = 0; j < N; ++j) crow[j] += wrow[j];
            }
          } else {
            for (std::size_t e = lo; e < hi; ++e) {
              const float av = val[e];
              const float* wrow = wff + chan[e] * N;
              for (std::size_t j = 0; j < N; ++j) crow[j] += av * wrow[j];
            }
          }
          std::uint32_t* row_idx = spike_idx.get() + b * slice;
          const std::size_t fill = row_fill[b];
          // I(t) += S(t−1)·W_rec over last step's recorded spike indices.
          if (recurrent && t > 0) {
            const std::uint32_t* ridx = row_idx + (fill - rec_len[b]);
            const std::uint32_t rn = rec_len[b];
            for (std::uint32_t e = 0; e < rn; ++e) {
              const float* wrow = wrec + ridx[e] * N;
              for (std::size_t j = 0; j < N; ++j) crow[j] += wrow[j];
            }
          }
          // V(t) = β·V(t−1) − θ(t−1)·S(t−1) + I(t);  S(t) = Θ(V(t) − θ(t)),
          // branch-free so it vectorizes; the select equals hard_spike
          // exactly.  srow holds S(t−1) on entry and S(t) on exit; the
          // spike-index scan runs as a separate loop.
          float* vrow = v.raw() + b * N;
          float* srow = s.raw() + b * N;
          for (std::size_t j = 0; j < N; ++j) {
            const float vt = beta * vrow[j] - th_prev * srow[j] + crow[j];
            vrow[j] = vt;
            srow[j] = vt - th_t > 0.0f ? 1.0f : 0.0f;
          }
          if (outp != nullptr) std::copy(srow, srow + N, outp + (t * B + b) * N);
          std::uint32_t* ridx_out = row_idx + fill;
          std::uint32_t count = 0;
          for (std::size_t j = 0; j < N; ++j) {
            if (srow[j] != 0.0f) ridx_out[count++] = static_cast<std::uint32_t>(j);
          }
          rec_len[b] = count;
          row_fill[b] += count;
          step_count[t * B + b] = count;
          row_spikes[b] = count;
        },
        n_out_ * 4);

    // Fixed-order reduction of the per-row spike counts (row 0 first) keeps
    // the adaptive-threshold observation identical across thread counts.
    std::size_t spike_count = 0;
    for (std::size_t b = 0; b < B; ++b) spike_count += row_spikes[b];
    th.observe(static_cast<int>(t), spike_count);

    if (record) {
      std::copy(v.raw(), v.raw() + bn, cache->membrane.slab(t).data());
      cache->theta[t] = theta_t;
    }
    if (stats != nullptr) {
      // Synop stats fall straight out of the event list — the counts the
      // dense path re-derived with a count_nonzero rescan of every slab.
      stats->synops += static_cast<std::uint64_t>(events.events_in_timestep(t)) * n_out_;
      if (lif_.recurrent && t > 0) {
        stats->synops += static_cast<std::uint64_t>(prev_spike_total) * n_out_;
      }
      stats->neuron_updates += bn;
      stats->spikes += spike_count;
      stats->timestep_slots += B;
    }

    theta_prev = theta_t;
    prev_spike_total = spike_count;
  }
  return pack_spike_rows(T, B, n_out_, spike_idx.get(), step_count);
}

Tensor RecurrentLifLayer::forward_dense(const Tensor& x, SpikeMode mode,
                                        const ThresholdPolicy& policy, LayerCache* cache,
                                        SpikeOpStats* stats) const {
  const std::size_t T = x.dim(0), B = x.dim(1);

  Tensor out(T, B, n_out_);
  Tensor v(B, n_out_);        // current membrane
  Tensor prev_s(B, n_out_);   // S(t−1)
  Tensor current(B, n_out_);  // I(t)
  if (cache != nullptr) {
    cache->membrane = Tensor(T, B, n_out_);
    cache->theta.assign(T, policy.fixed_value);
  }

  ThresholdState th(policy);
  float theta_prev = policy.fixed_value;  // θ used for the (empty) step −1 reset
  const std::size_t bn = B * n_out_;

  for (std::size_t t = 0; t < T; ++t) {
    const float theta_t = th.threshold_at(static_cast<int>(t));

    // I(t) = X(t)·W_ff (+ S(t−1)·W_rec)
    kernels::matmul(x.slab(t).data(), B, n_in_, w_ff_.raw(), n_out_, current.raw(), false);
    if (lif_.recurrent && t > 0) {
      kernels::matmul(prev_s.raw(), B, n_out_, w_rec_.raw(), n_out_, current.raw(), true);
    }

    // V(t) = β·V(t−1) − θ(t−1)·S(t−1) + I(t);  S(t) = spike(V(t) − θ(t))
    float* vp = v.raw();
    const float* ip = current.raw();
    const float* sp_prev = prev_s.raw();
    float* sp_out = out.slab(t).data();
    std::size_t spike_count = 0;
    for (std::size_t i = 0; i < bn; ++i) {
      const float vt = lif_.beta * vp[i] - theta_prev * sp_prev[i] + ip[i];
      vp[i] = vt;
      const float u = vt - theta_t;
      const float s = mode == SpikeMode::kHard ? hard_spike(u) : soft_spike(u, surrogate_);
      sp_out[i] = s;
      if (s != 0.0f) ++spike_count;
    }
    th.observe(static_cast<int>(t), spike_count);

    if (cache != nullptr) {
      std::copy(vp, vp + bn, cache->membrane.slab(t).data());
      cache->theta[t] = theta_t;
    }
    if (stats != nullptr) {
      const std::size_t in_events = kernels::count_nonzero(x.slab(t).data(), B * n_in_);
      stats->synops += static_cast<std::uint64_t>(in_events) * n_out_;
      if (lif_.recurrent && t > 0) {
        const std::size_t rec_events = kernels::count_nonzero(sp_prev, bn);
        stats->synops += static_cast<std::uint64_t>(rec_events) * n_out_;
      }
      stats->neuron_updates += bn;
      stats->spikes += spike_count;
      stats->timestep_slots += B;
    }

    std::copy(sp_out, sp_out + bn, prev_s.raw());
    theta_prev = theta_t;
  }
  return out;
}

void RecurrentLifLayer::backward(const Tensor& x, const LayerCache& cache, const Tensor& d_out,
                                 Tensor* d_in, SpikeOpStats* stats) {
  R4NCL_CHECK(x.rank() == 3 && d_out.rank() == 3, "x and d_out must be 3-D");
  R4NCL_CHECK(d_out.dim(0) == x.dim(0) && d_out.dim(1) == x.dim(1), "d_out shape mismatch");
  backward(cache, d_out, d_in, stats);
}

void RecurrentLifLayer::backward(const LayerCache& cache, const Tensor& d_out, Tensor* d_in,
                                 SpikeOpStats* stats) {
  R4NCL_CHECK(d_out.rank() == 3 && d_out.dim(2) == n_out_, "d_out shape mismatch");
  const std::size_t T = d_out.dim(0), B = d_out.dim(1), N = n_out_;
  R4NCL_CHECK(cache.membrane.rank() == 3 && cache.membrane.dim(0) == T,
              "cache does not match this pass");
  R4NCL_CHECK(cache.membrane.dim(1) == B && cache.membrane.dim(2) == N,
              "cache batch " << cache.membrane.dim(1) << " != input batch " << B);
  R4NCL_CHECK(cache.theta.size() == T,
              "cache holds " << cache.theta.size() << " thresholds for " << T << " timesteps");
  const auto matches = [&](const SpikeList& ev, std::size_t channels) {
    return ev != nullptr && ev->timesteps == T && ev->batch == B && ev->channels == channels;
  };
  R4NCL_CHECK(matches(cache.in_events, n_in_), "cached input events do not match x");
  R4NCL_CHECK(matches(cache.out_events, N), "cached output events do not match d_out");
  if (d_in != nullptr) {
    R4NCL_CHECK(d_in->rank() == 3 && d_in->dim(0) == T && d_in->dim(1) == B &&
                    d_in->dim(2) == n_in_,
                "d_in shape mismatch");
  }
  const compress::BatchEventList& in_ev = *cache.in_events;
  const compress::BatchEventList& out_ev = *cache.out_events;

  // Wᵀ once per call: dX = dV·W_ffᵀ and dS_rec = dV·W_recᵀ become
  // unit-stride row updates over these copies (see file comment).
  std::vector<float> w_ff_t(d_in != nullptr ? n_in_ * N : 0);
  if (d_in != nullptr) kernels::transpose(w_ff_.raw(), n_in_, N, w_ff_t.data());
  std::vector<float> w_rec_t(lif_.recurrent && T > 1 ? N * N : 0);
  if (!w_rec_t.empty()) kernels::transpose(w_rec_.raw(), N, N, w_rec_t.data());

  Tensor d_v(B, N);       // ∂L/∂V(t+1), carried across iterations
  Tensor d_s_rec(B, N);   // recurrent + reset contribution to ∂L/∂S(t)
  Tensor d_s_total(B, N); // scratch
  std::uint64_t bwd_ops = 0;

  for (std::size_t ti = T; ti-- > 0;) {
    // ∂L/∂S(t) = upstream + contributions propagated from step t+1, then
    // ∂L/∂V(t) = ∂L/∂S(t)·Θ′(u) + β·∂L/∂V(t+1).  Both are elementwise, so
    // batch rows write disjoint slices — bit-identical at any thread count.
    const float* up = d_out.slab(ti).data();
    const float* rec = d_s_rec.raw();
    float* ds = d_s_total.raw();
    const float* vcache = cache.membrane.slab(ti).data();
    const float theta_t = cache.theta[ti];
    float* dv = d_v.raw();
    parallel_for(
        0, B,
        [&](std::size_t b) {
          const std::size_t lo = b * N, hi = lo + N;
          for (std::size_t i = lo; i < hi; ++i) ds[i] = up[i] + rec[i];
          for (std::size_t i = lo; i < hi; ++i) {
            const float u = vcache[i] - theta_t;
            dv[i] = ds[i] * surrogate_grad(u, surrogate_) + lif_.beta * dv[i];
          }
        },
        N * 2);

    // Weight gradients, scattered from the cached event lists:
    // dW_ff += X(t)ᵀ·dV(t); dW_rec += S(t−1)ᵀ·dV(t).  backward_synops keeps
    // charging the dense B·n_in·n_out model per term.
    kernels::csr_at_b_accum(in_ev.offsets.data() + ti * B, in_ev.channel.data(),
                            in_ev.unit_values ? nullptr : in_ev.value.data(), B, n_in_, dv, N,
                            d_w_ff_.raw());
    bwd_ops += static_cast<std::uint64_t>(B) * n_in_ * N;
    if (lif_.recurrent && ti > 0) {
      kernels::csr_at_b_accum(out_ev.offsets.data() + (ti - 1) * B, out_ev.channel.data(),
                              out_ev.unit_values ? nullptr : out_ev.value.data(), B, N, dv, N,
                              d_w_rec_.raw());
      bwd_ops += static_cast<std::uint64_t>(B) * N * N;
    }

    // Input gradient: dX(t) = dV(t)·W_ffᵀ.
    if (d_in != nullptr) {
      kernels::matmul_dense(dv, B, N, w_ff_t.data(), n_in_, d_in->slab(ti).data());
      bwd_ops += static_cast<std::uint64_t>(B) * n_in_ * N;
    }

    // Contribution to ∂L/∂S(t−1): through W_rec and (optionally) the reset.
    if (ti > 0) {
      if (lif_.recurrent) {
        kernels::matmul_dense(dv, B, N, w_rec_t.data(), N, d_s_rec.raw());
        bwd_ops += static_cast<std::uint64_t>(B) * N * N;
      } else {
        d_s_rec.zero();
      }
      if (!lif_.detach_reset) {
        // V(t) contains −θ(t−1)·S(t−1).
        const float theta_prev = cache.theta[ti - 1];
        float* dsr = d_s_rec.raw();
        parallel_for(
            0, B,
            [&](std::size_t b) {
              const std::size_t lo = b * N, hi = lo + N;
              for (std::size_t i = lo; i < hi; ++i) dsr[i] -= theta_prev * dv[i];
            },
            N);
      }
    }
  }
  if (stats != nullptr) stats->backward_synops += bwd_ops;
}

void RecurrentLifLayer::zero_grad() {
  d_w_ff_.zero();
  if (lif_.recurrent) d_w_rec_.zero();
}

void RecurrentLifLayer::save(BinaryWriter& out) const {
  out.write_tag(kLayerTag);
  out.write_u64(n_in_);
  out.write_u64(n_out_);
  out.write_f32(lif_.beta);
  out.write_u32(lif_.detach_reset ? 1 : 0);
  out.write_u32(lif_.recurrent ? 1 : 0);
  out.write_u32(static_cast<std::uint32_t>(surrogate_.kind));
  out.write_f32(surrogate_.scale);
  out.write_f32_vector({w_ff_.values().begin(), w_ff_.values().end()});
  out.write_f32_vector({w_rec_.values().begin(), w_rec_.values().end()});
}

void RecurrentLifLayer::load(BinaryReader& in) {
  in.expect_tag(kLayerTag);
  const std::size_t n_in = in.read_u64();
  const std::size_t n_out = in.read_u64();
  R4NCL_CHECK(n_in == n_in_ && n_out == n_out_,
              "checkpoint layer is " << n_in << "x" << n_out << ", expected " << n_in_ << "x"
                                     << n_out_);
  lif_.beta = in.read_f32();
  lif_.detach_reset = in.read_u32() != 0;
  const bool recurrent = in.read_u32() != 0;
  R4NCL_CHECK(recurrent == lif_.recurrent, "checkpoint recurrence mismatch");
  surrogate_.kind = static_cast<SurrogateKind>(in.read_u32());
  surrogate_.scale = in.read_f32();
  const auto ff = in.read_f32_vector();
  R4NCL_CHECK(ff.size() == w_ff_.size(), "w_ff size mismatch");
  std::copy(ff.begin(), ff.end(), w_ff_.values().begin());
  const auto rec = in.read_f32_vector();
  R4NCL_CHECK(rec.size() == w_rec_.size(), "w_rec size mismatch");
  std::copy(rec.begin(), rec.end(), w_rec_.values().begin());
}

}  // namespace r4ncl::snn
