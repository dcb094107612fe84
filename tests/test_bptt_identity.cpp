// Bit-identity oracle for the BPTT backward.
//
// The reference below is the dense backward formulation the event-indexed
// kernels replaced, kept verbatim as test-local code: weight gradients as
// Xᵀ·dV over the dense cube (ref_matmul_at_b_accum, one column scan per
// input channel) and input/recurrent gradients as dependent dot products
// dV·Wᵀ (ref_matmul_a_bt).  Every gradient, every weight and Adam moment
// after training, and SpikeOpStats::backward_synops must match it bit for
// bit across the recurrent × detach_reset × threshold × spike-mode × input
// value matrix, at several batch sizes and at threads 1 and 4.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "compress/aer.hpp"
#include "snn/layer.hpp"
#include "snn/network.hpp"
#include "snn/optimizer.hpp"
#include "snn/readout.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace r4ncl {
namespace {

// ---- Reference kernels (the pre-event-list backward) ----------------------

/// c[k×n] += aᵀ[k×m] · b[m×n] (a given as m×k): per input channel, a scan
/// of the dense column skipping zeros.
void ref_matmul_at_b_accum(const float* a, std::size_t m, std::size_t k, const float* b,
                           std::size_t n, float* c) {
  parallel_for(
      0, k,
      [&](std::size_t kk) {
        float* crow = c + kk * n;
        for (std::size_t i = 0; i < m; ++i) {
          const float av = a[i * k + kk];
          if (av == 0.0f) continue;
          const float* brow = b + i * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      },
      m * n);
}

/// c[m×k] = a[m×n] · bᵀ[n×k] (b given as k×n): one dependent dot product
/// per output element.
void ref_matmul_a_bt(const float* a, std::size_t m, std::size_t n, const float* b,
                     std::size_t k, float* c) {
  parallel_for(
      0, m,
      [&](std::size_t i) {
        const float* arow = a + i * n;
        float* crow = c + i * k;
        for (std::size_t j = 0; j < k; ++j) {
          const float* brow = b + j * n;
          float acc = 0.0f;
          for (std::size_t t = 0; t < n; ++t) acc += arow[t] * brow[t];
          crow[j] = acc;
        }
      },
      n * k);
}

/// The dense RecurrentLifLayer backward.  `spikes` is the forward's output
/// cube S; gradients accumulate into grad_ff / grad_rec.
std::uint64_t ref_layer_backward(const snn::RecurrentLifLayer& layer, const Tensor& x,
                                 const Tensor& membrane, const Tensor& spikes,
                                 const std::vector<float>& theta, const Tensor& d_out,
                                 Tensor* d_in, Tensor& grad_ff, Tensor& grad_rec) {
  const std::size_t T = x.dim(0), B = x.dim(1);
  const std::size_t n_in = layer.n_in(), n_out = layer.n_out();
  const snn::LifParams& lif = layer.lif();
  Tensor d_v(B, n_out), d_s_rec(B, n_out), d_s_total(B, n_out);
  std::uint64_t bwd_ops = 0;
  for (std::size_t ti = T; ti-- > 0;) {
    const float* up = d_out.slab(ti).data();
    const float* vcache = membrane.slab(ti).data();
    float* ds = d_s_total.raw();
    float* dv = d_v.raw();
    for (std::size_t i = 0; i < B * n_out; ++i) ds[i] = up[i] + d_s_rec(i);
    for (std::size_t i = 0; i < B * n_out; ++i) {
      const float u = vcache[i] - theta[ti];
      dv[i] = ds[i] * snn::surrogate_grad(u, layer.surrogate()) + lif.beta * dv[i];
    }
    ref_matmul_at_b_accum(x.slab(ti).data(), B, n_in, dv, n_out, grad_ff.raw());
    bwd_ops += static_cast<std::uint64_t>(B) * n_in * n_out;
    if (lif.recurrent && ti > 0) {
      ref_matmul_at_b_accum(spikes.slab(ti - 1).data(), B, n_out, dv, n_out, grad_rec.raw());
      bwd_ops += static_cast<std::uint64_t>(B) * n_out * n_out;
    }
    if (d_in != nullptr) {
      ref_matmul_a_bt(dv, B, n_out, layer.w_ff().raw(), n_in, d_in->slab(ti).data());
      bwd_ops += static_cast<std::uint64_t>(B) * n_in * n_out;
    }
    if (ti > 0) {
      if (lif.recurrent) {
        ref_matmul_a_bt(dv, B, n_out, layer.w_rec().raw(), n_out, d_s_rec.raw());
        bwd_ops += static_cast<std::uint64_t>(B) * n_out * n_out;
      } else {
        d_s_rec.zero();
      }
      if (!lif.detach_reset) {
        for (std::size_t i = 0; i < B * n_out; ++i) d_s_rec(i) -= theta[ti - 1] * dv[i];
      }
    }
  }
  return bwd_ops;
}

/// The dense LeakyReadout backward.
std::uint64_t ref_readout_backward(const snn::LeakyReadout& ro, const Tensor& x,
                                   const Tensor& d_logits, Tensor* d_in, Tensor& grad_w) {
  const std::size_t T = x.dim(0), B = x.dim(1);
  const std::size_t n_in = ro.n_in(), nc = ro.n_classes();
  Tensor c(B, nc);
  const float inv_t = 1.0f / static_cast<float>(T);
  std::uint64_t bwd_ops = 0;
  for (std::size_t ti = T; ti-- > 0;) {
    for (std::size_t i = 0; i < B * nc; ++i) c(i) = d_logits(i) * inv_t + ro.beta() * c(i);
    ref_matmul_at_b_accum(x.slab(ti).data(), B, n_in, c.raw(), nc, grad_w.raw());
    bwd_ops += static_cast<std::uint64_t>(B) * n_in * nc;
    if (d_in != nullptr) {
      ref_matmul_a_bt(c.raw(), B, nc, ro.w().raw(), n_in, d_in->slab(ti).data());
      bwd_ops += static_cast<std::uint64_t>(B) * n_in * nc;
    }
  }
  return bwd_ops;
}

// ---- Helpers ---------------------------------------------------------------

bool same_bits(const Tensor& a, const Tensor& b) {
  // Empty tensors (w_rec without recurrence) have null data(); memcmp must
  // not see them.
  return a.same_shape(b) &&
         (a.size() == 0 ||
          std::memcmp(a.values().data(), b.values().data(), a.size() * sizeof(float)) == 0);
}

bool any_nonzero(const Tensor& t) {
  for (const float v : t.values()) {
    if (v != 0.0f) return true;
  }
  return false;
}

/// Restores the worker count on scope exit.
struct ThreadGuard {
  int saved = num_threads();
  ~ThreadGuard() { set_num_threads(saved); }
};

/// (T × B × C) input: timestep 1 all zero, timestep 2 all active, the rest
/// random at `density`.  Unit inputs are spikes (1.0f); non-unit inputs mix
/// spike counts and fractional values, as dequantized latents carry.
Tensor make_input(std::size_t T, std::size_t B, std::size_t C, double density, bool unit,
                  std::uint64_t seed) {
  Tensor x(T, B, C);
  Rng rng(seed);
  const auto value = [&] {
    return unit ? 1.0f : static_cast<float>(rng.uniform_index(4) + 1) * 0.75f;
  };
  for (std::size_t t = 0; t < T; ++t) {
    for (std::size_t i = 0; i < B * C; ++i) {
      float v = 0.0f;
      if (t == 2 || (t != 1 && rng.bernoulli(density))) v = value();
      x.slab(t)[i] = v;
    }
  }
  return x;
}

Tensor random_tensor(std::size_t rows, std::size_t cols, double scale, std::uint64_t seed) {
  Tensor t(rows, cols);
  Rng rng(seed);
  for (auto& v : t.values()) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

// ---- Layer + readout matrix ------------------------------------------------

// (recurrent, detach_reset, adaptive threshold, soft mode, unit inputs)
using MatrixParam = std::tuple<bool, bool, bool, bool, bool>;

class BpttIdentityMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(BpttIdentityMatrix, GradientsMatchDenseReference) {
  const auto [recurrent, detach, adaptive, soft, unit] = GetParam();
  constexpr std::size_t T = 9, C = 40, N = 24, K = 5;
  const snn::SpikeMode mode = soft ? snn::SpikeMode::kSoft : snn::SpikeMode::kHard;
  const auto policy = adaptive ? snn::ThresholdPolicy::adaptive(static_cast<int>(T), 0.8f, 2,
                                                                0.05f, 0.01f)
                               : snn::ThresholdPolicy::fixed(0.8f);
  snn::LifParams lif;
  lif.recurrent = recurrent;
  lif.detach_reset = detach;
  ThreadGuard guard;
  for (const std::size_t B : {std::size_t{1}, std::size_t{7}, std::size_t{16}}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(testing::Message() << "B=" << B << " threads=" << threads);
      set_num_threads(threads);
      Rng rng(900 + B);
      const snn::RecurrentLifLayer base(C, N, lif, snn::SurrogateParams{}, rng, 2.0f, 0.8f);
      const snn::LeakyReadout ro_base(N, K, 0.9f, rng, 1.5f);
      const Tensor x = make_input(T, B, C, 0.15, unit, 77 + B);
      const Tensor d_logits = random_tensor(B, K, 1.0, 5 + B);

      // Library path: forward with cache, readout, event-indexed backward.
      snn::RecurrentLifLayer layer = base;
      snn::LeakyReadout ro = ro_base;
      snn::LayerCache cache;
      snn::SpikeOpStats stats;
      const Tensor s = layer.forward(x, mode, policy, &cache, &stats);
      (void)ro.forward(s, &stats);
      const snn::SpikeOpStats fwd_stats = stats;
      Tensor d_s(T, B, N), d_in(T, B, C);
      ro.backward(s, d_logits, &d_s, &stats, cache.out_events.get());
      layer.backward(x, cache, d_s, &d_in, &stats);

      // Dense reference on copies of the same weights.
      Tensor ref_ro_grad(N, K), ref_ff(C, N), ref_rec(recurrent ? N : 0, recurrent ? N : 0);
      Tensor ref_d_s(T, B, N), ref_d_in(T, B, C);
      std::uint64_t ref_ops = ref_readout_backward(ro_base, s, d_logits, &ref_d_s, ref_ro_grad);
      ref_ops += ref_layer_backward(base, x, cache.membrane, s, cache.theta, ref_d_s, &ref_d_in,
                                    ref_ff, ref_rec);

      EXPECT_TRUE(same_bits(ro.grad_w(), ref_ro_grad));
      EXPECT_TRUE(same_bits(d_s, ref_d_s));
      EXPECT_TRUE(same_bits(layer.grad_w_ff(), ref_ff));
      EXPECT_TRUE(same_bits(layer.grad_w_rec(), ref_rec));
      EXPECT_TRUE(same_bits(d_in, ref_d_in));
      EXPECT_TRUE(any_nonzero(ref_ff) && any_nonzero(ref_d_in));

      // backward_synops charges the dense model B·n_in·n_out per gradient
      // term, whatever the spike counts; the forward counters are untouched.
      const std::uint64_t dense_ff = static_cast<std::uint64_t>(T) * B * C * N;
      const std::uint64_t dense_rec =
          recurrent ? 2 * static_cast<std::uint64_t>(T - 1) * B * N * N : 0;
      const std::uint64_t dense_ro = 2 * static_cast<std::uint64_t>(T) * B * N * K;
      EXPECT_EQ(stats.backward_synops, ref_ops);
      EXPECT_EQ(stats.backward_synops, 2 * dense_ff + dense_rec + dense_ro);
      EXPECT_EQ(stats.synops, fwd_stats.synops);
      EXPECT_EQ(stats.spikes, fwd_stats.spikes);
      EXPECT_EQ(stats.neuron_updates, fwd_stats.neuron_updates);

      // The readout builds the list itself when the caller has none.
      snn::LeakyReadout ro_self = ro_base;
      Tensor d_s_self(T, B, N);
      ro_self.backward(s, d_logits, &d_s_self, nullptr);
      EXPECT_TRUE(same_bits(ro_self.grad_w(), ref_ro_grad));
      EXPECT_TRUE(same_bits(d_s_self, ref_d_s));
    }
  }
}

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& [recurrent, detach, adaptive, soft, unit] = info.param;
  return std::string(recurrent ? "rec" : "ff") + (detach ? "_detach" : "_reset") +
         (adaptive ? "_adaptive" : "_fixed") + (soft ? "_soft" : "_hard") +
         (unit ? "_unit" : "_valued");
}

INSTANTIATE_TEST_SUITE_P(Matrix, BpttIdentityMatrix,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool(), ::testing::Bool(),
                                            ::testing::Bool()),
                         matrix_name);

// ---- Full training steps at the stream_l1 geometry -------------------------

/// The pre-change SnnNetwork::train_step, with the dense reference backward.
double ref_train_step(snn::SnnNetwork& net, const Tensor& x,
                      const std::vector<std::int32_t>& labels, std::size_t from,
                      const snn::ThresholdPolicy& policy, snn::AdamOptimizer& opt, float lr,
                      std::uint64_t& bwd_ops) {
  const std::size_t trained = net.num_hidden() - from;
  std::vector<Tensor> acts{x};
  std::vector<snn::LayerCache> caches(trained);
  for (std::size_t k = 0; k < trained; ++k) {
    acts.push_back(
        net.hidden(from + k).forward(acts[k], snn::SpikeMode::kHard, policy, &caches[k], nullptr));
  }
  const Tensor logits = net.readout().forward(acts[trained], nullptr);
  Tensor d_logits(logits.rows(), logits.cols());
  const double loss = softmax_cross_entropy(logits, labels, &d_logits);
  net.readout().zero_grad();
  for (std::size_t k = 0; k < trained; ++k) net.hidden(from + k).zero_grad();
  const Tensor& top = acts[trained];
  Tensor d_act(top.dim(0), top.dim(1), top.dim(2));
  bwd_ops += ref_readout_backward(net.readout(), top, d_logits, trained > 0 ? &d_act : nullptr,
                                  net.readout().grad_w());
  for (std::size_t k = trained; k-- > 0;) {
    snn::RecurrentLifLayer& layer = net.hidden(from + k);
    Tensor d_prev(acts[k].dim(0), acts[k].dim(1), acts[k].dim(2));
    bwd_ops += ref_layer_backward(layer, acts[k], caches[k].membrane, acts[k + 1],
                                  caches[k].theta, d_act, k > 0 ? &d_prev : nullptr,
                                  layer.grad_w_ff(), layer.grad_w_rec());
    d_act = std::move(d_prev);
  }
  opt.step("readout.w", net.readout().w(), net.readout().grad_w(), lr);
  for (std::size_t k = 0; k < trained; ++k) {
    snn::RecurrentLifLayer& layer = net.hidden(from + k);
    const std::string prefix = "hidden" + std::to_string(from + k);
    opt.step(prefix + ".w_ff", layer.w_ff(), layer.grad_w_ff(), lr);
    if (layer.lif().recurrent) opt.step(prefix + ".w_rec", layer.w_rec(), layer.grad_w_rec(), lr);
  }
  return loss;
}

std::vector<char> optimizer_bytes(const snn::AdamOptimizer& opt, const std::string& tag) {
  const auto path =
      std::filesystem::path(::testing::TempDir()) / ("bptt_identity_adam_" + tag + ".bin");
  {
    BinaryWriter out(path.string());
    opt.save(out);
    out.close();
  }
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::filesystem::remove(path);
  return bytes;
}

TEST(BpttIdentity, StreamL1GeometryTrainStepsMatchReference) {
  constexpr std::size_t T = 40, B = 16, kFrom = 1;
  snn::NetworkConfig cfg;  // 700-200-100-50 / 20 classes
  cfg.seed = 31;
  const snn::SnnNetwork init(cfg);
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    set_num_threads(threads);
    snn::SnnNetwork net = init.clone();
    snn::SnnNetwork ref = init.clone();
    snn::AdamOptimizer opt, ref_opt;
    const auto policy = snn::ThresholdPolicy::fixed(1.0f);
    std::uint64_t ref_ops = 0;
    snn::SpikeOpStats stats;
    for (std::size_t step = 0; step < 3; ++step) {
      // Steps 0-1 replay binary latents, step 2 dequantized spike counts.
      const Tensor x = make_input(T, B, cfg.layer_sizes[kFrom], 0.08, step < 2, 400 + step);
      std::vector<std::int32_t> labels(B);
      for (std::size_t i = 0; i < B; ++i) {
        labels[i] = static_cast<std::int32_t>((i * 7 + step) % 20);
      }
      const auto res = net.train_step(x, labels, kFrom, policy, opt, 1e-3f,
                                      snn::SpikeMode::kHard, &stats);
      const double ref_loss =
          ref_train_step(ref, x, labels, kFrom, policy, ref_opt, 1e-3f, ref_ops);
      EXPECT_EQ(res.loss, ref_loss) << "step " << step;
    }
    EXPECT_EQ(stats.backward_synops, ref_ops);
    for (std::size_t i = kFrom; i < net.num_hidden(); ++i) {
      EXPECT_TRUE(same_bits(net.hidden(i).w_ff(), ref.hidden(i).w_ff())) << "hidden " << i;
      EXPECT_TRUE(same_bits(net.hidden(i).w_rec(), ref.hidden(i).w_rec())) << "hidden " << i;
      EXPECT_FALSE(same_bits(net.hidden(i).w_ff(), init.hidden(i).w_ff())) << "hidden " << i;
    }
    EXPECT_TRUE(same_bits(net.readout().w(), ref.readout().w()));
    EXPECT_EQ(opt.num_states(), ref_opt.num_states());
    EXPECT_EQ(optimizer_bytes(opt, "lib"), optimizer_bytes(ref_opt, "ref"));
  }
}

// ---- Backward cache validation ---------------------------------------------

struct CachedPass {
  snn::RecurrentLifLayer layer;
  Tensor x;
  snn::LayerCache cache;
  Tensor d_out;
};

CachedPass cached_pass(std::size_t B) {
  constexpr std::size_t T = 6, C = 12, N = 8;
  Rng rng(3);
  CachedPass p{snn::RecurrentLifLayer(C, N, snn::LifParams{}, snn::SurrogateParams{}, rng),
               make_input(T, B, C, 0.3, true, 8), {}, Tensor(T, B, N)};
  (void)p.layer.forward(p.x, snn::SpikeMode::kHard, snn::ThresholdPolicy::fixed(1.0f), &p.cache,
                        nullptr);
  return p;
}

void expect_error_contains(const std::function<void()>& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected an Error containing \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(BpttCacheChecks, RejectsCacheFromADifferentBatch) {
  CachedPass p = cached_pass(4);
  const CachedPass other = cached_pass(3);
  expect_error_contains([&] { p.layer.backward(other.x, p.cache, other.d_out, nullptr, nullptr); },
                        "cache batch 4 != input batch 3");
}

TEST(BpttCacheChecks, RejectsThresholdCountMismatch) {
  CachedPass p = cached_pass(4);
  p.cache.theta.pop_back();
  expect_error_contains([&] { p.layer.backward(p.x, p.cache, p.d_out, nullptr, nullptr); },
                        "cache holds 5 thresholds for 6 timesteps");
}

TEST(BpttCacheChecks, RejectsMissingOrMismatchedInputEvents) {
  CachedPass p = cached_pass(4);
  const CachedPass other = cached_pass(3);
  p.cache.in_events = other.cache.in_events;
  expect_error_contains([&] { p.layer.backward(p.x, p.cache, p.d_out, nullptr, nullptr); },
                        "cached input events do not match x");
  p.cache.in_events = nullptr;
  expect_error_contains([&] { p.layer.backward(p.x, p.cache, p.d_out, nullptr, nullptr); },
                        "cached input events do not match x");
}

TEST(BpttCacheChecks, RejectsMissingOrMismatchedOutputEvents) {
  CachedPass p = cached_pass(4);
  const CachedPass other = cached_pass(3);
  p.cache.out_events = other.cache.out_events;
  expect_error_contains([&] { p.layer.backward(p.x, p.cache, p.d_out, nullptr, nullptr); },
                        "cached output events do not match d_out");
  p.cache.out_events = nullptr;
  expect_error_contains([&] { p.layer.backward(p.x, p.cache, p.d_out, nullptr, nullptr); },
                        "cached output events do not match d_out");
}

TEST(BpttCacheChecks, RejectsEventListThatDoesNotDescribeTheInput) {
  CachedPass p = cached_pass(4);
  const CachedPass other = cached_pass(3);
  expect_error_contains(
      [&] {
        (void)p.layer.forward(p.x, snn::SpikeMode::kHard, snn::ThresholdPolicy::fixed(1.0f),
                              nullptr, nullptr, other.cache.in_events);
      },
      "x_events does not describe x");
}

// ---- Gradient kernels vs the reference (moved from test_ops.cpp) ------------

Tensor sparse_tensor(std::size_t r, std::size_t c, Rng& rng, double sparsity) {
  Tensor t(r, c);
  for (auto& v : t.values()) {
    v = rng.bernoulli(sparsity) ? 0.0f : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = acc;
    }
  }
  return c;
}

void expect_tensor_near(const Tensor& a, const Tensor& b, float tol = 1e-4f) {
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a(i), b(i), tol) << "element " << i;
}

Tensor transposed(const Tensor& a) {
  Tensor t(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

/// (m, k, n, sparsity), the test_ops.cpp MatmulSweep shapes.
class MatmulSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, double>> {
};

TEST_P(MatmulSweep, TransposeAAccumulate) {
  const auto [m, k, n, sparsity] = GetParam();
  Rng rng(m * 31 + k * 17 + n);
  const Tensor a = sparse_tensor(m, k, rng, sparsity);  // (m×k): treated as Aᵀ·B
  const Tensor b = sparse_tensor(m, n, rng, 0.0);
  Tensor cube(1, m, k);
  std::copy(a.values().begin(), a.values().end(), cube.values().begin());
  const compress::BatchEventList ev = compress::events_from_batch(cube);
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    Tensor c(k, n), ref(k, n);
    c.fill(0.5f);  // accumulates on top
    ref.fill(0.5f);
    kernels::csr_at_b_accum(ev.offsets.data(), ev.channel.data(),
                            ev.unit_values ? nullptr : ev.value.data(), m, k, b.raw(), n,
                            c.raw());
    ref_matmul_at_b_accum(a.raw(), m, k, b.raw(), n, ref.raw());
    EXPECT_TRUE(same_bits(c, ref)) << "threads=" << threads;
    Tensor expected = naive_matmul(transposed(a), b);
    for (auto& v : expected.values()) v += 0.5f;
    expect_tensor_near(c, expected);
  }
}

TEST_P(MatmulSweep, TransposeB) {
  const auto [m, k, n, sparsity] = GetParam();
  Rng rng(m * 13 + k * 7 + n * 3);
  const Tensor a = sparse_tensor(m, n, rng, sparsity);
  const Tensor b = sparse_tensor(k, n, rng, 0.0);
  Tensor bt(n, k);
  kernels::transpose(b.raw(), k, n, bt.raw());
  EXPECT_TRUE(same_bits(bt, transposed(b)));
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    Tensor c(m, k), ref(m, k);
    c.fill(9.0f);  // overwritten, never accumulated
    kernels::matmul_dense(a.raw(), m, n, bt.raw(), k, c.raw());
    ref_matmul_a_bt(a.raw(), m, n, b.raw(), k, ref.raw());
    EXPECT_TRUE(same_bits(c, ref)) << "threads=" << threads;
    expect_tensor_near(c, naive_matmul(a, bt));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulSweep,
    ::testing::Values(std::make_tuple(1, 1, 1, 0.0), std::make_tuple(3, 5, 2, 0.0),
                      std::make_tuple(8, 16, 8, 0.5), std::make_tuple(17, 33, 9, 0.9),
                      std::make_tuple(64, 128, 32, 0.95), std::make_tuple(2, 700, 200, 0.98)));

}  // namespace
}  // namespace r4ncl
