#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/parallel.hpp"

namespace r4ncl {

namespace kernels {

void matmul(const float* a, std::size_t m, std::size_t k, const float* b, std::size_t n,
            float* c, bool accumulate) {
  parallel_for(
      0, m,
      [&](std::size_t i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        if (!accumulate) std::fill(crow, crow + n, 0.0f);
        // i-k-j order: unit stride on B and C lets the compiler vectorise the
        // inner loop; zero A entries (no spike event) are skipped entirely.
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b + kk * n;
          for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
        }
      },
      k * n);
}

void matmul_dense(const float* a, std::size_t m, std::size_t n, const float* b, std::size_t k,
                  float* c) {
  parallel_for(
      0, m,
      [&](std::size_t i) {
        const float* arow = a + i * n;
        float* crow = c + i * k;
        std::fill(crow, crow + k, 0.0f);
        // Every term is added (no zero skip), so each element is exactly the
        // ascending-t sum Σ_t a[i,t]·b[t,j]; the j loop is unit-stride and
        // carries no dependence, so it vectorizes without reassociation.
        for (std::size_t t = 0; t < n; ++t) {
          const float av = arow[t];
          const float* brow = b + t * k;
          for (std::size_t j = 0; j < k; ++j) crow[j] += av * brow[j];
        }
      },
      n * k);
}

void transpose(const float* a, std::size_t rows, std::size_t cols, float* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t col = 0; col < cols; ++col) out[col * rows + r] = a[r * cols + col];
  }
}

void csr_at_b_accum(const std::uint32_t* offsets, const std::uint32_t* channel,
                    const float* value, std::size_t m, std::size_t k, const float* b,
                    std::size_t n, float* c) {
  // Each part owns a disjoint channel range (rows of c) and visits the CSR
  // rows i ascending, so every element's op sequence is the same for any
  // number of parts — threads=N ≡ threads=1.
  const std::size_t parts =
      std::max<std::size_t>(1, std::min(static_cast<std::size_t>(num_threads()), k));
  const std::size_t work = static_cast<std::size_t>(offsets[m] - offsets[0]) * n;
  parallel_for(
      0, parts,
      [&](std::size_t p) {
        const auto lo_ch = static_cast<std::uint32_t>(k * p / parts);
        const auto hi_ch = static_cast<std::uint32_t>(k * (p + 1) / parts);
        for (std::size_t i = 0; i < m; ++i) {
          const std::uint32_t* first = channel + offsets[i];
          const std::uint32_t* last = channel + offsets[i + 1];
          if (parts > 1) {
            first = std::lower_bound(first, last, lo_ch);
            last = std::lower_bound(first, last, hi_ch);
          }
          const float* brow = b + i * n;
          if (value == nullptr) {
            for (const std::uint32_t* e = first; e != last; ++e) {
              float* crow = c + static_cast<std::size_t>(*e) * n;
              for (std::size_t j = 0; j < n; ++j) crow[j] += brow[j];
            }
          } else {
            for (const std::uint32_t* e = first; e != last; ++e) {
              const float av = value[e - channel];
              float* crow = c + static_cast<std::size_t>(*e) * n;
              for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
            }
          }
        }
      },
      work / parts + 1);
}

std::size_t count_nonzero(const float* v, std::size_t n) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) count += v[i] != 0.0f ? 1 : 0;
  return count;
}

}  // namespace kernels

namespace {
void check_2d(const Tensor& t, const char* name) {
  R4NCL_CHECK(t.rank() == 2, name << " must be 2-D, rank=" << t.rank());
}
}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  check_2d(a, "a");
  check_2d(b, "b");
  check_2d(c, "c");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  R4NCL_CHECK(b.rows() == k,
              "inner dims: a is " << m << "x" << k << ", b has " << b.rows() << " rows");
  R4NCL_CHECK(c.rows() == m && c.cols() == n, "c shape mismatch");
  kernels::matmul(a.raw(), m, k, b.raw(), n, c.raw(), accumulate);
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  R4NCL_CHECK(x.same_shape(y), "axpy shape mismatch");
  const float* xs = x.raw();
  float* ys = y.raw();
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) ys[i] += alpha * xs[i];
}

void hadamard(const Tensor& a, const Tensor& b, Tensor& y) {
  R4NCL_CHECK(a.same_shape(b) && a.same_shape(y), "hadamard shape mismatch");
  const float* as = a.raw();
  const float* bs = b.raw();
  float* ys = y.raw();
  const std::size_t n = a.size();
  for (std::size_t i = 0; i < n; ++i) ys[i] = as[i] * bs[i];
}

double sum(const Tensor& t) noexcept {
  double acc = 0.0;
  for (float v : t.values()) acc += v;
  return acc;
}

double mean(const Tensor& t) noexcept {
  return t.empty() ? 0.0 : sum(t) / static_cast<double>(t.size());
}

float max_abs(const Tensor& t) noexcept {
  float best = 0.0f;
  for (float v : t.values()) best = std::max(best, std::abs(v));
  return best;
}

void clip_inplace(Tensor& t, float bound) noexcept {
  for (auto& v : t.values()) v = std::clamp(v, -bound, bound);
}

double softmax_cross_entropy(const Tensor& logits, std::span<const std::int32_t> labels,
                             Tensor* grad) {
  check_2d(logits, "logits");
  const std::size_t batch = logits.rows(), classes = logits.cols();
  R4NCL_CHECK(labels.size() == batch, "labels size " << labels.size() << " != batch " << batch);
  if (grad != nullptr) {
    R4NCL_CHECK(grad->same_shape(logits), "grad shape mismatch");
  }
  double total = 0.0;
  const double inv_batch = 1.0 / static_cast<double>(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const float* row = logits.row_ptr(i);
    const std::int32_t label = labels[i];
    R4NCL_CHECK(label >= 0 && static_cast<std::size_t>(label) < classes,
                "label " << label << " out of range " << classes);
    float mx = row[0];
    for (std::size_t j = 1; j < classes; ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (std::size_t j = 0; j < classes; ++j) denom += std::exp(static_cast<double>(row[j] - mx));
    const double log_denom = std::log(denom);
    total += -(static_cast<double>(row[static_cast<std::size_t>(label)] - mx) - log_denom);
    if (grad != nullptr) {
      float* grow = grad->row_ptr(i);
      for (std::size_t j = 0; j < classes; ++j) {
        const double p = std::exp(static_cast<double>(row[j] - mx)) / denom;
        grow[j] = static_cast<float>(p * inv_batch);
      }
      grow[static_cast<std::size_t>(label)] -= static_cast<float>(inv_batch);
    }
  }
  return total * inv_batch;
}

std::vector<std::int32_t> argmax_rows(const Tensor& t) {
  R4NCL_CHECK(t.rank() == 2, "argmax_rows requires a 2-D tensor");
  std::vector<std::int32_t> out(t.rows());
  for (std::size_t i = 0; i < t.rows(); ++i) {
    const float* row = t.row_ptr(i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < t.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<std::int32_t>(best);
  }
  return out;
}

}  // namespace r4ncl
