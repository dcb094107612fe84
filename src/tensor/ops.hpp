// Kernels for the SNN forward/backward passes.
//
// Conventions: activations are (batch × features) matrices; weight matrices
// are (in_features × out_features) so the forward pass is Y = X · W.  The BPTT
// gradient terms use two loop shapes that vectorize without reassociating:
//   dX  = dY · Wᵀ   (transpose W once, then matmul_dense: unit-stride row
//                    updates c[i,:] += dy[i,t]·Wᵀ[t,:], ascending t — the
//                    same per-element sum as the dot product Σ_t dy[i,t]·W[j,t])
//   dW += Xᵀ · dY   (csr_at_b_accum: scattered from X's event list, each
//                    c element summing its terms in ascending row order —
//                    the order of a dense zero-skipping column scan)
// Kernels split work over disjoint output rows via parallel_for, so every
// element's op sequence, and therefore every result bit, is independent of
// the thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace r4ncl {

namespace kernels {

// Raw row-major kernels — the Tensor overloads below wrap these, and the SNN
// layer calls them directly on (batch × features) slabs of 3-D spike cubes.

/// c[m×n] = a[m×k] · b[k×n]; accumulates when `accumulate`.
void matmul(const float* a, std::size_t m, std::size_t k, const float* b, std::size_t n,
            float* c, bool accumulate);

/// c[m×k] = a[m×n] · b[n×k] without matmul's zero skip: each c element
/// starts at 0 and adds all n products a[i,t]·b[t,j] in ascending t.  For
/// dense gradient operands; with b = Wᵀ this is dX = dY·Wᵀ.
void matmul_dense(const float* a, std::size_t m, std::size_t n, const float* b, std::size_t k,
                  float* c);

/// out[cols×rows] = aᵀ for a row-major a[rows×cols].
void transpose(const float* a, std::size_t rows, std::size_t cols, float* out);

/// c[k×n] += aᵀ · b[m×n] for an (m×k) a given as CSR rows: row i's non-zero
/// entries are (channel[e], value[e]) for e in [offsets[i], offsets[i+1]),
/// channels ascending (a compress::BatchEventList timestep slice).
/// `value == nullptr` marks all-ones entries (spikes), added as b exactly.
/// Every c element sums its terms in ascending i; c's rows are split across
/// threads by disjoint channel ranges.
void csr_at_b_accum(const std::uint32_t* offsets, const std::uint32_t* channel,
                    const float* value, std::size_t m, std::size_t k, const float* b,
                    std::size_t n, float* c);

/// Number of non-zero entries in a float span (spike events).
std::size_t count_nonzero(const float* v, std::size_t n) noexcept;

}  // namespace kernels

/// C = A·B (A: m×k, B: k×n, C: m×n).  When accumulate is true, C += A·B.
void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate = false);

/// y += alpha * x (elementwise over equally-shaped tensors).
void axpy(float alpha, const Tensor& x, Tensor& y);

/// Elementwise y = a ⊙ b.
void hadamard(const Tensor& a, const Tensor& b, Tensor& y);

/// Sum of all elements.
double sum(const Tensor& t) noexcept;

/// Mean of all elements (0 for empty tensors).
double mean(const Tensor& t) noexcept;

/// Maximum absolute element (0 for empty tensors).
float max_abs(const Tensor& t) noexcept;

/// Clips every element into [-bound, bound]; used for gradient clipping.
void clip_inplace(Tensor& t, float bound) noexcept;

/// Row-wise softmax + cross-entropy against integer labels.
/// logits: (batch × classes); labels: one per row.
/// Returns mean loss; when grad is non-null, writes d(mean loss)/d(logits).
double softmax_cross_entropy(const Tensor& logits, std::span<const std::int32_t> labels,
                             Tensor* grad);

/// Row-wise argmax of a (batch × classes) tensor.
std::vector<std::int32_t> argmax_rows(const Tensor& t);

}  // namespace r4ncl
