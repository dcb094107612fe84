// Recurrent LIF spiking layer with manual backpropagation-through-time.
//
// Discrete-time dynamics (paper Eq. 1–2, soft reset, per-layer recurrence as
// in Fig. 6):
//     I(t) = X(t)·W_ff + S(t−1)·W_rec
//     V(t) = β·V(t−1) − θ(t−1)·S(t−1) + I(t)
//     S(t) = Θ(V(t) − θ(t))                (hard mode)
//            h(V(t) − θ(t))                (soft mode, gradcheck only)
// with V(−1) = S(−1) = 0 and θ(t) supplied by a ThresholdPolicy (fixed or the
// paper's adaptive controller).
//
// Backward: exact BPTT through the above recurrences with the fast-sigmoid
// surrogate standing in for Θ′.  The reset path (−θ·S term) is detached by
// default (LifParams::detach_reset), matching common SNN training practice;
// the non-detached variant exists so finite-difference tests can validate the
// complete gradient in soft mode.
// Hot path (hard mode): spikes travel between layers as per-timestep
// active-channel lists (compress::BatchEventList, alias SpikeList), never as
// dense cubes.  A pass takes its input's list, I(t) accumulates
// O(events·n_out) weight rows in ascending channel order (the exact
// accumulation order of kernels::matmul's zero-skipping loop, so sparse ≡
// dense bit-for-bit), the membrane update runs batch-parallel over B rows
// (disjoint writes, per-row spike counts reduced in fixed row order —
// threads=N ≡ threads=1), synop stats fall out of the event list instead of
// a per-timestep count_nonzero rescan, and the pass returns its own output
// spikes as a list (the CSR it already scans for the recurrent step), which
// is the next layer's input.
//
// Backward (both modes): every spike list is built once per training pass.
// A caching forward keeps its input list and its output list, and BPTT
// reuses both: dW_ff += X(t)ᵀ·dV(t) and dW_rec += S(t−1)ᵀ·dV(t)
// scatter dV rows into the weight rows of the active channels
// (kernels::csr_at_b_accum), and dX = dV·W_ffᵀ, dS_rec = dV·W_recᵀ run as
// unit-stride row updates against a transpose of each weight made once per
// backward call (kernels::matmul_dense).  Every gradient element adds the
// same terms in the same order as the dense kernels did — weight gradients
// ascending batch row within a timestep, input gradients ascending output
// unit from 0 — so gradients are bit-identical to the dense formulation at
// any thread count (parallel splits are over disjoint output rows only).
// Soft mode and SparseForward::kNever run the dense kernels on the input's
// cube and build the output list from the dense output, so the list is the
// one currency between layers and backward has one path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "compress/aer.hpp"
#include "snn/surrogate.hpp"
#include "snn/threshold.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace r4ncl::snn {

/// A batch's spikes as an event list — what layers hand to each other.
using SpikeList = std::shared_ptr<const compress::BatchEventList>;

/// The event list of a dense spike cube (compress::events_from_batch).
[[nodiscard]] SpikeList spike_list(const Tensor& x);

/// Forward-pass kernel selection.  Both paths are bit-identical, so this is
/// purely a performance knob; kNever exists as the bench baseline and
/// escape hatch.  Soft mode always uses the dense path (gradcheck only).
enum class SparseForward : std::uint8_t {
  kAuto,   // event-driven in hard mode (the default)
  kAlways, // event-driven in hard mode, asserting the input is binary-friendly
  kNever,  // legacy dense matmul + count_nonzero stats
};

/// Process-wide forward-kernel selection (benches/tests toggle it; the
/// bit-identity contract makes it safe to flip at any point).
void set_sparse_forward(SparseForward mode) noexcept;
[[nodiscard]] SparseForward sparse_forward() noexcept;

/// LIF neuron constants shared by all neurons of a layer.
struct LifParams {
  /// Membrane decay per timestep: β = exp(−Δt/τ).
  float beta = 0.95f;
  /// Whether the backward pass ignores the reset path.
  bool detach_reset = true;
  /// Whether the layer has same-layer recurrent weights (Fig. 6).
  bool recurrent = true;
};

/// Forward evaluation mode.
enum class SpikeMode : std::uint8_t {
  kHard,  // binary spikes (production)
  kSoft,  // continuous surrogate forward (finite-difference validation)
};

/// Event and work counters accumulated by forward/backward passes; the
/// metrics library converts these into modelled latency and energy.
struct SpikeOpStats {
  std::uint64_t synops = 0;           // weight ops triggered by input/recurrent events
  std::uint64_t neuron_updates = 0;   // membrane updates (= T·B·N per layer pass)
  std::uint64_t spikes = 0;           // spikes emitted
  std::uint64_t timestep_slots = 0;   // Σ layers (T·B): per-timestep bookkeeping cost
  std::uint64_t backward_synops = 0;  // gradient-pass weight ops (training only)
  std::uint64_t decompress_bits = 0;  // codec work charged by the replay path

  void add(const SpikeOpStats& other) noexcept {
    synops += other.synops;
    neuron_updates += other.neuron_updates;
    spikes += other.spikes;
    timestep_slots += other.timestep_slots;
    backward_synops += other.backward_synops;
    decompress_bits += other.decompress_bits;
  }
};

/// Per-pass state retained for the backward pass.
struct LayerCache {
  Tensor membrane;           // V, (T × B × N)
  std::vector<float> theta;  // θ(t), one per timestep
  /// The pass input x as per-timestep active-channel lists — the list the
  /// event-driven forward ran from, reused for dW_ff += X(t)ᵀ·dV(t).
  /// Shared, because in a training step it is the previous layer's
  /// out_events.
  SpikeList in_events;
  /// The pass output S as per-timestep active-channel lists (ascending
  /// spike indices, all values 1.0f in hard mode) — the list the forward
  /// returned.  Feeds dW_rec += S(t−1)ᵀ·dV(t) and the next layer's forward
  /// and weight gradient.  Equal to compress::events_from_batch of the
  /// output cube.
  SpikeList out_events;
};

/// One recurrent spiking layer (n_in → n_out).
class RecurrentLifLayer {
 public:
  /// Weights are initialised N(0, gain/√n_in) (feedforward) and
  /// N(0, rec_gain/√n_out) (recurrent).
  RecurrentLifLayer(std::size_t n_in, std::size_t n_out, const LifParams& lif,
                    const SurrogateParams& surrogate, Rng& rng, float gain = 1.5f,
                    float rec_gain = 0.5f);

  [[nodiscard]] std::size_t n_in() const noexcept { return n_in_; }
  [[nodiscard]] std::size_t n_out() const noexcept { return n_out_; }
  [[nodiscard]] const LifParams& lif() const noexcept { return lif_; }
  [[nodiscard]] const SurrogateParams& surrogate() const noexcept { return surrogate_; }

  /// Runs the layer over a (T × B × n_in) spike cube; returns (T × B × n_out)
  /// output spikes.  When `cache` is non-null the pass records everything the
  /// backward pass needs.  `stats`, if non-null, accumulates event counts.
  /// Hard mode dispatches through the event-driven path (see file comment)
  /// unless set_sparse_forward(kNever); results are bit-identical either way.
  /// `x_events`, when non-null, must be x's event list; the pass then
  /// reuses it instead of scanning x again.
  Tensor forward(const Tensor& x, SpikeMode mode, const ThresholdPolicy& policy,
                 LayerCache* cache, SpikeOpStats* stats, SpikeList x_events = nullptr) const;

  /// The event-list form, used by the network: takes x as its event list
  /// and returns the output spikes' list.  In hard mode no dense cube is
  /// built; soft mode and SparseForward::kNever run the dense kernels on
  /// x's cube.  Bit-identical to the Tensor form.
  SpikeList forward(SpikeList x, SpikeMode mode, const ThresholdPolicy& policy,
                    LayerCache* cache, SpikeOpStats* stats) const;

  /// Event-driven forward directly from per-timestep active-channel lists
  /// (e.g. built from AER samples via compress::events_from_aer) — no dense
  /// input cube exists at any point.  Bit-identical to forward() over the
  /// equivalent dense cube.  Inference-only (no `cache` capture).
  Tensor forward_events(const compress::BatchEventList& events, SpikeMode mode,
                        const ThresholdPolicy& policy, SpikeOpStats* stats) const;

  /// BPTT backward.  `cache` is a caching forward's cache, `d_out` is ∂L/∂S
  /// (T × B × n_out).  Accumulates weight gradients internally and, when
  /// `d_in` is non-null, writes ∂L/∂X (T × B × n_in).  backward_synops
  /// charges the dense B·n_in·n_out model per gradient term, independent of
  /// spike counts.
  void backward(const LayerCache& cache, const Tensor& d_out, Tensor* d_in,
                SpikeOpStats* stats);
  /// As above, for a pass that ran on the dense `x` (checked against d_out).
  void backward(const Tensor& x, const LayerCache& cache, const Tensor& d_out, Tensor* d_in,
                SpikeOpStats* stats);

  /// Zeroes accumulated weight gradients.
  void zero_grad();

  // Parameter / gradient access for the optimizer and for serialization.
  Tensor& w_ff() noexcept { return w_ff_; }
  const Tensor& w_ff() const noexcept { return w_ff_; }
  Tensor& w_rec() noexcept { return w_rec_; }
  const Tensor& w_rec() const noexcept { return w_rec_; }
  Tensor& grad_w_ff() noexcept { return d_w_ff_; }
  const Tensor& grad_w_ff() const noexcept { return d_w_ff_; }
  Tensor& grad_w_rec() noexcept { return d_w_rec_; }
  const Tensor& grad_w_rec() const noexcept { return d_w_rec_; }

  void save(BinaryWriter& out) const;
  void load(BinaryReader& in);

 private:
  /// The legacy dense kernel path (per-timestep matmul + count_nonzero
  /// stats) — soft mode and the SparseForward::kNever bench baseline.
  Tensor forward_dense(const Tensor& x, SpikeMode mode, const ThresholdPolicy& policy,
                       LayerCache* cache, SpikeOpStats* stats) const;
  /// Whether a pass in `mode` runs the dense kernels.
  [[nodiscard]] static bool dense_kernels(SpikeMode mode) noexcept;
  /// The event-driven, batch-parallel path (hard mode): returns the output
  /// spikes' list and, when `dense_out` is non-null, writes the output cube.
  SpikeList forward_sparse(const compress::BatchEventList& events, const ThresholdPolicy& policy,
                           LayerCache* cache, SpikeOpStats* stats, Tensor* dense_out) const;

  std::size_t n_in_;
  std::size_t n_out_;
  LifParams lif_;
  SurrogateParams surrogate_;
  Tensor w_ff_;    // (n_in × n_out)
  Tensor w_rec_;   // (n_out × n_out); empty when !lif_.recurrent
  Tensor d_w_ff_;  // gradient accumulators
  Tensor d_w_rec_;
};

}  // namespace r4ncl::snn
