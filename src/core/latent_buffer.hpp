// Latent replay buffer: the on-device store of old-knowledge activations.
//
// Holds bit-packed (optionally codec-compressed, optionally sub-byte
// quantized — CodecConfig::latent_bits) spike rasters captured at the LR
// insertion layer, plus labels.  memory_bytes() is the quantity
// reported in Fig. 12: payload bytes plus a fixed per-sample header
// (geometry + label; codec-compressed entries additionally carry codec
// metadata, which is why SpikingLR's per-sample overhead is slightly larger
// — reproducing the paper's 20–21.88% savings band).
//
// The buffer operates under an explicit *byte budget* (ReplayBufferConfig):
// embedded deployments give latent replay a fixed memory region, so a stream
// of arriving classes must trigger eviction rather than growth.  Five
// selection policies are provided (cf. Pellegrini et al., "Latent Replay for
// Real-Time Continual Learning"; Ravaglia et al., TinyML quantized latent
// replays):
//   kFifo          — evict the oldest stored entries first
//   kReservoir     — Vitter's Algorithm R: every entry of the stream is
//                    retained with equal probability capacity/N
//   kClassBalanced — evict the oldest entry of the most-represented class,
//                    driving per-class occupancy toward equality
//   kLowImportance — content-aware: evict the least-important entry.
//                    Importance is the spike density recorded at insert time
//                    until the trainer feeds back a running loss/error score
//                    via report_outcome(), which then supersedes the static
//                    proxy.  An incoming entry strictly sparser than a
//                    victim still on its density proxy is rejected instead
//                    (density-vs-density only — trainer-scored victims never
//                    block admission, so saturated error scores cannot
//                    starve new-task latents out of the buffer).
//   kImportanceClassBalanced — balance first, then score: evict the
//                    least-important entry of the most-represented class.
// capacity_bytes == 0 keeps the historical unbounded behaviour.
//
// The byte budget itself may move at task boundaries (BudgetSchedule): real
// devices share the replay region with other subsystems, so the run engines
// re-apply the scheduled capacity before each task and the buffer re-evicts
// deterministically (per its policy and private rng) down to the new cap.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compress/spike_codec.hpp"
#include "data/spike_data.hpp"
#include "snn/layer.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace r4ncl::obs {
class Counter;
}  // namespace r4ncl::obs

namespace r4ncl::core {

class ReplayStream;

/// Which stored entry gives way when an add() would exceed the byte budget.
enum class ReplayPolicy : std::uint8_t {
  kFifo,           // oldest entry evicted first
  kReservoir,      // stream-uniform retention (Algorithm R)
  kClassBalanced,  // evict oldest entry of the most-represented class
  kLowImportance,  // evict (or reject) the least-important entry
  kImportanceClassBalanced,  // least-important entry of the heaviest class
};

/// Canonical lowercase name ("fifo", "reservoir", "class_balanced",
/// "low_importance", "importance_class_balanced").
[[nodiscard]] std::string_view to_string(ReplayPolicy policy) noexcept;

/// Inverse of to_string(); also accepts "balanced" and "importance_balanced".
/// Throws Error on unknown names (the CLI surfaces route user input through
/// this, so the message pins the full valid set).
[[nodiscard]] ReplayPolicy parse_replay_policy(std::string_view name);

/// Whether a policy consults per-entry importance scores (and therefore
/// benefits from the trainer's report_outcome() feedback).
[[nodiscard]] constexpr bool is_importance_policy(ReplayPolicy policy) noexcept {
  return policy == ReplayPolicy::kLowImportance ||
         policy == ReplayPolicy::kImportanceClassBalanced;
}

/// How the byte budget evolves over a task stream.  `const` keeps
/// ReplayBufferConfig::capacity_bytes for the whole run (the historical
/// behaviour); the other kinds model a replay region another subsystem
/// claims progressively (linear) or abruptly (step).
enum class BudgetScheduleKind : std::uint8_t {
  kConst,   // capacity_bytes for every task
  kLinear,  // interpolate start → end bytes across the task stream
  kStep,    // capacity_bytes until step_task, step_bytes from then on
};

/// Per-task byte-budget schedule, applied by the run engines at task
/// boundaries via LatentReplayBuffer::set_capacity().
struct BudgetSchedule {
  BudgetScheduleKind kind = BudgetScheduleKind::kConst;
  /// kLinear endpoints (bytes at the first / last task of the stream).
  std::size_t linear_start = 0;
  std::size_t linear_end = 0;
  /// kStep: from task index `step_task` on, the capacity becomes step_bytes.
  std::size_t step_task = 0;
  std::size_t step_bytes = 0;

  /// kConst schedules never override the run's base capacity.
  [[nodiscard]] bool active() const noexcept { return kind != BudgetScheduleKind::kConst; }

  /// Capacity for task `task` of a `num_tasks`-task stream whose base
  /// (unscheduled) capacity is `base_capacity`.  kLinear interpolates
  /// linearly and rounds to the nearest byte; a single-task stream uses
  /// linear_start.  0 means unbounded, exactly as in ReplayBufferConfig.
  [[nodiscard]] std::size_t capacity_for_task(std::size_t task, std::size_t num_tasks,
                                              std::size_t base_capacity) const noexcept;

  /// Canonical spec string ("const", "linear:<start>:<end>",
  /// "step:<task>:<bytes>") — the inverse of parse_budget_schedule().
  [[nodiscard]] std::string spec() const;
};

/// Parses a schedule spec: "const" | "linear:<start>:<end>" |
/// "step:<task>:<bytes>" (byte/task fields are non-negative integers).
/// Throws Error naming the valid forms on anything else — the CLI surfaces
/// validate eagerly through this, so a typo fails before any training runs.
[[nodiscard]] BudgetSchedule parse_budget_schedule(std::string_view spec);

/// Byte budget + eviction policy of a replay buffer.
struct ReplayBufferConfig {
  /// Hard ceiling on memory_bytes(); 0 = unbounded (historical behaviour).
  std::size_t capacity_bytes = 0;
  ReplayPolicy policy = ReplayPolicy::kFifo;
  /// Seed of the buffer's private eviction stream (reservoir draws).  Run
  /// engines mix their run seed into this so whole runs reproduce.
  std::uint64_t seed = 0x5eedb0ffe7ULL;

  /// Copy with the run seed mixed into the eviction stream — the one
  /// derivation both run engines use, so reservoir displacement reproduces
  /// per run without correlating across seeds.
  [[nodiscard]] ReplayBufferConfig with_run_seed(std::uint64_t run_seed) const noexcept {
    ReplayBufferConfig mixed = *this;
    mixed.seed ^= (run_seed + 1) * 0x9E3779B97F4A7C15ULL;
    return mixed;
  }
};

/// Salt deriving the per-run replay-draw Rng from the run seed (core::
/// learn_task).  A whole-buffer draw (replay_samples_per_epoch = 0) takes
/// every entry in storage order and consumes nothing from that stream.
inline constexpr std::uint64_t kReplayDrawSeedSalt = 0xA11CE5EEDBEEFULL;

/// Smoothing factor of the report_outcome() running score: each report moves
/// the stored score a quarter of the way toward the new observation, so one
/// bad epoch cannot un-pin an entry the trainer consistently gets wrong.
inline constexpr float kOutcomeEma = 0.25f;

/// Uniform draw without replacement over [0, population) — the shared index
/// draw behind LatentReplayBuffer::draw_indices and the sharded engine's
/// global (cross-shard) draw.  k >= population returns storage order and
/// consumes no rng draws (the whole-buffer draw); otherwise a partial
/// Fisher–Yates consumes exactly k draws.
[[nodiscard]] std::vector<std::size_t> draw_replay_indices(std::size_t population,
                                                           std::size_t k, Rng& rng);

/// Read-side interface over a store of replayable latent entries addressed by
/// logical index.  ReplayStream drives its decode through this, so one
/// streaming cursor implementation serves both a single LatentReplayBuffer
/// and the ShardedReplayEngine's concatenated (cross-shard) index space.
class ReplayEntrySource {
 public:
  virtual ~ReplayEntrySource() = default;

  /// Live entries addressable as logical indices [0, size()).
  [[nodiscard]] virtual std::size_t size() const noexcept = 0;
  /// Timestep length of the rasters decompress_into() produces.
  [[nodiscard]] virtual std::size_t activation_timesteps() const noexcept = 0;
  /// Channel width of the stored activations (0 while empty).
  [[nodiscard]] virtual std::size_t channels() const noexcept = 0;
  /// Label of the entry at logical `index` (no decode).
  [[nodiscard]] virtual std::int32_t label_at(std::size_t index) const = 0;
  /// Decompresses the entry at logical `index` into `out`, reusing its
  /// allocations (and `levels_scratch` for quantized payload codes).
  virtual void decompress_into(std::size_t index, data::Sample& out,
                               snn::SpikeOpStats* stats,
                               std::vector<std::uint8_t>* levels_scratch) const = 0;
};

class LatentReplayBuffer : public ReplayEntrySource {
 public:
  /// `activation_timesteps` is the timestep length of the rasters handed to
  /// add() (and returned by materialize()); the codec may store fewer.
  LatentReplayBuffer(const compress::CodecConfig& codec, std::size_t activation_timesteps,
                     const ReplayBufferConfig& budget = {});

  /// Compresses and stores one latent activation raster, evicting per the
  /// configured policy when the byte budget would be exceeded.  All rasters
  /// in a buffer must share the channel width (the insertion-layer width);
  /// the first add() fixes it.  Returns false when the policy chose to drop
  /// the *incoming* entry instead (reservoir rejection); memory_bytes() <=
  /// capacity_bytes holds on return either way.
  bool add(const data::SpikeRaster& raster, std::int32_t label);

  /// Channel width of the stored activations (0 while empty).
  [[nodiscard]] std::size_t channels() const noexcept override { return channels_; }

  [[nodiscard]] std::size_t size() const noexcept override { return order_.size() - head_; }
  [[nodiscard]] bool empty() const noexcept { return order_.size() == head_; }
  [[nodiscard]] std::size_t activation_timesteps() const noexcept override {
    return activation_timesteps_;
  }
  [[nodiscard]] const compress::CodecConfig& codec() const noexcept { return codec_; }
  [[nodiscard]] const ReplayBufferConfig& budget() const noexcept { return budget_; }
  [[nodiscard]] std::size_t capacity_bytes() const noexcept { return budget_.capacity_bytes; }

  /// Moves the byte budget (a BudgetSchedule boundary).  Growing (or 0 =
  /// unbounded) never touches stored entries; shrinking re-evicts per the
  /// configured policy — FIFO from the head, reservoir a uniform victim from
  /// the buffer's private rng, the class/importance policies their usual
  /// victim — until memory_bytes() fits, so the same seed and stream yield a
  /// byte-identical buffer on every run.
  void set_capacity(std::size_t new_capacity_bytes);

  /// Entries offered to add() over the buffer's lifetime.  Per-instance
  /// compatibility shim: the process-wide aggregate of the same event stream
  /// is the `replay_buffer.adds` counter in obs::MetricsRegistry::snapshot().
  [[nodiscard]] std::size_t stream_seen() const noexcept { return stream_seen_; }
  /// Entries displaced by the budget (stored entries evicted + incoming
  /// entries the reservoir rejected).  Per-instance compatibility shim over
  /// the same events the registry aggregates as `replay_buffer.evictions`
  /// (and per-policy as `replay_buffer.evictions.<policy>`) — new telemetry
  /// consumers should read obs::MetricsRegistry::snapshot() instead.
  [[nodiscard]] std::size_t evictions() const noexcept { return evictions_; }

  /// Occupancy per class, sorted by label ascending; counts sum to size().
  [[nodiscard]] std::vector<std::pair<std::int32_t, std::size_t>> class_occupancy() const;

  /// Total storage footprint in bytes (payload + per-sample headers).
  /// Maintained incrementally, so the budget check in add() is O(1).
  /// Fleet-wide occupancy is published by ShardedReplayEngine as the
  /// `replay_engine.shard<i>.occupancy_bytes` gauges in the obs registry.
  [[nodiscard]] std::size_t memory_bytes() const noexcept { return memory_bytes_; }

  /// Decompresses the whole buffer into a replay dataset (A_LR in Alg. 1).
  /// When `stats` is non-null the codec work is charged as decompress_bits
  /// (zero when the codec ratio is 1, i.e. raw storage).
  [[nodiscard]] data::Dataset materialize(snn::SpikeOpStats* stats = nullptr) const;

  /// Uniformly draws min(k, size()) distinct entries and decompresses only
  /// those — the per-epoch hot path when the buffer is larger than one
  /// epoch's replay appetite.  decompress_bits is charged for the drawn
  /// entries only, proportional to what is actually decompressed.
  [[nodiscard]] data::Dataset sample(std::size_t k, Rng& rng,
                                     snn::SpikeOpStats* stats = nullptr) const;

  /// The index draw behind sample(), without the decode: min(k, size())
  /// distinct logical indices, uniform without replacement (partial
  /// Fisher–Yates).  k >= size() returns the whole buffer in storage order
  /// and consumes no rng draws — exactly sample()'s materialize fallback —
  /// so for the same Rng the returned set is bit-identical to what sample()
  /// would decompress.
  [[nodiscard]] std::vector<std::size_t> draw_indices(std::size_t k, Rng& rng) const;

  /// sample() that also tells the caller *which* entries it drew: appends
  /// the decoded entries to `out` (same rng consumption, bytes and
  /// decompress_bits charging as sample()/materialize()) and returns the
  /// drawn logical indices — the importance-feedback replay assembly both
  /// run engines share, so the per-sample outcome hook can route each
  /// replayed row's error back to its entry via report_outcome().
  std::vector<std::size_t> sample_into(std::size_t k, Rng& rng, data::Dataset& out,
                                       snn::SpikeOpStats* stats = nullptr) const;

  /// Opens a streaming minibatch cursor over a draw (see ReplayStream):
  /// the same entry set as sample(k, rng) for the same Rng, but decoded at
  /// most `minibatch` rasters at a time into a reusable scratch pool, with
  /// decompress_bits charged incrementally per decoded entry.  The buffer
  /// must outlive the stream and not be mutated while it is open.
  [[nodiscard]] ReplayStream stream(std::size_t k, Rng& rng, std::size_t minibatch = 16,
                                    snn::SpikeOpStats* stats = nullptr) const;

  /// Label of the entry at logical index `index` (no decode).
  [[nodiscard]] std::int32_t label_at(std::size_t index) const override;

  /// Spike density of the entry at logical `index`, recorded at add() time
  /// (spikes / (timesteps × channels) of the *source* raster) — the static
  /// importance proxy, free because add() already walks the raster.
  [[nodiscard]] float density_at(std::size_t index) const;

  /// Effective importance of the entry at logical `index`: the running
  /// report_outcome() score once the trainer has reported one, the insert
  /// density before that.  Higher = more informative = evicted later.
  [[nodiscard]] float importance_at(std::size_t index) const;

  /// Trainer feedback hook: folds a loss/error observation for the entry at
  /// logical `index` into its running importance score (EMA, kOutcomeEma).
  /// Run engines call this after each replay draw with the per-sample top-1
  /// error, so entries the network keeps getting wrong are retained longest.
  /// Touches only score bookkeeping — safe while a ReplayStream is open, and
  /// a no-op for the content-blind policies' determinism (scores are always
  /// maintained but only the importance policies read them).
  void report_outcome(std::size_t index, float score);

  /// Decompresses the entry at logical `index` into `out`, reusing its
  /// allocations (and `levels_scratch`, when given, for quantized payload
  /// codes) — the ReplayStream decode path.  Charges decompress_bits exactly
  /// as sample()/materialize() do.
  void decompress_into(std::size_t index, data::Sample& out,
                       snn::SpikeOpStats* stats = nullptr,
                       std::vector<std::uint8_t>* levels_scratch = nullptr) const override;

  /// Stored bits per payload element (0 = legacy binary storage).
  [[nodiscard]] std::uint8_t latent_bits() const noexcept { return codec_.latent_bits; }

  /// Serializes the complete buffer state: capacity, eviction-rng snapshot,
  /// stream/eviction counters, and every live entry in logical order with its
  /// quantized payload byte-copied as-is (no decode).  Together with the
  /// restored rng this makes a loaded buffer behave bit-identically to the
  /// saved one for every subsequent add/evict/sample.
  void save(BinaryWriter& out) const;

  /// Replaces this buffer's contents with a saved snapshot.  The buffer must
  /// be constructed with the run's codec/timesteps/policy (the checkpoint
  /// verifies policy and timesteps with pinned mismatch errors); entries are
  /// rebuilt compacted (dense slots, identity order) — logical order, and
  /// therefore all observable behaviour, is preserved.  Every geometry and
  /// byte-accounting field is validated before use, so a corrupt snapshot
  /// throws r4ncl::Error instead of mis-indexing.
  void load(BinaryReader& in);

  /// Per-sample header bytes: raster geometry (2×u32) + label (i32) +
  /// buffer-entry bookkeeping (u32) = 16; codec entries (time-grouped and/or
  /// quantized) add ratio/strategy/bit-depth/original-length metadata
  /// (8 more).
  [[nodiscard]] std::size_t header_bytes() const noexcept {
    return (codec_.ratio > 1 || codec_.quantized()) ? 24 : 16;
  }

 private:
  struct Entry {
    compress::PackedRaster packed;
    std::int32_t label = 0;
    /// Spike density of the source raster at add() time (importance proxy).
    float density = 0.0f;
    /// Running trainer-fed loss/error score; valid once outcome_valid.
    float outcome = 0.0f;
    bool outcome_valid = false;

    [[nodiscard]] float importance() const noexcept {
      return outcome_valid ? outcome : density;
    }
  };

  /// Entry at logical position `index` (0 = oldest stored).  Logical order
  /// is insertion order with evicted entries spliced out — the same order a
  /// plain vector-with-erase would expose, but backed by an index ring so
  /// eviction never moves Entry payloads: slots_ is stable append-only
  /// storage (freed slots recycled through free_slots_), order_ holds slot
  /// ids, and head_ is the ring head a FIFO eviction bumps in O(1).
  [[nodiscard]] const Entry& entry_at(std::size_t index) const noexcept {
    return slots_[order_[head_ + index]];
  }
  [[nodiscard]] Entry& entry_at(std::size_t index) noexcept {
    return slots_[order_[head_ + index]];
  }
  [[nodiscard]] std::size_t entry_bytes(const Entry& e) const noexcept;
  [[nodiscard]] data::Sample decompress_entry(const Entry& e,
                                              snn::SpikeOpStats* stats) const;
  /// Charges the codec's decompression work for one entry (no-op for raw
  /// storage or when stats is null).
  void charge_decompress(const Entry& e, snn::SpikeOpStats* stats) const;
  /// Removes the entry at logical `index`, maintaining the byte and class
  /// accounting.  index 0 (the FIFO case) is amortized O(1); middle
  /// evictions splice a 4-byte slot id out of order_, never an Entry.
  void evict_at(std::size_t index);
  /// Label of the most-represented class; when `incoming` is non-null that
  /// label counts toward its class (ties go to the smallest label).
  [[nodiscard]] std::int32_t heaviest_class(const std::int32_t* incoming) const;
  /// Index of the oldest stored entry of the most-represented class (the
  /// incoming label counts toward its class; ties go to the smallest label)
  /// — the kClassBalanced victim.
  [[nodiscard]] std::size_t balanced_victim(const std::int32_t* incoming) const;
  /// Index of the least-important stored entry (ties go to the oldest) —
  /// the kLowImportance victim.
  [[nodiscard]] std::size_t least_important_victim() const;
  /// Least-important entry of the most-represented class — the
  /// kImportanceClassBalanced victim.
  [[nodiscard]] std::size_t importance_balanced_victim(const std::int32_t* incoming) const;
  /// Evicts per the configured policy until `bytes` more would fit under
  /// `capacity` (the shared add()/set_capacity() shrink loop; incoming is
  /// null during a shrink).  Reservoir shrinks displace a uniform stored
  /// victim from the buffer's private rng — Algorithm R's incoming-rejection
  /// branch happens in add() before this runs.
  void evict_until_fits(std::size_t capacity, std::size_t bytes,
                        const std::int32_t* incoming);
  /// Bumps evictions_ and the registry's total + per-policy eviction
  /// counters — the one place a displacement (stored or incoming) is counted.
  void note_eviction() noexcept;

  compress::CodecConfig codec_;
  std::size_t activation_timesteps_;
  ReplayBufferConfig budget_;
  Rng rng_;
  std::size_t channels_ = 0;
  std::size_t memory_bytes_ = 0;
  std::size_t stream_seen_ = 0;
  std::size_t evictions_ = 0;
  /// Stable entry storage; never reordered, freed slots are reused.
  std::vector<Entry> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Logical (insertion) order of live entries as slot ids; order_[head_]
  /// is the oldest.  The dead prefix [0, head_) is compacted amortizedly.
  std::vector<std::uint32_t> order_;
  std::size_t head_ = 0;
  /// Parallel per-class counts (label → stored entries), kept sorted.
  std::vector<std::pair<std::int32_t, std::size_t>> class_counts_;
  /// Balanced-victim index, maintained only for the class-balanced policies
  /// (uses_class_queues_): per-class FIFO queues of slot ids in insertion
  /// order.  The kClassBalanced victim is the queue front of the heaviest
  /// class — O(#classes) per eviction instead of an O(n) ring scan — and the
  /// kImportanceClassBalanced scan walks one class queue instead of the ring.
  std::map<std::int32_t, std::deque<std::uint32_t>> class_queues_;
  /// slot id → absolute position in order_ (logical index = position -
  /// head_), so a queued slot resolves to its logical index without a scan.
  /// Only maintained when uses_class_queues_.
  std::vector<std::uint32_t> order_pos_;
  bool uses_class_queues_ = false;
  /// Registry handles (obs::metrics()), resolved once at construction.
  /// Observation-only: a disarmed registry turns every add() into a relaxed
  /// load, so instrumented and bare buffers behave bit-identically.
  obs::Counter* obs_adds_;
  obs::Counter* obs_evictions_;
  obs::Counter* obs_policy_evictions_;
  obs::Counter* obs_decompress_bits_;
  obs::Counter* obs_restored_;
};

}  // namespace r4ncl::core
