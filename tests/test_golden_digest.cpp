// Golden digests of both run engines.
//
// Every run below is reduced to one FNV-1a digest over everything it
// produces: each ClEpochRow / SequentialTaskRow field except wall_seconds,
// the run totals, the latent-memory footprint and the final weights (the
// bytes SnnNetwork::save writes).  The digests were recorded once and are
// pinned here, so any change to what the engines compute — row values,
// modelled cost, replay draws, eviction, trained weights — fails this suite,
// while a refactor that reproduces the engines exactly passes it unchanged.
//
// The matrix covers both engines, the methods (plus the naive baseline on the
// single-task engine), insertion layers 0–3, streamed vs materialized replay,
// full vs sampled per-epoch replay, the five eviction policies under a
// saturated byte budget with and without importance feedback, the budget
// schedules, sharding, and a kill-after-one-unit + resume per engine (the
// resumed run must reproduce the uninterrupted digest).  Every group runs at
// threads 1 and 4 against the same digests: the parallel kernels reduce in a
// fixed order, so the thread count must not move a single bit.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.hpp"
#include "core/continual_trainer.hpp"
#include "core/pretrain.hpp"
#include "core/sequential.hpp"

namespace r4ncl::core {
namespace {

// ---------------------------------------------------------------------------
// Digest

class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void stats(const snn::SpikeOpStats& s) {
    u64(s.synops);
    u64(s.neuron_updates);
    u64(s.spikes);
    u64(s.timestep_slots);
    u64(s.backward_synops);
    u64(s.decompress_bits);
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream out;
    out << std::hex << std::setw(16) << std::setfill('0') << h_;
    return out.str();
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A scratch file private to the running test: ctest runs the cases as
/// concurrent processes that share one temp directory.
std::string temp_path(const std::string& name) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string prefix = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : prefix) {
    if (c == '/') c = '_';
  }
  return (std::filesystem::path(::testing::TempDir()) / (prefix + "." + name)).string();
}

void hash_weights(Fnv& h, const snn::SnnNetwork& net) {
  const std::string path = temp_path("golden_weights.bin");
  net.save(path);
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> raw{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  h.u64(raw.size());
  h.bytes(raw.data(), raw.size());
  std::filesystem::remove(path);
}

std::string digest(const ClRunResult& r, const snn::SnnNetwork& net) {
  Fnv h;
  h.u64(r.rows.size());
  for (const ClEpochRow& row : r.rows) {
    h.u64(row.epoch);
    h.f64(row.loss);
    h.f64(row.acc_old);
    h.f64(row.acc_new);
    h.f64(row.latency_ms);
    h.f64(row.energy_uj);
    h.stats(row.stats);
  }
  h.u64(r.insertion_layer);
  h.u64(r.latent_memory_bytes);
  h.stats(r.prep_stats);
  h.f64(r.prep_latency_ms);
  h.f64(r.prep_energy_uj);
  h.f64(r.final_acc_old);
  h.f64(r.final_acc_new);
  h.f64(r.total_latency_ms());
  h.f64(r.total_energy_uj());
  hash_weights(h, net);
  return h.hex();
}

std::string digest(const SequentialRunResult& r, const snn::SnnNetwork& net) {
  Fnv h;
  h.u64(r.rows.size());
  for (const SequentialTaskRow& row : r.rows) {
    h.u64(row.task_index);
    h.u64(static_cast<std::uint64_t>(row.class_id));
    h.f64(row.acc_base);
    h.f64(row.acc_learned);
    h.f64(row.acc_current);
    h.u64(row.latent_memory_bytes);
    h.u64(row.budget_bytes);
    h.u64(row.buffer_entries);
    h.u64(row.buffer_evictions);
    h.f64(row.latency_ms);
    h.f64(row.energy_uj);
  }
  h.f64(r.total_latency_ms);
  h.f64(r.total_energy_uj);
  hash_weights(h, net);
  return h.hex();
}

// ---------------------------------------------------------------------------
// Scenario: a 24-16-12-8 network over 5 synthetic classes.  The single-task
// engine learns class 4 on top of classes 0–3; the stream learns classes 3
// and 4 on top of classes 0–2.

PretrainConfig golden_config() {
  PretrainConfig cfg;
  cfg.network.layer_sizes = {24, 16, 12, 8};
  cfg.network.num_classes = 5;
  cfg.network.seed = 5;
  cfg.data_params.channels = 24;
  cfg.data_params.classes = 5;
  cfg.data_params.timesteps = 20;
  cfg.data_params.ridge_width = 3.0;
  cfg.data_params.position_pool = 5;
  cfg.data_params.channel_jitter = 1.5;
  cfg.data_params.time_jitter = 1.0;
  cfg.data_params.seed = 7;
  cfg.split.train_per_class = 6;
  cfg.split.test_per_class = 5;
  cfg.split.replay_per_class = 3;
  cfg.split.new_class = 4;
  cfg.split.seed = 9;
  cfg.epochs = 10;
  cfg.batch_size = 6;
  cfg.lr = 1e-2f;
  return cfg;
}

const PretrainedScenario& cl_scenario() {
  static const PretrainedScenario s =
      make_pretrained_scenario(golden_config(), ::testing::TempDir(), false);
  return s;
}

const data::SequentialTasks& seq_tasks() {
  static const data::SequentialTasks tasks = data::build_sequential_tasks(
      data::SyntheticShdGenerator(golden_config().data_params), golden_config().split, 2);
  return tasks;
}

const snn::SnnNetwork& seq_base_net() {
  static const snn::SnnNetwork net = [] {
    snn::SnnNetwork n(golden_config().network);
    snn::AdamOptimizer opt;
    snn::TrainOptions opts;
    opts.epochs = golden_config().epochs;
    opts.batch_size = golden_config().batch_size;
    opts.lr = golden_config().lr;
    (void)snn::train_supervised(n, seq_tasks().pretrain_train, opt, opts);
    return n;
  }();
  return net;
}

enum class Method { kReplay4ncl, kSpikingLr, kNaive };

NclMethodConfig method(Method m) {
  NclMethodConfig cfg;
  switch (m) {
    case Method::kReplay4ncl:
      cfg = NclMethodConfig::replay4ncl(10);
      cfg.adjust_interval = 2;
      break;
    case Method::kSpikingLr:
      cfg = NclMethodConfig::spiking_lr();
      cfg.cl_timesteps = 12;
      break;
    case Method::kNaive:
      cfg = NclMethodConfig::naive_baseline();
      cfg.cl_timesteps = 10;
      break;
  }
  cfg.lr_cl = 5e-3f;
  cfg.batch_size = 4;
  return cfg;
}

/// Byte budget below what either engine's insertion-1 runs store unbounded,
/// so every policy evicts.
constexpr std::size_t kSaturatedBudget = 160;

ClRunConfig cl_run(Method m, std::size_t insertion) {
  ClRunConfig cfg;
  cfg.method = method(m);
  cfg.insertion_layer = insertion;
  cfg.epochs = 3;
  cfg.eval_every = 2;
  cfg.seed = 31;
  return cfg;
}

SequentialRunConfig seq_run(Method m, std::size_t insertion) {
  SequentialRunConfig cfg;
  cfg.method = method(m);
  cfg.insertion_layer = insertion;
  cfg.epochs_per_task = 2;
  cfg.replay_per_new_class = 2;
  cfg.seed = 43;
  return cfg;
}

const char* name(Method m) {
  switch (m) {
    case Method::kReplay4ncl: return "replay4ncl";
    case Method::kSpikingLr: return "spiking_lr";
    case Method::kNaive: return "naive";
  }
  return "?";
}

/// One pinned case: a run configuration plus its recorded digest.
template <typename Config>
struct Case {
  std::string name;
  Config config;
  std::string want;
};

using ClCase = Case<ClRunConfig>;
using SeqCase = Case<SequentialRunConfig>;

std::string run_digest(const ClRunConfig& cfg) {
  snn::SnnNetwork net = cl_scenario().net.clone();
  const ClRunResult r = run_continual_learning(net, cl_scenario().tasks, cfg);
  return digest(r, net);
}

std::string run_digest(const SequentialRunConfig& cfg) {
  snn::SnnNetwork net = seq_base_net().clone();
  const SequentialRunResult r = run_sequential(net, seq_tasks(), cfg);
  return digest(r, net);
}

/// Runs every case at the fixture's thread count and compares its digest.
/// A mismatch prints the case as a table line, ready to re-pin.
template <typename Config>
void expect_digests(const std::vector<Case<Config>>& cases, int threads) {
  for (Case<Config> c : cases) {
    c.config.method.threads = threads;
    const std::string got = run_digest(c.config);
    EXPECT_EQ(got, c.want) << "re-pin: {\"" << c.name << "\", \"" << got << "\"},";
  }
}

/// Looks a case's pinned digest up by name ("" when unpinned).
std::string pinned(const std::vector<std::pair<std::string, std::string>>& table,
                   const std::string& key) {
  for (const auto& [k, v] : table) {
    if (k == key) return v;
  }
  return "";
}

// ---------------------------------------------------------------------------
// Pinned digests (recorded before the engines shared one task step).

const std::vector<std::pair<std::string, std::string>>& cl_pins() {
  static const std::vector<std::pair<std::string, std::string>> pins = {
      {"replay4ncl/L0/stream0/samples0", "5676f0e9a734f736"},
      {"replay4ncl/L0/stream0/samples3", "929a2d3533d17ba7"},
      {"replay4ncl/L0/stream1/samples0", "5676f0e9a734f736"},
      {"replay4ncl/L0/stream1/samples3", "929a2d3533d17ba7"},
      {"replay4ncl/L1/stream0/samples0", "79a0251e32cc4922"},
      {"replay4ncl/L1/stream0/samples3", "027db133b2076d3a"},
      {"replay4ncl/L1/stream1/samples0", "79a0251e32cc4922"},
      {"replay4ncl/L1/stream1/samples3", "027db133b2076d3a"},
      {"replay4ncl/L2/stream0/samples0", "efb15f970d915098"},
      {"replay4ncl/L2/stream0/samples3", "79194dfd6f369ac1"},
      {"replay4ncl/L2/stream1/samples0", "efb15f970d915098"},
      {"replay4ncl/L2/stream1/samples3", "79194dfd6f369ac1"},
      {"replay4ncl/L3/stream0/samples0", "a10008584a34881d"},
      {"replay4ncl/L3/stream0/samples3", "90ad2e211f1eab62"},
      {"replay4ncl/L3/stream1/samples0", "a10008584a34881d"},
      {"replay4ncl/L3/stream1/samples3", "90ad2e211f1eab62"},
      {"spiking_lr/L0/stream0/samples0", "bd19ddd2efa12f09"},
      {"spiking_lr/L0/stream0/samples3", "d80b7c68f8b1d312"},
      {"spiking_lr/L0/stream1/samples0", "bd19ddd2efa12f09"},
      {"spiking_lr/L0/stream1/samples3", "d80b7c68f8b1d312"},
      {"spiking_lr/L1/stream0/samples0", "ce4686e8aaa5e67c"},
      {"spiking_lr/L1/stream0/samples3", "8d95cc6826d0bc3d"},
      {"spiking_lr/L1/stream1/samples0", "ce4686e8aaa5e67c"},
      {"spiking_lr/L1/stream1/samples3", "8d95cc6826d0bc3d"},
      {"spiking_lr/L2/stream0/samples0", "769c474753fd3eba"},
      {"spiking_lr/L2/stream0/samples3", "d11a5c5cc94d88b7"},
      {"spiking_lr/L2/stream1/samples0", "769c474753fd3eba"},
      {"spiking_lr/L2/stream1/samples3", "d11a5c5cc94d88b7"},
      {"spiking_lr/L3/stream0/samples0", "6c03ed8918fac780"},
      {"spiking_lr/L3/stream0/samples3", "1cffc7b8fc492b52"},
      {"spiking_lr/L3/stream1/samples0", "6c03ed8918fac780"},
      {"spiking_lr/L3/stream1/samples3", "1cffc7b8fc492b52"},
      {"naive/L0/stream0/samples0", "6f0799e88405dbbe"},
      {"naive/L0/stream0/samples3", "6f0799e88405dbbe"},
      {"naive/L0/stream1/samples0", "6f0799e88405dbbe"},
      {"naive/L0/stream1/samples3", "6f0799e88405dbbe"},
      {"naive/L1/stream0/samples0", "b7c2c9f0fd42e194"},
      {"naive/L1/stream0/samples3", "b7c2c9f0fd42e194"},
      {"naive/L1/stream1/samples0", "b7c2c9f0fd42e194"},
      {"naive/L1/stream1/samples3", "b7c2c9f0fd42e194"},
      {"naive/L2/stream0/samples0", "304ee821d9b20b67"},
      {"naive/L2/stream0/samples3", "304ee821d9b20b67"},
      {"naive/L2/stream1/samples0", "304ee821d9b20b67"},
      {"naive/L2/stream1/samples3", "304ee821d9b20b67"},
      {"naive/L3/stream0/samples0", "942f2e15e9d6a7b7"},
      {"naive/L3/stream0/samples3", "942f2e15e9d6a7b7"},
      {"naive/L3/stream1/samples0", "942f2e15e9d6a7b7"},
      {"naive/L3/stream1/samples3", "942f2e15e9d6a7b7"},
      {"fifo/feedback0/stream0", "aa2371652562dbfd"},
      {"fifo/feedback0/stream1", "aa2371652562dbfd"},
      {"fifo/feedback1/stream0", "aa2371652562dbfd"},
      {"fifo/feedback1/stream1", "aa2371652562dbfd"},
      {"reservoir/feedback0/stream0", "a8803cd1ca8db7b6"},
      {"reservoir/feedback0/stream1", "a8803cd1ca8db7b6"},
      {"reservoir/feedback1/stream0", "a8803cd1ca8db7b6"},
      {"reservoir/feedback1/stream1", "a8803cd1ca8db7b6"},
      {"class_balanced/feedback0/stream0", "5b1d1aeb6098e0ca"},
      {"class_balanced/feedback0/stream1", "5b1d1aeb6098e0ca"},
      {"class_balanced/feedback1/stream0", "5b1d1aeb6098e0ca"},
      {"class_balanced/feedback1/stream1", "5b1d1aeb6098e0ca"},
      {"low_importance/feedback0/stream0", "9151f7256ac4d943"},
      {"low_importance/feedback0/stream1", "9151f7256ac4d943"},
      {"low_importance/feedback1/stream0", "9151f7256ac4d943"},
      {"low_importance/feedback1/stream1", "9151f7256ac4d943"},
      {"importance_class_balanced/feedback0/stream0", "cc788fcfb9c19114"},
      {"importance_class_balanced/feedback0/stream1", "cc788fcfb9c19114"},
      {"importance_class_balanced/feedback1/stream0", "cc788fcfb9c19114"},
      {"importance_class_balanced/feedback1/stream1", "cc788fcfb9c19114"},
      {"schedule_const/stream0", "7fa2cee0d5000e59"},
      {"schedule_const/stream1", "7fa2cee0d5000e59"},
      {"schedule_linear:200:120/stream0", "7da7eb80a15dfcc7"},
      {"schedule_linear:200:120/stream1", "7da7eb80a15dfcc7"},
      {"schedule_step:1:120/stream0", "7fa2cee0d5000e59"},
      {"schedule_step:1:120/stream1", "7fa2cee0d5000e59"},
      {"shards1/class", "18c537ff9b1df4f8"},
      {"shards1/hash", "18c537ff9b1df4f8"},
      {"shards2/class", "18c537ff9b1df4f8"},
      {"shards2/hash", "70ce35d230e53bd3"},
      {"resume", "64850f03663b80ab"},
  };
  return pins;
}

const std::vector<std::pair<std::string, std::string>>& seq_pins() {
  static const std::vector<std::pair<std::string, std::string>> pins = {
      {"replay4ncl/L0/stream0/samples0", "53d5e81878544e16"},
      {"replay4ncl/L0/stream0/samples3", "d5ceaf0bf9d9a859"},
      {"replay4ncl/L0/stream1/samples0", "53d5e81878544e16"},
      {"replay4ncl/L0/stream1/samples3", "d5ceaf0bf9d9a859"},
      {"replay4ncl/L1/stream0/samples0", "06ac006a5dcd275e"},
      {"replay4ncl/L1/stream0/samples3", "38e850aba18f7b10"},
      {"replay4ncl/L1/stream1/samples0", "06ac006a5dcd275e"},
      {"replay4ncl/L1/stream1/samples3", "38e850aba18f7b10"},
      {"replay4ncl/L2/stream0/samples0", "6a78ae76d0936d0b"},
      {"replay4ncl/L2/stream0/samples3", "9f249b66780b854d"},
      {"replay4ncl/L2/stream1/samples0", "6a78ae76d0936d0b"},
      {"replay4ncl/L2/stream1/samples3", "9f249b66780b854d"},
      {"replay4ncl/L3/stream0/samples0", "d80eb08dc6437454"},
      {"replay4ncl/L3/stream0/samples3", "9c5e1c38b89e3de2"},
      {"replay4ncl/L3/stream1/samples0", "d80eb08dc6437454"},
      {"replay4ncl/L3/stream1/samples3", "9c5e1c38b89e3de2"},
      {"spiking_lr/L0/stream0/samples0", "3d87c4433aec351b"},
      {"spiking_lr/L0/stream0/samples3", "b958c1c2752ae20e"},
      {"spiking_lr/L0/stream1/samples0", "3d87c4433aec351b"},
      {"spiking_lr/L0/stream1/samples3", "b958c1c2752ae20e"},
      {"spiking_lr/L1/stream0/samples0", "be74cfcd544589d5"},
      {"spiking_lr/L1/stream0/samples3", "6dd43f1a41cb2399"},
      {"spiking_lr/L1/stream1/samples0", "be74cfcd544589d5"},
      {"spiking_lr/L1/stream1/samples3", "6dd43f1a41cb2399"},
      {"spiking_lr/L2/stream0/samples0", "867318467c9fe0a3"},
      {"spiking_lr/L2/stream0/samples3", "a47f65e1a3e27fd3"},
      {"spiking_lr/L2/stream1/samples0", "867318467c9fe0a3"},
      {"spiking_lr/L2/stream1/samples3", "a47f65e1a3e27fd3"},
      {"spiking_lr/L3/stream0/samples0", "a5ba980369394ff9"},
      {"spiking_lr/L3/stream0/samples3", "8bb767338a17fba5"},
      {"spiking_lr/L3/stream1/samples0", "a5ba980369394ff9"},
      {"spiking_lr/L3/stream1/samples3", "8bb767338a17fba5"},
      {"fifo/feedback0/stream0", "d8a6e4352817612b"},
      {"fifo/feedback0/stream1", "d8a6e4352817612b"},
      {"fifo/feedback1/stream0", "d8a6e4352817612b"},
      {"fifo/feedback1/stream1", "d8a6e4352817612b"},
      {"reservoir/feedback0/stream0", "40efb54b10f4ed5d"},
      {"reservoir/feedback0/stream1", "40efb54b10f4ed5d"},
      {"reservoir/feedback1/stream0", "40efb54b10f4ed5d"},
      {"reservoir/feedback1/stream1", "40efb54b10f4ed5d"},
      {"class_balanced/feedback0/stream0", "f23a8db861aa25e0"},
      {"class_balanced/feedback0/stream1", "f23a8db861aa25e0"},
      {"class_balanced/feedback1/stream0", "f23a8db861aa25e0"},
      {"class_balanced/feedback1/stream1", "f23a8db861aa25e0"},
      {"low_importance/feedback0/stream0", "cd36d49687570454"},
      {"low_importance/feedback0/stream1", "cd36d49687570454"},
      {"low_importance/feedback1/stream0", "782066ccbd682ce9"},
      {"low_importance/feedback1/stream1", "782066ccbd682ce9"},
      {"importance_class_balanced/feedback0/stream0", "e247937421f8ee83"},
      {"importance_class_balanced/feedback0/stream1", "e247937421f8ee83"},
      {"importance_class_balanced/feedback1/stream0", "28414faed9d8e39a"},
      {"importance_class_balanced/feedback1/stream1", "28414faed9d8e39a"},
      {"schedule_const/stream0", "f7bf70724d92f16a"},
      {"schedule_const/stream1", "f7bf70724d92f16a"},
      {"schedule_linear:200:120/stream0", "77f1222772b3c798"},
      {"schedule_linear:200:120/stream1", "77f1222772b3c798"},
      {"schedule_step:1:120/stream0", "d15bd8c6db5156b6"},
      {"schedule_step:1:120/stream1", "d15bd8c6db5156b6"},
      {"shards1/class", "83fe3b6b6b46f1e7"},
      {"shards1/hash", "83fe3b6b6b46f1e7"},
      {"shards2/class", "01f06aaeaa9fc3d1"},
      {"shards2/hash", "90ded95b01e9fb6a"},
      {"resume", "772b0ff0601b332f"},
  };
  return pins;
}

const ReplayPolicy kPolicies[] = {ReplayPolicy::kFifo, ReplayPolicy::kReservoir,
                                  ReplayPolicy::kClassBalanced, ReplayPolicy::kLowImportance,
                                  ReplayPolicy::kImportanceClassBalanced};

/// method × insertion 0–3 × replay_stream 0/1 × replay_samples 0/3.
template <typename Config>
std::vector<Case<Config>> method_cases(const std::vector<Method>& methods,
                                       const std::function<Config(Method, std::size_t)>& make,
                                       const std::vector<std::pair<std::string, std::string>>& pins) {
  std::vector<Case<Config>> cases;
  for (const Method m : methods) {
    for (std::size_t insertion = 0; insertion <= 3; ++insertion) {
      for (const bool stream : {false, true}) {
        for (const std::size_t samples : {std::size_t{0}, std::size_t{3}}) {
          Config cfg = make(m, insertion);
          cfg.method.replay_stream = stream;
          cfg.method.replay_samples_per_epoch = samples;
          const std::string key = std::string(name(m)) + "/L" + std::to_string(insertion) +
                                  "/stream" + std::to_string(stream) + "/samples" +
                                  std::to_string(samples);
          cases.push_back({key, cfg, pinned(pins, key)});
        }
      }
    }
  }
  return cases;
}

/// The five policies under a saturated budget × importance_feedback 0/1 ×
/// replay_stream 0/1, at insertion 1 with a sampled draw.
template <typename Config>
std::vector<Case<Config>> policy_cases(const std::function<Config(Method, std::size_t)>& make,
                                       const std::vector<std::pair<std::string, std::string>>& pins) {
  std::vector<Case<Config>> cases;
  for (const ReplayPolicy policy : kPolicies) {
    for (const bool feedback : {false, true}) {
      for (const bool stream : {false, true}) {
        Config cfg = make(Method::kReplay4ncl, 1);
        cfg.method.replay_budget.capacity_bytes = kSaturatedBudget;
        cfg.method.replay_budget.policy = policy;
        cfg.method.importance_feedback = feedback;
        cfg.method.replay_stream = stream;
        cfg.method.replay_samples_per_epoch = 3;
        const std::string key = std::string(to_string(policy)) + "/feedback" +
                                std::to_string(feedback) + "/stream" + std::to_string(stream);
        cases.push_back({key, cfg, pinned(pins, key)});
      }
    }
  }
  return cases;
}

/// budget_schedule const/linear/step × replay_stream 0/1, and shards 1/2 ×
/// shard_by class/hash, all under reservoir eviction.
template <typename Config>
std::vector<Case<Config>> store_cases(const std::function<Config(Method, std::size_t)>& make,
                                      const std::vector<std::pair<std::string, std::string>>& pins) {
  std::vector<Case<Config>> cases;
  for (const char* spec : {"const", "linear:200:120", "step:1:120"}) {
    for (const bool stream : {false, true}) {
      Config cfg = make(Method::kReplay4ncl, 1);
      cfg.method.replay_budget.capacity_bytes = kSaturatedBudget;
      cfg.method.replay_budget.policy = ReplayPolicy::kReservoir;
      cfg.method.budget_schedule = parse_budget_schedule(spec);
      cfg.method.replay_stream = stream;
      const std::string key =
          std::string("schedule_") + spec + "/stream" + std::to_string(stream);
      cases.push_back({key, cfg, pinned(pins, key)});
    }
  }
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    for (const ShardKey key_kind : {ShardKey::kClass, ShardKey::kHash}) {
      Config cfg = make(Method::kReplay4ncl, 2);
      cfg.method.replay_budget.capacity_bytes = kSaturatedBudget;
      cfg.method.replay_budget.policy = ReplayPolicy::kLowImportance;
      cfg.method.replay_sharding = {.shards = shards, .shard_by = key_kind};
      cfg.method.replay_samples_per_epoch = 4;
      const std::string key = "shards" + std::to_string(shards) + "/" +
                              std::string(to_string(key_kind));
      cases.push_back({key, cfg, pinned(pins, key)});
    }
  }
  return cases;
}

class GoldenDigest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenDigest, ContinualMethods) {
  expect_digests(method_cases<ClRunConfig>({Method::kReplay4ncl, Method::kSpikingLr,
                                            Method::kNaive},
                                           cl_run, cl_pins()),
                 GetParam());
}

TEST_P(GoldenDigest, ContinualPolicies) {
  expect_digests(policy_cases<ClRunConfig>(cl_run, cl_pins()), GetParam());
}

TEST_P(GoldenDigest, ContinualStore) {
  expect_digests(store_cases<ClRunConfig>(cl_run, cl_pins()), GetParam());
}

TEST_P(GoldenDigest, SequentialMethods) {
  expect_digests(method_cases<SequentialRunConfig>({Method::kReplay4ncl, Method::kSpikingLr},
                                                   seq_run, seq_pins()),
                 GetParam());
}

TEST_P(GoldenDigest, SequentialPolicies) {
  expect_digests(policy_cases<SequentialRunConfig>(seq_run, seq_pins()), GetParam());
}

TEST_P(GoldenDigest, SequentialStore) {
  expect_digests(store_cases<SequentialRunConfig>(seq_run, seq_pins()), GetParam());
}

// The policy matrix is only meaningful if the budget really binds.
TEST_P(GoldenDigest, SaturatedBudgetEvicts) {
  for (const ReplayPolicy policy : kPolicies) {
    SequentialRunConfig cfg = seq_run(Method::kReplay4ncl, 1);
    cfg.method.threads = GetParam();
    cfg.method.replay_budget.capacity_bytes = kSaturatedBudget;
    cfg.method.replay_budget.policy = policy;
    snn::SnnNetwork net = seq_base_net().clone();
    const SequentialRunResult r = run_sequential(net, seq_tasks(), cfg);
    EXPECT_GT(r.rows.back().buffer_evictions, 0u) << to_string(policy);
  }
  ClRunConfig unbounded = cl_run(Method::kReplay4ncl, 1);
  unbounded.method.threads = GetParam();
  snn::SnnNetwork net = cl_scenario().net.clone();
  EXPECT_GT(run_continual_learning(net, cl_scenario().tasks, unbounded).latent_memory_bytes,
            kSaturatedBudget);
}

// Killed after one unit, resumed into a blank network: the resumed run must
// reproduce the uninterrupted run's pinned digest.
TEST_P(GoldenDigest, ContinualResume) {
  ClRunConfig cfg = cl_run(Method::kReplay4ncl, 2);
  cfg.method.threads = GetParam();
  cfg.method.replay_stream = true;
  cfg.method.replay_budget.capacity_bytes = kSaturatedBudget;
  cfg.method.replay_budget.policy = ReplayPolicy::kLowImportance;
  cfg.method.replay_samples_per_epoch = 3;
  const std::string path = temp_path("golden_cl_resume.ckpt");
  {
    snn::SnnNetwork net = cl_scenario().net.clone();
    CheckpointOptions opts;
    opts.save_path = path;
    opts.stop_after_units = 1;
    ASSERT_EQ(run_continual_learning(net, cl_scenario().tasks, cfg, opts).rows.size(), 1u);
  }
  snn::SnnNetwork net(golden_config().network);
  CheckpointOptions opts;
  opts.resume_path = path;
  const ClRunResult r = run_continual_learning(net, cl_scenario().tasks, cfg, opts);
  std::filesystem::remove(path);
  const std::string got = digest(r, net);
  EXPECT_EQ(got, run_digest(cfg));
  EXPECT_EQ(got, pinned(cl_pins(), "resume")) << "re-pin: {\"resume\", \"" << got << "\"},";
}

TEST_P(GoldenDigest, SequentialResume) {
  SequentialRunConfig cfg = seq_run(Method::kReplay4ncl, 2);
  cfg.method.threads = GetParam();
  cfg.method.replay_stream = true;
  cfg.method.replay_budget.capacity_bytes = kSaturatedBudget;
  cfg.method.replay_budget.policy = ReplayPolicy::kLowImportance;
  cfg.method.replay_samples_per_epoch = 3;
  const std::string path = temp_path("golden_seq_resume.ckpt");
  {
    snn::SnnNetwork net = seq_base_net().clone();
    CheckpointOptions opts;
    opts.save_path = path;
    opts.stop_after_units = 1;
    ASSERT_EQ(run_sequential(net, seq_tasks(), cfg, opts).rows.size(), 1u);
  }
  snn::SnnNetwork net(golden_config().network);
  CheckpointOptions opts;
  opts.resume_path = path;
  const SequentialRunResult r = run_sequential(net, seq_tasks(), cfg, opts);
  std::filesystem::remove(path);
  const std::string got = digest(r, net);
  EXPECT_EQ(got, run_digest(cfg));
  EXPECT_EQ(got, pinned(seq_pins(), "resume")) << "re-pin: {\"resume\", \"" << got << "\"},";
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenDigest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return "threads" + std::to_string(p.param);
                         });

}  // namespace
}  // namespace r4ncl::core
