// Repo benchmark: runs one workload for a fixed wall-clock budget and
// prints every metric as one JSON object on the last line of stdout.
//
//   perfbench --workload <headline_l3|stream_l1> --seed <n>
//                    --seconds <s> --trace <0|1> --out-dir <dir>
//
// Every input is generated from --seed before the timed region, and only
// calls into the library are timed.  --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same workload untraced and then traced (the
// obs registry armed, plus obs::TraceSpan spans around library calls),
// checks the traced results against the untraced ones, and reports the
// per-layer metrics.  perfbench/README.md defines every metric and the
// layer -> metric -> workload predictions.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/continual_trainer.hpp"
#include "core/experiment.hpp"
#include "core/sequential.hpp"
#include "core/sharded_engine.hpp"
#include "metrics/accuracy.hpp"
#include "metrics/cost_model.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace r4ncl;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- Workload constants ----------------------------------------------------
// Paper geometry at half the sample counts (6 train / 4 test / 2 replay per
// class, the quickstart scale): at full scale the three pre-training set-ups
// alone took 20-36 s of every training run.
constexpr double kScale = 0.5;
// Set-up is repeated this many times per run; setup_s is the median.
constexpr std::size_t kSetupReps = 3;
// Training and set-up run single-threaded: under 22% host steal a task on
// two OpenMP workers took 2x its quiet-host time, on one worker 1.25x, and a
// four-worker set-up took 1.7x at 14% steal.
constexpr int kTrainThreads = 1;

// headline_l3: Table 1's Replay4NCL row (insertion layer 3, 40 epochs,
// evaluated every 5).
constexpr std::size_t kHeadlineLayer = 3;
constexpr std::size_t kHeadlineEpochs = 40;
constexpr std::size_t kHeadlineEvalEvery = 5;

// stream_l1: 8 arriving classes on a 12-class base, 30 epochs per task (8
// epochs leaves new-task accuracy near 0, so a regression could not show).
constexpr std::size_t kStreamTasks = 8;
constexpr std::size_t kStreamLayer = 1;
constexpr std::size_t kStreamEpochs = 30;
constexpr std::size_t kStreamReplaySamples = 16;
constexpr std::uint8_t kStreamLatentBits = 2;
constexpr std::size_t kStreamSaturationTasks = 3;

// ---- Arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      R4NCL_CHECK(val == "0" || val == "1", "--trace takes 0 or 1, got " << val);
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else {
      R4NCL_CHECK(false, "unknown argument " << key);
    }
  }
  R4NCL_CHECK(argc % 2 == 1, "arguments come in --key value pairs");
  R4NCL_CHECK(have_workload && have_seed && have_seconds,
              "--workload, --seed and --seconds are required");
  R4NCL_CHECK(a.seconds > 0.0, "--seconds must be positive");
  return a;
}

/// Derived seeds: every input that varies between runs is a function of
/// --seed: the samples of the arriving classes and the CL run seed (shuffle
/// and replay draws).  The pre-trained network is the device's shipped
/// model: its data and weights use the repo's standard seeds, so set-up is
/// the same work on every run.
struct Seeds {
  std::uint64_t draw, run;
  explicit Seeds(std::uint64_t seed) {
    Rng mix(seed * 0x9E3779B97F4A7C15ULL + 0x5851F42D4C957F2DULL);
    draw = mix() % 1000000;
    run = mix() % 1000000;
  }
};

// ---- Reporting -------------------------------------------------------------

/// Operation and check tally behind `attempted`, `failed` and ok_rate.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank =
      std::min(v.size() - 1,
               static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size()))) -
                   (q > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string json_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// End-to-end figures.  A "task" is one run call that learns one new class.
struct EndToEnd {
  std::vector<double> setup_s;
  // One value per timed task / evaluate_tasks call; the metrics are medians.
  // A 20 s run holds 20 to 35 tasks, too few for a tail percentile (p90 or
  // above) to rest on ten samples beyond it, so no tail is reported.
  std::vector<double> task_s;
  std::vector<double> learn_rate;
  std::vector<double> eval_rate;
  // Exact for a given seed.
  double acc_old = 0.0;
  double model_latency_ms = 0.0;
  double model_energy_uj = 0.0;
  double latent_bytes = 0.0;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& e, const Tally& tally) {
  std::printf("samples: tasks=%zu evaluations=%zu\n", e.task_s.size(), e.eval_rate.size());
  const double ok_rate =
      1.0 - static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  return {
      {"setup_s", median(e.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_rate", ok_rate, "frac"},
      {"learn_samples_per_s", median(e.learn_rate), "1/s"},
      {"task_s_p50", median(e.task_s), "s"},
      {"eval_samples_per_s", median(e.eval_rate), "1/s"},
      {"acc_old", e.acc_old, "frac"},
      {"model_latency_ms", e.model_latency_ms, "ms"},
      {"model_energy_uj", e.model_energy_uj, "uJ"},
      {"latent_bytes", e.latent_bytes, "B"},
  };
}

/// Per-layer figures (traced run), means per task.  A layer a workload does
/// not exercise, or does not expose through the public API, reads 0.
using PerLayer = std::map<std::string, double>;

std::vector<Metric> per_layer_metrics(const PerLayer& p) {
  static const std::pair<const char*, const char*> kNames[] = {
      {"snn.frozen_s", "s"},          {"snn.train_s", "s"},
      {"snn.backward_synops", "count"}, {"snn.assemble_s", "s"},
      {"snn.stall_s", "s"},           {"snn.synops", "count"},
      {"snn.neuron_updates", "count"}, {"snn.spikes", "count"},
      {"snn.spike_density", "frac"},  {"metrics.eval_s", "s"},
      {"metrics.acc_new", "frac"},    {"core.replay_add_us", "us"},
      {"core.replay_admit_ratio", "frac"}, {"core.evictions", "count"},
      {"core.entries", "count"},      {"core.replay_draw_us", "us"},
      {"core.lock_wait_s", "s"},
      {"core.ckpt_save_s", "s"},      {"core.ckpt_load_s", "s"},
      {"core.ckpt_bytes", "B"},       {"core.epoch_self_s", "s"},
      {"core.pretrain_s", "s"},       {"compress.decompress_bits", "count"},
      {"compress.bytes_per_entry", "B"}, {"data.generate_s", "s"},
      {"data.rescale_s", "s"},        {"obs.trace_overhead_frac", "frac"},
  };
  std::vector<Metric> out;
  for (const auto& [name, unit] : kNames) {
    const auto it = p.find(name);
    out.push_back({name, it == p.end() ? 0.0 : it->second, unit});
  }
  return out;
}

// ---- Tracing ----------------------------------------------------------------

/// Runs `fn` inside an obs::TraceSpan named `name`: while tracing is armed,
/// the call's wall time is recorded into the registry histogram `name`.
template <typename Fn>
decltype(auto) span(const char* name, Fn&& fn) {
  const obs::TraceSpan s(obs::metrics(), name);
  return fn();
}

/// Sum of a registry histogram (seconds) / value of a registry counter.
double obs_seconds(const char* name) {
  return obs::metrics().histogram(name, obs::kLatencyEdgesSeconds).sum();
}
double obs_count(const char* name) {
  return static_cast<double>(obs::metrics().counter(name).value());
}

void set_tracing(bool on) {
  obs::metrics().set_trace(on);
  obs::metrics().set_armed(on);
}

void arm_registry() {
  obs::metrics().reset_values();
  set_tracing(true);
}

void write_registry(const std::string& path) { obs::write_snapshot(obs::metrics(), path); }

// ---- Shared set-up helpers --------------------------------------------------

std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h = (h ^ static_cast<unsigned char>(*it)) * 0x100000001b3ULL;
  }
  return h;
}

/// FNV-1a over a network's serialized weights: set-up repetitions must
/// produce bit-identical pre-trained networks.
std::uint64_t weights_hash(const snn::SnnNetwork& net, const std::string& scratch) {
  net.save(scratch);
  const std::uint64_t h = file_hash(scratch);
  std::filesystem::remove(scratch);
  return h;
}

void pretrain(snn::SnnNetwork& net, const data::Dataset& train,
              const core::PretrainConfig& pc) {
  snn::AdamOptimizer opt;
  snn::TrainOptions opts;
  opts.epochs = pc.epochs;
  opts.batch_size = pc.batch_size;
  opts.lr = pc.lr;
  opts.shuffle_seed = pc.shuffle_seed;
  (void)snn::train_supervised(net, train, opt, opts);
}

/// Runs `one_setup` kSetupReps times and keeps the last result; every
/// repetition must agree with the first on `fingerprint`.
template <typename Setup, typename Fingerprint>
auto repeated_setup(Tally& tally, Setup&& one_setup, Fingerprint&& fingerprint) {
  auto last = one_setup();
  const auto reference = fingerprint(last);
  for (std::size_t rep = 1; rep < kSetupReps; ++rep) {
    last = one_setup();
    tally.op(fingerprint(last) == reference, "set-up repetition is not reproducible");
  }
  return last;
}

/// Task splits plus the network pre-trained on their base classes.
template <typename Tasks>
struct Pretrained {
  Tasks tasks;
  snn::SnnNetwork net;
};

/// The training workloads' set-up, repeated: generate the task splits with
/// `build(generator)`, then pre-train a fresh network on them on one thread
/// (no on-disk cache, so every run does the same work).  The repetitions
/// must yield bit-identical weights.
template <typename Build>
auto pretrained_setup(const core::PretrainConfig& pc, Build&& build, const Args& args,
                      Tally& tally, EndToEnd& e, PerLayer& p) {
  using Tasks = decltype(build(std::declval<const data::SyntheticShdGenerator&>()));
  std::vector<double> gen_s;
  std::vector<double> pre_s;
  const std::string scratch = args.out_dir + "/" + args.workload + "_weights.bin";
  set_num_threads(kTrainThreads);
  auto setup = repeated_setup(
      tally,
      [&] {
        const auto t0 = Clock::now();
        const data::SyntheticShdGenerator gen(pc.data_params);
        Tasks tasks = build(gen);
        gen_s.push_back(seconds_since(t0));
        const auto t1 = Clock::now();
        snn::SnnNetwork net(pc.network);
        pretrain(net, tasks.pretrain_train, pc);
        pre_s.push_back(seconds_since(t1));
        e.setup_s.push_back(gen_s.back() + pre_s.back());
        return Pretrained<Tasks>{std::move(tasks), std::move(net)};
      },
      [&](const Pretrained<Tasks>& s) { return weights_hash(s.net, scratch); });
  p["data.generate_s"] = median(gen_s);
  p["core.pretrain_s"] = median(pre_s);
  return setup;
}

/// Deployment-configuration evaluation: the method's own timesteps and
/// threshold behaviour, as run_continual_learning evaluates.
metrics::EvalSettings eval_settings(const core::NclMethodConfig& method) {
  metrics::EvalSettings eval;
  eval.timesteps = method.cl_timesteps;
  eval.rescale = method.rescale;
  eval.policy = method.policy();
  return eval;
}

bool finite_loss(double loss) { return std::isfinite(loss); }
bool unit_interval(double x) { return x >= 0.0 && x <= 1.0; }

// ============================================================================
// headline_l3
// ============================================================================

struct TaskOutcome {
  double acc_old = 0.0;
  double acc_new = 0.0;
  double latency_ms = 0.0;
  double energy_uj = 0.0;
  std::size_t latent_bytes = 0;
  // Filled by the traced runner only.
  snn::SpikeOpStats stats;
  std::size_t entries = 0;
  std::size_t adds = 0;
  std::size_t admitted = 0;
  std::size_t evictions = 0;
  double assemble_s = 0.0;
  double stall_s = 0.0;
};

bool same_outcome(const TaskOutcome& a, const TaskOutcome& b) {
  return a.acc_old == b.acc_old && a.acc_new == b.acc_new && a.latency_ms == b.latency_ms &&
         a.energy_uj == b.energy_uj && a.latent_bytes == b.latent_bytes;
}

/// Frozen-prefix inference exactly as run_continual_learning performs it.
data::Dataset frozen_inference(const snn::SnnNetwork& net, const data::Dataset& dataset,
                               std::size_t insertion, const snn::ThresholdPolicy& policy,
                               std::size_t batch_size, snn::SpikeOpStats* stats) {
  data::Dataset out;
  out.reserve(dataset.size());
  std::vector<std::size_t> indices(dataset.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  for (std::size_t lo = 0; lo < indices.size(); lo += batch_size) {
    const std::size_t hi = std::min(indices.size(), lo + batch_size);
    const std::span<const std::size_t> idx(indices.data() + lo, hi - lo);
    const Tensor latent = net.run_hidden(data::make_batch(dataset, idx), 0, insertion, policy,
                                         stats);
    for (std::size_t b = 0; b < idx.size(); ++b) {
      out.push_back({data::batch_to_raster(latent, b), dataset[idx[b]].label});
    }
  }
  return out;
}

/// The traced headline runner: run_continual_learning's Alg. 1 sequence for
/// the materialized-replay configuration, one span per layer call.  The
/// prefix's frozen inference is "bench.prep_frozen", the per-epoch one
/// "bench.frozen", so the epoch span's children are exactly frozen, draw,
/// train and eval.
TaskOutcome traced_headline_task(snn::SnnNetwork& net, const data::ClassIncrementalTasks& tasks,
                                 const core::ClRunConfig& cfg, Tally& tally) {
  const core::NclMethodConfig& m = cfg.method;
  const metrics::EnergyModel energy(cfg.energy_params);
  const metrics::LatencyModel latency(cfg.latency_params);
  const snn::ThresholdPolicy policy = m.policy();
  set_num_threads(m.threads);
  core::ShardedReplayEngine buffer(m.storage_codec, m.cl_timesteps,
                                   m.replay_budget.with_run_seed(cfg.seed), m.replay_sharding);
  TaskOutcome out;
  snn::SpikeOpStats prep;
  const data::Dataset replay_rescaled = span("bench.rescale", [&] {
    return data::time_rescale(tasks.replay_subset, m.cl_timesteps, m.rescale);
  });
  const data::Dataset latents = span("bench.prep_frozen", [&] {
    return frozen_inference(net, replay_rescaled, cfg.insertion_layer, policy, m.batch_size,
                            &prep);
  });
  span("bench.replay_add", [&] {
    for (const auto& s : latents) out.admitted += buffer.add(s.raster, s.label) ? 1 : 0;
  });
  out.adds = latents.size();
  double total_latency = latency.latency_ms(prep);
  double total_energy = energy.energy_uj(prep);
  const data::Dataset new_rescaled = span("bench.rescale", [&] {
    return data::time_rescale(tasks.new_train, m.cl_timesteps, m.rescale);
  });
  const metrics::EvalSettings eval = eval_settings(m);

  snn::AdamOptimizer optimizer;
  Rng epoch_rng(cfg.seed);
  snn::SpikeOpStats run_stats;
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    span("bench.cl_epoch", [&] {
      snn::TrainOptions opts;
      opts.epochs = 1;
      opts.batch_size = m.batch_size;
      opts.lr = m.lr_cl;
      opts.insertion_layer = cfg.insertion_layer;
      opts.policy = policy;
      opts.shuffle_seed = epoch_rng();
      opts.prefetch = m.prefetch ? 1 : 0;
      snn::SpikeOpStats stats;
      data::Dataset mixed = span("bench.frozen", [&] {
        return frozen_inference(net, new_rescaled, cfg.insertion_layer, policy, m.batch_size,
                                &stats);
      });
      data::Dataset replay = span("bench.replay_draw", [&] { return buffer.materialize(&stats); });
      mixed.insert(mixed.end(), std::make_move_iterator(replay.begin()),
                   std::make_move_iterator(replay.end()));
      const auto history =
          span("bench.train", [&] { return snn::train_supervised(net, mixed, optimizer, opts); });
      tally.op(finite_loss(history.front().loss), "headline traced loss is not finite");
      out.assemble_s += history.front().assembly_seconds;
      out.stall_s += history.front().assembly_stall_seconds;
      stats.add(history.front().stats);
      run_stats.add(stats);
      total_latency += latency.latency_ms(stats);
      total_energy += energy.energy_uj(stats);
      if (epoch % cfg.eval_every == 0 || epoch + 1 == cfg.epochs) {
        const metrics::TaskAccuracy a =
            span("bench.eval", [&] { return metrics::evaluate_tasks(net, tasks, eval); });
        out.acc_old = a.old_tasks;
        out.acc_new = a.new_task;
      }
    });
  }
  out.latency_ms = total_latency;
  out.energy_uj = total_energy;
  out.stats = run_stats;
  out.latent_bytes = buffer.memory_bytes();
  out.entries = buffer.size();
  out.evictions = buffer.evictions();
  return out;
}

TaskOutcome outcome_of(const core::ClRunResult& r) {
  TaskOutcome o;
  o.acc_old = r.final_acc_old;
  o.acc_new = r.final_acc_new;
  o.latency_ms = r.total_latency_ms();
  o.energy_uj = r.total_energy_uj();
  o.latent_bytes = r.latent_memory_bytes;
  return o;
}

void run_headline(const Args& args, Tally& tally, EndToEnd& e, PerLayer& p) {
  const Seeds seeds(args.seed);
  const core::PretrainConfig pc = core::standard_pretrain_config(kScale);
  auto setup = pretrained_setup(
      pc,
      [&](const data::SyntheticShdGenerator& gen) {
        return data::build_class_incremental(gen, pc.split);
      },
      args, tally, e, p);
  {
    const data::SyntheticShdGenerator gen(pc.data_params);
    const std::int32_t cls = setup.tasks.new_class;
    setup.tasks.new_train = gen.make_dataset(std::span(&cls, 1), pc.split.train_per_class,
                                             seeds.draw);
    setup.tasks.new_test = gen.make_dataset(std::span(&cls, 1), pc.split.test_per_class,
                                            seeds.draw + 1);
  }
  const data::ClassIncrementalTasks& tasks = setup.tasks;

  core::ClRunConfig cfg;
  cfg.method = core::bench_replay4ncl();
  cfg.method.threads = kTrainThreads;
  cfg.insertion_layer = kHeadlineLayer;
  cfg.epochs = kHeadlineEpochs;
  cfg.eval_every = kHeadlineEvalEvery;
  cfg.seed = seeds.run;
  const metrics::EvalSettings eval = eval_settings(cfg.method);
  const double samples_per_task =
      static_cast<double>(cfg.epochs * (tasks.new_train.size() + tasks.replay_subset.size()));
  const double eval_samples =
      static_cast<double>(tasks.pretrain_test.size() + tasks.new_test.size());

  // One new-class task from a fresh clone of the pre-trained network, then
  // one evaluation of the final network.  Every repetition is the same
  // deterministic task, so each must reproduce the first exactly.
  TaskOutcome reference;
  bool have_reference = false;
  const auto untraced_task = [&] {
    snn::SnnNetwork net = setup.net.clone();
    const auto t0 = Clock::now();
    const core::ClRunResult r = core::run_continual_learning(net, tasks, cfg);
    const double w = seconds_since(t0);
    const auto t1 = Clock::now();
    const metrics::TaskAccuracy a = metrics::evaluate_tasks(net, tasks, eval);
    const double rd = seconds_since(t1);
    e.task_s.push_back(w);
    e.learn_rate.push_back(samples_per_task / w);
    e.eval_rate.push_back(eval_samples / rd);
    const TaskOutcome o = outcome_of(r);
    bool losses_ok = r.rows.size() == cfg.epochs;
    for (const auto& row : r.rows) losses_ok = losses_ok && finite_loss(row.loss);
    tally.op(losses_ok, "headline run produced a non-finite loss or wrong epoch count");
    tally.op(unit_interval(o.acc_old) && unit_interval(o.acc_new),
             "headline accuracy outside [0, 1]");
    tally.op(a.old_tasks == o.acc_old && a.new_task == o.acc_new,
             "evaluate_tasks on the final network disagrees with the run's final accuracy");
    if (!have_reference) {
      reference = o;
      have_reference = true;
    } else {
      tally.op(same_outcome(o, reference), "headline task is not reproducible");
    }
  };

  // Warm-up: one untimed task lets lazy allocation settle and fixes the
  // reference result every timed repetition must reproduce.
  untraced_task();
  e.task_s.clear();
  e.learn_rate.clear();
  e.eval_rate.clear();
  e.acc_old = reference.acc_old;
  e.model_latency_ms = reference.latency_ms;
  e.model_energy_uj = reference.energy_uj;
  e.latent_bytes = static_cast<double>(reference.latent_bytes);

  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const auto start = Clock::now();
  do {
    untraced_task();
  } while (seconds_since(start) < untraced_budget);
  if (!args.trace) return;

  // Traced half: the same task through the benchmark's own Alg. 1 runner,
  // alternately with the registry disarmed and armed, so that
  // obs.trace_overhead_frac compares the runner with itself.  Spans and
  // registry values are recorded only while armed.
  obs::metrics().reset_values();
  std::vector<double> plain_task_s;
  std::vector<double> traced_task_s;
  TaskOutcome traced;
  double assemble_s = 0.0;
  double stall_s = 0.0;
  const auto traced_start = Clock::now();
  do {
    for (const bool armed : {false, true}) {
      set_tracing(armed);
      snn::SnnNetwork net = setup.net.clone();
      const auto t0 = Clock::now();
      const TaskOutcome o = traced_headline_task(net, tasks, cfg, tally);
      (armed ? traced_task_s : plain_task_s).push_back(seconds_since(t0));
      tally.op(o.acc_old == reference.acc_old && o.acc_new == reference.acc_new &&
                   o.latency_ms == reference.latency_ms,
               "traced headline runner does not reproduce run_continual_learning");
      if (armed) {
        traced = o;
        assemble_s += o.assemble_s;
        stall_s += o.stall_s;
      }
    }
  } while (seconds_since(traced_start) < args.seconds / 2);
  set_tracing(false);
  write_registry(args.out_dir + "/metrics_headline_l3.json");

  const double n = static_cast<double>(traced_task_s.size());
  const snn::SpikeOpStats& st = traced.stats;
  const double frozen = obs_seconds("bench.frozen");
  const double draw = obs_seconds("bench.replay_draw");
  const double train = obs_seconds("bench.train");
  const double eval_s = obs_seconds("bench.eval");
  p["snn.frozen_s"] = (obs_seconds("bench.prep_frozen") + frozen) / n;
  p["snn.train_s"] = train / n;
  p["snn.backward_synops"] = static_cast<double>(st.backward_synops);
  p["snn.assemble_s"] = assemble_s / n;
  p["snn.stall_s"] = stall_s / n;
  p["snn.synops"] = static_cast<double>(st.synops);
  p["snn.neuron_updates"] = static_cast<double>(st.neuron_updates);
  p["snn.spikes"] = static_cast<double>(st.spikes);
  p["snn.spike_density"] = static_cast<double>(st.spikes) /
                           static_cast<double>(std::max<std::uint64_t>(1, st.neuron_updates));
  p["metrics.eval_s"] = eval_s / n;
  p["metrics.acc_new"] = traced.acc_new;
  const auto adds = static_cast<double>(traced.adds);
  p["core.replay_add_us"] = obs_seconds("bench.replay_add") * 1e6 / (n * adds);
  p["core.replay_admit_ratio"] = static_cast<double>(traced.admitted) / adds;
  p["core.evictions"] = static_cast<double>(traced.evictions);
  p["core.entries"] = static_cast<double>(traced.entries);
  p["core.replay_draw_us"] = draw * 1e6 / (n * static_cast<double>(cfg.epochs));
  p["core.lock_wait_s"] = obs_seconds("replay_engine.lock_wait_seconds") / n;
  p["core.epoch_self_s"] = (obs_seconds("bench.cl_epoch") - frozen - draw - train - eval_s) / n;
  p["compress.decompress_bits"] = static_cast<double>(st.decompress_bits);
  p["compress.bytes_per_entry"] =
      static_cast<double>(traced.latent_bytes) / static_cast<double>(traced.entries);
  p["data.rescale_s"] = obs_seconds("bench.rescale") / n;
  p["obs.trace_overhead_frac"] = median(traced_task_s) / median(plain_task_s) - 1.0;
}

// ============================================================================
// stream_l1
// ============================================================================

void run_stream(const Args& args, Tally& tally, EndToEnd& e, PerLayer& p) {
  const Seeds seeds(args.seed);
  const core::PretrainConfig pc = core::standard_pretrain_config(kScale);
  auto setup = pretrained_setup(
      pc,
      [&](const data::SyntheticShdGenerator& gen) {
        return data::build_sequential_tasks(gen, pc.split, kStreamTasks);
      },
      args, tally, e, p);
  {
    const data::SyntheticShdGenerator gen(pc.data_params);
    for (std::size_t t = 0; t < kStreamTasks; ++t) {
      const std::int32_t cls = setup.tasks.task_classes[t];
      setup.tasks.task_train[t] = gen.make_dataset(
          std::span(&cls, 1), pc.split.train_per_class, seeds.draw + 2 * t);
      setup.tasks.task_test[t] = gen.make_dataset(
          std::span(&cls, 1), pc.split.test_per_class, seeds.draw + 2 * t + 1);
    }
  }
  const data::SequentialTasks& tasks = setup.tasks;

  core::SequentialRunConfig cfg;
  cfg.method = core::bench_replay4ncl().with_latent_bits(kStreamLatentBits);
  cfg.method.replay_budget.policy = core::ReplayPolicy::kLowImportance;
  cfg.method.importance_feedback = true;
  cfg.method.replay_stream = true;
  cfg.method.replay_samples_per_epoch = kStreamReplaySamples;
  cfg.method.prefetch = true;
  cfg.method.threads = kTrainThreads;
  cfg.insertion_layer = kStreamLayer;
  cfg.epochs_per_task = kStreamEpochs;
  cfg.replay_per_new_class = pc.split.replay_per_class;
  cfg.seed = seeds.run;
  {
    // Budget: the base latents plus ~3 tasks of recordings, so the buffer
    // saturates after about three tasks (the budget_stream sizing rule).
    core::LatentReplayBuffer probe(cfg.method.storage_codec, cfg.method.cl_timesteps);
    const data::Dataset rescaled =
        data::time_rescale(tasks.replay_subset, cfg.method.cl_timesteps, cfg.method.rescale);
    const Tensor latent =
        setup.net.run_hidden(data::raster_to_batch(rescaled.front().raster), 0,
                             cfg.insertion_layer, cfg.method.policy(), nullptr);
    probe.add(data::batch_to_raster(latent, 0), rescaled.front().label);
    cfg.method.replay_budget.capacity_bytes =
        probe.memory_bytes() *
        (tasks.replay_subset.size() + kStreamSaturationTasks * cfg.replay_per_new_class);
  }

  // Per-task evaluation views: base test set as "old", the task's as "new".
  std::vector<data::ClassIncrementalTasks> views(tasks.task_classes.size());
  for (std::size_t t = 0; t < views.size(); ++t) {
    views[t].old_classes = tasks.base_classes;
    views[t].new_class = tasks.task_classes[t];
    views[t].pretrain_test = tasks.pretrain_test;
    views[t].new_test = tasks.task_test[t];
  }
  const metrics::EvalSettings eval = eval_settings(cfg.method);

  // Each half restarts the stream from task 0, so the traced half must
  // reproduce the untraced half's rows task for task.
  std::vector<core::SequentialTaskRow> reference_rows;
  struct Half {
    std::vector<double> task_s;
    double eval_s = 0.0;
    std::size_t ckpt_bytes = 0;
    std::size_t evictions = 0;
  };
  const auto run_half = [&](double budget, bool traced) {
    Half h;
    const std::string ckpt = args.out_dir + "/stream_l1.ckpt";
    std::size_t next = 0;
    std::size_t entries_before = 0;
    std::size_t evictions_before = 0;
    std::size_t done = 0;
    const auto start = Clock::now();
    do {
      const std::size_t t = next;
      next = (t + 1) % kStreamTasks;
      if (t == 0) {
        entries_before = tasks.replay_subset.size();
        evictions_before = 0;
      }
      // A power-cycled device boots the shipped network, and the checkpoint
      // restores everything it has learned since.
      snn::SnnNetwork net = setup.net.clone();
      core::CheckpointOptions opts;
      opts.save_path = ckpt;
      if (t > 0) opts.resume_path = ckpt;
      opts.stop_after_units = 1;
      const auto t0 = Clock::now();
      const core::SequentialRunResult r = core::run_sequential(net, tasks, cfg, opts);
      const double w = seconds_since(t0);
      h.ckpt_bytes = static_cast<std::size_t>(std::filesystem::file_size(ckpt));
      const auto t1 = Clock::now();
      const metrics::TaskAccuracy a = metrics::evaluate_tasks(net, views[t], eval);
      const double rd = seconds_since(t1);
      h.task_s.push_back(w);
      h.eval_s += rd;
      const bool shape_ok = r.rows.size() == t + 1 && r.rows.back().task_index == t;
      tally.op(shape_ok, "resumed stream task returned the wrong rows");
      if (!shape_ok) continue;
      const core::SequentialTaskRow& row = r.rows.back();
      tally.op(row.budget_bytes > 0 && row.latent_memory_bytes <= row.budget_bytes,
               "stream replay buffer exceeded its byte budget");
      tally.op(unit_interval(row.acc_base) && unit_interval(row.acc_current) &&
                   unit_interval(row.acc_learned),
               "stream accuracy outside [0, 1]");
      tally.op(std::isfinite(row.latency_ms) && std::isfinite(row.energy_uj),
               "stream modelled cost is not finite");
      tally.op(a.old_tasks == row.acc_base && a.new_task == row.acc_current,
               "evaluate_tasks on the resumed network disagrees with the task row");
      if (done < reference_rows.size()) {
        const auto& ref = reference_rows[done];
        tally.op(ref.acc_base == row.acc_base && ref.acc_current == row.acc_current &&
                     ref.latency_ms == row.latency_ms &&
                     ref.latent_memory_bytes == row.latent_memory_bytes,
                 "stream task differs between the untraced and traced halves");
      } else {
        reference_rows.push_back(row);
      }
      if (!traced) {
        const double samples =
            static_cast<double>(kStreamEpochs) *
            static_cast<double>(tasks.task_train[t].size() +
                                std::min(kStreamReplaySamples, entries_before));
        e.task_s.push_back(w);
        e.learn_rate.push_back(samples / w);
        e.eval_rate.push_back(static_cast<double>(views[t].pretrain_test.size() +
                                                  views[t].new_test.size()) /
                              rd);
        e.latent_bytes =
            std::max(e.latent_bytes, static_cast<double>(row.latent_memory_bytes));
      }
      h.evictions += row.buffer_evictions - evictions_before;
      entries_before = row.buffer_entries;
      evictions_before = row.buffer_evictions;
      ++done;
      // A half covers at least one full pass, so the per-pass figures below
      // are the same work on every run.
    } while (seconds_since(start) < budget || h.task_s.size() < kStreamTasks);
    std::filesystem::remove(ckpt);
    return h;
  };

  // Warm-up: one untimed first task (seed the buffer, learn, save) lets lazy
  // allocation settle before timing.
  {
    snn::SnnNetwork net = setup.net.clone();
    core::CheckpointOptions opts;
    opts.save_path = args.out_dir + "/stream_l1_warmup.ckpt";
    opts.stop_after_units = 1;
    (void)core::run_sequential(net, tasks, cfg, opts);
    (void)metrics::evaluate_tasks(net, views[0], eval);
    std::filesystem::remove(opts.save_path);
  }
  const Half untraced = run_half(args.trace ? args.seconds / 2 : args.seconds, false);
  // Accuracy and modelled cost: means over the first pass of the stream.
  const std::size_t pass = std::min(kStreamTasks, reference_rows.size());
  const auto pass_mean = [&](auto field) {
    double sum = 0.0;
    for (std::size_t i = 0; i < pass; ++i) sum += static_cast<double>(reference_rows[i].*field);
    return sum / static_cast<double>(std::max<std::size_t>(1, pass));
  };
  e.acc_old = pass_mean(&core::SequentialTaskRow::acc_base);
  e.model_latency_ms = pass_mean(&core::SequentialTaskRow::latency_ms);
  e.model_energy_uj = pass_mean(&core::SequentialTaskRow::energy_uj);
  if (!args.trace) return;

  arm_registry();
  const Half traced = run_half(args.seconds / 2, true);
  write_registry(args.out_dir + "/metrics_stream_l1.json");

  const std::size_t tasks_done = std::min(traced.task_s.size(), reference_rows.size());
  const double n = static_cast<double>(tasks_done);
  const double train = obs_seconds("trainer.epoch_seconds");
  const double eval_all = obs_seconds("trainer.eval_seconds");
  const double in_run_eval = eval_all - traced.eval_s;
  const double save = obs_seconds("checkpoint.save_seconds");
  const double load = obs_seconds("checkpoint.load_seconds");
  const double task_span = obs_seconds("core.task_seconds");
  const core::SequentialTaskRow& last = reference_rows[tasks_done - 1];
  // The frozen prefix runs inside run_sequential, so on this workload
  // snn.frozen_s is the task span's self time (task minus train, in-run
  // evaluation and checkpoint save): frozen inference plus buffer upkeep.
  const double self = (task_span - train - in_run_eval - save) / n;
  p["snn.frozen_s"] = self;
  p["snn.train_s"] = train / n;
  p["snn.assemble_s"] = obs_seconds("pipeline.assemble_seconds") / n;
  p["snn.stall_s"] = obs_seconds("pipeline.stall_seconds") / n;
  p["metrics.eval_s"] = eval_all / n;
  p["metrics.acc_new"] = pass_mean(&core::SequentialTaskRow::acc_current);
  p["core.evictions"] = static_cast<double>(traced.evictions) / n;
  p["core.entries"] = static_cast<double>(last.buffer_entries);
  p["core.lock_wait_s"] = obs_seconds("replay_engine.lock_wait_seconds") / n;
  p["core.ckpt_save_s"] = save / n;
  p["core.ckpt_load_s"] = load / n;
  p["core.ckpt_bytes"] = static_cast<double>(traced.ckpt_bytes);
  p["core.epoch_self_s"] = self;
  p["compress.decompress_bits"] = obs_count("replay_buffer.decompress_bits") / n;
  p["compress.bytes_per_entry"] =
      static_cast<double>(last.latent_memory_bytes) /
      static_cast<double>(std::max<std::size_t>(1, last.buffer_entries));
  p["obs.trace_overhead_frac"] = median(traced.task_s) / median(untraced.task_s) - 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    Tally tally;
    EndToEnd e;
    PerLayer p;
    if (args.workload == "headline_l3") {
      run_headline(args, tally, e, p);
    } else if (args.workload == "stream_l1") {
      run_stream(args, tally, e, p);
    } else {
      R4NCL_CHECK(false, "unknown workload " << args.workload);
    }
    const std::vector<Metric> metrics =
        args.trace ? per_layer_metrics(p) : end_to_end_metrics(e, tally);
    for (const auto& m : metrics) {
      std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%s\n", json_result(tally, metrics).c_str());
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  }
}
