// End-to-end AIM benchmark. One invocation runs one workload through the
// public API for --seconds, checks the outputs, and prints one JSON result
// line: the end-to-end metrics with --trace 0, the per-layer metrics of a
// traced replay with --trace 1. See README.md in this directory.
//
//   aim_e2ebench --workload fit-heavy|count-heavy --seed N
//                --seconds S --trace 0|1 [--work-dir DIR]

#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/csv.h"
#include "data/simulators.h"
#include "dp/accountant.h"
#include "eval/error.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "replay.h"
#include "serve_session.h"
#include "store/reader.h"
#include "store/writer.h"

namespace e2e {
namespace {

// ---- Workload definitions. ----

// The records are fixed samples of fixed population models, and the runs'
// own randomness (mechanism seeds, query rotation) is part of the workload
// definition. --seed only orders the records. AIM's path is chaotic in its
// input: resampling the records moves a run's selections, and with them its
// time by more than a run of this length can average away. Fixing the
// multiset of records makes every invocation do the same work, so the
// spread across seeds measures the program and the machine.
//
// A workload is a short list of items, each one (input, mechanism seed).
// An invocation runs the list in passes, so every item is repeated and its
// repeats are spread over the whole invocation. Repeats of an item do the
// same work and write the same bytes, so the time they take differs only
// by what the machine adds: on a shared host the other tenants slow a
// stretch of seconds by up to 30%. A timing metric is therefore the
// fastest of an item's repeats, averaged over the items. Over seven
// invocations of fit-heavy its quartile spread was 0.074 of the median,
// against 0.165 for the median of the repeats.
constexpr uint64_t kRunSeedBase = 0x41494D;
constexpr uint64_t kSampleSeed = 0x53414D50;
constexpr uint64_t kAdultPopulationSeed = 20221107;
constexpr uint64_t kTitanicPopulationSeed = 20221108;
constexpr uint64_t kCountNetworkSeed = 20221109;
constexpr int64_t kFitRecords = 1000;
constexpr int kFitItems = 4;  // 1,000-record samples, one seed each
constexpr int64_t kCountRecords = 2000000;
constexpr int kCountAttributes = 16;
constexpr int64_t kQueryRotation = 64;  // workload queries asked per model

struct BatchSpec {
  double epsilon;
  int threads;
  // > 0: the store holds `items` consecutive samples of this many records,
  // each run on its own as an in-memory Dataset (fit-heavy). 0: the one
  // item streams the whole store (count-heavy).
  int64_t sample_records;
  int items;
  // Set-up is timed this many times; setup_s is the median.
  int setup_repeats;
  // Runs per second of --seconds, and how many times each run's model is
  // asked the query rotation. The work is fixed by --seconds alone, never
  // by how fast it goes, so a faster program does the same work in less
  // time.
  double runs_per_second;
  int query_repeats;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
};

uint64_t Mix(uint64_t seed, uint64_t stream) {
  aim::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream);
  return rng.NextUint64();
}

// Two threads, not four: on a shared 4-vCPU host the 4-thread runs swung
// with the other tenants (a quartile spread of run_s of 0.24 over ten
// seeds; 0.10 against 0.03 at two threads in five interleaved pairs), and
// two threads still show the scaling.
int BatchThreads() {
  return std::max(1, std::min(2, aim::HardwareThreads()));
}

std::optional<BatchSpec> SpecFor(const std::string& workload) {
  if (workload == "fit-heavy") {
    return BatchSpec{3.0, 1, kFitRecords, kFitItems, 201, 0.8, 10};
  }
  if (workload == "count-heavy") {
    return BatchSpec{0.05, BatchThreads(), 0, 1, 21, 0.1, 40};
  }
  return std::nullopt;
}

// `rows` in the order the seed picks.
std::vector<int64_t> Shuffled(std::vector<int64_t> rows, uint64_t seed) {
  aim::Rng rng(seed);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextUint64() % i]);
  }
  return rows;
}

// Indices of `n` rows of a population of `size`: without replacement when
// n is small against the population, with replacement otherwise.
std::vector<int64_t> DrawRows(int64_t size, int64_t n, uint64_t seed) {
  aim::Rng rng(seed);
  std::vector<int64_t> rows(static_cast<size_t>(n));
  if (n <= size / 4) {
    std::vector<int64_t> perm(static_cast<size_t>(size));
    for (int64_t i = 0; i < size; ++i) perm[i] = i;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t j =
          i + static_cast<int64_t>(rng.NextUint64() % static_cast<uint64_t>(size - i));
      std::swap(perm[i], perm[j]);
      rows[i] = perm[i];
    }
  } else {
    for (int64_t i = 0; i < n; ++i) {
      rows[i] = static_cast<int64_t>(rng.NextUint64() % static_cast<uint64_t>(size));
    }
  }
  return rows;
}

// Writes the invocation's inputs: `titanic<k>.csv` (the aimd job inputs of
// the traced run's serve probe) and `input.aim` (a single-shard store; for
// fit-heavy the concatenation of one 1,000-record sample per item).
bool WriteInputs(const Args& args, const std::string& dir) {
  aim::SimulatorOptions titanic;
  titanic.record_scale = 1.0;
  titanic.seed = kTitanicPopulationSeed;
  const aim::Dataset population =
      aim::MakePaperDataset(aim::PaperDataset::kTitanic, titanic).data;
  for (int k = 0; k < kServeSamples; ++k) {
    const uint64_t stream = 10 + static_cast<uint64_t>(k);
    const aim::Dataset sample = population.Subsample(Shuffled(
        DrawRows(population.num_records(), population.num_records(),
                 Mix(kSampleSeed, stream)),
        Mix(args.seed, stream)));
    if (!aim::WriteCsv(sample, ServeInputPath(dir, k)).ok()) return false;
  }

  if (args.workload == "fit-heavy") {
    aim::SimulatorOptions adult;
    adult.record_scale = 1.0;
    adult.seed = kAdultPopulationSeed;
    const aim::Dataset pop =
        aim::MakePaperDataset(aim::PaperDataset::kAdult, adult).data;
    std::vector<int64_t> rows;
    for (int k = 0; k < kFitItems; ++k) {
      const uint64_t stream = 100 + static_cast<uint64_t>(k);
      const std::vector<int64_t> sample =
          Shuffled(DrawRows(pop.num_records(), kFitRecords, Mix(kSampleSeed, stream)),
                   Mix(args.seed, stream));
      rows.insert(rows.end(), sample.begin(), sample.end());
    }
    return aim::WriteStore(pop.Subsample(rows), dir + "/input.aim").ok();
  }
  if (args.workload == "count-heavy") {
    std::vector<std::string> names;
    for (int a = 0; a < kCountAttributes; ++a) names.push_back(std::string("a").append(std::to_string(a)));
    const aim::Domain domain(names, std::vector<int>(kCountAttributes, 3));
    aim::Rng net(kCountNetworkSeed);
    const aim::Dataset pop =
        aim::SampleRandomBayesNet(domain, kCountRecords, 2, 0.25, net);
    std::vector<int64_t> rows(static_cast<size_t>(kCountRecords));
    for (int64_t i = 0; i < kCountRecords; ++i) rows[i] = i;
    return aim::WriteStore(pop.Subsample(Shuffled(std::move(rows), Mix(args.seed, 3))),
                           dir + "/input.aim")
        .ok();
  }
  return true;
}

// Input generation runs in a child process, so its memory and time stay
// out of every metric (peak RSS included).
bool GenerateInputs(const Args& args, const std::string& dir) {
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) _exit(WriteInputs(args, dir) ? 0 : 1);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---- Per-layer metric emission, shared by every workload. ----

struct LayerInputs {
  LayerTimes sum;       // every replayed run, at the workload's threads
  int64_t runs = 0;
  LayerTimes first_n;   // replay of the first item at the workload's threads
  LayerTimes first_1t;  // the same run replayed at 1 thread
  double traced_run_s = 0.0;    // mean replay wall time over the items
  double untraced_run_s = 0.0;  // mean of the items' median untraced runs
  double store_open_s = 0.0;
  ServeLayers serve;
  ServeStats serve_stats;
};

double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

void EmitLayers(const LayerInputs& in, Report* report) {
  const LayerTimes& s = in.sum;
  const double runs = static_cast<double>(std::max<int64_t>(in.runs, 1));
  auto per_run = [&](double v) { return v / runs; };
  report->Metric("store.open_s", in.store_open_s, "s");
  report->Metric("data.csv_load_s", in.serve.csv_load_s, "s");
  report->Metric("marginal.pool_s", per_run(s.pool_s), "s");
  report->Metric("marginal.count_s", per_run(s.count_s), "s");
  report->Metric("marginal.count_calls", per_run(s.count_calls), "count");
  report->Metric("marginal.rows_per_s", Ratio(s.count_rows, s.count_s), "1/s");
  report->Metric("marginal.cache_hit_ratio", Ratio(s.cache_hits, s.cache_lookups),
                 "ratio");
  report->Metric("jt.size_s", per_run(s.jt_s), "s");
  report->Metric("jt.size_evals", per_run(s.jt_evals), "count");
  report->Metric("jt.admit_ratio", Ratio(s.admitted, s.jt_evals), "ratio");
  report->Metric("infer.answer_s", per_run(s.infer_s), "s");
  report->Metric("infer.answer_queries", per_run(s.answer_queries), "count");
  report->Metric("infer.msg_reuse_ratio",
                 Ratio(s.msgs_reused, s.msgs_reused + s.msgs_recomputed),
                 "ratio");
  report->Metric("est.init_s", per_run(s.est_init_s), "s");
  report->Metric("est.round_s", per_run(s.est_round_s), "s");
  report->Metric("est.final_s", per_run(s.est_final_s), "s");
  report->Metric("est.iters", per_run(s.est_iters), "count");
  report->Metric("est.backtracks", per_run(s.est_backtracks), "count");
  report->Metric("est.accept_ratio",
                 Ratio(s.est_iters, s.est_iters + s.est_backtracks), "ratio");
  report->Metric("synth.generate_s", per_run(s.synth_s), "s");
  report->Metric("io.write_csv_s", per_run(s.write_csv_s), "s");
  report->Metric("dp.select_s", per_run(s.select_s), "s");
  report->Metric("dp.measure_s", per_run(s.measure_s), "s");
  report->Metric("aim.self_s", per_run(s.total_s - s.spans()), "s");
  report->Metric("aim.coverage", Ratio(s.spans(), s.total_s), "ratio");
  report->Metric("aim.trace_overhead_s", in.traced_run_s - in.untraced_run_s, "s");
  const LayerTimes& one = in.first_1t;
  const LayerTimes& n = in.first_n;
  report->Metric("marginal.count.speedup", Ratio(one.count_s, n.count_s), "ratio");
  report->Metric("infer.answer.speedup", Ratio(one.infer_s, n.infer_s), "ratio");
  report->Metric("est.speedup",
                 Ratio(one.est_init_s + one.est_round_s + one.est_final_s,
                       n.est_init_s + n.est_round_s + n.est_final_s),
                 "ratio");
  report->Metric("synth.speedup", Ratio(one.synth_s, n.synth_s), "ratio");

  const ServeLayers& sl = in.serve;
  const ServeStats& ss = in.serve_stats;
  report->Metric("robust.checkpoint_s", sl.replay.checkpoint_s, "s");
  report->Metric("robust.checkpoints", static_cast<double>(sl.replay.checkpoints),
                 "count");
  report->Metric("serve.handle_ms.query", sl.handle_query_ms, "ms");
  report->Metric("serve.handle_ms.status", sl.handle_status_ms, "ms");
  report->Metric("serve.handle_ms.submit", sl.handle_submit_ms, "ms");
  report->Metric("serve.wait_ms", Median(ss.query_ms) - sl.handle_query_ms, "ms");
  report->Metric("serve.query_marginal_ms", sl.query_marginal_ms, "ms");
  report->Metric("serve.job_wait_s", Median(ss.job_wait_s), "s");
  report->Metric("serve.job_run_s", Median(ss.job_run_s), "s");
  int64_t refused = 0;
  for (const auto& [code, count] : ss.refused) {
    refused += count;
    report->Info("serve.refused." + std::to_string(code), static_cast<double>(count));
  }
  report->Metric("serve.refused", static_cast<double>(refused), "count");
}

// Drives a short aimd session for the serve-layer figures of a batch
// workload's traced run (its own runs never touch the daemon).
void ServeProbe(const Args& args, Report* report, LayerInputs* layers) {
  aim::SetParallelThreads(1);
  ServeSession session(args.work_dir + "/serve", args.work_dir, report);
  if (!session.Start() || !session.Warmup()) return;
  session.Drive(1.0);
  session.Verify();
  layers->serve = session.MeasureLayers();
  layers->serve_stats = session.stats();
  report->Check(layers->serve.replay_ok,
                "serve replay self-check: " + layers->serve.replay_error);
  session.Stop();
}

// ---- fit-heavy / count-heavy. ----

// One item's runs: the first is kept for the checks, the post-hoc reads
// and the traced replay; the repeats must reproduce it byte for byte.
struct Item {
  const aim::DataSource* source = nullptr;
  uint64_t rng_seed = 0;
  std::string csv_path;  // the first run's synthetic CSV
  aim::MechanismResult result;  // first run, synthetic data dropped
  std::vector<double> run_s;
  std::vector<std::vector<double>> expected;  // batched rotation answers
  std::vector<std::vector<double>> query_ms;  // per rotation query
};

// Consecutive `n`-record slices of `all`.
std::vector<aim::Dataset> SplitSamples(const aim::Dataset& all, int64_t n) {
  std::vector<aim::Dataset> out;
  for (int64_t begin = 0; begin + n <= all.num_records(); begin += n) {
    std::vector<int64_t> rows(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) rows[i] = begin + i;
    out.push_back(all.Subsample(rows));
  }
  return out;
}

int RunBatch(const Args& args, const BatchSpec& spec, Report* report) {
  const std::string store_path = args.work_dir + "/input.aim";
  // Set-up: open (and verify) the store, build the in-memory samples for
  // fit-heavy, build the workload. Median of several.
  std::vector<double> setup, open_only;
  std::unique_ptr<aim::StoreSource> store;
  std::vector<aim::Dataset> samples;
  std::optional<aim::Workload> workload;
  for (int i = 0; i < spec.setup_repeats; ++i) {
    const double t0 = Now();
    auto opened = aim::StoreSource::Open(store_path);
    const double t1 = Now();
    if (!report->Check(opened.ok(), "input store opens")) return report->Print();
    store = std::move(*opened);
    if (spec.sample_records > 0) {
      samples = SplitSamples(store->Materialize(), spec.sample_records);
    }
    workload.emplace(aim::AllKWayWorkload(store->domain(), 3));
    setup.push_back(Now() - t0);
    open_only.push_back(t1 - t0);
  }
  std::vector<aim::DatasetSource> views(samples.begin(), samples.end());
  if (!report->Check(views.empty() || views.size() == static_cast<size_t>(spec.items),
                     "one sample per item")) {
    return report->Print();
  }
  std::vector<Item> items(static_cast<size_t>(spec.items));
  for (int k = 0; k < spec.items; ++k) {
    Item& item = items[static_cast<size_t>(k)];
    item.source = views.empty() ? static_cast<const aim::DataSource*>(store.get())
                                : &views[static_cast<size_t>(k)];
    item.rng_seed = Mix(kRunSeedBase, static_cast<uint64_t>(k));
    item.csv_path = args.work_dir + "/item" + std::to_string(k) + ".csv";
  }
  report->Info("workload.records", static_cast<double>(items[0].source->num_records()));
  report->Info("workload.attributes",
               static_cast<double>(store->domain().num_attributes()));
  report->Info("workload.candidates",
               static_cast<double>(aim::DownwardClosure(*workload).size()));
  report->Info("workload.items", static_cast<double>(spec.items));

  aim::SetParallelThreads(spec.threads);
  // Real-data workload answers of a shared source, once, outside every
  // timed region (per-item samples are answered once each, after the run).
  std::optional<aim::WorkloadMarginalCache> truth;
  if (views.empty()) truth.emplace(*store, *workload);

  aim::AimOptions options;
  options.max_size_mb = 4.0;
  options.round_estimation.max_iters = 30;
  options.final_estimation.max_iters = 200;
  options.record_candidates = false;  // aim_cli's default
  const double rho = aim::CdpRho(spec.epsilon, 1e-9);

  // Post-hoc reads: after each run, the run's fitted model answers a fixed
  // slice of the workload one MarginalVector call at a time, the slice
  // `query_repeats` times over.
  std::vector<aim::AttrSet> rotation;
  const int64_t stride =
      std::max<int64_t>(1, workload->num_queries() / kQueryRotation);
  for (int64_t i = 0; i < workload->num_queries(); i += stride) {
    rotation.push_back(workload->queries()[i].attrs);
  }

  // ---- Synthesis runs, AimMechanism::Run + WriteCsv as aim_cli after
  // load, in passes over the items.
  const int passes = std::max(
      1, static_cast<int>(std::lround(spec.runs_per_second * args.seconds /
                                      static_cast<double>(spec.items))));
  std::vector<double> run_cpu_s, errors;
  int64_t wrong = 0, queries = 0, differing = 0;
  // Peak RSS after the first pass, which runs each item once from a fresh
  // heap as an aim_cli process would. Later repeats run in a heap the
  // earlier runs have shaped (glibc raises its mmap threshold after freeing
  // large blocks), and their peaks varied by up to 70 MB between
  // invocations of count-heavy.
  double peak_rss_mb = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    for (Item& item : items) {
      const bool first = pass == 0;
      const std::string csv = first ? item.csv_path : args.work_dir + "/run.csv";
      aim::Rng rng(item.rng_seed);
      report->Attempt();
      const double cpu0 = ProcessCpuSeconds();
      const double t0 = Now();
      aim::MechanismResult result =
          aim::AimMechanism(options).Run(*item.source, *workload, rho, rng);
      const aim::Status written = aim::WriteCsv(result.synthetic, csv);
      item.run_s.push_back(Now() - t0);
      run_cpu_s.push_back(ProcessCpuSeconds() - cpu0);

      report->Check(written.ok(), "synthetic CSV written");
      report->Check(!result.cancelled && !result.deadline_expired,
                    "run completed every round");
      if (first) {
        report->Check(result.rho_used <= rho, "rho_used <= rho");
        report->Check(result.synthetic.domain() == item.source->domain(),
                      "synthetic data has the input's domain");
        report->Check(result.synthetic.num_records() ==
                          std::llround(result.total_estimate),
                      "synthetic record count equals the estimated total");
        errors.push_back(aim::WorkloadError(*item.source, result.synthetic,
                                            *workload, truth ? &*truth : nullptr));
        item.expected = result.final_model->AnswerMarginalVectors(rotation);
        item.query_ms.resize(rotation.size());
      } else if (!SameFileBytes(csv, item.csv_path)) {
        ++differing;
      }
      for (int r = 0; r < spec.query_repeats; ++r) {
        for (size_t q = 0; q < rotation.size(); ++q, ++queries) {
          const double asked = Now();
          const std::vector<double> answer =
              result.final_model->MarginalVector(rotation[q]);
          item.query_ms[q].push_back((Now() - asked) * 1e3);
          if (answer.size() != item.expected[q].size() ||
              std::memcmp(answer.data(), item.expected[q].data(),
                          answer.size() * sizeof(double)) != 0) {
            ++wrong;
          }
        }
      }
      if (first && args.trace) {
        result.synthetic = aim::Dataset();
        item.result = std::move(result);
      }
    }
    if (pass == 0) peak_rss_mb = PeakRssMb();
  }

  report->Attempt(queries);
  report->Check(wrong == 0,
                "post-hoc answers equal the batched AnswerMarginalVectors");
  report->Check(differing == 0,
                "repeated runs of an item write the same synthetic CSV bytes");

  // The fastest of each item's repeats, averaged over the items.
  std::vector<double> item_run_s, item_median_s, item_query_ms;
  for (const Item& item : items) {
    item_run_s.push_back(Min(item.run_s));
    item_median_s.push_back(Median(item.run_s));
    for (const std::vector<double>& ms : item.query_ms) {
      item_query_ms.push_back(Min(ms));
    }
  }
  const double run_s = Mean(item_run_s);
  report->Info("samples.passes", static_cast<double>(passes));
  report->Info("samples.runs", static_cast<double>(run_cpu_s.size()));
  report->Info("run_cpu_s", Median(run_cpu_s));
  report->Info("samples.queries", static_cast<double>(queries));
  report->Info("threads", static_cast<double>(spec.threads));
  if (!args.trace) {
    report->Metric("setup_s", Median(setup), "s");
    report->Metric("run_s", run_s, "s");
    report->Metric("workload_error", Mean(errors), "1");
    report->Metric("peak_rss_mb", peak_rss_mb, "MB");
    report->Metric("query_ms", Mean(item_query_ms), "ms");
    return report->Print();
  }

  // ---- Traced replay of each item's first run at the workload's thread
  // count, then the first item again at 1 thread (scaling base and
  // determinism check).
  LayerInputs layers;
  layers.store_open_s = Median(open_only);
  std::vector<double> traced;
  auto replay = [&](const Item& item, const std::string& csv) {
    ReplayInput in;
    in.source = item.source;
    in.workload = &*workload;
    in.options = options;
    in.rho = rho;
    in.rng_seed = item.rng_seed;
    in.result = &item.result;
    in.csv_path = csv;
    return Replay(in);
  };
  aim::SetMetricsEnabled(true);
  for (size_t k = 0; k < items.size(); ++k) {
    const std::string csv = args.work_dir + "/replay.csv";
    ReplayOutcome outcome = replay(items[k], csv);
    report->Check(outcome.ok, "replay self-check: " + outcome.error);
    report->Check(SameFileBytes(csv, items[k].csv_path),
                  "replayed synthetic CSV equals the timed run's");
    if (k == 0) layers.first_n = outcome.times;
    layers.sum.Add(outcome.times);
    traced.push_back(outcome.times.total_s);
  }
  layers.runs = static_cast<int64_t>(items.size());
  aim::SetParallelThreads(1);
  {
    const std::string csv = args.work_dir + "/replay_1t.csv";
    ReplayOutcome outcome = replay(items[0], csv);
    report->Check(outcome.ok, "1-thread replay self-check: " + outcome.error);
    report->Check(SameFileBytes(csv, items[0].csv_path),
                  "synthetic CSV bytes equal at 1 thread and at " +
                      std::to_string(spec.threads) + " threads");
    layers.first_1t = outcome.times;
  }
  aim::SetMetricsEnabled(false);
  layers.traced_run_s = Mean(traced);
  layers.untraced_run_s = Mean(item_median_s);
  ServeProbe(args, report, &layers);
  EmitLayers(layers, report);
  return report->Print();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && !args->work_dir.empty() &&
         SpecFor(args->workload).has_value();
}

}  // namespace

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: aim_e2ebench --workload fit-heavy|count-heavy "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR\n";
    return 2;
  }
  // The workload alone decides tracing, fault injection and threads.
  unsetenv("AIM_TRACE");
  unsetenv("AIM_FAULTS");
  unsetenv("AIM_THREADS");
  if (!MakeDirs(args.work_dir) || !GenerateInputs(args, args.work_dir)) {
    std::cerr << "aim_e2ebench: cannot generate inputs in " << args.work_dir << "\n";
    return 1;
  }
  Report report;
  StampEnvironment(&report);
  report.Info("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("seconds", args.seconds);
  report.Info("trace", args.trace ? 1.0 : 0.0);
  return RunBatch(args, *SpecFor(args.workload), &report);
}

}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
