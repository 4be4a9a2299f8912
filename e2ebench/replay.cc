#include "replay.h"

#include <cmath>
#include <cstring>
#include <set>
#include <unordered_map>

#include "common.h"
#include "data/csv.h"
#include "dp/mechanisms.h"
#include "marginal/marginal.h"
#include "obs/metrics.h"
#include "parallel/parallel.h"
#include "pgm/estimation.h"
#include "pgm/junction_tree.h"
#include "pgm/synthetic.h"
#include "robust/generations.h"
#include "robust/retry.h"
#include "robust/snapshot.h"
#include "util/math.h"

namespace e2e {

using aim::AttrSet;
using aim::Measurement;
using aim::MechanismResult;

namespace {

constexpr double kSqrt2OverPi = 0.7978845608028654;  // as in aim.cc
constexpr int kCheckpointGenerations = 3;  // JobManagerOptions' default

template <typename Fn>
auto Timed(double* acc, Fn&& fn) {
  const double t0 = Now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    *acc += Now() - t0;
  } else {
    auto out = fn();
    *acc += Now() - t0;
    return out;
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameModel(const aim::MarkovRandomField& a,
               const aim::MarkovRandomField& b) {
  if (a.num_cliques() != b.num_cliques()) return false;
  for (int i = 0; i < a.num_cliques(); ++i) {
    if (!(a.tree().cliques[i] == b.tree().cliques[i])) return false;
    if (!SameBits(a.potential(i).values(), b.potential(i).values())) {
      return false;
    }
  }
  return true;
}

std::string Unsupported(const aim::AimOptions& o) {
  if (!o.use_downward_closure || !o.use_workload_weights ||
      !o.use_noise_penalty || !o.use_annealing || !o.use_initialization) {
    return "ablation switches are not replayed";
  }
  if (o.use_generalized_em || o.noise != aim::AimOptions::Noise::kGaussian) {
    return "only the exponential mechanism with Gaussian noise is replayed";
  }
  if (!o.structural_zeros.empty() || o.public_data != nullptr ||
      !o.resume_path.empty()) {
    return "structural zeros, public data and resume are not replayed";
  }
  return {};
}

}  // namespace

double LayerTimes::spans() const {
  return pool_s + jt_s + count_s + infer_s + est_init_s + est_round_s +
         est_final_s + select_s + measure_s + synth_s + write_csv_s +
         checkpoint_s;
}

void LayerTimes::Add(const LayerTimes& o) {
  total_s += o.total_s;
  pool_s += o.pool_s;
  jt_s += o.jt_s;
  count_s += o.count_s;
  infer_s += o.infer_s;
  est_init_s += o.est_init_s;
  est_round_s += o.est_round_s;
  est_final_s += o.est_final_s;
  select_s += o.select_s;
  measure_s += o.measure_s;
  synth_s += o.synth_s;
  write_csv_s += o.write_csv_s;
  checkpoint_s += o.checkpoint_s;
  rounds += o.rounds;
  jt_evals += o.jt_evals;
  admitted += o.admitted;
  count_calls += o.count_calls;
  count_rows += o.count_rows;
  cache_lookups += o.cache_lookups;
  cache_hits += o.cache_hits;
  answer_queries += o.answer_queries;
  est_iters += o.est_iters;
  est_backtracks += o.est_backtracks;
  checkpoints += o.checkpoints;
  msgs_reused += o.msgs_reused;
  msgs_recomputed += o.msgs_recomputed;
}

ReplayOutcome Replay(const ReplayInput& in) {
  ReplayOutcome out;
  LayerTimes& t = out.times;
  const MechanismResult& run = *in.result;
  const aim::AimOptions& options = in.options;
  const aim::DataSource& source = *in.source;
  const aim::Workload& workload = *in.workload;
  const aim::Domain& domain = source.domain();
  if (std::string why = Unsupported(options); !why.empty()) {
    out.error = why;
    return out;
  }
  if (!run.final_model.has_value()) {
    out.error = "the run kept no final model";
    return out;
  }
  auto fail = [&](const std::string& why) {
    if (out.error.empty()) out.error = why;
  };

  aim::MetricsRegistry& registry = aim::MetricsRegistry::Global();
  aim::Counter& reused = registry.counter("pgm.infer.messages_reused");
  aim::Counter& recomputed = registry.counter("pgm.infer.messages_recomputed");
  const int64_t reused0 = reused.value();
  const int64_t recomputed0 = recomputed.value();

  const double start = Now();
  aim::Rng rng(in.rng_seed);

  // Candidate pool and workload weights (Line 8).
  std::vector<AttrSet> pool;
  std::unordered_map<AttrSet, double, aim::AttrSetHash> weights;
  Timed(&t.pool_s, [&] {
    pool = aim::DownwardClosure(workload);
    for (const AttrSet& r : pool) weights[r] = aim::WorkloadWeight(workload, r);
  });

  std::unordered_map<AttrSet, std::vector<double>, aim::AttrSetHash> cache;
  auto true_marginal = [&](const AttrSet& r) -> const std::vector<double>& {
    auto it = cache.find(r);
    if (it == cache.end()) {
      ++t.count_calls;
      t.count_rows += source.num_records();
      it = cache.emplace(r, Timed(&t.count_s, [&] {
                           return aim::ComputeMarginal(source, r);
                         }))
               .first;
    }
    return it->second;
  };

  const std::vector<Measurement>& logged = run.log.measurements;
  const std::vector<double>& ledger = run.rho_ledger;

  // ---- Initialization (Algorithm 2): one-way marginals of the workload.
  std::set<int> workload_attrs;
  for (const auto& q : workload.queries()) {
    for (int a : q.attrs) workload_attrs.insert(a);
  }
  const size_t init_count = workload_attrs.size();
  const size_t num_rounds = run.log.rounds.size();
  if (logged.size() != init_count + num_rounds ||
      ledger.size() != init_count + num_rounds) {
    out.error = "log and ledger sizes do not match the round count";
    return out;
  }
  std::vector<Measurement> measurements;
  std::vector<AttrSet> model_cliques;
  for (int attr : workload_attrs) {
    const AttrSet r({attr});
    const Measurement& m = logged[measurements.size()];
    if (!(m.attrs == r)) fail("initial measurement order differs");
    const std::vector<double>& exact = true_marginal(r);
    const std::vector<double> noisy = Timed(&t.measure_s, [&] {
      return aim::AddGaussianNoise(exact, m.sigma, rng);
    });
    if (!SameBits(noisy, m.values)) fail("initial noise draw differs");
    measurements.push_back(m);
    model_cliques.push_back(r);
  }
  double total = aim::EstimateTotal(measurements);
  aim::EstimationStats stats;
  aim::MarkovRandomField model = Timed(&t.est_init_s, [&] {
    std::vector<Measurement> combined = measurements;
    return aim::EstimateMrf(domain, combined, total,
                            options.round_estimation, nullptr, nullptr,
                            &stats);
  });
  t.est_iters += stats.iterations;
  t.est_backtracks += stats.backtracking_steps;

  // ---- Checkpoints, written as an aimd job writes them.
  const bool checkpointing = !in.checkpoint_base.empty();
  const uint64_t fingerprint =
      aim::AimRunFingerprint(domain, workload, options, in.rho);
  const aim::RetryPolicy retry{};
  auto checkpoint = [&](size_t round) {
    aim::AimSnapshot snap;
    snap.fingerprint = fingerprint;
    snap.rho_budget = in.rho;
    snap.rho_spent = ledger[init_count + round - 1];
    snap.round = static_cast<int64_t>(round);
    snap.init_measurements = static_cast<int64_t>(init_count);
    const aim::RoundInfo& next = run.log.rounds[std::min(round, num_rounds - 1)];
    snap.sigma = next.sigma;
    snap.epsilon = next.epsilon;
    snap.rng = rng.SaveState();
    snap.measurements = measurements;
    snap.rounds.assign(run.log.rounds.begin(), run.log.rounds.begin() + round);
    const aim::Status s = Timed(&t.checkpoint_s, [&] {
      return aim::WriteSnapshotGeneration(snap, in.checkpoint_base,
                                          kCheckpointGenerations, &retry);
    });
    if (!s.ok()) fail("checkpoint write: " + s.ToString());
    ++t.checkpoints;
  };
  if (checkpointing && num_rounds > 0) checkpoint(0);

  // ---- Main loop (Lines 10-18), driven by the log.
  for (size_t round = 0; round < num_rounds; ++round) {
    const aim::RoundInfo& info = run.log.rounds[round];
    const double sigma = info.sigma;
    const double epsilon = info.epsilon;
    const double size_cap =
        ledger[init_count + round] / in.rho * options.max_size_mb;

    // Line 13: JT-SIZE filter.
    std::vector<int> ids;
    Timed(&t.jt_s, [&] {
      std::vector<double> sizes = aim::ParallelMap(
          static_cast<int64_t>(pool.size()), [&](int64_t i) {
            std::vector<AttrSet> cliques = model_cliques;
            cliques.push_back(pool[i]);
            return aim::JtSizeMb(domain, cliques);
          });
      aim::SizeCapFallback fallback;
      ids = aim::FilterCandidatesByJtSize(sizes, size_cap,
                                          options.max_size_mb, &fallback);
    });
    t.jt_evals += static_cast<int64_t>(pool.size());
    t.admitted += static_cast<int64_t>(ids.size());

    // Line 14: fill the data-marginal cache, answer every candidate from
    // the model in one batch, score, select.
    std::vector<const AttrSet*> uncached;
    for (int id : ids) {
      ++t.cache_lookups;
      if (cache.count(pool[id]) == 0) {
        uncached.push_back(&pool[id]);
      } else {
        ++t.cache_hits;
      }
    }
    std::vector<std::vector<double>> fresh = Timed(&t.count_s, [&] {
      return aim::ParallelMap(
          static_cast<int64_t>(uncached.size()),
          [&](int64_t k) { return aim::ComputeMarginal(source, *uncached[k]); });
    });
    t.count_calls += static_cast<int64_t>(uncached.size());
    t.count_rows += static_cast<int64_t>(uncached.size()) * source.num_records();
    for (size_t k = 0; k < uncached.size(); ++k) {
      cache.emplace(*uncached[k], std::move(fresh[k]));
    }
    std::vector<AttrSet> candidate_attrs;
    candidate_attrs.reserve(ids.size());
    for (int id : ids) candidate_attrs.push_back(pool[id]);
    std::vector<std::vector<double>> answers = Timed(&t.infer_s, [&] {
      return model.AnswerMarginalVectors(candidate_attrs);
    });
    t.answer_queries += static_cast<int64_t>(ids.size());
    std::vector<double> scores(ids.size());
    aim::ParallelFor(0, static_cast<int64_t>(ids.size()), 1, [&](int64_t j) {
      const AttrSet& r = pool[ids[j]];
      const double n_r = static_cast<double>(aim::MarginalSize(domain, r));
      scores[j] = weights.at(r) * (aim::L1Distance(cache.at(r), answers[j]) -
                                   kSqrt2OverPi * sigma * n_r);
    });
    double sensitivity = 0.0;
    for (int id : ids) sensitivity = std::max(sensitivity, weights.at(pool[id]));
    if (sensitivity <= 0.0) sensitivity = 1.0;
    if (sensitivity != info.sensitivity) fail("round sensitivity differs");
    const int pick = Timed(&t.select_s, [&] {
      return aim::ExponentialMechanism(scores, epsilon, sensitivity, rng);
    });
    bool admitted = false;
    for (int id : ids) admitted = admitted || pool[id] == info.selected;
    if (!admitted) {
      fail("round " + std::to_string(round + 1) + ": logged selection " +
           info.selected.ToString() + " is not in the admitted set");
    }
    if (!(pool[ids[pick]] == info.selected)) fail("selection draw differs");

    // Line 15: measure; the estimate consumes the logged measurement.
    const Measurement& m = logged[init_count + round];
    const std::vector<double>& exact = true_marginal(m.attrs);
    const std::vector<double> noisy = Timed(&t.measure_s, [&] {
      return aim::AddGaussianNoise(exact, sigma, rng);
    });
    if (!SameBits(noisy, m.values)) fail("measurement noise draw differs");
    Timed(&t.infer_s, [&] { (void)model.MarginalVector(m.attrs); });
    measurements.push_back(m);
    model_cliques.push_back(m.attrs);

    // Line 16: warm-started re-estimate.
    aim::MarkovRandomField penultimate = model;
    model = Timed(&t.est_round_s, [&] {
      total = aim::EstimateTotal(measurements);
      std::vector<Measurement> combined = measurements;
      return aim::EstimateMrf(domain, combined, total,
                              options.round_estimation, &penultimate, nullptr,
                              &stats);
    });
    t.est_iters += stats.iterations;
    t.est_backtracks += stats.backtracking_steps;

    // Line 17: the annealing test reads the refit marginal.
    Timed(&t.infer_s, [&] { (void)model.MarginalVector(m.attrs); });
    t.answer_queries += 2;
    ++t.rounds;
    if (checkpointing) checkpoint(round + 1);
  }

  // ---- Final estimation and generation (Line 19).
  model = Timed(&t.est_final_s, [&] {
    std::vector<Measurement> combined = measurements;
    return aim::EstimateMrf(domain, combined, total, options.final_estimation,
                            &model, nullptr, &stats);
  });
  t.est_iters += stats.iterations;
  t.est_backtracks += stats.backtracking_steps;
  const int64_t records = options.synthetic_records > 0
                              ? options.synthetic_records
                              : static_cast<int64_t>(std::llround(total));
  aim::Dataset synthetic = Timed(&t.synth_s, [&] {
    return aim::GenerateSyntheticData(model, records, rng);
  });
  const aim::Status written = Timed(
      &t.write_csv_s, [&] { return aim::WriteCsv(synthetic, in.csv_path); });
  t.total_s = Now() - start;
  if (!written.ok()) fail("write replayed CSV: " + written.ToString());

  t.msgs_reused = reused.value() - reused0;
  t.msgs_recomputed = recomputed.value() - recomputed0;
  if (!SameModel(model, *run.final_model)) {
    fail("replayed final model differs from MechanismResult::final_model");
  }
  out.ok = out.error.empty();
  return out;
}

}  // namespace e2e
