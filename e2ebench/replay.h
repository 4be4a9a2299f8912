// Traced replay of one finished AIM run.
//
// The replay re-executes Algorithm 4 from the run's measurement log by
// calling each layer's public functions from outside the product, timing
// every call: DownwardClosure (workload), JtSizeMb and
// FilterCandidatesByJtSize (pgm junction tree), ComputeMarginal (marginal
// counting), AnswerMarginalVectors / MarginalVector (pgm inference),
// ExponentialMechanism and AddGaussianNoise (dp), EstimateMrf (pgm
// estimation), GenerateSyntheticData (pgm synthesis), WriteCsv (data) and,
// for daemon jobs, WriteSnapshotGeneration (robust).
//
// It is exact, not a model of the run: the per-round sigma, epsilon and
// sensitivity come from the log, the JT-SIZE cap of round t from the
// privacy filter's ledger (MechanismResult::rho_ledger), and the random
// draws from a generator seeded like the run's. Estimation consumes the
// logged measurements, and estimation draws no randomness (the property
// AimOptions::resume_path relies on to refit bitwise), so the replayed
// final model must equal MechanismResult::final_model bit for bit. The
// replay checks that, and that every logged selection lies in the
// candidate set the replay admitted; otherwise its timings are rejected.

#ifndef AIM_E2EBENCH_REPLAY_H_
#define AIM_E2EBENCH_REPLAY_H_

#include <cstdint>
#include <string>

#include "data/data_source.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "mechanisms/mechanism.h"

namespace e2e {

// Time spent in, and work done by, each layer during one replay.
struct LayerTimes {
  double total_s = 0.0;  // the whole replay, Run + WriteCsv scope
  double pool_s = 0.0;   // DownwardClosure + WorkloadWeight
  double jt_s = 0.0;     // JtSizeMb + FilterCandidatesByJtSize
  double count_s = 0.0;  // ComputeMarginal
  double infer_s = 0.0;  // AnswerMarginalVectors + MarginalVector
  double est_init_s = 0.0;
  double est_round_s = 0.0;  // EstimateTotal + warm-started EstimateMrf
  double est_final_s = 0.0;
  double select_s = 0.0;   // ExponentialMechanism
  double measure_s = 0.0;  // AddGaussianNoise
  double synth_s = 0.0;    // GenerateSyntheticData
  double write_csv_s = 0.0;
  double checkpoint_s = 0.0;  // WriteSnapshotGeneration

  int64_t rounds = 0;
  int64_t jt_evals = 0;
  int64_t admitted = 0;
  int64_t count_calls = 0;
  int64_t count_rows = 0;  // records scanned by ComputeMarginal
  int64_t cache_lookups = 0;
  int64_t cache_hits = 0;
  int64_t answer_queries = 0;
  int64_t est_iters = 0;
  int64_t est_backtracks = 0;
  int64_t checkpoints = 0;
  // pgm.infer.* counter deltas (non-zero only while metrics are enabled).
  int64_t msgs_reused = 0;
  int64_t msgs_recomputed = 0;

  // Sum of every layer span (checkpoint writes included).
  double spans() const;
  void Add(const LayerTimes& other);
};

struct ReplayInput {
  const aim::DataSource* source = nullptr;
  const aim::Workload* workload = nullptr;
  aim::AimOptions options;  // the run's options
  double rho = 0.0;
  uint64_t rng_seed = 0;  // the seed of the run's Rng
  const aim::MechanismResult* result = nullptr;
  std::string csv_path;  // the replayed synthetic data is written here
  // Non-empty: checkpoint after the initial fit and every round, as an
  // aimd job does, through WriteSnapshotGeneration.
  std::string checkpoint_base;
};

struct ReplayOutcome {
  LayerTimes times;
  bool ok = false;    // every self-check passed
  std::string error;  // the first self-check that failed
};

// Requires the run to use the paper configuration the benchmark uses
// (downward closure, workload weights, noise penalty, annealing,
// initialization, Gaussian noise, the plain exponential mechanism, no
// structural zeros, public data or resume).
ReplayOutcome Replay(const ReplayInput& input);

}  // namespace e2e

#endif  // AIM_E2EBENCH_REPLAY_H_
