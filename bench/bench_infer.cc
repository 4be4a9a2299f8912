// Microbenchmarks for the inference engine (DESIGN.md "Inference engine"):
// dirty-clique message caching in MarkovRandomField::Calibrate() and the
// batched AnswerMarginals API. Checked-in baselines live in
// BENCH_infer.json; the CI perf-smoke step re-runs these and fails on >2x
// regression (scripts/check_bench_regression.py).
//
// The BM_Calibrate* trio prices AIM's update pattern — cliques change, the
// model re-calibrates, marginals are read:
//  - AllDirty: every clique changes and every belief is read, so every
//    message and belief is recomputed — the cost of a full recalibration
//    (an estimation step, which updates every potential).
//  - OneDirtyFar: one dirty clique at one chain end, query at the other —
//    the worst one-dirty case (the whole dirty->query path recomputes).
//  - OneDirtySame: query the dirtied clique itself — the best case (every
//    needed message survives; only one belief recomputes).

#include <benchmark/benchmark.h>

#include <vector>

#include "marginal/attr_set.h"
#include "parallel/thread_pool.h"
#include "pgm/markov_random_field.h"
#include "util/rng.h"

namespace aim {
namespace {

// Chain of k overlapping triple cliques {i, i+1, i+2} over attributes of
// size 6 (216-cell clique tables, 36-cell separators) with Gaussian
// log-potentials.
MarkovRandomField ChainModel(int k, uint64_t seed) {
  std::vector<int> sizes(k + 2, 6);
  Domain domain = Domain::WithSizes(sizes);
  std::vector<AttrSet> cliques;
  for (int i = 0; i < k; ++i) cliques.push_back(AttrSet({i, i + 1, i + 2}));
  MarkovRandomField model(domain, cliques);
  Rng rng(seed);
  for (int c = 0; c < model.num_cliques(); ++c) {
    Factor potential = model.potential(c);
    for (double& v : potential.mutable_values()) v = rng.Gaussian(0.0, 0.5);
    model.SetPotential(c, std::move(potential));
  }
  model.set_total(10000.0);
  model.Calibrate();
  return model;
}

// One update->calibrate->query cycle. The delta alternates sign so the
// potentials stay bounded across benchmark iterations.
void UpdateCalibrateQuery(MarkovRandomField& model, const Factor& delta,
                          int dirty_clique, const AttrSet& query,
                          double scale) {
  model.AccumulatePotential(dirty_clique, delta, scale);
  model.Calibrate();
  benchmark::DoNotOptimize(model.MarginalVector(query));
}

void BM_CalibrateAllDirty(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  SetParallelThreads(1);
  MarkovRandomField model = ChainModel(k, 1);
  std::vector<Factor> deltas;
  for (int c = 0; c < model.num_cliques(); ++c) {
    deltas.push_back(model.potential(c));
    for (double& v : deltas.back().mutable_values()) v = 0.01;
  }
  double scale = 1.0;
  for (auto _ : state) {
    for (int c = 0; c < model.num_cliques(); ++c) {
      model.AccumulatePotential(c, deltas[c], scale);
    }
    model.Calibrate();
    benchmark::DoNotOptimize(model.LogPartition());
    for (int c = 0; c < model.num_cliques(); ++c) {
      benchmark::DoNotOptimize(model.CliqueBelief(c).values().data());
    }
    scale = -scale;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibrateAllDirty)->Arg(24)->Unit(benchmark::kMicrosecond);

void BM_CalibrateOneDirtyFar(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  SetParallelThreads(1);
  MarkovRandomField model = ChainModel(k, 1);
  Factor delta = model.potential(0);
  for (double& v : delta.mutable_values()) v = 0.01;
  const AttrSet query = model.tree().cliques[model.num_cliques() - 1];
  double scale = 1.0;
  for (auto _ : state) {
    UpdateCalibrateQuery(model, delta, 0, query, scale);
    scale = -scale;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibrateOneDirtyFar)->Arg(24)->Unit(benchmark::kMicrosecond);

void BM_CalibrateOneDirtySame(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  SetParallelThreads(1);
  MarkovRandomField model = ChainModel(k, 1);
  const int mid = model.num_cliques() / 2;
  Factor delta = model.potential(mid);
  for (double& v : delta.mutable_values()) v = 0.01;
  const AttrSet query = model.tree().cliques[mid];
  double scale = 1.0;
  for (auto _ : state) {
    UpdateCalibrateQuery(model, delta, mid, query, scale);
    scale = -scale;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CalibrateOneDirtySame)->Arg(24)->Unit(benchmark::kMicrosecond);

// Query mix for the batched-answer benches: every clique interleaved with
// out-of-clique (variable elimination) pairs. Interleaving matters: the
// batched path splits the queries into contiguous chunks, so clustering all
// the expensive VE queries together would serialize them on one worker.
std::vector<AttrSet> BenchQueries(const MarkovRandomField& model) {
  std::vector<AttrSet> queries;
  const int d = model.domain().num_attributes();
  for (const AttrSet& clique : model.tree().cliques) {
    queries.push_back(clique);
    const int i = static_cast<int>(queries.size()) % (d - 5);
    queries.push_back(AttrSet({i, i + 5}));
  }
  return queries;
}

void BM_AnswerMarginalsSequential(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SetParallelThreads(threads);
  MarkovRandomField model = ChainModel(16, 2);
  std::vector<AttrSet> queries = BenchQueries(model);
  for (auto _ : state) {
    for (const AttrSet& q : queries) {
      benchmark::DoNotOptimize(model.Marginal(q));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_AnswerMarginalsSequential)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_AnswerMarginalsBatched(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SetParallelThreads(threads);
  MarkovRandomField model = ChainModel(16, 2);
  std::vector<AttrSet> queries = BenchQueries(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.AnswerMarginals(queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(queries.size()));
}
BENCHMARK(BM_AnswerMarginalsBatched)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aim

BENCHMARK_MAIN();
