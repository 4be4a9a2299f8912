// Microbenchmarks for the flat factor kernels (DESIGN.md "Factor kernels").
//
// Every benchmark runs with Arg(1) = kernels pinned to the scalar SIMD
// level and Arg(2) = kernels at the detected SIMD level, so the
// vectorization win is priced within one run (machine speed cancels out).
// Checked-in baselines live in BENCH_factor.json; the CI "Factor perf
// smoke" step re-runs these, fails on a >2x real-time regression, and
// requires the SIMD level to keep a >=2x win on logsumexp and exp
// (scripts/check_bench_regression.py --speedup).
//
// Shapes stay below the parallel-dispatch threshold (1 << 15 cells) so the
// benches measure the kernels themselves, single-threaded, not the pool.

#include <benchmark/benchmark.h>

#include <vector>

#include "factor/factor.h"
#include "factor/simd_dispatch.h"
#include "marginal/attr_set.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace aim {
namespace {

Factor RandomFactor(std::vector<int> attrs, std::vector<int> sizes,
                    uint64_t seed) {
  Factor f(std::move(attrs), std::move(sizes));
  Rng rng(seed);
  for (double& v : f.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  return f;
}

// Applies the Arg(1)/Arg(2) SIMD selection for the benchmark body and
// restores the defaults (detected SIMD level) afterwards.
struct KernelMode {
  explicit KernelMode(benchmark::State& state) {
    SetParallelThreads(1);
    SetSimdLevel(state.range(0) >= 2 ? DetectedSimdLevel()
                                     : SimdLevel::kScalar);
  }
  ~KernelMode() {
    SetSimdLevel(DefaultSimdLevel());
    SetParallelThreads(0);
  }
};

// Two identically-shaped 13824-cell factors: the planner fuses everything
// into one contiguous run.
void BM_MultiplySameShape(benchmark::State& state) {
  KernelMode mode(state);
  Factor a = RandomFactor({0, 1, 2}, {24, 24, 24}, 1);
  Factor b = RandomFactor({0, 1, 2}, {24, 24, 24}, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Multiply(b));
  }
  state.SetItemsProcessed(state.iterations() * a.num_cells());
}
BENCHMARK(BM_MultiplySameShape)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Broadcast over a missing leading axis: b's stride is 0 on axis 0, unit
// on the fused trailing pair.
void BM_MultiplyBroadcast(benchmark::State& state) {
  KernelMode mode(state);
  Factor a = RandomFactor({0, 1, 2}, {24, 24, 24}, 3);
  Factor b = RandomFactor({1, 2}, {24, 24}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Multiply(b));
  }
  state.SetItemsProcessed(state.iterations() * a.num_cells());
}
BENCHMARK(BM_MultiplyBroadcast)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// The Calibrate hot path: accumulate a separator-shaped message into a
// clique table (broadcast over the leading axis).
void BM_AddInPlaceSubset(benchmark::State& state) {
  KernelMode mode(state);
  Factor acc = RandomFactor({0, 1, 2}, {24, 24, 24}, 5);
  Factor msg = RandomFactor({1, 2}, {24, 24}, 6);
  double scale = 1.0;
  for (auto _ : state) {
    acc.AddInPlace(msg, scale);
    scale = -scale;  // keep the accumulator bounded
    benchmark::DoNotOptimize(acc.mutable_values().data());
  }
  state.SetItemsProcessed(state.iterations() * acc.num_cells());
}
BENCHMARK(BM_AddInPlaceSubset)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Trailing axes contracted: each destination cell is a contiguous
// 576-element reduction (the scalar-accumulator fast path).
void BM_MarginalizeTrailing(benchmark::State& state) {
  KernelMode mode(state);
  Factor f = RandomFactor({0, 1, 2}, {24, 24, 24}, 7);
  const AttrSet target({0});
  Factor out;
  for (auto _ : state) {
    f.SumToInto(target, &out);
    benchmark::DoNotOptimize(out.mutable_values().data());
  }
  state.SetItemsProcessed(state.iterations() * f.num_cells());
}
BENCHMARK(BM_MarginalizeTrailing)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Leading axes contracted: the destination axis is the unit-stride inner
// run, so the scatter-add is contiguous on both operands.
void BM_MarginalizeLeading(benchmark::State& state) {
  KernelMode mode(state);
  Factor f = RandomFactor({0, 1, 2}, {24, 24, 24}, 8);
  const AttrSet target({2});
  Factor out;
  for (auto _ : state) {
    f.SumToInto(target, &out);
    benchmark::DoNotOptimize(out.mutable_values().data());
  }
  state.SetItemsProcessed(state.iterations() * f.num_cells());
}
BENCHMARK(BM_MarginalizeLeading)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Log-space marginalization (the message-passing kernel): max pass plus
// exp-accumulate pass per destination cell.
void BM_LogSumExpTrailing(benchmark::State& state) {
  KernelMode mode(state);
  Factor f = RandomFactor({0, 1, 2}, {24, 24, 24}, 9);
  const AttrSet target({0});
  Factor out;
  for (auto _ : state) {
    f.LogSumExpToInto(target, &out);
    benchmark::DoNotOptimize(out.mutable_values().data());
  }
  state.SetItemsProcessed(state.iterations() * f.num_cells());
}
BENCHMARK(BM_LogSumExpTrailing)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Elementwise shifted exponential (the Calibrate belief -> probability
// step): Arg(1) vs Arg(2) prices libm against the vectorized exp.
void BM_Exp(benchmark::State& state) {
  KernelMode mode(state);
  Factor f = RandomFactor({0, 1, 2}, {24, 24, 24}, 10);
  const double shift = f.Max();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Exp(shift));
  }
  state.SetItemsProcessed(state.iterations() * f.num_cells());
}
BENCHMARK(BM_Exp)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

// Elementwise log (probability -> log-space potentials). Same story as
// BM_Exp: Arg(1) vs Arg(2) prices the vectorized log against libm.
void BM_Log(benchmark::State& state) {
  KernelMode mode(state);
  Factor f = RandomFactor({0, 1, 2}, {24, 24, 24}, 11);
  for (double& v : f.mutable_values()) v = v + 2.5;  // keep inputs positive
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.Log());
  }
  state.SetItemsProcessed(state.iterations() * f.num_cells());
}
BENCHMARK(BM_Log)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aim

BENCHMARK_MAIN();
