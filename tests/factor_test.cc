#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <ostream>
#include <vector>

#include <gtest/gtest.h>

#include "factor/factor.h"
#include "factor/kernel_plan.h"
#include "factor/simd_dispatch.h"
#include "factor/workspace.h"
#include "parallel/thread_pool.h"
#include "pgm/markov_random_field.h"
#include "test_util.h"
#include "util/rng.h"

// ------------------------------------------------- allocation counting ----
// Replacement global operator new/delete family that counts every heap
// allocation made by this binary. Used by the zero-allocation Calibrate
// test below; all other tests are unaffected (counting is a relaxed atomic
// increment). Must live at global scope, outside any namespace.

namespace {
std::atomic<int64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace aim {
namespace {

int64_t HeapAllocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

Factor RandomFactor(std::vector<int> attrs, std::vector<int> sizes,
                    Rng& rng) {
  Factor f(std::move(attrs), std::move(sizes));
  for (double& v : f.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  return f;
}

TEST(FactorTest, ScalarFactor) {
  Factor f;
  EXPECT_EQ(f.num_cells(), 1);
  EXPECT_EQ(f.num_attrs(), 0);
  EXPECT_DOUBLE_EQ(f.Sum(), 0.0);
}

TEST(FactorTest, ConstructionFillsValue) {
  Factor f({0, 2}, {3, 4}, 1.5);
  EXPECT_EQ(f.num_cells(), 12);
  for (double v : f.values()) EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(FactorTest, FromDomain) {
  Domain domain = Domain::WithSizes({2, 3, 4});
  Factor f = Factor::FromDomain(domain, AttrSet({0, 2}));
  EXPECT_EQ(f.num_cells(), 8);
  EXPECT_EQ(f.attrs(), (std::vector<int>{0, 2}));
  EXPECT_EQ(f.sizes(), (std::vector<int>{2, 4}));
}

TEST(FactorTest, AxisOf) {
  Factor f({1, 3, 7}, {2, 2, 2});
  EXPECT_EQ(f.AxisOf(1), 0);
  EXPECT_EQ(f.AxisOf(3), 1);
  EXPECT_EQ(f.AxisOf(7), 2);
  EXPECT_EQ(f.AxisOf(2), -1);
}

// Row-major, last attribute fastest: cell (i, j) of a {a0:2, a1:3} factor is
// at index i*3 + j.
TEST(FactorTest, LayoutConvention) {
  Factor f = Factor::FromValues({0, 1}, {2, 3}, {0, 1, 2, 3, 4, 5});
  // Sum out attribute 1 -> row sums.
  Factor rows = f.SumTo(AttrSet({0}));
  EXPECT_DOUBLE_EQ(rows.value(0), 0 + 1 + 2);
  EXPECT_DOUBLE_EQ(rows.value(1), 3 + 4 + 5);
  // Sum out attribute 0 -> column sums.
  Factor cols = f.SumTo(AttrSet({1}));
  EXPECT_DOUBLE_EQ(cols.value(0), 0 + 3);
  EXPECT_DOUBLE_EQ(cols.value(1), 1 + 4);
  EXPECT_DOUBLE_EQ(cols.value(2), 2 + 5);
}

TEST(FactorTest, AddDisjointBroadcasts) {
  Factor a = Factor::FromValues({0}, {2}, {1, 2});
  Factor b = Factor::FromValues({1}, {3}, {10, 20, 30});
  Factor c = a.Add(b);
  EXPECT_EQ(c.attrs(), (std::vector<int>{0, 1}));
  EXPECT_EQ(c.num_cells(), 6);
  // c(i, j) = a(i) + b(j), row-major.
  std::vector<double> expected = {11, 21, 31, 12, 22, 32};
  for (int i = 0; i < 6; ++i) EXPECT_DOUBLE_EQ(c.value(i), expected[i]);
}

TEST(FactorTest, MultiplySharedAxis) {
  Factor a = Factor::FromValues({0, 1}, {2, 2}, {1, 2, 3, 4});
  Factor b = Factor::FromValues({1}, {2}, {10, 100});
  Factor c = a.Multiply(b);
  EXPECT_EQ(c.attrs(), (std::vector<int>{0, 1}));
  std::vector<double> expected = {10, 200, 30, 400};
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(c.value(i), expected[i]);
}

TEST(FactorTest, SubtractSelfIsZero) {
  Rng rng(1);
  Factor a = RandomFactor({0, 1, 2}, {2, 3, 2}, rng);
  Factor z = a.Subtract(a);
  for (double v : z.values()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(FactorTest, AddInPlaceSubsetBroadcast) {
  Factor a({0, 1}, {2, 2}, 0.0);
  Factor b = Factor::FromValues({1}, {2}, {5, 7});
  a.AddInPlace(b, 2.0);
  std::vector<double> expected = {10, 14, 10, 14};
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(a.value(i), expected[i]);
}

TEST(FactorTest, SumToEmptySetGivesScalarTotal) {
  Factor a = Factor::FromValues({0, 1}, {2, 2}, {1, 2, 3, 4});
  Factor s = a.SumTo(AttrSet{});
  EXPECT_EQ(s.num_cells(), 1);
  EXPECT_DOUBLE_EQ(s.value(0), 10.0);
}

TEST(FactorTest, LogSumExpToMatchesExpSumLog) {
  Rng rng(2);
  Factor a = RandomFactor({0, 1, 3}, {3, 2, 4}, rng);
  Factor direct = a.Exp().SumTo(AttrSet({0, 3})).Log();
  Factor stable = a.LogSumExpTo(AttrSet({0, 3}));
  ASSERT_EQ(direct.num_cells(), stable.num_cells());
  for (int64_t i = 0; i < direct.num_cells(); ++i) {
    EXPECT_NEAR(direct.value(i), stable.value(i), 1e-10);
  }
}

TEST(FactorTest, LogSumExpToHandlesNegInfCells) {
  Factor a = Factor::FromValues({0, 1}, {2, 2},
                                {kNegInf, kNegInf, 0.0, std::log(2.0)});
  Factor m = a.LogSumExpTo(AttrSet({0}));
  EXPECT_EQ(m.value(0), kNegInf);
  EXPECT_NEAR(m.value(1), std::log(3.0), 1e-12);
}

TEST(FactorTest, LogSumExpToLargeValuesStable) {
  Factor a = Factor::FromValues({0}, {3}, {1000.0, 1000.0, 1000.0});
  Factor m = a.LogSumExpTo(AttrSet{});
  EXPECT_NEAR(m.value(0), 1000.0 + std::log(3.0), 1e-9);
}

TEST(FactorTest, ExpWithShift) {
  Factor a = Factor::FromValues({0}, {2}, {0.0, std::log(4.0)});
  Factor e = a.Exp(std::log(2.0));
  EXPECT_NEAR(e.value(0), 0.5, 1e-12);
  EXPECT_NEAR(e.value(1), 2.0, 1e-12);
}

TEST(FactorTest, LogOfZeroIsNegInf) {
  Factor a = Factor::FromValues({0}, {2}, {0.0, 1.0});
  Factor l = a.Log();
  EXPECT_EQ(l.value(0), kNegInf);
  EXPECT_DOUBLE_EQ(l.value(1), 0.0);
}

TEST(FactorTest, L1DistanceTo) {
  Factor a = Factor::FromValues({0}, {2}, {1, 5});
  Factor b = Factor::FromValues({0}, {2}, {2, 3});
  EXPECT_DOUBLE_EQ(a.L1DistanceTo(b), 3.0);
}

TEST(FactorTest, ScaleAndShift) {
  Factor a = Factor::FromValues({0}, {2}, {1, 2});
  a.ScaleInPlace(3.0);
  a.AddScalarInPlace(1.0);
  EXPECT_DOUBLE_EQ(a.value(0), 4.0);
  EXPECT_DOUBLE_EQ(a.value(1), 7.0);
}

// Property-style sweep: Add/Multiply against brute-force evaluation over the
// union domain, across several attribute-set configurations.
struct BinaryOpCase {
  std::vector<int> a_attrs;
  std::vector<int> a_sizes;
  std::vector<int> b_attrs;
  std::vector<int> b_sizes;
};

// Prints a case from its operands' attrs and sizes, e.g. "a0x3_b1x4" for
// a = {attr 0, size 3}, b = {attr 1, size 4}, so the test names ctest
// derives from the printed parameter are stable across builds.
void PrintTo(const BinaryOpCase& c, std::ostream* os) {
  auto operand = [os](const std::vector<int>& attrs,
                      const std::vector<int>& sizes) {
    for (size_t i = 0; i < attrs.size(); ++i) {
      *os << (i > 0 ? "_" : "") << attrs[i] << "x" << sizes[i];
    }
  };
  *os << "a";
  operand(c.a_attrs, c.a_sizes);
  *os << "_b";
  operand(c.b_attrs, c.b_sizes);
}

class FactorBinaryOpTest : public ::testing::TestWithParam<BinaryOpCase> {};

TEST_P(FactorBinaryOpTest, AddMatchesBruteForce) {
  const auto& param = GetParam();
  Rng rng(99);
  Factor a = RandomFactor(param.a_attrs, param.a_sizes, rng);
  Factor b = RandomFactor(param.b_attrs, param.b_sizes, rng);
  Factor c = a.Add(b);

  // Brute force: walk every cell of c, decompose into coordinates, and look
  // up both operands.
  const auto& attrs = c.attrs();
  const auto& sizes = c.sizes();
  std::vector<int64_t> strides(attrs.size(), 1);
  for (int j = static_cast<int>(attrs.size()) - 2; j >= 0; --j) {
    strides[j] = strides[j + 1] * sizes[j + 1];
  }
  auto lookup = [&](const Factor& f, const std::vector<int>& coord) {
    int64_t idx = 0;
    std::vector<int64_t> fstrides(f.attrs().size(), 1);
    for (int j = static_cast<int>(f.attrs().size()) - 2; j >= 0; --j) {
      fstrides[j] = fstrides[j + 1] * f.sizes()[j + 1];
    }
    for (size_t j = 0; j < f.attrs().size(); ++j) {
      for (size_t i = 0; i < attrs.size(); ++i) {
        if (attrs[i] == f.attrs()[j]) idx += coord[i] * fstrides[j];
      }
    }
    return f.value(idx);
  };
  for (int64_t cell = 0; cell < c.num_cells(); ++cell) {
    std::vector<int> coord(attrs.size());
    int64_t rest = cell;
    for (size_t j = 0; j < attrs.size(); ++j) {
      coord[j] = static_cast<int>(rest / strides[j]);
      rest %= strides[j];
    }
    EXPECT_NEAR(c.value(cell), lookup(a, coord) + lookup(b, coord), 1e-12);
  }
}

TEST_P(FactorBinaryOpTest, MultiplyCommutes) {
  const auto& param = GetParam();
  Rng rng(7);
  Factor a = RandomFactor(param.a_attrs, param.a_sizes, rng);
  Factor b = RandomFactor(param.b_attrs, param.b_sizes, rng);
  Factor ab = a.Multiply(b);
  Factor ba = b.Multiply(a);
  ASSERT_EQ(ab.num_cells(), ba.num_cells());
  for (int64_t i = 0; i < ab.num_cells(); ++i) {
    EXPECT_NEAR(ab.value(i), ba.value(i), 1e-12);
  }
}

TEST_P(FactorBinaryOpTest, SumOfProductEqualsProductOfSumsWhenDisjoint) {
  const auto& param = GetParam();
  AttrSet a_set(param.a_attrs), b_set(param.b_attrs);
  if (!a_set.Intersect(b_set).empty()) GTEST_SKIP();
  Rng rng(8);
  Factor a = RandomFactor(param.a_attrs, param.a_sizes, rng);
  Factor b = RandomFactor(param.b_attrs, param.b_sizes, rng);
  EXPECT_NEAR(a.Multiply(b).Sum(), a.Sum() * b.Sum(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FactorBinaryOpTest,
    ::testing::Values(
        BinaryOpCase{{0}, {3}, {1}, {4}},
        BinaryOpCase{{0, 1}, {2, 3}, {1, 2}, {3, 2}},
        BinaryOpCase{{0, 2}, {2, 2}, {1}, {5}},
        BinaryOpCase{{1, 3, 5}, {2, 2, 2}, {3}, {2}},
        BinaryOpCase{{0, 1, 2}, {2, 2, 2}, {0, 1, 2}, {2, 2, 2}},
        BinaryOpCase{{}, {}, {0, 1}, {3, 3}}));

// Marginalization property sweep: summing out in two steps equals one step.
class FactorMarginalizeTest
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(FactorMarginalizeTest, TwoStepEqualsOneStep) {
  Rng rng(21);
  Factor f = RandomFactor({0, 1, 2, 3}, {2, 3, 2, 3}, rng);
  AttrSet target(GetParam());
  // One step.
  Factor direct = f.SumTo(target);
  // Two steps through an intermediate superset.
  AttrSet mid = target.Union(AttrSet({1}));
  Factor staged = f.SumTo(mid).SumTo(target);
  ASSERT_EQ(direct.num_cells(), staged.num_cells());
  for (int64_t i = 0; i < direct.num_cells(); ++i) {
    EXPECT_NEAR(direct.value(i), staged.value(i), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Targets, FactorMarginalizeTest,
                         ::testing::Values(std::vector<int>{0},
                                           std::vector<int>{3},
                                           std::vector<int>{0, 2},
                                           std::vector<int>{0, 2, 3},
                                           std::vector<int>{}));

// ---------------------------------------- flat kernels == odometer oracle --
// The loop-collapse kernels (DESIGN.md "Factor kernels") promise bitwise
// identical results to a per-cell odometer walk. These tests run every
// planned operation and the odometer oracle in tests/test_util.h on the
// same inputs and memcmp the bits.

// Restores the SIMD level and thread count on exit.
struct KernelConfigGuard {
  ~KernelConfigGuard() {
    SetSimdLevel(DefaultSimdLevel());
    SetParallelThreads(0);
  }
};

// Every SIMD level that can execute on this CPU/binary (always includes
// kScalar).
std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdLevelSupported(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (SimdLevelSupported(SimdLevel::kAvx512)) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

void ExpectBitwiseEq(const std::vector<double>& a,
                     const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << what << " differs bitwise";
  }
}

// Runs every factor kernel on (a, b) and returns the concatenated result
// bits, so one vector comparison covers the whole operation set. With
// `oracle` the planned kernels (binary ops, AddInPlace, SumTo, LogSumExpTo)
// are the odometer references from tests/test_util.h; the elementwise
// kernels, which have no plan, then run on the oracle's outputs. `b`'s
// attrs must be a subset of `a.Add(b)`'s union (always true).
std::vector<double> RunAllKernels(const Factor& a, const Factor& b,
                                  const AttrSet& marg_target, bool oracle) {
  using namespace testing_util;
  std::vector<double> out;
  auto append = [&out](const std::vector<double>& v) {
    out.insert(out.end(), v.begin(), v.end());
  };
  Factor sum = oracle ? OdometerBinaryOp(a, b, std::plus<double>()) : a.Add(b);
  append(sum.values());
  append(oracle ? OdometerBinaryOp(a, b, std::minus<double>()).values()
                : a.Subtract(b).values());
  append(oracle ? OdometerBinaryOp(a, b, std::multiplies<double>()).values()
                : a.Multiply(b).values());

  Factor acc = sum;  // union shape: both a and b are subsets
  if (oracle) {
    OdometerAddInPlace(&acc, a, 1.75);
    OdometerAddInPlace(&acc, b, -0.5);
  } else {
    acc.AddInPlace(a, 1.75);
    acc.AddInPlace(b, -0.5);
  }
  append(acc.values());

  const Factor marg = oracle ? OdometerSumTo(sum, marg_target)
                             : sum.SumTo(marg_target);
  const Factor log_marg = oracle ? OdometerLogSumExpTo(sum, marg_target)
                                 : sum.LogSumExpTo(marg_target);
  append(marg.values());
  append(log_marg.values());
  if (oracle) {
    append(marg.values());
    append(log_marg.values());
  } else {
    Factor into;
    sum.SumToInto(marg_target, &into);
    append(into.values());
    sum.LogSumExpToInto(marg_target, &into);
    append(into.values());
  }

  Factor ex = sum;
  ex.ExpInPlace(0.25);
  append(ex.values());
  append(sum.Exp(0.25).values());
  out.push_back(sum.Sum());
  out.push_back(sum.LogSumExp());
  out.push_back(a.L1DistanceTo(a.Multiply(Factor())));
  return out;
}

// Random factor pair sharing a random subset of attributes, with size-1
// axes allowed (they stress the planner's axis-dropping path).
struct FactorPair {
  Factor a, b;
  AttrSet target;  // subset of union(a, b) to marginalize onto
};

FactorPair RandomPair(Rng& rng) {
  const int universe = 5;
  std::vector<int> sizes(universe);
  for (int& s : sizes) s = 1 + static_cast<int>(rng.Uniform(0.0, 4.0));
  auto random_attrs = [&](bool allow_empty) {
    std::vector<int> attrs;
    for (int i = 0; i < universe; ++i) {
      if (rng.Uniform() < 0.5) attrs.push_back(i);
    }
    if (attrs.empty() && !allow_empty) attrs.push_back(0);
    return attrs;
  };
  auto build = [&](const std::vector<int>& attrs) {
    std::vector<int> fsizes;
    for (int atr : attrs) fsizes.push_back(sizes[atr]);
    Factor f(attrs, fsizes);
    for (double& v : f.mutable_values()) v = rng.Uniform(-3.0, 3.0);
    return f;
  };
  FactorPair pair;
  pair.a = build(random_attrs(false));
  pair.b = build(random_attrs(true));
  AttrSet union_set = pair.a.attr_set().Union(pair.b.attr_set());
  std::vector<int> target;
  for (int attr : union_set.attrs()) {
    if (rng.Uniform() < 0.5) target.push_back(attr);
  }
  pair.target = AttrSet(target);
  return pair;
}

TEST(FlatKernelTest, RandomizedShapesMatchSeedBitwise) {
  KernelConfigGuard guard;
  // Bitwise identity to the odometer oracle is promised by the *scalar*
  // SIMD table; the AVX transcendental kernels are tolerance-gated instead
  // (tests/simd_test.cc).
  SetSimdLevel(SimdLevel::kScalar);
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    FactorPair pair = RandomPair(rng);
    ExpectBitwiseEq(RunAllKernels(pair.a, pair.b, pair.target, true),
                    RunAllKernels(pair.a, pair.b, pair.target, false),
                    "randomized kernel sweep");
  }
}

TEST(FlatKernelTest, LargeFactorsMatchSeedBitwiseAtAnyThreadCount) {
  KernelConfigGuard guard;
  SetSimdLevel(SimdLevel::kScalar);  // see RandomizedShapesMatchSeedBitwise
  // 32*32*34 = 34816 cells >= the parallel threshold (1 << 15), so the
  // chunked parallel paths run; 1-thread and 8-thread runs must agree with
  // each other and with the odometer oracle bit for bit.
  Rng rng(77);
  Factor a({0, 1, 2}, {32, 32, 34});
  for (double& v : a.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  Factor b({1, 2}, {32, 34});
  for (double& v : b.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  AttrSet target({0, 2});

  const std::vector<double> reference = RunAllKernels(a, b, target, true);
  for (int threads : {1, 8}) {
    SetParallelThreads(threads);
    ExpectBitwiseEq(reference, RunAllKernels(a, b, target, false),
                    "large-factor kernel sweep");
  }
}

// Planner totality: a shape with more fused groups than any small fixed
// bound. 20 binary axes with operand membership alternating (a carries the
// even axes, b the odd ones) leave no two adjacent axes fusable, so the
// union walk has 20 groups for the binary ops and AddInPlace; 2^20 cells
// also cross the parallel threshold.
TEST(FlatKernelTest, PlansManyAlternatingGroupsAndMatchesOracle) {
  KernelConfigGuard guard;
  SetSimdLevel(SimdLevel::kScalar);
  const int kAxes = 20;
  std::vector<int> even, odd;
  for (int attr = 0; attr < kAxes; ++attr) {
    (attr % 2 == 0 ? even : odd).push_back(attr);
  }
  Rng rng(2020);
  Factor a(even, std::vector<int>(even.size(), 2));
  for (double& v : a.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  Factor b(odd, std::vector<int>(odd.size(), 2));
  for (double& v : b.mutable_values()) v = rng.Uniform(-2.0, 2.0);

  const Factor joint = a.Multiply(b);
  const std::vector<int64_t> sa = testing_util::OdometerStrides(joint, a);
  const std::vector<int64_t> sb = testing_util::OdometerStrides(joint, b);
  const std::vector<int64_t>* strides[2] = {&sa, &sb};
  const KernelPlan* plan =
      FactorWorkspace::Get().GetPlan(joint.sizes(), strides, 2);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->num_outer, kAxes - 1);
  EXPECT_EQ(plan->total, int64_t{1} << kAxes);

  const AttrSet target({1, 4, 7, 18});
  const std::vector<double> reference = RunAllKernels(a, b, target, true);
  for (int threads : {1, 8}) {
    SetParallelThreads(threads);
    ExpectBitwiseEq(reference, RunAllKernels(a, b, target, false),
                    "alternating-groups kernel sweep");
  }
}

// Size-1 axes never count toward the planner's bound or its cache key: a
// factor with 100 axes, all but three of size 1, plans like its 3-axis core.
TEST(FlatKernelTest, DegenerateAxesDoNotCountTowardPlanRank) {
  KernelConfigGuard guard;
  SetSimdLevel(SimdLevel::kScalar);
  std::vector<int> attrs(100), sizes(100, 1);
  for (int i = 0; i < 100; ++i) attrs[i] = i;
  sizes[10] = 3;
  sizes[50] = 4;
  sizes[99] = 5;
  Rng rng(100);
  Factor a(attrs, sizes);
  for (double& v : a.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  Factor b({20, 50}, {1, 4});
  for (double& v : b.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  const AttrSet target({10, 20, 99});
  ExpectBitwiseEq(RunAllKernels(a, b, target, true),
                  RunAllKernels(a, b, target, false),
                  "degenerate-axes kernel sweep");
}

TEST(FlatKernelTest, SumToIntoReusesCapacityAndMatchesSumTo) {
  Rng rng(11);
  Factor f = RandomFactor({0, 1, 2}, {4, 3, 5}, rng);
  Factor out;
  f.SumToInto(AttrSet({0, 2}), &out);
  const double* data_before = out.values().data();
  ExpectBitwiseEq(f.SumTo(AttrSet({0, 2})).values(), out.values(),
                  "SumToInto");
  // Same-shape recompute into the warm buffer must not reallocate.
  f.SumToInto(AttrSet({0, 2}), &out);
  EXPECT_EQ(out.values().data(), data_before);
  f.LogSumExpToInto(AttrSet({0, 2}), &out);
  ExpectBitwiseEq(f.LogSumExpTo(AttrSet({0, 2})).values(), out.values(),
                  "LogSumExpToInto");
}

TEST(FlatKernelTest, PlanCacheHitsOnRepeatedShapes) {
  Rng rng(5);
  Factor a = RandomFactor({0, 1}, {6, 7}, rng);
  Factor b = RandomFactor({1}, {7}, rng);
  a.Multiply(b);  // prime the cache for this shape
  FactorWorkspace& ws = FactorWorkspace::Get();
  const int64_t hits_before = ws.plan_hits();
  for (int i = 0; i < 10; ++i) a.Multiply(b);
  EXPECT_GE(ws.plan_hits(), hits_before + 10);
}

// ----------------------------------------------- numeric edge cases ----

// Regression: LogSumExpTo's pass-1 max scatter used `<` comparisons that
// silently skip NaN, so a destination group consisting entirely of NaN
// kept its -inf max, tripped the structural-zero guard in pass 2, and came
// out as -inf — "this group has zero probability" — instead of propagating
// the NaN. (A mixed NaN/finite group already produced NaN through pass 2's
// exp(NaN - m).) A NaN contribution must poison exactly its destination
// cell, on the odometer oracle, the flat scalar kernels, and every SIMD
// body.
TEST(FactorNumericEdgeCaseTest, NanInputPoisonsLogSumExpCell) {
  KernelConfigGuard guard;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Rows long enough (37) that the AVX-512 vector loop engages and NaNs
  // land inside full vectors, not just the scalar tail.
  const int kCols = 37;

  // Case 1 — contracted destination (marginalize the trailing axis,
  // destination stride 0): row 0 all NaN, row 1 clean.
  Factor by_row({0, 1}, {2, kCols});
  Rng rng(3003);
  for (double& v : by_row.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  for (int j = 0; j < kCols; ++j) by_row.mutable_values()[j] = nan;
  double row1_max = kNegInf;
  for (int j = 0; j < kCols; ++j) {
    row1_max = std::max(row1_max, by_row.value(kCols + j));
  }
  double row1_acc = 0.0;
  for (int j = 0; j < kCols; ++j) {
    row1_acc += std::exp(by_row.value(kCols + j) - row1_max);
  }
  const double row1_lse = row1_max + std::log(row1_acc);

  // Case 2 — unit-stride destination (marginalize the leading axis):
  // column 17 all NaN, every other column clean. Also covers the mixed
  // group through case 1's rows target below.
  Factor by_col({0, 1}, {2, kCols});
  for (double& v : by_col.mutable_values()) v = rng.Uniform(-2.0, 2.0);
  by_col.mutable_values()[17] = nan;
  by_col.mutable_values()[kCols + 17] = nan;

  // The odometer oracle first, then the product kernels at every SIMD level.
  struct Run {
    bool oracle;
    SimdLevel level;
  };
  std::vector<Run> runs = {{true, SimdLevel::kScalar}};
  for (SimdLevel level : SupportedSimdLevels()) runs.push_back({false, level});
  for (const Run& run : runs) {
    SetSimdLevel(run.level);
    auto lse = [&run](const Factor& f, const AttrSet& target) {
      return run.oracle ? testing_util::OdometerLogSumExpTo(f, target)
                        : f.LogSumExpTo(target);
    };
    const std::string where =
        run.oracle ? "oracle" : std::string(ToString(run.level));
    Factor rows = lse(by_row, AttrSet({0}));
    EXPECT_TRUE(std::isnan(rows.value(0))) << "all-NaN row, " << where;
    EXPECT_NEAR(rows.value(1), row1_lse, 1e-12) << "clean row, " << where;
    Factor cols = lse(by_col, AttrSet({1}));
    for (int j = 0; j < kCols; ++j) {
      if (j == 17) {
        EXPECT_TRUE(std::isnan(cols.value(j))) << "all-NaN column, " << where;
      } else {
        EXPECT_FALSE(std::isnan(cols.value(j)))
            << "clean column " << j << ", " << where;
      }
    }
    // Mixed NaN/finite group (row 0 of by_col contains one NaN).
    Factor mixed = lse(by_col, AttrSet({0}));
    EXPECT_TRUE(std::isnan(mixed.value(0))) << where;
    EXPECT_TRUE(std::isnan(mixed.value(1))) << where;
  }
}

// Regression: Exp/ExpInPlace with an all--inf factor (every probability
// zero) computes shift = Max() = -inf, and exp(-inf - -inf) turned every
// cell into NaN. The degenerate shift must yield the limit exp(v) = 0.
TEST(FactorNumericEdgeCaseTest, ExpOfAllNegInfFactorIsZero) {
  KernelConfigGuard guard;
  for (SimdLevel level : SupportedSimdLevels()) {
    SetSimdLevel(level);
    Factor a({0}, {100}, kNegInf);
    ASSERT_EQ(a.Max(), kNegInf);
    Factor e = a.Exp(a.Max());
    for (double v : e.values()) {
      ASSERT_EQ(v, 0.0) << "Exp level=" << ToString(level);
    }
    Factor b = a;
    b.ExpInPlace(b.Max());
    for (double v : b.values()) {
      ASSERT_EQ(v, 0.0) << "ExpInPlace level=" << ToString(level);
    }
  }
}

// ------------------------------------------- plan cache collisions ----

bool PlansEqual(const KernelPlan& x, const KernelPlan& y) {
  if (x.num_operands != y.num_operands ||
      x.num_outer != y.num_outer || x.inner_size != y.inner_size ||
      x.total != y.total) {
    return false;
  }
  for (int k = 0; k < x.num_operands; ++k) {
    if (x.inner_strides[k] != y.inner_strides[k]) return false;
  }
  for (int axis = 0; axis < x.num_outer; ++axis) {
    if (x.outer_sizes[axis] != y.outer_sizes[axis]) return false;
    for (int k = 0; k < x.num_operands; ++k) {
      if (x.outer_strides[k][axis] != y.outer_strides[k][axis]) return false;
    }
  }
  return true;
}

// The plan cache is direct-mapped with 256 slots, so distinct shapes can
// hash to the same slot. Hammer it with thousands of random (sizes,
// strides) keys — far more than 256, guaranteeing collisions — and check
// the returned plan always equals a freshly built one (i.e. a collision
// evicts, never aliases).
TEST(FlatKernelTest, PlanCacheServesCorrectPlanUnderCollisions) {
  FactorWorkspace& ws = FactorWorkspace::Get();
  Rng rng(31337);
  for (int trial = 0; trial < 4000; ++trial) {
    const int rank = 1 + static_cast<int>(rng.Uniform(0.0, 4.0));
    std::vector<int> sizes(rank);
    for (int& s : sizes) s = 1 + static_cast<int>(rng.Uniform(0.0, 5.0));
    const int num_operands = rng.Uniform() < 0.5 ? 1 : 2;
    std::vector<int64_t> stride_bufs[2];
    for (int k = 0; k < num_operands; ++k) {
      // Row-major strides of a random sub-factor: axes outside the subset
      // get stride 0, exactly what StridesIntoBuf produces.
      stride_bufs[k].assign(rank, 0);
      int64_t stride = 1;
      for (int axis = rank - 1; axis >= 0; --axis) {
        if (rng.Uniform() < 0.7) {
          stride_bufs[k][axis] = stride;
          stride *= sizes[axis];
        }
      }
    }
    const std::vector<int64_t>* strides[2] = {&stride_bufs[0],
                                              &stride_bufs[1]};
    const KernelPlan* cached = ws.GetPlan(sizes, strides, num_operands);
    KernelPlan fresh;
    BuildKernelPlan(sizes, strides, num_operands, &fresh);
    ASSERT_TRUE(PlansEqual(*cached, fresh))
        << "cached plan differs from fresh build at trial " << trial;
  }
}

// --------------------------------------- zero-allocation steady state ----

TEST(FlatKernelTest, CalibrateAllocatesNothingAfterWarmup) {
  // A step of estimation: dirty every clique, Calibrate, then read every
  // belief and the partition function, which recomputes every message in
  // both directions into slots allocated on the first pass. Factors stay
  // far below the parallel threshold so everything runs serially on this
  // thread (parallel dispatch heap-allocates closures).
  std::vector<int> sizes(7, 3);
  Domain domain = Domain::WithSizes(sizes);
  std::vector<AttrSet> cliques;
  for (int i = 0; i < 6; ++i) cliques.push_back(AttrSet({i, i + 1}));
  MarkovRandomField model(domain, cliques);
  Rng rng(99);
  for (int c = 0; c < model.num_cliques(); ++c) {
    Factor potential = model.potential(c);
    for (double& v : potential.mutable_values()) v = rng.Gaussian(0.0, 0.7);
    model.SetPotential(c, std::move(potential));
  }
  model.set_total(500.0);
  std::vector<Factor> deltas;
  for (const AttrSet& clique : model.tree().cliques) {
    deltas.push_back(Factor::FromDomain(domain, clique, 0.01));
  }
  double scale = 1.0;
  auto step = [&] {
    for (int c = 0; c < model.num_cliques(); ++c) {
      model.AccumulatePotential(c, deltas[c], scale);
    }
    scale = -scale;
    model.Calibrate();
    double sink = model.LogPartition();
    for (int c = 0; c < model.num_cliques(); ++c) {
      sink += model.CliqueBelief(c).value(0);
    }
    return sink;
  };
  step();  // warm-up: allocates messages, beliefs, scratch
  step();  // warm-up: everything reaches steady-state capacity

  const int64_t before = HeapAllocations();
  const double sink = step();
  const int64_t after = HeapAllocations();
  EXPECT_EQ(after - before, 0)
      << "steady-state dirty-all Calibrate performed heap allocations";
  EXPECT_TRUE(std::isfinite(sink));
}

// ------------------------------------------- cell-count overflow ----

TEST(FactorDeathTest, CellCountOverflowAborts) {
  // 2^80 cells: the product wraps int64 on the fourth axis.
  EXPECT_DEATH(Factor({0, 1, 2, 3}, {1 << 20, 1 << 20, 1 << 20, 1 << 20}),
               "overflows int64");
  // 63 binary axes: 2^63 is one past INT64_MAX.
  std::vector<int> attrs(63);
  for (int i = 0; i < 63; ++i) attrs[i] = i;
  EXPECT_DEATH(Factor(attrs, std::vector<int>(63, 2)), "overflows int64");
}

}  // namespace
}  // namespace aim
