// Tests for the factor SIMD backend (src/factor/simd_dispatch.*):
//
//   * exact kernels — bitwise identical across every supported level,
//     including signed zeros, infinities, subnormals, and NaN poisoning
//   * transcendental kernels — ULP-bounded against scalar libm across
//     denormals, +-inf, NaN, and the exp overflow/underflow boundaries
//   * dispatch plumbing — detection, clamping, per-level tables
//   * end-to-end — PGM calibration and a full AIM run under the widest
//     SIMD level stay within the documented tolerance of the scalar run
//
// Documented tolerance contract (DESIGN.md "SIMD backend"): vexp/vlog lanes
// are within kMaxUlps of std::exp/std::log; LogSumExpTo outputs are within
// 1e-12 relative; end-to-end AIM workload marginals are within 1e-3 total
// variation (in practice the synthetic bytes are almost always identical).

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "data/simulators.h"
#include "factor/factor.h"
#include "factor/simd_dispatch.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "pgm/markov_random_field.h"
#include "util/rng.h"

namespace aim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNegInf = -kInf;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Maximum lane error for the vector exp/log (measured worst case is ~1 ulp;
// 4 leaves headroom for other FMA hardware).
constexpr double kMaxUlps = 4.0;

// Distance between a and b in units of the larger value's ulp. Exact
// matches (including NaN vs NaN and equal infinities) are 0; a finite vs
// infinite mismatch is effectively infinite.
double UlpDiff(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return 0.0;
  if (a == b) return 0.0;
  if (std::isnan(a) || std::isnan(b) || std::isinf(a) || std::isinf(b)) {
    return kInf;
  }
  const double mag = std::max(std::fabs(a), std::fabs(b));
  int exp = 0;
  std::frexp(mag, &exp);
  double ulp = std::ldexp(1.0, exp - 53);
  ulp = std::max(ulp, std::numeric_limits<double>::denorm_min());
  return std::fabs(a - b) / ulp;
}

std::vector<SimdLevel> SupportedLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdLevelSupported(SimdLevel::kAvx2)) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (SimdLevelSupported(SimdLevel::kAvx512)) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

std::vector<SimdLevel> SupportedSimdOnlyLevels() {
  std::vector<SimdLevel> levels = SupportedLevels();
  levels.erase(levels.begin());  // drop kScalar
  return levels;
}

struct SimdLevelGuard {
  ~SimdLevelGuard() { SetSimdLevel(DefaultSimdLevel()); }
};

// ------------------------------------------------- dispatch plumbing ----

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(SimdLevelSupported(SimdLevel::kScalar));
  const SimdOps* ops = SimdOpsForLevel(SimdLevel::kScalar);
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->level, SimdLevel::kScalar);
}

TEST(SimdDispatchTest, SupportedLevelsHaveConsistentTables) {
  for (SimdLevel level : SupportedLevels()) {
    const SimdOps* ops = SimdOpsForLevel(level);
    ASSERT_NE(ops, nullptr) << ToString(level);
    EXPECT_EQ(ops->level, level);
  }
}

TEST(SimdDispatchTest, SetSimdLevelClampsAndRestores) {
  SimdLevelGuard guard;
  EXPECT_EQ(SetSimdLevel(SimdLevel::kScalar), SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  // Requesting above the detected level clamps to it.
  const SimdLevel got = SetSimdLevel(SimdLevel::kAvx512);
  EXPECT_LE(static_cast<int>(got), static_cast<int>(DetectedSimdLevel()));
  EXPECT_EQ(ActiveSimdLevel(), got);
}

// ------------------------------------ exact kernels: bitwise identity ----

// Values stressing every IEEE edge the exact kernels can see. NaN is
// excluded here (payload propagation through x+y is not specified per
// lane order); the NaN-sensitive kernels get their own test below.
std::vector<double> EdgeValues(Rng& rng, int64_t n) {
  std::vector<double> v(n);
  const double specials[] = {0.0,
                             -0.0,
                             kInf,
                             kNegInf,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::max(),
                             -std::numeric_limits<double>::max(),
                             1.0,
                             -1.0};
  for (int64_t i = 0; i < n; ++i) {
    if (rng.Uniform() < 0.25) {
      v[i] = specials[static_cast<int>(rng.Uniform(0.0, 11.0))];
    } else {
      v[i] = rng.Uniform(-1e3, 1e3);
    }
  }
  return v;
}

void ExpectBitwise(const std::vector<double>& want,
                   const std::vector<double>& got, const char* what,
                   SimdLevel level) {
  ASSERT_EQ(want.size(), got.size());
  EXPECT_EQ(0,
            std::memcmp(want.data(), got.data(),
                        want.size() * sizeof(double)))
      << what << " differs from scalar at level " << ToString(level);
}

TEST(SimdExactKernelTest, ElementwiseKernelsMatchScalarBitwise) {
  const SimdOps* scalar = SimdOpsForLevel(SimdLevel::kScalar);
  Rng rng(101);
  for (SimdLevel level : SupportedSimdOnlyLevels()) {
    const SimdOps* ops = SimdOpsForLevel(level);
    ASSERT_NE(ops, nullptr);
    // Lengths straddling vector width multiples and tails.
    for (int64_t n : {1, 3, 4, 7, 8, 9, 15, 16, 17, 64, 67, 1000}) {
      std::vector<double> a = EdgeValues(rng, n);
      std::vector<double> b = EdgeValues(rng, n);
      const double s = rng.Uniform(-10.0, 10.0);
      std::vector<double> want(n), got(n);

      scalar->add_vv(want.data(), a.data(), b.data(), n);
      ops->add_vv(got.data(), a.data(), b.data(), n);
      ExpectBitwise(want, got, "add_vv", level);
      scalar->sub_vv(want.data(), a.data(), b.data(), n);
      ops->sub_vv(got.data(), a.data(), b.data(), n);
      ExpectBitwise(want, got, "sub_vv", level);
      scalar->mul_vv(want.data(), a.data(), b.data(), n);
      ops->mul_vv(got.data(), a.data(), b.data(), n);
      ExpectBitwise(want, got, "mul_vv", level);
      scalar->add_vs(want.data(), a.data(), s, n);
      ops->add_vs(got.data(), a.data(), s, n);
      ExpectBitwise(want, got, "add_vs", level);
      scalar->sub_vs(want.data(), a.data(), s, n);
      ops->sub_vs(got.data(), a.data(), s, n);
      ExpectBitwise(want, got, "sub_vs", level);
      scalar->mul_vs(want.data(), a.data(), s, n);
      ops->mul_vs(got.data(), a.data(), s, n);
      ExpectBitwise(want, got, "mul_vs", level);
      scalar->sub_sv(want.data(), s, b.data(), n);
      ops->sub_sv(got.data(), s, b.data(), n);
      ExpectBitwise(want, got, "sub_sv", level);

      want = a;
      got = a;
      scalar->axpy(want.data(), b.data(), s, n);
      ops->axpy(got.data(), b.data(), s, n);
      ExpectBitwise(want, got, "axpy", level);
      want = a;
      got = a;
      scalar->add_scalar(want.data(), s, n);
      ops->add_scalar(got.data(), s, n);
      ExpectBitwise(want, got, "add_scalar", level);
      want = a;
      got = a;
      scalar->acc_add(want.data(), b.data(), n);
      ops->acc_add(got.data(), b.data(), n);
      ExpectBitwise(want, got, "acc_add", level);
    }
  }
}

TEST(SimdExactKernelTest, MaxKernelsMatchScalarBitwiseAndPoisonNan) {
  const SimdOps* scalar = SimdOpsForLevel(SimdLevel::kScalar);
  Rng rng(202);
  for (SimdLevel level : SupportedSimdOnlyLevels()) {
    const SimdOps* ops = SimdOpsForLevel(level);
    ASSERT_NE(ops, nullptr);
    for (int64_t n : {1, 3, 8, 9, 17, 64, 67, 513}) {
      for (double nan_prob : {0.0, 0.1, 1.0}) {
        std::vector<double> a = EdgeValues(rng, n);
        for (double& v : a) {
          if (rng.Uniform() < nan_prob) v = kNan;
        }
        std::vector<double> want = EdgeValues(rng, n);
        std::vector<double> got = want;
        scalar->acc_max(want.data(), a.data(), n);
        ops->acc_max(got.data(), a.data(), n);
        ExpectBitwise(want, got, "acc_max", level);

        const double m0 = rng.Uniform(-5.0, 5.0);
        const double want_m = scalar->reduce_max(m0, a.data(), n);
        const double got_m = ops->reduce_max(m0, a.data(), n);
        EXPECT_EQ(0, std::memcmp(&want_m, &got_m, sizeof(double)))
            << "reduce_max differs at level " << ToString(level)
            << " (want " << want_m << ", got " << got_m << ")";
      }
    }
  }
}

// ------------------------- transcendental kernels: ULP-bounded sweeps ----

// Inputs covering satellite-mandated edges: denormals, +-inf, NaN, and the
// exp overflow (~709.78) / underflow (~-745.13) boundaries, plus the
// subnormal-result band (-745.13, -708.4) and broad random fill.
std::vector<double> ExpSweepInputs(Rng& rng) {
  std::vector<double> xs = {
      0.0,     -0.0,     kInf,     kNegInf, kNan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      709.782712893384,   // largest x with finite exp(x)
      709.7827128933841,  // first x overflowing to +inf
      -708.3964185322641, // smallest x with normal exp(x)
      -745.1332191019412, // last x with nonzero (denormal) exp(x)
      -745.1332191019413, // first x underflowing to 0
      -746.0,  710.0,     999.9,   -999.9,  1000.0,  -1000.0, 1000.5,
      -1000.5, 1e6,       -1e6,
  };
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.Uniform(-746.0, 710.5));
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.Uniform(-0.5, 0.5));
  // Dense scans across both boundaries (results sweep the subnormal range).
  for (double x = -745.5; x < -708.0; x += 1e-3) xs.push_back(x);
  for (double x = 709.0; x < 710.5; x += 1e-4) xs.push_back(x);
  return xs;
}

TEST(SimdTranscendentalTest, VExpUlpSweep) {
  Rng rng(303);
  std::vector<double> xs = ExpSweepInputs(rng);
  std::vector<double> out(xs.size());
  for (SimdLevel level : SupportedSimdOnlyLevels()) {
    const SimdOps* ops = SimdOpsForLevel(level);
    ASSERT_NE(ops, nullptr);
    ops->vexp(out.data(), xs.data(), 0.0, static_cast<int64_t>(xs.size()));
    double worst = 0.0;
    double worst_at = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      const double d = UlpDiff(std::exp(xs[i]), out[i]);
      if (d > worst) {
        worst = d;
        worst_at = xs[i];
      }
    }
    EXPECT_LE(worst, kMaxUlps)
        << "vexp worst lane at x=" << worst_at << " level "
        << ToString(level);
    // Shifted form exercises the d[i] = exp(a[i] - shift) fast path used by
    // Exp/ExpInPlace.
    const double shift = 3.25;
    ops->vexp(out.data(), xs.data(), shift,
              static_cast<int64_t>(xs.size()));
    for (size_t i = 0; i < std::min<size_t>(xs.size(), 5000); ++i) {
      EXPECT_LE(UlpDiff(std::exp(xs[i] - shift), out[i]), kMaxUlps)
          << "shifted vexp at x=" << xs[i];
    }
  }
}

TEST(SimdTranscendentalTest, VLogUlpSweep) {
  Rng rng(404);
  std::vector<double> xs = {
      0.0,     -0.0,  kInf,  kNegInf, kNan, -1.0, -1e308,
      1.0,     0.5,   2.0,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      4.9e-324, 1e-310, 2.2250738585072009e-308,  // largest subnormal
  };
  for (int i = 0; i < 100000; ++i) xs.push_back(rng.Uniform(0.0, 1e6));
  for (int i = 0; i < 50000; ++i) {
    // Log-uniform across the full binade range, including subnormals.
    const int e = static_cast<int>(rng.Uniform(-1074.0, 1024.0));
    xs.push_back(std::ldexp(rng.Uniform(1.0, 2.0), e));
  }
  std::vector<double> out(xs.size());
  for (SimdLevel level : SupportedSimdOnlyLevels()) {
    const SimdOps* ops = SimdOpsForLevel(level);
    ASSERT_NE(ops, nullptr);
    ops->vlog(out.data(), xs.data(), static_cast<int64_t>(xs.size()));
    double worst = 0.0;
    double worst_at = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      // Scalar contract: x > 0 ? log(x) : -inf (negatives and NaN -> -inf).
      const double ref = xs[i] > 0 ? std::log(xs[i]) : kNegInf;
      const double d = UlpDiff(ref, out[i]);
      if (d > worst) {
        worst = d;
        worst_at = xs[i];
      }
    }
    EXPECT_LE(worst, kMaxUlps)
        << "vlog worst lane at x=" << worst_at << " level "
        << ToString(level);
  }
}

TEST(SimdTranscendentalTest, ExpAccAndAccExpMatchScalarWithinTolerance) {
  Rng rng(505);
  for (SimdLevel level : SupportedSimdOnlyLevels()) {
    const SimdOps* ops = SimdOpsForLevel(level);
    const SimdOps* scalar = SimdOpsForLevel(SimdLevel::kScalar);
    for (int64_t n : {1, 7, 8, 33, 512, 1000}) {
      std::vector<double> a(n);
      for (double& v : a) v = rng.Uniform(-30.0, 2.0);
      const double m = 2.0;
      const double want = scalar->exp_acc(0.5, a.data(), m, n);
      const double got = ops->exp_acc(0.5, a.data(), m, n);
      EXPECT_NEAR(got, want, std::fabs(want) * 1e-13 + 1e-300)
          << "exp_acc n=" << n << " level " << ToString(level);

      std::vector<double> mx(n), dw(n, 0.25), dg(n, 0.25);
      for (int64_t i = 0; i < n; ++i) {
        mx[i] = (i % 5 == 3) ? kNegInf : rng.Uniform(-1.0, 1.0);
      }
      std::vector<double> src(n);
      for (int64_t i = 0; i < n; ++i) src[i] = rng.Uniform(-5.0, 1.0);
      scalar->acc_exp(dw.data(), mx.data(), src.data(), n);
      ops->acc_exp(dg.data(), mx.data(), src.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        if (std::isinf(mx[i]) && mx[i] < 0) {
          // Structural-zero lanes must be left untouched, bitwise.
          EXPECT_EQ(dg[i], 0.25);
        }
        EXPECT_NEAR(dg[i], dw[i], std::fabs(dw[i]) * 1e-13)
            << "acc_exp lane " << i << " level " << ToString(level);
      }
    }
  }
}

// --------------------------------------------- factor-level tolerance ----

TEST(SimdFactorTest, LogSumExpToWithinToleranceAcrossLevels) {
  SimdLevelGuard guard;
  Rng rng(606);
  Factor f({0, 1, 2}, {5, 17, 23});
  for (double& v : f.mutable_values()) v = rng.Uniform(-8.0, 8.0);
  SetSimdLevel(SimdLevel::kScalar);
  const Factor want = f.LogSumExpTo(AttrSet({0, 2}));
  const Factor want_lead = f.LogSumExpTo(AttrSet({1, 2}));
  for (SimdLevel level : SupportedSimdOnlyLevels()) {
    SetSimdLevel(level);
    const Factor got = f.LogSumExpTo(AttrSet({0, 2}));
    for (int64_t i = 0; i < want.num_cells(); ++i) {
      EXPECT_NEAR(got.value(i), want.value(i),
                  std::fabs(want.value(i)) * 1e-12 + 1e-12)
          << ToString(level);
    }
    const Factor got_lead = f.LogSumExpTo(AttrSet({1, 2}));
    for (int64_t i = 0; i < want_lead.num_cells(); ++i) {
      EXPECT_NEAR(got_lead.value(i), want_lead.value(i),
                  std::fabs(want_lead.value(i)) * 1e-12 + 1e-12)
          << ToString(level);
    }
  }
}

TEST(SimdFactorTest, ExactFactorOpsBitwiseAcrossLevels) {
  SimdLevelGuard guard;
  Rng rng(707);
  Factor a({0, 1, 2}, {7, 9, 11});
  for (double& v : a.mutable_values()) v = rng.Uniform(-3.0, 3.0);
  Factor b({1, 2}, {9, 11});
  for (double& v : b.mutable_values()) v = rng.Uniform(-3.0, 3.0);
  SetSimdLevel(SimdLevel::kScalar);
  const std::vector<double> add = a.Add(b).values();
  const std::vector<double> sub = a.Subtract(b).values();
  const std::vector<double> mul = a.Multiply(b).values();
  const std::vector<double> marg = a.SumTo(AttrSet({0, 2})).values();
  Factor aip = a;
  aip.AddInPlace(b, 1.75);
  const std::vector<double> aipv = aip.values();
  for (SimdLevel level : SupportedSimdOnlyLevels()) {
    SetSimdLevel(level);
    ExpectBitwise(add, a.Add(b).values(), "Factor::Add", level);
    ExpectBitwise(sub, a.Subtract(b).values(), "Factor::Subtract", level);
    ExpectBitwise(mul, a.Multiply(b).values(), "Factor::Multiply", level);
    ExpectBitwise(marg, a.SumTo(AttrSet({0, 2})).values(), "Factor::SumTo",
                  level);
    Factor g = a;
    g.AddInPlace(b, 1.75);
    ExpectBitwise(aipv, g.values(), "Factor::AddInPlace", level);
  }
}

// ------------------------------------------------- end-to-end gates ----

TEST(SimdEndToEndTest, PgmCalibrationWithinToleranceAcrossLevels) {
  SimdLevelGuard guard;
  std::vector<int> sizes(6, 4);
  Domain domain = Domain::WithSizes(sizes);
  std::vector<AttrSet> cliques;
  for (int i = 0; i < 5; ++i) cliques.push_back(AttrSet({i, i + 1}));
  auto build = [&]() {
    MarkovRandomField model(domain, cliques);
    Rng rng(811);
    for (int c = 0; c < model.num_cliques(); ++c) {
      Factor potential = model.potential(c);
      for (double& v : potential.mutable_values()) {
        v = rng.Gaussian(0.0, 1.0);
      }
      model.SetPotential(c, std::move(potential));
    }
    model.set_total(1000.0);
    model.Calibrate();
    return model;
  };
  SetSimdLevel(SimdLevel::kScalar);
  MarkovRandomField scalar_model = build();
  for (SimdLevel level : SupportedSimdOnlyLevels()) {
    SetSimdLevel(level);
    MarkovRandomField simd_model = build();
    for (int i = 0; i < 5; ++i) {
      const std::vector<double> want =
          scalar_model.MarginalVector(AttrSet({i, i + 1}));
      const std::vector<double> got =
          simd_model.MarginalVector(AttrSet({i, i + 1}));
      ASSERT_EQ(want.size(), got.size());
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_NEAR(got[j], want[j], std::fabs(want[j]) * 1e-9 + 1e-9)
            << "clique " << i << " cell " << j << " level "
            << ToString(level);
      }
    }
  }
}

// Normalized 2-way contingency table of (a, b) over a dataset.
std::vector<double> PairHistogram(const Dataset& data, int a, int b,
                                  const Domain& domain) {
  const auto& ca = data.column(a);
  const auto& cb = data.column(b);
  std::vector<double> h(
      static_cast<size_t>(domain.size(a)) * domain.size(b), 0.0);
  for (size_t r = 0; r < ca.size(); ++r) {
    h[static_cast<size_t>(ca[r]) * domain.size(b) + cb[r]] += 1.0;
  }
  for (double& v : h) v /= static_cast<double>(ca.size());
  return h;
}

// Full AIM run under the widest supported SIMD level vs. the scalar level.
// The documented end-to-end tolerance gate: every workload pair marginal of
// the two synthetic datasets agrees within 1e-3 total variation. (With the
// same seed the sampled bytes are expected to be identical unless a random
// draw lands within ~1 ulp of a category boundary; the tolerance covers
// that case.)
TEST(SimdEndToEndTest, AimSyntheticWithinToleranceUnderSimd) {
  if (DetectedSimdLevel() == SimdLevel::kScalar) {
    GTEST_SKIP() << "no SIMD support on this host";
  }
  SimdLevelGuard guard;
  Domain domain = Domain::WithSizes({2, 3, 4, 2, 3});
  Rng data_rng(808);
  Dataset data = SampleRandomBayesNet(domain, 800, 2, 0.4, data_rng);
  Workload workload = AllKWayWorkload(domain, 2);
  AimOptions options;
  options.max_size_mb = 20.0;
  options.round_estimation.max_iters = 30;
  options.final_estimation.max_iters = 80;

  auto run = [&](SimdLevel level) {
    SetSimdLevel(level);
    AimMechanism aim(options);
    Rng rng(2024);
    return aim.Run(data, workload, 0.2, rng);
  };
  MechanismResult scalar_result = run(SimdLevel::kScalar);
  MechanismResult simd_result = run(DetectedSimdLevel());
  for (const WorkloadQuery& query : workload.queries()) {
    const auto& attrs = query.attrs.attrs();
    ASSERT_EQ(attrs.size(), 2u);
    const std::vector<double> want =
        PairHistogram(scalar_result.synthetic, attrs[0], attrs[1], domain);
    const std::vector<double> got =
        PairHistogram(simd_result.synthetic, attrs[0], attrs[1], domain);
    double tv = 0.0;
    for (size_t j = 0; j < want.size(); ++j) {
      tv += std::fabs(want[j] - got[j]);
    }
    EXPECT_LE(0.5 * tv, 1e-3)
        << "workload query (" << attrs[0] << "," << attrs[1] << ")";
  }
}

}  // namespace
}  // namespace aim
