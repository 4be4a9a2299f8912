// Cross-cutting properties tied to specific claims in the paper: privacy
// budgets are never exceeded at any epsilon, AIM's round count respects the
// T = 16d sizing bound, the PrivSyn allocation spends exactly rho, workload
// combinatorics match the closed forms, and the bound machinery picks the
// correct rounds.

#include <cmath>
#include <ostream>
#include <set>

#include <gtest/gtest.h>

#include "data/simulators.h"
#include "dp/accountant.h"
#include "eval/error.h"
#include "eval/experiment.h"
#include "marginal/marginal.h"
#include "marginal/workload.h"
#include "mechanisms/aim.h"
#include "mechanisms/registry.h"
#include "uncertainty/bounds.h"
#include "uncertainty/subsampling.h"
#include "util/rng.h"

namespace aim {
namespace {

const Dataset& PropData() {
  static const Dataset* data = [] {
    Rng rng(4242);
    Domain domain = Domain::WithSizes({2, 3, 2, 2, 4});
    return new Dataset(SampleRandomBayesNet(domain, 2500, 2, 0.4, rng));
  }();
  return *data;
}

RegistryOptions FastOptions() {
  RegistryOptions o;
  o.round_iters = 20;
  o.final_iters = 50;
  o.rp_rows = 30;
  o.rp_iters = 20;
  o.mwem_rounds = 4;
  return o;
}

// ---------------------------------------- budget safety across epsilons ---

struct BudgetCase {
  std::string mechanism;
  double epsilon;
};

// Prints a case as e.g. "MWEM+PGM at eps=0.01", so the test names ctest
// derives from the printed parameter are stable across builds.
void PrintTo(const BudgetCase& c, std::ostream* os) {
  *os << c.mechanism << " at eps=" << FormatG(c.epsilon);
}

class BudgetSweepTest : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(BudgetSweepTest, NeverOverspends) {
  const BudgetCase& c = GetParam();
  auto mechanism = MechanismByName(c.mechanism, FastOptions());
  ASSERT_NE(mechanism, nullptr);
  const double rho = CdpRho(c.epsilon, 1e-9);
  Workload workload = AllKWayWorkload(PropData().domain(), 3);
  Rng rng(11);
  MechanismResult result = mechanism->Run(PropData(), workload, rho, rng);
  EXPECT_LE(result.rho_used, rho * (1.0 + 1e-6))
      << c.mechanism << " at eps=" << c.epsilon;
  EXPECT_GT(result.rho_used, 0.0);
}

std::vector<BudgetCase> BudgetCases() {
  std::vector<BudgetCase> cases;
  for (const std::string& name :
       {"AIM", "MWEM+PGM", "MST", "PrivBayes+PGM", "Independent", "Gaussian",
        "PrivMRF", "RAP", "GEM"}) {
    for (double eps : {0.01, 1.0, 100.0}) {
      cases.push_back({name, eps});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, BudgetSweepTest,
                         ::testing::ValuesIn(BudgetCases()),
                         [](const auto& info) {
                           std::string name = info.param.mechanism + "_eps" +
                                              FormatG(info.param.epsilon);
                           for (char& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

// --------------------------------------------------- AIM sizing bounds ----

TEST(AimPropertyTest, RoundCountBoundedBySizingParameter) {
  AimOptions options;
  options.round_estimation.max_iters = 20;
  options.final_estimation.max_iters = 40;
  options.record_candidates = false;
  AimMechanism aim(options);
  Workload workload = AllKWayWorkload(PropData().domain(), 3);
  const int d = PropData().domain().num_attributes();
  for (double eps : {0.1, 10.0}) {
    Rng rng(21);
    MechanismResult result =
        aim.Run(PropData(), workload, CdpRho(eps, 1e-9), rng);
    // T = 16d sizes sigma_0; annealing only shortens the run. Allow the
    // final exact-exhaustion round on top.
    EXPECT_LE(result.rounds, 16 * d + 1);
  }
}

TEST(AimPropertyTest, SigmaAnnealsMonotonically) {
  AimOptions options;
  options.round_estimation.max_iters = 20;
  options.final_estimation.max_iters = 40;
  options.record_candidates = false;
  AimMechanism aim(options);
  Workload workload = AllKWayWorkload(PropData().domain(), 3);
  Rng rng(22);
  MechanismResult result =
      aim.Run(PropData(), workload, CdpRho(3.0, 1e-9), rng);
  ASSERT_GE(result.log.rounds.size(), 2u);
  for (size_t t = 1; t < result.log.rounds.size(); ++t) {
    EXPECT_LE(result.log.rounds[t].sigma,
              result.log.rounds[t - 1].sigma * (1.0 + 1e-9))
        << "sigma increased at round " << t;
  }
}

TEST(AimPropertyTest, MeasurementsMatchLoggedRounds) {
  AimOptions options;
  options.round_estimation.max_iters = 20;
  options.final_estimation.max_iters = 40;
  AimMechanism aim(options);
  Workload workload = AllKWayWorkload(PropData().domain(), 3);
  Rng rng(23);
  MechanismResult result = aim.Run(PropData(), workload, 0.2, rng);
  const int d = PropData().domain().num_attributes();
  // d initialization measurements + one per round, in order.
  ASSERT_EQ(result.log.measurements.size(),
            static_cast<size_t>(d) + result.log.rounds.size());
  for (size_t t = 0; t < result.log.rounds.size(); ++t) {
    EXPECT_EQ(result.log.measurements[d + t].attrs,
              result.log.rounds[t].selected);
    EXPECT_DOUBLE_EQ(result.log.measurements[d + t].sigma,
                     result.log.rounds[t].sigma);
  }
}

// ------------------------------------------------ allocation identities ---

TEST(GaussianAllocationTest, PrivSynBudgetSpendsExactlyRho) {
  // sum_i 1/(2 sigma_i^2) with sigma_i^2 = (sum_j n_j^{2/3}) /
  // (2 rho n_i^{2/3}) must equal rho for any workload.
  Domain domain = PropData().domain();
  Workload workload = AllKWayWorkload(domain, 3);
  const double rho = 0.37;
  double denom = 0.0;
  for (const auto& q : workload.queries()) {
    denom += std::pow(
        static_cast<double>(MarginalSize(domain, q.attrs)), 2.0 / 3.0);
  }
  double spent = 0.0;
  for (const auto& q : workload.queries()) {
    double n23 = std::pow(
        static_cast<double>(MarginalSize(domain, q.attrs)), 2.0 / 3.0);
    double sigma_sq = denom / (2.0 * rho * n23);
    spent += 1.0 / (2.0 * sigma_sq);
  }
  EXPECT_NEAR(spent, rho, 1e-9);
}

// ------------------------------------------------- workload identities ----

TEST(WorkloadPropertyTest, DownwardClosureSizeOfAllKWay) {
  for (int d : {5, 8, 12}) {
    Domain domain = Domain::WithSizes(std::vector<int>(d, 2));
    Workload w = AllKWayWorkload(domain, 3);
    // |W+| = C(d,3) + C(d,2) + C(d,1).
    int expected = d * (d - 1) * (d - 2) / 6 + d * (d - 1) / 2 + d;
    EXPECT_EQ(static_cast<int>(DownwardClosure(w).size()), expected);
  }
}

TEST(WorkloadPropertyTest, WeightsAreMonotoneUnderInclusion) {
  // w_r = sum_s c_s |r ∩ s| can only grow when r grows.
  Domain domain = Domain::WithSizes(std::vector<int>(6, 2));
  Workload w = AllKWayWorkload(domain, 3);
  for (const AttrSet& r : DownwardClosure(w)) {
    if (r.size() >= 3) continue;
    for (int extra = 0; extra < 6; ++extra) {
      if (r.Contains(extra)) continue;
      AttrSet bigger = r.Union(AttrSet({extra}));
      EXPECT_GE(WorkloadWeight(w, bigger), WorkloadWeight(w, r));
    }
  }
}

TEST(WorkloadPropertyTest, PaperTargetsAreThePredictionAttributes) {
  SimulatorOptions options;
  options.record_scale = 0.001;
  options.min_records = 50;
  SimulatedData adult = MakePaperDataset(PaperDataset::kAdult, options);
  EXPECT_EQ(adult.data.domain().name(adult.target_attribute), "income");
  SimulatedData titanic = MakePaperDataset(PaperDataset::kTitanic, options);
  EXPECT_EQ(titanic.data.domain().name(titanic.target_attribute),
            "survived");
}

// ----------------------------------------------------- bound plumbing -----

TEST(BoundPlumbingTest, UnsupportedBoundUsesLastCandidateRound) {
  Domain domain = Domain::WithSizes({2, 2, 2});
  MechanismResult result;
  // Round 0: {0,1} is a candidate. Round 1: it is not.
  RoundInfo round0;
  round0.selected = AttrSet({0});
  round0.sigma = 1.0;
  round0.epsilon = 0.5;
  round0.sensitivity = 1.0;
  round0.estimated_error_on_selected = 5.0;
  round0.candidates = {{AttrSet({0}), 1.0, 2}, {AttrSet({0, 1}), 2.0, 4}};
  RoundInfo round1 = round0;
  round1.candidates = {{AttrSet({0}), 1.0, 2}};
  result.log.rounds = {round0, round1};
  result.log.measurements.push_back({AttrSet({0}), {1.0, 1.0}, 1.0});
  MarkovRandomField model(domain, {AttrSet({0})});
  model.set_total(2.0);
  model.Calibrate();
  result.final_model = model;
  result.penultimate_model = std::move(model);

  Dataset synth(domain);
  synth.AppendRecord({0, 0, 0});
  synth.AppendRecord({1, 1, 1});
  UncertaintyQuantifier uq(domain, result);
  auto bound = uq.BoundFor(AttrSet({0, 1}), synth);
  ASSERT_TRUE(bound.has_value());
  EXPECT_FALSE(bound->supported);
  EXPECT_EQ(bound->round, 0);
  // {1,2} was never a candidate and is unsupported: no bound.
  EXPECT_FALSE(uq.BoundFor(AttrSet({1, 2}), synth).has_value());
}

// ------------------------------------------------- subsampling extras -----

TEST(SubsamplingPropertyTest, FractionMonotoneInTargetError) {
  Rng rng(31);
  Domain domain = Domain::WithSizes({3, 3});
  Dataset data = SampleRandomBayesNet(domain, 2000, 1, 0.5, rng);
  Workload workload = AllKWayWorkload(domain, 2);
  double prev = 1.1;
  for (double target : {0.01, 0.05, 0.2, 1.0}) {
    double fraction = MatchingSubsamplingFraction(data, workload, target);
    EXPECT_LE(fraction, prev + 1e-12);
    prev = fraction;
  }
}

TEST(SubsamplingPropertyTest, FullResampleStillHasError) {
  // Even K = N has positive expected error (resampling variance) — the
  // reason a mechanism can be better than fraction 1.0.
  Rng rng(32);
  Domain domain = Domain::WithSizes({4});
  Dataset data = SampleRandomBayesNet(domain, 500, 1, 0.5, rng);
  Workload workload = AllKWayWorkload(domain, 1);
  EXPECT_GT(ExpectedSubsamplingWorkloadError(data, workload, 500), 0.0);
}

}  // namespace
}  // namespace aim
