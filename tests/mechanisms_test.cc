#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "data/simulators.h"
#include "dp/accountant.h"
#include "eval/error.h"
#include "marginal/marginal.h"
#include "mechanisms/aim.h"
#include "mechanisms/gaussian_baseline.h"
#include "mechanisms/independent.h"
#include "mechanisms/mst.h"
#include "mechanisms/mwem_pgm.h"
#include "mechanisms/privbayes_pgm.h"
#include "mechanisms/registry.h"
#include "mechanisms/synthesis.h"
#include "obs/trace.h"
#include "pgm/estimation.h"
#include "pgm/junction_tree.h"
#include "util/rng.h"

namespace aim {
namespace {

// Small but genuinely correlated test dataset.
const Dataset& TestData() {
  static const Dataset* data = [] {
    Rng rng(12345);
    Domain domain = Domain::WithSizes({2, 3, 4, 2, 3, 2});
    return new Dataset(SampleRandomBayesNet(domain, 3000, 2, 0.3, rng));
  }();
  return *data;
}

Workload TestWorkload() { return AllKWayWorkload(TestData().domain(), 3); }

// Fast options for tests.
RegistryOptions FastOptions() {
  RegistryOptions o;
  o.round_iters = 30;
  o.final_iters = 100;
  o.rp_rows = 40;
  o.rp_iters = 30;
  o.mwem_rounds = 6;
  return o;
}

// A "blind" reference error: uniform synthetic data of the same size.
double UniformError() {
  static const double error = [] {
    Rng rng(1);
    const Dataset& data = TestData();
    Dataset uniform(data.domain());
    std::vector<int> record(data.domain().num_attributes());
    for (int64_t i = 0; i < data.num_records(); ++i) {
      for (int a = 0; a < data.domain().num_attributes(); ++a) {
        record[a] = static_cast<int>(rng.UniformInt(data.domain().size(a)));
      }
      uniform.AppendRecord(record);
    }
    return WorkloadError(TestData(), uniform, TestWorkload());
  }();
  return error;
}

// ------------------------------------------- all mechanisms, one sweep ----

class AllMechanismsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllMechanismsTest, RespectsBudgetAndProducesOutput) {
  auto mechanism = MechanismByName(GetParam(), FastOptions());
  ASSERT_NE(mechanism, nullptr);
  EXPECT_EQ(mechanism->name(), GetParam());
  const double rho = CdpRho(1.0, 1e-9);
  Rng rng(7);
  MechanismResult result =
      mechanism->Run(TestData(), TestWorkload(), rho, rng);

  EXPECT_LE(result.rho_used, rho * (1.0 + 1e-6));
  EXPECT_GT(result.rho_used, 0.0);
  EXPECT_FALSE(result.log.measurements.empty() &&
               result.query_answers.empty());
  if (result.has_synthetic) {
    EXPECT_GT(result.synthetic.num_records(), 0);
    EXPECT_EQ(result.synthetic.domain().num_attributes(),
              TestData().domain().num_attributes());
  } else {
    EXPECT_EQ(static_cast<int>(result.query_answers.size()),
              TestWorkload().num_queries());
  }
  double error = WorkloadError(TestData(), result, TestWorkload());
  EXPECT_TRUE(std::isfinite(error));
  EXPECT_GE(error, 0.0);
}

TEST_P(AllMechanismsTest, DeterministicGivenSeed) {
  auto mechanism = MechanismByName(GetParam(), FastOptions());
  const double rho = 0.05;
  Rng rng_a(99), rng_b(99);
  MechanismResult a = mechanism->Run(TestData(), TestWorkload(), rho, rng_a);
  MechanismResult b = mechanism->Run(TestData(), TestWorkload(), rho, rng_b);
  EXPECT_DOUBLE_EQ(WorkloadError(TestData(), a, TestWorkload()),
                   WorkloadError(TestData(), b, TestWorkload()));
}

TEST_P(AllMechanismsTest, LearnsSomethingAtHighBudget) {
  auto mechanism = MechanismByName(GetParam(), FastOptions());
  const double rho = CdpRho(10.0, 1e-9);
  Rng rng(21);
  MechanismResult result =
      mechanism->Run(TestData(), TestWorkload(), rho, rng);
  double error = WorkloadError(TestData(), result, TestWorkload());
  // Everything (even Independent, since the data has strong 1-way skew)
  // must beat blind uniform data at eps = 10.
  EXPECT_LT(error, UniformError())
      << GetParam() << " is worse than uniform synthetic data";
}

INSTANTIATE_TEST_SUITE_P(Roster, AllMechanismsTest,
                         ::testing::ValuesIn(StandardMechanismNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return name;
                         });

TEST(RegistryTest, UnknownNameIsNull) {
  EXPECT_EQ(MechanismByName("NoSuchMechanism"), nullptr);
}

TEST(RegistryTest, StandardRosterMatchesNames) {
  auto mechanisms = StandardMechanisms(FastOptions());
  auto names = StandardMechanismNames();
  ASSERT_EQ(mechanisms.size(), names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(mechanisms[i]->name(), names[i]);
  }
}

TEST(RegistryTest, Table1TaxonomyRows) {
  // AIM is the only mechanism with all four checkmarks (Table 1).
  auto mechanisms = StandardMechanisms(FastOptions());
  int full_rows = 0;
  for (const auto& m : mechanisms) {
    MechanismTraits t = m->traits();
    if (t.workload_aware && t.data_aware && t.budget_aware &&
        t.efficiency_aware) {
      ++full_rows;
      EXPECT_EQ(m->name(), "AIM");
    }
  }
  EXPECT_EQ(full_rows, 1);
}

// ------------------------------------------------------------- AIM --------

AimOptions FastAim() {
  AimOptions o;
  o.round_estimation.max_iters = 30;
  o.final_estimation.max_iters = 100;
  return o;
}

TEST(AimTest, ConsumesEntireBudget) {
  AimMechanism aim(FastAim());
  const double rho = 0.2;
  Rng rng(3);
  MechanismResult result = aim.Run(TestData(), TestWorkload(), rho, rng);
  // The privacy filter + final-round exhaustion should land exactly on rho.
  EXPECT_NEAR(result.rho_used, rho, 1e-9 * rho + 1e-12);
  EXPECT_GE(result.rounds, 1);
}

TEST(AimTest, InitializationMeasuresAllOneWays) {
  AimMechanism aim(FastAim());
  Rng rng(4);
  MechanismResult result = aim.Run(TestData(), TestWorkload(), 0.1, rng);
  const int d = TestData().domain().num_attributes();
  std::set<AttrSet> one_ways;
  for (const Measurement& m : result.log.measurements) {
    if (m.attrs.size() == 1) one_ways.insert(m.attrs);
  }
  EXPECT_EQ(static_cast<int>(one_ways.size()), d);
}

TEST(AimTest, ModelCapacityRespected) {
  AimOptions options = FastAim();
  options.max_size_mb = 0.01;  // very tight
  AimMechanism aim(options);
  Rng rng(5);
  MechanismResult result = aim.Run(TestData(), TestWorkload(), 0.5, rng);
  std::vector<AttrSet> cliques;
  for (const Measurement& m : result.log.measurements) {
    cliques.push_back(m.attrs);
  }
  // The realized model must stay within the cap (candidates are filtered
  // by the partial-budget allowance, which is <= the full cap).
  EXPECT_LE(JtSizeMb(TestData().domain(), cliques),
            options.max_size_mb * (1.0 + 1e-9));
}

TEST(AimTest, MoreBudgetMoreRounds) {
  AimMechanism aim(FastAim());
  Rng rng_lo(6), rng_hi(6);
  MechanismResult lo = aim.Run(TestData(), TestWorkload(),
                               CdpRho(0.1, 1e-9), rng_lo);
  MechanismResult hi = aim.Run(TestData(), TestWorkload(),
                               CdpRho(10.0, 1e-9), rng_hi);
  EXPECT_GT(hi.rounds, lo.rounds);
}

TEST(AimTest, ErrorDecreasesWithBudget) {
  AimMechanism aim(FastAim());
  double lo_error = 0.0, hi_error = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng_lo(100 + seed), rng_hi(200 + seed);
    lo_error += WorkloadError(
        TestData(),
        aim.Run(TestData(), TestWorkload(), CdpRho(0.1, 1e-9), rng_lo),
        TestWorkload());
    hi_error += WorkloadError(
        TestData(),
        aim.Run(TestData(), TestWorkload(), CdpRho(10.0, 1e-9), rng_hi),
        TestWorkload());
  }
  EXPECT_LT(hi_error, lo_error);
}

TEST(AimTest, BeatsIndependentOnCorrelatedData) {
  AimMechanism aim(FastAim());
  IndependentMechanism independent;
  const double rho = CdpRho(10.0, 1e-9);
  double aim_error = 0.0, ind_error = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng_a(300 + seed), rng_i(400 + seed);
    aim_error += WorkloadError(
        TestData(), aim.Run(TestData(), TestWorkload(), rho, rng_a),
        TestWorkload());
    ind_error += WorkloadError(
        TestData(), independent.Run(TestData(), TestWorkload(), rho, rng_i),
        TestWorkload());
  }
  EXPECT_LT(aim_error, ind_error);
}

TEST(AimTest, RecordsRoundsAndCandidates) {
  AimMechanism aim(FastAim());
  Rng rng(8);
  MechanismResult result = aim.Run(TestData(), TestWorkload(), 0.5, rng);
  ASSERT_FALSE(result.log.rounds.empty());
  for (const RoundInfo& info : result.log.rounds) {
    EXPECT_GT(info.sigma, 0.0);
    EXPECT_GT(info.epsilon, 0.0);
    EXPECT_FALSE(info.candidates.empty());
    // The selected marginal must be among the candidates.
    bool found = false;
    for (const auto& c : info.candidates) {
      if (c.attrs == info.selected) found = true;
    }
    EXPECT_TRUE(found);
  }
  EXPECT_TRUE(result.final_model.has_value());
  EXPECT_TRUE(result.penultimate_model.has_value());
}

TEST(AimTest, StructuralZerosRespectedInSyntheticData) {
  // Forbid (0, 0) on attributes {0, 3}.
  AimOptions options = FastAim();
  ZeroConstraint zero;
  zero.attrs = AttrSet({0, 3});
  zero.zero_cells = {0};
  options.structural_zeros = {zero};
  // Rebuild data without (0,0) occurrences on {0,3}.
  Dataset data(TestData().domain());
  for (int64_t row = 0; row < TestData().num_records(); ++row) {
    std::vector<int> record = TestData().Record(row);
    if (record[0] == 0 && record[3] == 0) record[3] = 1;
    data.AppendRecord(record);
  }
  AimMechanism aim(options);
  Rng rng(9);
  MechanismResult result = aim.Run(data, TestWorkload(), 0.5, rng);
  std::vector<double> marginal =
      ComputeMarginal(result.synthetic, AttrSet({0, 3}));
  EXPECT_DOUBLE_EQ(marginal[0], 0.0);
}

TEST(AimTest, SyntheticRecordCountOverride) {
  AimOptions options = FastAim();
  options.synthetic_records = 123;
  AimMechanism aim(options);
  Rng rng(10);
  MechanismResult result = aim.Run(TestData(), TestWorkload(), 0.1, rng);
  EXPECT_EQ(result.synthetic.num_records(), 123);
}

// Algorithm 1 keeps the total estimate in sync with the full measurement
// log: every refit re-runs the inverse-variance EstimateTotal over all
// released measurements. A regression here (e.g. freezing the estimate at
// its initialization-time value) silently ignores later, lower-noise
// measurements. Must hold under both ablation settings.
TEST(AimTest, TotalReestimatedFromAllMeasurements) {
  for (bool use_init : {true, false}) {
    AimOptions options = FastAim();
    options.use_initialization = use_init;
    AimMechanism aim(options);
    Rng rng(11);
    MechanismResult result = aim.Run(TestData(), TestWorkload(), 0.3, rng);
    ASSERT_FALSE(result.log.measurements.empty());
    const double expected = EstimateTotal(result.log.measurements);
    EXPECT_NEAR(result.total_estimate, expected,
                1e-9 * std::abs(expected) + 1e-12)
        << "use_initialization=" << use_init;
  }
}

// ------------------------------------- JT-SIZE candidate filter ----------

TEST(SizeCapFilterTest, AdmitsCandidatesWithinAllowance) {
  SizeCapFallback fallback;
  std::vector<int> ids = FilterCandidatesByJtSize(
      {0.5, 3.0, 1.0, 2.5}, /*size_cap=*/1.5, /*max_size_mb=*/4.0, &fallback);
  EXPECT_EQ(fallback, SizeCapFallback::kNone);
  EXPECT_EQ(ids, (std::vector<int>{0, 2}));
}

TEST(SizeCapFilterTest, EmptyAllowanceFallsBackToMaxSize) {
  // Nothing fits the round allowance (0.1), but two candidates fit the full
  // MAX-SIZE budget; both must be admitted so the exponential mechanism
  // still has a real choice, and the clamp is against max_size_mb — not
  // a single global argmin.
  SizeCapFallback fallback;
  std::vector<int> ids = FilterCandidatesByJtSize(
      {2.0, 8.0, 3.0}, /*size_cap=*/0.1, /*max_size_mb=*/4.0, &fallback);
  EXPECT_EQ(fallback, SizeCapFallback::kRelaxedToMaxSize);
  EXPECT_EQ(ids, (std::vector<int>{0, 2}));
}

TEST(SizeCapFilterTest, NothingFitsMaxSizeAdmitsSmallest) {
  SizeCapFallback fallback;
  std::vector<int> ids = FilterCandidatesByJtSize(
      {9.0, 6.0, 7.0}, /*size_cap=*/0.1, /*max_size_mb=*/4.0, &fallback);
  EXPECT_EQ(fallback, SizeCapFallback::kViolatesMaxSize);
  EXPECT_EQ(ids, (std::vector<int>{1}));
}

TEST(SizeCapFilterTest, FallbackEmitsTraceWarning) {
  // Drive AIM with a cap so tight the mandatory 1-way cliques exceed it:
  // every round must report a fallback through the trace stream.
  MemoryTraceSink sink;
  ScopedTraceSink scoped(&sink);
  AimOptions options = FastAim();
  options.max_size_mb = 1e-6;
  AimMechanism aim(options);
  Rng rng(12);
  MechanismResult result = aim.Run(TestData(), TestWorkload(), 0.1, rng);
  ASSERT_GE(result.rounds, 1);
  auto warnings = sink.events_of_type("aim_warning");
  ASSERT_FALSE(warnings.empty());
  for (const TraceEvent& w : warnings) {
    EXPECT_EQ(w.GetString("kind"), "size_cap_fallback");
    EXPECT_GT(w.GetInt("admitted"), 0);
  }
}

TEST(AimMaxRoundsTest, MatchesFormulaAndClamps) {
  EXPECT_EQ(AimMaxRounds(5.0), 60);
  EXPECT_EQ(AimMaxRounds(96.0), 970);  // 16 rounds/attr * 6 attrs
  EXPECT_EQ(AimMaxRounds(0.0), 10);
  EXPECT_EQ(AimMaxRounds(-3.0), 10);
  // Values that overflowed the old `10 * int(T) + 10` expression clamp to
  // the 1e9 ceiling instead of going negative or UB.
  EXPECT_EQ(AimMaxRounds(3e8), 1000000000);
  EXPECT_EQ(AimMaxRounds(1e18), 1000000000);
  EXPECT_EQ(AimMaxRounds(std::numeric_limits<double>::infinity()),
            1000000000);
}

// Ablations: each switch must still produce a working mechanism.
struct AblationCase {
  const char* name;
  AimOptions options;
};

class AimAblationTest : public ::testing::TestWithParam<int> {};

TEST_P(AimAblationTest, RunsAndRespectsBudget) {
  AimOptions options = FastAim();
  switch (GetParam()) {
    case 0:
      options.use_downward_closure = false;
      break;
    case 1:
      options.use_workload_weights = false;
      break;
    case 2:
      options.use_noise_penalty = false;
      break;
    case 3:
      options.use_annealing = false;
      break;
    case 4:
      options.use_initialization = false;
      break;
  }
  AimMechanism aim(options);
  Rng rng(60 + GetParam());
  const double rho = 0.3;
  MechanismResult result = aim.Run(TestData(), TestWorkload(), rho, rng);
  EXPECT_LE(result.rho_used, rho * (1.0 + 1e-6));
  EXPECT_GT(result.synthetic.num_records(), 0);
  EXPECT_TRUE(std::isfinite(
      WorkloadError(TestData(), result, TestWorkload())));
}

INSTANTIATE_TEST_SUITE_P(Switches, AimAblationTest, ::testing::Range(0, 5));

// -------------------------------------------------------- MWEM+PGM --------

TEST(MwemPgmTest, RunsRequestedRounds) {
  MwemPgmOptions options;
  options.rounds = 4;
  options.round_estimation.max_iters = 30;
  options.final_estimation.max_iters = 50;
  MwemPgmMechanism mwem(options);
  Rng rng(11);
  MechanismResult result = mwem.Run(TestData(), TestWorkload(), 0.5, rng);
  EXPECT_EQ(result.rounds, 4);
  EXPECT_EQ(result.log.measurements.size(), 4u);
  EXPECT_NEAR(result.rho_used, 0.5, 1e-9);
}

TEST(MwemPgmTest, SelectsOnlyWorkloadQueries) {
  MwemPgmOptions options;
  options.rounds = 5;
  options.round_estimation.max_iters = 20;
  options.final_estimation.max_iters = 20;
  MwemPgmMechanism mwem(options);
  Rng rng(12);
  Workload workload = TestWorkload();
  MechanismResult result = mwem.Run(TestData(), workload, 0.5, rng);
  std::set<AttrSet> allowed;
  for (const auto& q : workload.queries()) allowed.insert(q.attrs);
  for (const Measurement& m : result.log.measurements) {
    EXPECT_TRUE(allowed.count(m.attrs)) << m.attrs.ToString();
  }
}

// ------------------------------------------------------------- MST --------

TEST(MstTest, MeasuresSpanningTree) {
  MstOptions options;
  options.estimation.max_iters = 50;
  MstMechanism mst(options);
  Rng rng(13);
  MechanismResult result = mst.Run(TestData(), TestWorkload(), 0.5, rng);
  const int d = TestData().domain().num_attributes();
  int pairs = 0;
  std::vector<int> component(d);
  std::iota(component.begin(), component.end(), 0);
  for (const Measurement& m : result.log.measurements) {
    if (m.attrs.size() == 2) {
      ++pairs;
      int a = m.attrs[0], b = m.attrs[1];
      int from = component[b], to = component[a];
      EXPECT_NE(from, to) << "selected pairs contain a cycle";
      for (int v = 0; v < d; ++v) {
        if (component[v] == from) component[v] = to;
      }
    }
  }
  EXPECT_EQ(pairs, d - 1);
  // All vertices connected.
  for (int v = 1; v < d; ++v) EXPECT_EQ(component[v], component[0]);
}

// -------------------------------------------------------- PrivBayes -------

TEST(PrivBayesTest, MeasuresOneCliquePerAttribute) {
  PrivBayesOptions options;
  options.estimation.max_iters = 50;
  PrivBayesPgmMechanism privbayes(options);
  Rng rng(14);
  MechanismResult result =
      privbayes.Run(TestData(), TestWorkload(), 0.5, rng);
  const int d = TestData().domain().num_attributes();
  EXPECT_EQ(static_cast<int>(result.log.measurements.size()), d);
  // Every attribute appears in at least one measured clique.
  std::set<int> covered;
  for (const Measurement& m : result.log.measurements) {
    for (int attr : m.attrs) covered.insert(attr);
  }
  EXPECT_EQ(static_cast<int>(covered.size()), d);
}

// --------------------------------------------------------- Gaussian -------

TEST(GaussianBaselineTest, AnswersAllQueriesWithCorrectShapes) {
  GaussianBaselineMechanism gaussian;
  Rng rng(15);
  Workload workload = TestWorkload();
  MechanismResult result = gaussian.Run(TestData(), workload, 0.5, rng);
  EXPECT_FALSE(result.has_synthetic);
  ASSERT_EQ(static_cast<int>(result.query_answers.size()),
            workload.num_queries());
  for (int i = 0; i < workload.num_queries(); ++i) {
    EXPECT_EQ(static_cast<int64_t>(result.query_answers[i].size()),
              MarginalSize(TestData().domain(), workload.query(i).attrs));
  }
  EXPECT_NEAR(result.rho_used, 0.5, 1e-9);
}

TEST(GaussianBaselineTest, LargerMarginalsGetMoreNoise) {
  // PrivSyn allocation: sigma_i increases with n_i... inversely — check
  // the realized sigmas are ordered opposite to n^(1/3).
  GaussianBaselineMechanism gaussian;
  Rng rng(16);
  Workload workload;
  workload.Add(AttrSet({0, 1}));        // small
  workload.Add(AttrSet({1, 2, 4}));     // larger
  MechanismResult result = gaussian.Run(TestData(), workload, 0.5, rng);
  double sigma_small = result.log.measurements[0].sigma;
  double sigma_large = result.log.measurements[1].sigma;
  EXPECT_GT(sigma_small, sigma_large);
}

// The entry point shared by aim_cli and aimd refuses a spec it cannot run
// with a typed error before touching the input: the path does not exist, so
// a spec that got as far as loading would report NOT_FOUND instead. (These
// budgets used to reach CdpRho's CHECKs and abort aim_cli.)
TEST(SynthesisTest, PrepareRejectsInvalidSpecBeforeLoading) {
  auto prepare = [](auto edit) {
    SynthesisSpec spec;
    spec.input = "/nonexistent/input.csv";
    edit(spec);
    return Synthesis::Prepare(spec).status().code();
  };
  EXPECT_EQ(prepare([](SynthesisSpec&) {}), StatusCode::kNotFound);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double epsilon : {0.0, -1.0, inf, nan}) {
    EXPECT_EQ(prepare([&](SynthesisSpec& s) { s.epsilon = epsilon; }),
              StatusCode::kInvalidArgument)
        << "epsilon " << epsilon;
  }
  for (double delta : {0.0, 1.0, 1.5, nan}) {
    EXPECT_EQ(prepare([&](SynthesisSpec& s) { s.delta = delta; }),
              StatusCode::kInvalidArgument)
        << "delta " << delta;
  }
  for (double max_size_mb : {0.0, -1.0, nan}) {
    EXPECT_EQ(prepare([&](SynthesisSpec& s) {
                s.options.max_size_mb = max_size_mb;
              }),
              StatusCode::kInvalidArgument)
        << "max_size_mb " << max_size_mb;
  }
  for (const char* workload : {"bogus", "target:", "all4way"}) {
    EXPECT_EQ(prepare([&](SynthesisSpec& s) { s.workload = workload; }),
              StatusCode::kInvalidArgument)
        << workload;
  }
}

}  // namespace
}  // namespace aim
