// Tests for the inference engine layer (DESIGN.md "Inference engine"):
// dirty-clique message caching in Calibrate(), batched AnswerMarginals, the
// own-mass normalization of Marginal, and the bitwise-invariance guarantees
// (cached == freshly built model, batched == sequential, any thread count).

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "pgm/markov_random_field.h"
#include "test_util.h"
#include "util/rng.h"

namespace aim {
namespace {

// Restores global knobs (threads, metrics) when a test exits.
struct GlobalConfigGuard {
  ~GlobalConfigGuard() {
    SetParallelThreads(0);
    SetMetricsEnabled(false);
  }
};

void ExpectBitwiseEq(const std::vector<double>& a,
                     const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)))
        << "vectors differ bitwise";
  }
}

// Chain model over `k + 1` ternary attributes with cliques {i, i+1} and
// Gaussian log-potentials: a >= k-clique junction tree whose structure is a
// path, convenient for reasoning about message reuse.
MarkovRandomField ChainModel(int k, uint64_t seed) {
  std::vector<int> sizes(k + 1, 3);
  Domain domain = Domain::WithSizes(sizes);
  std::vector<AttrSet> cliques;
  for (int i = 0; i < k; ++i) cliques.push_back(AttrSet({i, i + 1}));
  MarkovRandomField model(domain, cliques);
  Rng rng(seed);
  for (int c = 0; c < model.num_cliques(); ++c) {
    Factor potential = model.potential(c);
    for (double& v : potential.mutable_values()) v = rng.Gaussian(0.0, 0.7);
    model.SetPotential(c, std::move(potential));
  }
  model.set_total(1000.0);
  model.Calibrate();
  return model;
}

// Query mix covering the interesting paths: clique-covered sets, subsets of
// cliques, out-of-clique sets (variable elimination), and duplicates.
std::vector<AttrSet> MixedQueries(const MarkovRandomField& model) {
  std::vector<AttrSet> queries;
  for (const AttrSet& clique : model.tree().cliques) queries.push_back(clique);
  const int d = model.domain().num_attributes();
  queries.push_back(AttrSet({0}));
  queries.push_back(AttrSet({d - 1}));
  queries.push_back(AttrSet({0, d - 1}));          // VE across the chain
  queries.push_back(AttrSet({1, d - 2}));          // VE
  queries.push_back(model.tree().cliques[0]);      // duplicate
  queries.push_back(AttrSet({0, d - 1}));          // duplicate VE
  return queries;
}

// ------------------------------------------------- batched == sequential --

TEST(AnswerMarginalsTest, BatchedMatchesSequentialBitwiseAtAnyThreadCount) {
  GlobalConfigGuard guard;
  for (int threads : {1, 8}) {
    SetParallelThreads(threads);
    MarkovRandomField model = ChainModel(8, /*seed=*/17);
    std::vector<AttrSet> queries = MixedQueries(model);

    std::vector<Factor> sequential;
    for (const AttrSet& q : queries) sequential.push_back(model.Marginal(q));
    std::vector<Factor> batched = model.AnswerMarginals(queries);

    ASSERT_EQ(sequential.size(), batched.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(sequential[i].attrs(), batched[i].attrs());
      ExpectBitwiseEq(sequential[i].values(), batched[i].values());
    }

    std::vector<std::vector<double>> vectors =
        model.AnswerMarginalVectors(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitwiseEq(model.MarginalVector(queries[i]), vectors[i]);
    }
  }
}

TEST(AnswerMarginalsTest, EmptyBatchIsFine) {
  MarkovRandomField model = ChainModel(3, 5);
  std::vector<AttrSet> queries;
  EXPECT_TRUE(model.AnswerMarginals(queries).empty());
}

TEST(AnswerMarginalsTest, MatchesBruteForce) {
  MarkovRandomField model = ChainModel(4, 23);
  std::vector<AttrSet> queries = MixedQueries(model);
  std::vector<Factor> batched = model.AnswerMarginals(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    std::vector<double> expected =
        testing_util::BruteForceMarginal(model, queries[i]);
    EXPECT_LT(testing_util::MaxAbsDiff(batched[i].values(), expected), 1e-8)
        << "query " << queries[i].ToString();
  }
}

// ------------------------------------- dirty calibrate == full calibrate --

TEST(DirtyCalibrateTest, MatchesFullRecalibrationBitwise) {
  GlobalConfigGuard guard;
  for (int threads : {1, 8}) {
    SetParallelThreads(threads);
    // `cached` keeps its message cache across an incremental update;
    // `fresh` is rebuilt from scratch with the same final potentials, so
    // its first calibration recomputes everything.
    MarkovRandomField cached = ChainModel(8, /*seed=*/31);
    std::vector<AttrSet> queries = MixedQueries(cached);
    // Materialize the cache fully before the update.
    for (const AttrSet& q : queries) cached.Marginal(q);

    Rng rng(99);
    Factor delta = cached.potential(3);
    for (double& v : delta.mutable_values()) v = rng.Gaussian(0.0, 0.5);
    cached.AccumulatePotential(3, delta, 1.0);
    cached.Calibrate();

    MarkovRandomField fresh = ChainModel(8, /*seed=*/31);
    fresh.AccumulatePotential(3, delta, 1.0);
    fresh.Calibrate();

    for (const AttrSet& q : queries) {
      ExpectBitwiseEq(cached.MarginalVector(q), fresh.MarginalVector(q));
    }
    EXPECT_EQ(cached.LogPartition(), fresh.LogPartition());
  }
}

TEST(DirtyCalibrateTest, RepeatedUpdatesStayCorrect) {
  MarkovRandomField model = ChainModel(6, 7);
  Rng rng(3);
  for (int round = 0; round < 5; ++round) {
    int c = static_cast<int>(rng.UniformInt(model.num_cliques()));
    Factor delta = model.potential(c);
    for (double& v : delta.mutable_values()) v = rng.Gaussian(0.0, 0.3);
    model.AccumulatePotential(c, delta, 1.0);
    model.Calibrate();
    AttrSet q = model.tree().cliques[static_cast<int>(
        rng.UniformInt(model.num_cliques()))];
    std::vector<double> expected = testing_util::BruteForceMarginal(model, q);
    EXPECT_LT(testing_util::MaxAbsDiff(model.MarginalVector(q), expected),
              1e-8)
        << "round " << round;
  }
}

// ------------------------------------------------------ cache behaviour --

int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().counter(name).value();
}

TEST(InferenceCacheTest, LocalUpdateReusesUnaffectedMessages) {
  GlobalConfigGuard guard;
  SetMetricsEnabled(true);
  MetricsRegistry::Global().ResetForTesting();

  const int k = 10;
  MarkovRandomField model = ChainModel(k, 11);
  // Materialize every belief.
  for (const AttrSet& clique : model.tree().cliques) model.Marginal(clique);
  const int64_t after_full = CounterValue("pgm.infer.messages_recomputed");
  EXPECT_EQ(after_full, 2 * (k - 1));  // both directions of every edge

  // Dirty one clique, re-query that same clique: no message depends on the
  // queried clique's own potential from its side, so everything needed is
  // still cached and only the belief recomputes.
  Factor delta = model.potential(4);
  for (double& v : delta.mutable_values()) v = 0.25;
  model.AccumulatePotential(4, delta, 1.0);
  model.Calibrate();
  model.Marginal(model.tree().cliques[4]);
  EXPECT_EQ(CounterValue("pgm.infer.messages_recomputed"), after_full);
  EXPECT_GT(CounterValue("pgm.infer.messages_reused"), 0);

  // Querying everything else recomputes only the messages flowing away
  // from the dirty clique — strictly fewer than a full recalibration.
  for (const AttrSet& clique : model.tree().cliques) model.Marginal(clique);
  const int64_t after_update = CounterValue("pgm.infer.messages_recomputed");
  EXPECT_GT(after_update, after_full);
  EXPECT_LT(after_update - after_full, 2 * (k - 1));
}

TEST(InferenceCacheTest, BatchQueriesCounterCountsQueries) {
  GlobalConfigGuard guard;
  SetMetricsEnabled(true);
  MetricsRegistry::Global().ResetForTesting();
  MarkovRandomField model = ChainModel(4, 2);
  std::vector<AttrSet> queries = MixedQueries(model);
  const int64_t before = CounterValue("pgm.infer.batch_queries");
  model.AnswerMarginals(queries);
  EXPECT_EQ(CounterValue("pgm.infer.batch_queries"),
            before + static_cast<int64_t>(queries.size()));
}

TEST(InferenceCacheTest, StructureChangeStartsFromFullCalibration) {
  GlobalConfigGuard guard;
  SetMetricsEnabled(true);

  // Growing the model (AIM adding a measured clique) builds a new
  // MarkovRandomField: its cache starts empty, so the first calibration of
  // the new structure recomputes every message it serves — the structure
  // change can never reuse stale messages from the old tree.
  std::vector<int> sizes(5, 3);
  Domain domain = Domain::WithSizes(sizes);
  std::vector<AttrSet> old_cliques = {AttrSet({0, 1}), AttrSet({1, 2})};
  MarkovRandomField old_model(domain, old_cliques);
  Rng rng(13);
  for (int c = 0; c < old_model.num_cliques(); ++c) {
    Factor potential = old_model.potential(c);
    for (double& v : potential.mutable_values()) v = rng.Gaussian(0.0, 0.5);
    old_model.SetPotential(c, std::move(potential));
  }
  old_model.Calibrate();
  for (const AttrSet& clique : old_model.tree().cliques) {
    old_model.Marginal(clique);
  }

  // New structure, potentials carried over (the estimation warm start).
  std::vector<AttrSet> new_cliques = old_cliques;
  new_cliques.push_back(AttrSet({2, 3}));
  new_cliques.push_back(AttrSet({3, 4}));
  MarkovRandomField new_model(domain, new_cliques);
  for (int i = 0; i < old_model.num_cliques(); ++i) {
    int j = new_model.ContainingClique(old_model.tree().cliques[i]);
    ASSERT_GE(j, 0);
    new_model.AccumulatePotential(j, old_model.potential(i), 1.0);
  }
  new_model.set_total(old_model.total());

  MetricsRegistry::Global().ResetForTesting();
  new_model.Calibrate();
  for (const AttrSet& clique : new_model.tree().cliques) {
    new_model.Marginal(clique);
  }
  const int edges = static_cast<int>(new_model.tree().edges.size());
  EXPECT_EQ(CounterValue("pgm.infer.messages_recomputed"), 2 * edges);

  // The refit model still answers correctly.
  for (const AttrSet& clique : new_model.tree().cliques) {
    std::vector<double> expected =
        testing_util::BruteForceMarginal(new_model, clique);
    EXPECT_LT(testing_util::MaxAbsDiff(new_model.MarginalVector(clique),
                                       expected),
              1e-8);
  }
}

// ------------------------------------------------- normalization bugfix --

TEST(NormalizationTest, CliquePathAndVePathAgreeBitwise) {
  // Regression: Marginal() used to normalize clique-covered queries by the
  // global log-partition but VE queries by their own mass, so the same
  // query could get a different answer depending on the serving path. Both
  // paths now normalize by the factor's own mass. On this chain the two
  // paths execute the same float ops for {0,1}, so the agreement is exact.
  std::vector<int> sizes = {3, 4, 3};
  Domain domain = Domain::WithSizes(sizes);
  std::vector<AttrSet> cliques = {AttrSet({0, 1}), AttrSet({1, 2})};
  MarkovRandomField model(domain, cliques);
  Rng rng(41);
  for (int c = 0; c < model.num_cliques(); ++c) {
    Factor potential = model.potential(c);
    for (double& v : potential.mutable_values()) v = rng.Gaussian(0.0, 1.0);
    model.SetPotential(c, std::move(potential));
  }
  model.set_total(500.0);
  model.Calibrate();

  AttrSet q({0, 1});
  ASSERT_GE(model.ContainingClique(q), 0);
  Factor via_clique = model.Marginal(q);
  Factor via_ve = model.MarginalViaVariableElimination(q);
  ASSERT_EQ(via_clique.attrs(), via_ve.attrs());
  ExpectBitwiseEq(via_clique.values(), via_ve.values());
}

TEST(NormalizationTest, BothPathsMatchBruteForceOnCoveredQueries) {
  MarkovRandomField model = ChainModel(4, 53);
  for (const AttrSet& q :
       {AttrSet({0, 1}), AttrSet({2}), AttrSet({3, 4}), AttrSet({1, 2})}) {
    std::vector<double> expected = testing_util::BruteForceMarginal(model, q);
    EXPECT_LT(
        testing_util::MaxAbsDiff(model.Marginal(q).values(), expected), 1e-8);
    EXPECT_LT(testing_util::MaxAbsDiff(
                  model.MarginalViaVariableElimination(q).values(), expected),
              1e-8);
  }
}

// ------------------------------------------------------- copy and move --

TEST(InferenceCacheTest, CopiedModelAnswersIdentically) {
  MarkovRandomField model = ChainModel(5, 61);
  std::vector<AttrSet> queries = MixedQueries(model);
  for (const AttrSet& q : queries) model.Marginal(q);  // warm the cache

  MarkovRandomField copy = model;  // copies cache contents, fresh mutex
  for (const AttrSet& q : queries) {
    ExpectBitwiseEq(model.MarginalVector(q), copy.MarginalVector(q));
  }

  // The copy's cache is independent: mutating it leaves the original's
  // answers unchanged.
  Factor delta = copy.potential(0);
  for (double& v : delta.mutable_values()) v = 1.0;
  copy.AccumulatePotential(0, delta, 1.0);
  copy.Calibrate();
  EXPECT_TRUE(model.calibrated());
  std::vector<double> expected =
      testing_util::BruteForceMarginal(model, queries[0]);
  EXPECT_LT(
      testing_util::MaxAbsDiff(model.MarginalVector(queries[0]), expected),
      1e-8);

  MarkovRandomField moved = std::move(copy);
  std::vector<double> moved_expected =
      testing_util::BruteForceMarginal(moved, queries[0]);
  EXPECT_LT(testing_util::MaxAbsDiff(moved.MarginalVector(queries[0]),
                                     moved_expected),
            1e-8);
}

}  // namespace
}  // namespace aim
