// Shared helpers for the test suites: brute-force reference computations to
// validate the factor algebra and graphical-model inference, and per-test
// scratch directories.

#ifndef AIM_TESTS_TEST_UTIL_H_
#define AIM_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/domain.h"
#include "factor/factor.h"
#include "marginal/attr_set.h"
#include "marginal/marginal.h"
#include "pgm/markov_random_field.h"

namespace aim {
namespace testing_util {

// Enumerates every tuple of the domain, invoking fn(tuple).
template <typename Fn>
void ForEachTuple(const Domain& domain, Fn&& fn) {
  const int d = domain.num_attributes();
  std::vector<int> tuple(d, 0);
  while (true) {
    fn(tuple);
    int axis = d - 1;
    while (axis >= 0) {
      if (++tuple[axis] < domain.size(axis)) break;
      tuple[axis] = 0;
      --axis;
    }
    if (axis < 0) break;
  }
}

// Brute-force scaled marginal of the model on `r`: enumerates the full
// domain, exponentiates the sum of clique log-potentials, normalizes, and
// scales by total(). Only usable for tiny domains.
inline std::vector<double> BruteForceMarginal(const MarkovRandomField& model,
                                              const AttrSet& r) {
  const Domain& domain = model.domain();
  std::vector<MarginalIndexer> indexers;
  for (int c = 0; c < model.num_cliques(); ++c) {
    indexers.emplace_back(domain, model.tree().cliques[c]);
  }
  MarginalIndexer out_indexer(domain, r);
  std::vector<double> unnormalized(out_indexer.size(), 0.0);
  double z = 0.0;
  ForEachTuple(domain, [&](const std::vector<int>& tuple) {
    double log_p = 0.0;
    for (int c = 0; c < model.num_cliques(); ++c) {
      const AttrSet& clique = model.tree().cliques[c];
      std::vector<int> sub;
      sub.reserve(clique.size());
      for (int attr : clique) sub.push_back(tuple[attr]);
      log_p += model.potential(c).value(indexers[c].IndexOfTuple(sub));
    }
    double p = std::exp(log_p);
    z += p;
    std::vector<int> sub;
    sub.reserve(r.size());
    for (int attr : r) sub.push_back(tuple[attr]);
    unnormalized[out_indexer.IndexOfTuple(sub)] += p;
  });
  for (double& v : unnormalized) v *= model.total() / z;
  return unnormalized;
}

// A fresh, empty directory private to the running test:
// <TempDir>/<suite>.<test>.<pid>. Cases that run concurrently (ctest -j)
// never share files, and a rerun starts from nothing.
inline std::string PerTestDir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." +
                     info->name() + "." + std::to_string(getpid());
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized names
  }
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

inline double MaxAbsDiff(const std::vector<double>& a,
                         const std::vector<double>& b) {
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

}  // namespace testing_util
}  // namespace aim

#endif  // AIM_TESTS_TEST_UTIL_H_
