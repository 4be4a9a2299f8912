// Shared helpers for the test suites: brute-force reference computations to
// validate the factor algebra (the odometer oracle for the factor kernels)
// and graphical-model inference, and per-test scratch directories.

#ifndef AIM_TESTS_TEST_UTIL_H_
#define AIM_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
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

// ------------------------------------------------ odometer factor oracle --
// The factor kernels run loop-collapse plans (factor/kernel_plan.h) that
// must visit cells in row-major order and do the same floating-point
// operation per cell as this plain per-cell odometer walk, so the product
// kernels and the functions below agree bit for bit (at SimdLevel::kScalar
// for LogSumExpTo, whose exp is ULP-gated above it).

// Calls fn(cell, derived) for every cell of a shape with axes `sizes`, in
// row-major order (last axis fastest); derived[k] is the linear index of
// operand k, whose per-axis strides are *strides[k].
template <int kNumDerived, typename Fn>
void ForEachCellOdometer(const std::vector<int>& sizes,
                         const std::vector<int64_t>* const* strides, Fn&& fn) {
  const int rank = static_cast<int>(sizes.size());
  int64_t total = 1;
  for (int s : sizes) total *= s;
  std::vector<int> coord(rank, 0);
  int64_t derived[kNumDerived] = {};
  for (int64_t cell = 0; cell < total; ++cell) {
    fn(cell, derived);
    for (int axis = rank - 1; axis >= 0; --axis) {
      ++coord[axis];
      if (coord[axis] < sizes[axis]) {
        for (int k = 0; k < kNumDerived; ++k) {
          derived[k] += (*strides[k])[axis];
        }
        break;
      }
      coord[axis] = 0;
      for (int k = 0; k < kNumDerived; ++k) {
        derived[k] -= (*strides[k])[axis] * (sizes[axis] - 1);
      }
    }
  }
}

// Strides of `sub`'s cells over the axes of `super` (0 on axes `sub` does
// not carry). Requires sub's attributes ⊆ super's.
inline std::vector<int64_t> OdometerStrides(const Factor& super,
                                            const Factor& sub) {
  std::vector<int64_t> strides(super.num_attrs(), 0);
  int64_t stride = 1;
  for (int j = sub.num_attrs() - 1; j >= 0; --j) {
    const int axis = super.AxisOf(sub.attrs()[j]);
    EXPECT_GE(axis, 0);
    strides[axis] = stride;
    stride *= sub.sizes()[j];
  }
  return strides;
}

// op(a, b) over the union domain, like Factor::Add/Subtract/Multiply.
template <typename Op>
Factor OdometerBinaryOp(const Factor& a, const Factor& b, Op op) {
  const AttrSet attrs = a.attr_set().Union(b.attr_set());
  std::vector<int> sizes;
  for (int attr : attrs) {
    const int axis = a.AxisOf(attr);
    sizes.push_back(axis >= 0 ? a.sizes()[axis]
                              : b.sizes()[b.AxisOf(attr)]);
  }
  Factor out(attrs.attrs(), sizes);
  const std::vector<int64_t> sa = OdometerStrides(out, a);
  const std::vector<int64_t> sb = OdometerStrides(out, b);
  const std::vector<int64_t>* strides[2] = {&sa, &sb};
  ForEachCellOdometer<2>(sizes, strides,
                         [&](int64_t cell, const int64_t* idx) {
                           out.mutable_values()[cell] =
                               op(a.value(idx[0]), b.value(idx[1]));
                         });
  return out;
}

// Factor::AddInPlace: dst += scale * other, broadcast over dst's axes.
inline void OdometerAddInPlace(Factor* dst, const Factor& other,
                               double scale) {
  const std::vector<int64_t> so = OdometerStrides(*dst, other);
  const std::vector<int64_t>* strides[1] = {&so};
  ForEachCellOdometer<1>(dst->sizes(), strides,
                         [&](int64_t cell, const int64_t* idx) {
                           dst->mutable_values()[cell] +=
                               scale * other.value(idx[0]);
                         });
}

// The all-zero factor over `target` ⊆ f's attributes.
inline Factor MarginalShape(const Factor& f, const AttrSet& target) {
  std::vector<int> sizes;
  for (int attr : target) sizes.push_back(f.sizes()[f.AxisOf(attr)]);
  return Factor(target.attrs(), sizes);
}

// Factor::SumTo: scatter-add every cell into its marginal cell.
inline Factor OdometerSumTo(const Factor& f, const AttrSet& target) {
  Factor out = MarginalShape(f, target);
  const std::vector<int64_t> so = OdometerStrides(f, out);
  const std::vector<int64_t>* strides[1] = {&so};
  ForEachCellOdometer<1>(f.sizes(), strides,
                         [&](int64_t cell, const int64_t* idx) {
                           out.mutable_values()[idx[0]] += f.value(cell);
                         });
  return out;
}

// Factor::LogSumExpTo: per-cell max (NaN poisons), then exp-accumulate
// with the structural-zero skip, then max + log(sum).
inline Factor OdometerLogSumExpTo(const Factor& f, const AttrSet& target) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  Factor out = MarginalShape(f, target);
  std::vector<double>& dst = out.mutable_values();
  std::vector<double> mx(dst.size(), kNegInf);
  const std::vector<int64_t> so = OdometerStrides(f, out);
  const std::vector<int64_t>* strides[1] = {&so};
  ForEachCellOdometer<1>(
      f.sizes(), strides, [&](int64_t cell, const int64_t* idx) {
        const double v = f.value(cell);
        double& d = mx[idx[0]];
        d = (v != v) ? std::numeric_limits<double>::quiet_NaN()
                     : ((d < v) ? v : d);
      });
  ForEachCellOdometer<1>(f.sizes(), strides,
                         [&](int64_t cell, const int64_t* idx) {
                           const double m = mx[idx[0]];
                           if (!(std::isinf(m) && m < 0)) {
                             dst[idx[0]] += std::exp(f.value(cell) - m);
                           }
                         });
  for (size_t i = 0; i < dst.size(); ++i) {
    const double m = mx[i];
    dst[i] = (std::isinf(m) && m < 0) ? kNegInf : m + std::log(dst[i]);
  }
  return out;
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
