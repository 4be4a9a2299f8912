#include "factor/factor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "factor/kernel_plan.h"
#include "factor/simd_dispatch.h"
#include "factor/workspace.h"
#include "parallel/parallel.h"
#include "util/logging.h"
#include "util/math.h"

namespace aim {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kQuietNan = std::numeric_limits<double>::quiet_NaN();

// True when `sub` (sorted ascending, distinct) is a subset of `super`
// (same convention). Allocation-free replacement for building AttrSets.
bool IsSortedSubset(const std::vector<int>& sub,
                    const std::vector<int>& super) {
  size_t i = 0;
  for (int attr : sub) {
    while (i < super.size() && super[i] < attr) ++i;
    if (i == super.size() || super[i] != attr) return false;
    ++i;
  }
  return true;
}

// Strides of `sub`'s cells when iterating over the axes of `super`.
// Axis j of `super` gets sub-stride 0 if super.attrs[j] is not in `sub`.
// Writes into *out (reused caller buffer) instead of allocating; requires
// sub ⊆ super, both sorted ascending.
void StridesIntoBuf(const std::vector<int>& super_attrs,
                    const std::vector<int>& sub_attrs,
                    const std::vector<int>& sub_sizes,
                    std::vector<int64_t>* out) {
  out->assign(super_attrs.size(), 0);
  int64_t stride = 1;
  int i = static_cast<int>(super_attrs.size()) - 1;
  for (int j = static_cast<int>(sub_attrs.size()) - 1; j >= 0; --j) {
    while (i >= 0 && super_attrs[i] > sub_attrs[j]) --i;
    AIM_DCHECK(i >= 0 && super_attrs[i] == sub_attrs[j]);
    (*out)[i] = stride;
    stride *= sub_sizes[j];
  }
}

// Cell count below which element-wise loops stay serial (the chunking
// overhead outweighs the work).
constexpr int64_t kParallelCellThreshold = 1 << 15;
// Cells per chunk for parallel element-wise loops. Fixed (never derived
// from the thread count) so chunk boundaries — and therefore any chunked
// arithmetic — are identical at every parallelism level.
constexpr int64_t kCellGrain = 1 << 14;

// ---------------------------------------------------------------------------
// Flat kernels: loop-collapsed executors over a KernelPlan. Each one visits
// cells in row-major order; the unit-stride inner runs (inner stride 0 =
// operand constant over the run, 1 = operand contiguous — the only values
// sub-factor broadcasting produces) go through the SimdOps table
// (simd_dispatch.h). The exact kernels are bitwise equal to a per-cell
// odometer walk at every SIMD level (see kernel_plan.h for the argument;
// factor_test.cc checks them against the odometer oracle in
// tests/test_util.h); the transcendental kernels (LogSumExpTo pass 2) are
// bitwise equal at SimdLevel::kScalar and ULP-gated above it.
// ---------------------------------------------------------------------------

enum class BinKind { kAdd, kSub, kMul };

template <BinKind K>
inline double ApplyBin(double x, double y) {
  if constexpr (K == BinKind::kAdd) {
    return x + y;
  } else if constexpr (K == BinKind::kSub) {
    return x - y;
  } else {
    return x * y;
  }
}

template <BinKind K>
void RunBinaryRange(const KernelPlan& plan, double* dst, const double* av,
                    const double* bv, const SimdOps& ops, int64_t lo,
                    int64_t hi) {
  const int64_t ia = plan.inner_strides[0];
  const int64_t ib = plan.inner_strides[1];
  if (ia == 1 && ib == 1) {
    ForEachRunRange<2>(plan, lo, hi,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double* pa = av + base[0];
                         const double* pb = bv + base[1];
                         double* pd = dst + cell;
                         if constexpr (K == BinKind::kAdd) {
                           ops.add_vv(pd, pa, pb, len);
                         } else if constexpr (K == BinKind::kSub) {
                           ops.sub_vv(pd, pa, pb, len);
                         } else {
                           ops.mul_vv(pd, pa, pb, len);
                         }
                       });
  } else if (ia == 1 && ib == 0) {
    ForEachRunRange<2>(plan, lo, hi,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double* pa = av + base[0];
                         const double y = bv[base[1]];
                         double* pd = dst + cell;
                         if constexpr (K == BinKind::kAdd) {
                           ops.add_vs(pd, pa, y, len);
                         } else if constexpr (K == BinKind::kSub) {
                           ops.sub_vs(pd, pa, y, len);
                         } else {
                           ops.mul_vs(pd, pa, y, len);
                         }
                       });
  } else if (ia == 0 && ib == 1) {
    ForEachRunRange<2>(plan, lo, hi,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double x = av[base[0]];
                         const double* pb = bv + base[1];
                         double* pd = dst + cell;
                         if constexpr (K == BinKind::kAdd) {
                           ops.add_vs(pd, pb, x, len);  // x + b == b + x
                         } else if constexpr (K == BinKind::kSub) {
                           ops.sub_sv(pd, x, pb, len);
                         } else {
                           ops.mul_vs(pd, pb, x, len);  // x * b == b * x
                         }
                       });
  } else {
    ForEachRunRange<2>(plan, lo, hi,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         double* pd = dst + cell;
                         for (int64_t t = 0; t < len; ++t) {
                           pd[t] = ApplyBin<K>(av[base[0] + t * ia],
                                               bv[base[1] + t * ib]);
                         }
                       });
  }
}

void RunAddInPlaceRange(const KernelPlan& plan, double* dst,
                        const double* src, double scale, const SimdOps& ops,
                        int64_t lo, int64_t hi) {
  const int64_t is = plan.inner_strides[0];
  if (is == 1) {
    ForEachRunRange<1>(plan, lo, hi,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         ops.axpy(dst + cell, src + base[0], scale, len);
                       });
  } else if (is == 0) {
    ForEachRunRange<1>(plan, lo, hi,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double add = scale * src[base[0]];
                         ops.add_scalar(dst + cell, add, len);
                       });
  } else {
    ForEachRunRange<1>(plan, lo, hi,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         double* pd = dst + cell;
                         for (int64_t t = 0; t < len; ++t) {
                           pd[t] += scale * src[base[0] + t * is];
                         }
                       });
  }
}

// Scatter-add src (full shape) into dst (marginal shape). A run whose
// destination stride is 0 reduces into a scalar accumulator — the additions
// happen in the same left-to-right order as a per-cell
// dst[idx] += src[cell], so the result is bitwise identical.
void RunScatterAdd(const KernelPlan& plan, double* dst, const double* src,
                   const SimdOps& ops, int64_t total) {
  const int64_t os = plan.inner_strides[0];
  if (os == 0) {
    // Order-sensitive reduction into one destination: stays scalar at every
    // SIMD level so the left-to-right addition sequence (and therefore the
    // result bits) matches the per-cell walk exactly.
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double* ps = src + cell;
                         double acc = dst[base[0]];
                         for (int64_t t = 0; t < len; ++t) {
                           acc += ps[t];
                         }
                         dst[base[0]] = acc;
                       });
  } else if (os == 1) {
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         ops.acc_add(dst + base[0], src + cell, len);
                       });
  } else {
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double* ps = src + cell;
                         for (int64_t t = 0; t < len; ++t) {
                           dst[base[0] + t * os] += ps[t];
                         }
                       });
  }
}

// Scatter-max (LogSumExpTo pass 1). max is exact, so accumulation matches
// the per-cell sequence bit for bit. NaN contributions poison the
// destination with a canonical quiet NaN (the seed's `<`-based max silently
// dropped them, yielding a wrong finite LogSumExpTo result — see the
// regression test NanInputPoisonsLogSumExpCell); once poisoned, a cell
// stays NaN because no later comparison against it can succeed.
void RunScatterMax(const KernelPlan& plan, double* dst, const double* src,
                   const SimdOps& ops, int64_t total) {
  const int64_t os = plan.inner_strides[0];
  if (os == 0) {
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         dst[base[0]] =
                             ops.reduce_max(dst[base[0]], src + cell, len);
                       });
  } else if (os == 1) {
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         ops.acc_max(dst + base[0], src + cell, len);
                       });
  } else {
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double* ps = src + cell;
                         for (int64_t t = 0; t < len; ++t) {
                           double& d = dst[base[0] + t * os];
                           const double v = ps[t];
                           d = (v != v) ? kQuietNan : ((d < v) ? v : d);
                         }
                       });
  }
}

// LogSumExpTo pass 2: dst[idx] += exp(src - mx[idx]) with the
// structural-zero skip (per-destination max of -inf means every
// contribution is skipped, which the run-level branch reproduces exactly).
void RunScatterExpAcc(const KernelPlan& plan, double* dst, const double* mx,
                      const double* src, const SimdOps& ops, int64_t total) {
  const int64_t os = plan.inner_strides[0];
  if (os == 0) {
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double m = mx[base[0]];
                         if (std::isinf(m) && m < 0) return;
                         dst[base[0]] =
                             ops.exp_acc(dst[base[0]], src + cell, m, len);
                       });
  } else if (os == 1) {
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         ops.acc_exp(dst + base[0], mx + base[0], src + cell,
                                     len);
                       });
  } else {
    ForEachRunRange<1>(plan, 0, total,
                       [&](int64_t cell, const int64_t* base, int64_t len) {
                         const double* ps = src + cell;
                         for (int64_t t = 0; t < len; ++t) {
                           const double m = mx[base[0] + t * os];
                           if (!(std::isinf(m) && m < 0)) {
                             dst[base[0] + t * os] += std::exp(ps[t] - m);
                           }
                         }
                       });
  }
}

// Runs body(lo, hi) over [0, total): serially below the parallel threshold,
// otherwise in fixed-grain chunks across the pool. Only gather-style loops
// (every cell writes its own destination) use it.
template <typename Body>
void RunFlatParallel(int64_t total, Body&& body) {
  if (total < kParallelCellThreshold) {
    body(0, total);
    return;
  }
  ParallelForChunks(0, total, kCellGrain,
                    [&](int64_t lo, int64_t hi, int64_t /*chunk*/) {
                      body(lo, hi);
                    });
}

}  // namespace

Factor::Factor() : values_(1, 0.0) {}

Factor::Factor(std::vector<int> attrs, std::vector<int> sizes, double fill)
    : attrs_(std::move(attrs)), sizes_(std::move(sizes)) {
  AIM_CHECK_EQ(attrs_.size(), sizes_.size());
  AIM_CHECK(std::is_sorted(attrs_.begin(), attrs_.end()));
  AIM_CHECK(std::adjacent_find(attrs_.begin(), attrs_.end()) == attrs_.end());
  // The kernel planner relies on the cell count fitting in int64.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t total = 1;
  for (int s : sizes_) {
    AIM_CHECK_GE(s, 1);
    AIM_CHECK_LE(total, kMax / s) << "factor cell count overflows int64";
    total *= s;
  }
  values_.assign(total, fill);
}

Factor Factor::FromDomain(const Domain& domain, const AttrSet& r,
                          double fill) {
  std::vector<int> sizes;
  sizes.reserve(r.size());
  for (int attr : r) sizes.push_back(domain.size(attr));
  return Factor(r.attrs(), std::move(sizes), fill);
}

Factor Factor::FromValues(std::vector<int> attrs, std::vector<int> sizes,
                          std::vector<double> values) {
  Factor out(std::move(attrs), std::move(sizes));
  AIM_CHECK_EQ(out.values_.size(), values.size());
  out.values_ = std::move(values);
  return out;
}

int Factor::AxisOf(int attr) const {
  auto it = std::lower_bound(attrs_.begin(), attrs_.end(), attr);
  if (it == attrs_.end() || *it != attr) return -1;
  return static_cast<int>(it - attrs_.begin());
}

namespace {

template <BinKind K>
Factor BinaryOp(const Factor& a, const Factor& b) {
  // Union domain.
  std::vector<int> attrs;
  std::vector<int> sizes;
  {
    size_t i = 0, j = 0;
    const auto& aa = a.attrs();
    const auto& ba = b.attrs();
    while (i < aa.size() || j < ba.size()) {
      if (j >= ba.size() || (i < aa.size() && aa[i] < ba[j])) {
        attrs.push_back(aa[i]);
        sizes.push_back(a.sizes()[i]);
        ++i;
      } else if (i >= aa.size() || ba[j] < aa[i]) {
        attrs.push_back(ba[j]);
        sizes.push_back(b.sizes()[j]);
        ++j;
      } else {
        AIM_CHECK_EQ(a.sizes()[i], b.sizes()[j]);
        attrs.push_back(aa[i]);
        sizes.push_back(a.sizes()[i]);
        ++i;
        ++j;
      }
    }
  }
  Factor out(attrs, sizes);
  FactorWorkspace& ws = FactorWorkspace::Get();
  std::vector<int64_t>& a_strides = ws.IndexBuf(0);
  std::vector<int64_t>& b_strides = ws.IndexBuf(1);
  StridesIntoBuf(attrs, a.attrs(), a.sizes(), &a_strides);
  StridesIntoBuf(attrs, b.attrs(), b.sizes(), &b_strides);
  const std::vector<int64_t>* strides[2] = {&a_strides, &b_strides};
  double* dst = out.mutable_values().data();
  const double* av = a.values().data();
  const double* bv = b.values().data();
  const KernelPlan& plan = *ws.GetPlan(sizes, strides, 2);
  const SimdOps& ops = ActiveSimdOps();
  RunFlatParallel(out.num_cells(), [&](int64_t lo, int64_t hi) {
    RunBinaryRange<K>(plan, dst, av, bv, ops, lo, hi);
  });
  return out;
}

}  // namespace

Factor Factor::Add(const Factor& other) const {
  return BinaryOp<BinKind::kAdd>(*this, other);
}

Factor Factor::Subtract(const Factor& other) const {
  return BinaryOp<BinKind::kSub>(*this, other);
}

Factor Factor::Multiply(const Factor& other) const {
  return BinaryOp<BinKind::kMul>(*this, other);
}

void Factor::AddInPlace(const Factor& other, double scale) {
  AIM_CHECK(IsSortedSubset(other.attrs_, attrs_))
      << "AddInPlace requires other.attrs ⊆ attrs";
  FactorWorkspace& ws = FactorWorkspace::Get();
  std::vector<int64_t>& other_strides = ws.IndexBuf(0);
  StridesIntoBuf(attrs_, other.attrs_, other.sizes_, &other_strides);
  const std::vector<int64_t>* strides[1] = {&other_strides};
  double* dst = values_.data();
  const double* src = other.values_.data();
  const KernelPlan& plan = *ws.GetPlan(sizes_, strides, 1);
  const SimdOps& ops = ActiveSimdOps();
  RunFlatParallel(num_cells(), [&](int64_t lo, int64_t hi) {
    RunAddInPlaceRange(plan, dst, src, scale, ops, lo, hi);
  });
}

void Factor::ScaleInPlace(double factor) {
  for (double& v : values_) v *= factor;
}

void Factor::AddScalarInPlace(double shift) {
  for (double& v : values_) v += shift;
}

void Factor::PrepareMarginalInto(const AttrSet& target, double fill,
                                 Factor* out) const {
  AIM_CHECK(out != this);
  AIM_CHECK(IsSortedSubset(target.attrs(), attrs_));
  out->attrs_.assign(target.attrs().begin(), target.attrs().end());
  out->sizes_.clear();
  int64_t total = 1;
  for (int attr : target) {
    const int s = sizes_[AxisOf(attr)];
    out->sizes_.push_back(s);
    total *= s;
  }
  out->values_.assign(total, fill);
}

Factor Factor::SumTo(const AttrSet& target) const {
  Factor out;
  SumToInto(target, &out);
  return out;
}

void Factor::SumToInto(const AttrSet& target, Factor* out) const {
  PrepareMarginalInto(target, 0.0, out);
  FactorWorkspace& ws = FactorWorkspace::Get();
  std::vector<int64_t>& out_strides = ws.IndexBuf(0);
  StridesIntoBuf(attrs_, out->attrs_, out->sizes_, &out_strides);
  const std::vector<int64_t>* strides[1] = {&out_strides};
  double* dst = out->values_.data();
  const double* src = values_.data();
  // Scatter-add into dst[idx] — destinations collide across cells, so this
  // stays serial (parallelizing would need per-thread partials keyed by
  // destination, which the small output rarely justifies).
  RunScatterAdd(*ws.GetPlan(sizes_, strides, 1), dst, src, ActiveSimdOps(),
                num_cells());
}

Factor Factor::LogSumExpTo(const AttrSet& target) const {
  Factor out;
  LogSumExpToInto(target, &out);
  return out;
}

void Factor::LogSumExpToInto(const AttrSet& target, Factor* out) const {
  PrepareMarginalInto(target, 0.0, out);
  FactorWorkspace& ws = FactorWorkspace::Get();
  std::vector<int64_t>& out_strides = ws.IndexBuf(0);
  StridesIntoBuf(attrs_, out->attrs_, out->sizes_, &out_strides);
  const std::vector<int64_t>* strides[1] = {&out_strides};
  const int64_t out_cells = out->num_cells();
  AlignedDoubleBuffer& max_buf = ws.DoubleBuf(0);
  max_buf.Assign(out_cells, kNegInf);
  double* mx = max_buf.data();
  double* dst = out->values_.data();
  const double* src = values_.data();
  // Both passes scatter into colliding destinations: serial, as in SumTo.
  const KernelPlan& plan = *ws.GetPlan(sizes_, strides, 1);
  const SimdOps& ops = ActiveSimdOps();
  RunScatterMax(plan, mx, src, ops, num_cells());
  RunScatterExpAcc(plan, dst, mx, src, ops, num_cells());
  for (int64_t i = 0; i < out_cells; ++i) {
    double m = mx[i];
    out->values_[i] =
        (std::isinf(m) && m < 0) ? kNegInf : m + std::log(out->values_[i]);
  }
}

double Factor::Sum() const { return aim::Sum(values_); }

double Factor::LogSumExp() const { return aim::LogSumExp(values_); }

double Factor::Max() const {
  double m = kNegInf;
  for (double v : values_) m = std::max(m, v);
  return m;
}

namespace {

// Runs the elementwise kernel fn(dst_chunk, src_chunk, len) over [0, n)
// with the factor engine's fixed serial threshold / chunk grain, so chunk
// boundaries — and therefore results — are identical at every thread count.
template <typename Fn>
void RunElementwise(double* dst, const double* src, int64_t n, Fn&& fn) {
  if (n < kParallelCellThreshold) {
    fn(dst, src, n);
    return;
  }
  ParallelForChunks(0, n, kCellGrain,
                    [&](int64_t lo, int64_t hi, int64_t /*chunk*/) {
                      fn(dst + lo, src + lo, hi - lo);
                    });
}

}  // namespace

Factor Factor::Exp(double shift) const {
  Factor out(attrs_, sizes_);
  // Degenerate shift: callers pass shift = Max(), which is -inf only for an
  // all--inf (all-zero-probability) factor. Unguarded, exp(-inf - -inf)
  // would turn every cell into NaN; the correct limit exp(v) is 0.
  if (std::isinf(shift) && shift < 0) return out;  // constructed all-zero
  const SimdOps& ops = ActiveSimdOps();
  RunElementwise(out.values_.data(), values_.data(), num_cells(),
                 [&](double* d, const double* s, int64_t len) {
                   ops.vexp(d, s, shift, len);
                 });
  return out;
}

void Factor::ExpInPlace(double shift) {
  if (std::isinf(shift) && shift < 0) {  // see Exp()
    std::fill(values_.begin(), values_.end(), 0.0);
    return;
  }
  const SimdOps& ops = ActiveSimdOps();
  RunElementwise(values_.data(), values_.data(), num_cells(),
                 [&](double* d, const double* s, int64_t len) {
                   ops.vexp(d, s, shift, len);
                 });
}

Factor Factor::Log() const {
  Factor out(attrs_, sizes_);
  const SimdOps& ops = ActiveSimdOps();
  RunElementwise(out.values_.data(), values_.data(), num_cells(),
                 [&](double* d, const double* s, int64_t len) {
                   ops.vlog(d, s, len);
                 });
  return out;
}

double Factor::L1DistanceTo(const Factor& other) const {
  AIM_CHECK(attrs_ == other.attrs_);
  return L1Distance(values_, other.values_);
}

}  // namespace aim
