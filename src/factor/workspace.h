// Thread-local scratch arena for the factor kernels.
//
// Two jobs:
//   1. Memoize KernelPlans. Plan construction is cheap but not free, and
//      the hot loops (Calibrate, EstimateMrf, GenerateSynthetic) run the
//      same handful of (sizes, strides) combinations thousands of times.
//      A small direct-mapped cache keyed on the (sizes, operand strides) of
//      the non-degenerate axes makes repeat lookups allocation-free
//      pointer returns.
//   2. Lend out reusable index/double scratch vectors so kernels (stride
//      tables, logsumexp max buffers) stop allocating per call. Buffers
//      only ever grow, so after a warm-up pass the steady state performs
//      zero heap allocations (asserted in tests/factor_test.cc).
//
// The arena is thread_local: workers in a parallel region each get their
// own, so no locking is needed. A kernel that hands a cached plan to
// ParallelForChunks is safe because the submitting thread blocks until the
// region completes, and nested regions run inline on the worker.
//
// Slot discipline: kernels never nest factor kernels, so each kernel may
// claim fixed slot numbers. Current assignments:
//   IndexBuf(0)  — operand stride table (all kernels)
//   DoubleBuf(0) — per-destination max buffer (LogSumExpTo)

#ifndef AIM_FACTOR_WORKSPACE_H_
#define AIM_FACTOR_WORKSPACE_H_

#include <cstdint>
#include <vector>

#include "factor/kernel_plan.h"

namespace aim {

// Grow-only scratch array of doubles with 64-byte-aligned storage (a full
// AVX-512 vector / cache line), so SIMD kernels reading a workspace buffer
// start aligned. Replaces std::vector<double> in the workspace slots: same
// reuse discipline (capacity never shrinks, so the steady state is
// allocation-free), but with controlled alignment.
class AlignedDoubleBuffer {
 public:
  AlignedDoubleBuffer() = default;
  ~AlignedDoubleBuffer();
  AlignedDoubleBuffer(const AlignedDoubleBuffer&) = delete;
  AlignedDoubleBuffer& operator=(const AlignedDoubleBuffer&) = delete;

  // Resize to n elements, all set to `fill` (like vector::assign).
  // Reallocates only when n exceeds the high-water capacity.
  void Assign(int64_t n, double fill);

  double* data() { return data_; }
  const double* data() const { return data_; }
  int64_t size() const { return size_; }

  static constexpr size_t kAlignment = 64;

 private:
  double* data_ = nullptr;
  int64_t size_ = 0;
  int64_t capacity_ = 0;
};

class FactorWorkspace {
 public:
  // The calling thread's arena (created on first use).
  static FactorWorkspace& Get();

  // Returns the memoized plan for (sizes, operand_strides), building and
  // caching it on a miss. Never null: every factor shape is plannable
  // (kernel_plan.h). The cache is keyed on the non-degenerate (size >= 2)
  // axes only, since size-1 axes never affect a plan. The pointer stays
  // valid until a colliding shape evicts the slot; kernels must finish with
  // the plan before invoking code that could insert new plans on this
  // thread.
  const KernelPlan* GetPlan(const std::vector<int>& sizes,
                            const std::vector<int64_t>* const* operand_strides,
                            int num_operands);

  // Reusable scratch buffers (see slot discipline above). Contents are
  // unspecified on entry; callers assign/resize as needed.
  std::vector<int64_t>& IndexBuf(int slot);
  AlignedDoubleBuffer& DoubleBuf(int slot);

  // Cache statistics for tests.
  int64_t plan_hits() const { return plan_hits_; }
  int64_t plan_misses() const { return plan_misses_; }

 private:
  static constexpr int kCacheSlots = 256;  // power of two
  static constexpr int kIndexBufs = 4;
  static constexpr int kDoubleBufs = 2;

  // Key: sizes and operand strides of the non-degenerate axes. Its vectors
  // and the plan's are rewritten in place on a miss, reusing capacity.
  struct CacheSlot {
    bool used = false;
    uint64_t hash = 0;
    int num_operands = 0;
    std::vector<int> sizes;
    std::vector<int64_t> strides[KernelPlan::kMaxOperands];
    KernelPlan plan;
  };

  CacheSlot slots_[kCacheSlots];
  std::vector<int64_t> index_bufs_[kIndexBufs];
  AlignedDoubleBuffer double_bufs_[kDoubleBufs];
  int64_t plan_hits_ = 0;
  int64_t plan_misses_ = 0;
};

}  // namespace aim

#endif  // AIM_FACTOR_WORKSPACE_H_
