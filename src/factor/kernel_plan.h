// Loop-collapse planner for the dense factor kernels.
//
// A factor kernel walks the cells of a result shape in row-major order
// (last axis fastest) while maintaining one derived linear index per
// operand, where an operand's per-axis stride is 0 for axes it does not
// carry. Walking that with a rank-generic odometer and a per-cell callback
// is slow; a KernelPlan precomputes the loop structure instead: trailing
// axes whose strides are mutually compatible across every operand
// (stride[axis] == stride[axis+1] * size[axis+1], the row-major contiguity
// condition, including the all-zero broadcast case) are fused into a single
// inner run, and the remaining axes are fused greedily the same way into a
// short outer odometer. Execution becomes
//
//   for each outer block:            // num_outer fused axes, odometer
//     for t in [0, inner_size):      // contiguous, vectorizable
//       body(cell + t, base[k] + t * inner_strides[k], ...)
//
// which visits cells in exactly the row-major order — a plan changes how
// iteration is *bookkept*, never the sequence of cell visits, so
// accumulation order (and therefore every bit of floating-point output) is
// that of the per-cell walk. tests/test_util.h keeps that walk as the
// reference the kernels are checked against.
//
// Every factor is plannable: size-1 axes are dropped, so each fused group
// has size >= 2, and the Factor constructor keeps the cell count within
// int64 — at most 62 groups.
//
// Plans are pure functions of (sizes, operand strides) and are memoized in
// the thread-local FactorWorkspace (factor/workspace.h).

#ifndef AIM_FACTOR_KERNEL_PLAN_H_
#define AIM_FACTOR_KERNEL_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace aim {

struct KernelPlan {
  // Most non-degenerate (size >= 2) axes a shape with an int64 cell count
  // can have: 2^63 already overflows.
  static constexpr int kMaxAxes = 62;
  // Kernels derive at most two operand indices (binary ops).
  static constexpr int kMaxOperands = 2;

  int num_operands = 0;
  // Fused outer axes, axis 0 slowest, axis num_outer-1 fastest.
  int num_outer = 0;
  // Length of the fused contiguous inner run (product of the fused trailing
  // axes; 1 for a rank-0/all-degenerate shape).
  int64_t inner_size = 1;
  // Total cells (product of all axis sizes).
  int64_t total = 1;
  // Per-operand stride within the inner run. For strides produced by
  // sub-factor broadcasting this is 0 (operand constant over the run) or 1
  // (operand contiguous), but kernels must handle the general value.
  int64_t inner_strides[kMaxOperands] = {};
  // Per outer axis: its size and each operand's stride (num_outer entries
  // each). Sized to the shape rather than to kMaxAxes, so the plan cache
  // stays small; rebuilding into a plan reuses their capacity.
  std::vector<int64_t> outer_sizes;
  std::vector<int64_t> outer_strides[kMaxOperands];
};

// Builds into *plan (reusing its buffers) the plan for iterating a result
// shape `sizes` with `num_operands` derived index streams,
// `operand_strides[k]` giving operand k's per-axis strides (same length as
// `sizes`). The product of `sizes` must fit in int64 (as it does for every
// Factor), which bounds the fused groups by kMaxAxes.
void BuildKernelPlan(const std::vector<int>& sizes,
                     const std::vector<int64_t>* const* operand_strides,
                     int num_operands, KernelPlan* plan);

// Iterates cells [cell_begin, cell_end) of a planned shape as contiguous
// runs. Calls fn(cell, base, len): `cell` is the linear index of the run's
// first cell, `base[k]` operand k's linear index at that cell, and the run
// covers cells [cell, cell + len) with operand k advancing by
// plan.inner_strides[k] per cell. Seeking to cell_begin is O(num_outer), so
// chunked parallel callers can start mid-tensor; runs never straddle a
// chunk boundary's [cell_begin, cell_end) — a partial run is emitted with a
// shortened len instead.
template <int kNumOps, typename Fn>
void ForEachRunRange(const KernelPlan& plan, int64_t cell_begin,
                     int64_t cell_end, Fn&& fn) {
  const int64_t inner = plan.inner_size;
  int64_t run = cell_begin / inner;
  int64_t offset = cell_begin - run * inner;
  int64_t coord[KernelPlan::kMaxAxes];
  int64_t base[kNumOps > 0 ? kNumOps : 1] = {};
  int64_t rem = run;
  for (int axis = plan.num_outer - 1; axis >= 0; --axis) {
    coord[axis] = rem % plan.outer_sizes[axis];
    rem /= plan.outer_sizes[axis];
    for (int k = 0; k < kNumOps; ++k) {
      base[k] += coord[axis] * plan.outer_strides[k][axis];
    }
  }
  int64_t cell = cell_begin;
  while (cell < cell_end) {
    const int64_t len = std::min(inner - offset, cell_end - cell);
    int64_t at[kNumOps > 0 ? kNumOps : 1];
    for (int k = 0; k < kNumOps; ++k) {
      at[k] = base[k] + offset * plan.inner_strides[k];
    }
    fn(cell, at, len);
    cell += len;
    offset = 0;
    // Advance the outer odometer (axis num_outer-1 fastest).
    for (int axis = plan.num_outer - 1; axis >= 0; --axis) {
      ++coord[axis];
      if (coord[axis] < plan.outer_sizes[axis]) {
        for (int k = 0; k < kNumOps; ++k) {
          base[k] += plan.outer_strides[k][axis];
        }
        break;
      }
      coord[axis] = 0;
      for (int k = 0; k < kNumOps; ++k) {
        base[k] -= plan.outer_strides[k][axis] * (plan.outer_sizes[axis] - 1);
      }
    }
  }
}

}  // namespace aim

#endif  // AIM_FACTOR_KERNEL_PLAN_H_
