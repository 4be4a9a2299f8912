#include "factor/kernel_plan.h"

#include "util/logging.h"

namespace aim {

void BuildKernelPlan(const std::vector<int>& sizes,
                     const std::vector<int64_t>* const* operand_strides,
                     int num_operands, KernelPlan* plan) {
  AIM_CHECK_LE(num_operands, KernelPlan::kMaxOperands);
  plan->num_operands = num_operands;
  const int rank = static_cast<int>(sizes.size());
  plan->total = 1;
  for (int axis = 0; axis < rank; ++axis) {
    plan->total *= sizes[axis];
  }

  // Fuse axes from fastest (last) to slowest. Size-1 axes contribute
  // nothing to iteration (their coordinate is always 0) and are dropped
  // outright; a remaining axis merges into the current group when every
  // operand's stride satisfies the row-major contiguity condition
  // stride[axis] == group_stride * group_size (0 == 0 * n covers the
  // broadcast case).
  int64_t g_sizes[KernelPlan::kMaxAxes];
  int64_t g_strides[KernelPlan::kMaxOperands][KernelPlan::kMaxAxes];
  int ng = 0;
  for (int axis = rank - 1; axis >= 0; --axis) {
    if (sizes[axis] == 1) continue;
    bool merge = ng > 0;
    for (int k = 0; merge && k < num_operands; ++k) {
      if ((*operand_strides[k])[axis] !=
          g_strides[k][ng - 1] * g_sizes[ng - 1]) {
        merge = false;
      }
    }
    if (merge) {
      g_sizes[ng - 1] *= sizes[axis];
    } else {
      AIM_CHECK_LT(ng, KernelPlan::kMaxAxes)
          << "shape has more size>=2 axes than an int64 cell count allows";
      g_sizes[ng] = sizes[axis];
      for (int k = 0; k < num_operands; ++k) {
        g_strides[k][ng] = (*operand_strides[k])[axis];
      }
      ++ng;
    }
  }

  // Group 0 is the fastest (the fused inner run; a single 1-cell run for
  // rank 0 or all axes degenerate); groups 1..ng-1 become the outer
  // odometer with plan axis 0 slowest (matching row-major order).
  plan->inner_size = ng > 0 ? g_sizes[0] : 1;
  plan->num_outer = ng > 0 ? ng - 1 : 0;
  plan->outer_sizes.resize(plan->num_outer);
  for (int k = 0; k < num_operands; ++k) {
    plan->inner_strides[k] = ng > 0 ? g_strides[k][0] : 0;
    plan->outer_strides[k].resize(plan->num_outer);
  }
  for (int g = 1; g < ng; ++g) {
    const int axis = ng - 1 - g;  // reverse: slowest group -> plan axis 0
    plan->outer_sizes[axis] = g_sizes[g];
    for (int k = 0; k < num_operands; ++k) {
      plan->outer_strides[k][axis] = g_strides[k][g];
    }
  }
}

}  // namespace aim
