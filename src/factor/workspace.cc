#include "factor/workspace.h"

#include <algorithm>
#include <new>

#include "util/logging.h"

namespace aim {

AlignedDoubleBuffer::~AlignedDoubleBuffer() {
  ::operator delete(data_, std::align_val_t(kAlignment));
}

void AlignedDoubleBuffer::Assign(int64_t n, double fill) {
  if (n > capacity_) {
    const int64_t cap = std::max(n, capacity_ * 2);
    ::operator delete(data_, std::align_val_t(kAlignment));
    data_ = static_cast<double*>(::operator new(
        static_cast<size_t>(cap) * sizeof(double),
        std::align_val_t(kAlignment)));
    capacity_ = cap;
  }
  size_ = n;
  std::fill_n(data_, n, fill);
}
namespace {

// FNV-1a over the (rank, num_operands, sizes, strides) key, skipping
// size-1 axes.
uint64_t HashKey(const std::vector<int>& sizes,
                 const std::vector<int64_t>* const* operand_strides,
                 int num_operands, int rank) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(rank));
  mix(static_cast<uint64_t>(num_operands));
  for (int s : sizes) {
    if (s != 1) mix(static_cast<uint64_t>(s));
  }
  for (int k = 0; k < num_operands; ++k) {
    for (size_t axis = 0; axis < sizes.size(); ++axis) {
      if (sizes[axis] != 1) {
        mix(static_cast<uint64_t>((*operand_strides[k])[axis]));
      }
    }
  }
  return h;
}

}  // namespace

FactorWorkspace& FactorWorkspace::Get() {
  thread_local FactorWorkspace workspace;
  return workspace;
}

const KernelPlan* FactorWorkspace::GetPlan(
    const std::vector<int>& sizes,
    const std::vector<int64_t>* const* operand_strides, int num_operands) {
  AIM_CHECK_LE(num_operands, KernelPlan::kMaxOperands);
  int rank = 0;
  for (int s : sizes) rank += s != 1;
  const uint64_t hash = HashKey(sizes, operand_strides, num_operands, rank);
  CacheSlot& slot = slots_[hash & (kCacheSlots - 1)];
  if (slot.used && slot.hash == hash &&
      static_cast<int>(slot.sizes.size()) == rank &&
      slot.num_operands == num_operands) {
    bool match = true;
    int key_axis = 0;
    for (size_t axis = 0; match && axis < sizes.size(); ++axis) {
      if (sizes[axis] == 1) continue;
      match = slot.sizes[key_axis] == sizes[axis];
      for (int k = 0; match && k < num_operands; ++k) {
        match = slot.strides[k][key_axis] == (*operand_strides[k])[axis];
      }
      ++key_axis;
    }
    if (match) {
      ++plan_hits_;
      return &slot.plan;
    }
  }
  // Miss (or direct-mapped collision): rebuild and overwrite the slot.
  ++plan_misses_;
  slot.used = true;
  slot.hash = hash;
  slot.num_operands = num_operands;
  slot.sizes.clear();
  for (int k = 0; k < num_operands; ++k) slot.strides[k].clear();
  for (size_t axis = 0; axis < sizes.size(); ++axis) {
    if (sizes[axis] == 1) continue;
    slot.sizes.push_back(sizes[axis]);
    for (int k = 0; k < num_operands; ++k) {
      slot.strides[k].push_back((*operand_strides[k])[axis]);
    }
  }
  BuildKernelPlan(sizes, operand_strides, num_operands, &slot.plan);
  return &slot.plan;
}

std::vector<int64_t>& FactorWorkspace::IndexBuf(int slot) {
  AIM_CHECK(slot >= 0 && slot < kIndexBufs);
  return index_bufs_[slot];
}

AlignedDoubleBuffer& FactorWorkspace::DoubleBuf(int slot) {
  AIM_CHECK(slot >= 0 && slot < kDoubleBufs);
  return double_bufs_[slot];
}

}  // namespace aim
