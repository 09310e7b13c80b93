#include "nn/tape.h"

#include <algorithm>
#include <utility>

#include "utils/logging.h"

namespace edde {

namespace {

// Views start on 64-byte boundaries of the slab.
constexpr int64_t kAlignFloats = 16;
constexpr int64_t kMinSlabFloats = 1 << 14;

}  // namespace

void Tape::Reset() {
  saved_.clear();
  data_ = nullptr;
  capacity_ = std::max(capacity_, step_floats_);
  const bool held = !slabs_.empty() && slabs_.back().shared();
  if (slabs_.size() > 1 || held) {
    slabs_.clear();
    slabs_.push_back(Tensor(Shape{capacity_}));
  }
  used_ = 0;
  step_floats_ = 0;
}

Tensor Tape::NewTensor(const Shape& shape) {
  const int64_t n =
      (shape.num_elements() + kAlignFloats - 1) / kAlignFloats * kAlignFloats;
  if (slabs_.empty() || used_ + n > slabs_.back().num_elements()) {
    slabs_.push_back(Tensor(Shape{std::max({n, 2 * step_floats_,
                                            kMinSlabFloats})}));
    used_ = 0;
  }
  Tensor t = slabs_.back().View(used_, shape);
  used_ += n;
  step_floats_ += n;
  return t;
}

Tensor Tape::Take() {
  EDDE_CHECK(!saved_.empty()) << "Backward before Forward";
  Tensor t = std::move(saved_.back());
  saved_.pop_back();
  return t;
}

Tensor NewTensor(Tape* tape, Shape shape) {
  return tape != nullptr ? tape->NewTensor(shape) : Tensor(std::move(shape));
}

}  // namespace edde
