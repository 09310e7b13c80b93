#ifndef EDDE_NN_TAPE_H_
#define EDDE_NN_TAPE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace edde {

/// The record of one training step: what each layer's Forward saves for
/// its Backward, and the memory of the step's activations and gradients.
///
/// A training-mode Forward saves tensors on the tape (its input, the
/// normalized activations, a ReLU output that is also its mask, im2col
/// columns) and the matching Backward takes them back in reverse order —
/// a stack, because reverse-mode differentiation visits the layers last
/// to first. Modules keep only their weights; the caller that trains owns
/// the tape and resets it once per step (DESIGN.md §17).
///
/// NewTensor bump-allocates views of one resident slab. A step that
/// outgrows the slab chains another, and the next Reset replaces the chain
/// by one slab of the step's size, so a steady-state step allocates
/// nothing. Reset never recycles a slab that a caller still holds a view
/// of: such a slab is left to its holders and replaced, so a tensor from
/// the tape is never overwritten while anyone can read it.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Starts the next step: drops every saved tensor and the data mark, and
  /// rewinds the memory.
  void Reset();

  /// An uninitialized tensor of `shape` from the step's memory.
  Tensor NewTensor(const Shape& shape);

  /// Saves `t` (a shared handle, never a copy) for the matching Backward.
  void Save(const Tensor& t) { saved_.push_back(t); }

  /// Takes back the most recently saved tensor.
  Tensor Take();

  /// Marks `input` as data: a layer that reads it (a network's stem)
  /// computes no gradient for it.
  void MarkData(const Tensor& input) { data_ = input.data(); }
  bool IsData(const Tensor& t) const { return t.data() == data_; }

  /// True when every saved tensor has been taken back.
  bool empty() const { return saved_.empty(); }

 private:
  std::vector<Tensor> saved_;
  std::vector<Tensor> slabs_;  ///< the back one is bump-allocating
  int64_t used_ = 0;           ///< floats handed out of slabs_.back()
  int64_t step_floats_ = 0;    ///< floats handed out this step
  int64_t capacity_ = 0;       ///< largest step so far
  const float* data_ = nullptr;
};

/// A layer's output or gradient buffer: from the tape in a training step,
/// from the heap with no tape (eval, whose outputs outlive any step).
Tensor NewTensor(Tape* tape, Shape shape);

}  // namespace edde

#endif  // EDDE_NN_TAPE_H_
