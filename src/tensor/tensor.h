#ifndef EDDE_TENSOR_TENSOR_H_
#define EDDE_TENSOR_TENSOR_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "tensor/rng.h"
#include "tensor/shape.h"

namespace edde {

/// Dense row-major float32 tensor with shared ownership of its buffer.
///
/// Copying a Tensor is cheap (shared buffer); use Clone() for a deep copy.
/// All neural-network activations, parameters and gradients in the library
/// are Tensors. The class is deliberately minimal — heavy math lives in
/// tensor/ops.h as free functions.
class Tensor {
 public:
  /// An empty (rank-0, zero-size buffer) tensor. data() is null.
  Tensor() = default;

  /// Allocates an uninitialized tensor of `shape`.
  explicit Tensor(Shape shape);

  /// Allocates and fills with `value`.
  Tensor(Shape shape, float value);

  /// Builds a tensor from explicit values; size must match the shape.
  Tensor(Shape shape, std::initializer_list<float> values);
  Tensor(Shape shape, const std::vector<float>& values);

  /// Deep copy.
  Tensor Clone() const;

  /// True when no buffer is attached.
  bool empty() const { return data_ == nullptr; }

  const Shape& shape() const { return shape_; }
  int64_t num_elements() const { return shape_.num_elements(); }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }

  /// Flat element access with bounds checks in debug builds.
  float& at(int64_t i);
  float at(int64_t i) const;

  /// 2-D access for (rows, cols) tensors.
  float& at(int64_t i, int64_t j);
  float at(int64_t i, int64_t j) const;

  /// 4-D access for (n, c, h, w) tensors.
  float& at(int64_t n, int64_t c, int64_t h, int64_t w);
  float at(int64_t n, int64_t c, int64_t h, int64_t w) const;

  /// Sets every element to `value`.
  void Fill(float value);

  /// Fills i.i.d. N(mean, stddev).
  void FillNormal(Rng* rng, float mean, float stddev);

  /// Fills i.i.d. U[lo, hi).
  void FillUniform(Rng* rng, float lo, float hi);

  /// Returns a tensor sharing this buffer with a different shape of equal
  /// element count.
  Tensor Reshape(Shape new_shape) const;

  /// Returns a tensor of `shape` sharing this buffer from element `offset`
  /// on; the buffer lives as long as any tensor that shares it.
  Tensor View(int64_t offset, Shape shape) const;

  /// True when another tensor shares this buffer.
  bool shared() const { return data_.use_count() > 1; }

  /// Copies `other`'s contents into this tensor (shapes must match).
  void CopyFrom(const Tensor& other);

  /// Applies `fn` to every element in place.
  void Apply(const std::function<float(float)>& fn);

  /// Sum of all elements (float64 accumulator).
  double Sum() const;

  /// Mean of all elements.
  double Mean() const;

  /// Maximum absolute element; 0 for empty tensors.
  float AbsMax() const;

  /// Readable dump (truncated for large tensors) for debugging.
  std::string ToString(int64_t max_elements = 32) const;

  /// Factory helpers.
  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape), 0.0f); }
  static Tensor Ones(Shape shape) { return Tensor(std::move(shape), 1.0f); }

 private:
  Tensor(Shape shape, std::shared_ptr<float[]> data)
      : shape_(std::move(shape)), data_(std::move(data)) {}

  Shape shape_;
  std::shared_ptr<float[]> data_;
};

}  // namespace edde

#endif  // EDDE_TENSOR_TENSOR_H_
