#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "utils/logging.h"
#include "utils/metrics.h"

namespace edde {

Tensor::Tensor(Shape shape) : shape_(std::move(shape)) {
  // Heap-traffic telemetry for the kernel hot path: bench_kernels reads
  // these to show that steady-state training allocates no per-batch tensor
  // scratch (the arena absorbs it).
  static Counter* const allocs =
      MetricsRegistry::Global().GetCounter("tensor.allocs");
  static Counter* const alloc_bytes =
      MetricsRegistry::Global().GetCounter("tensor.alloc_bytes");
  allocs->Increment();
  alloc_bytes->Increment(
      static_cast<int64_t>(sizeof(float)) * shape_.num_elements());
  data_ = std::shared_ptr<float[]>(new float[shape_.num_elements()]);
}

Tensor::Tensor(Shape shape, float value) : Tensor(std::move(shape)) {
  Fill(value);
}

Tensor::Tensor(Shape shape, std::initializer_list<float> values)
    : Tensor(std::move(shape)) {
  EDDE_CHECK_EQ(static_cast<int64_t>(values.size()), num_elements());
  std::copy(values.begin(), values.end(), data());
}

Tensor::Tensor(Shape shape, const std::vector<float>& values)
    : Tensor(std::move(shape)) {
  EDDE_CHECK_EQ(static_cast<int64_t>(values.size()), num_elements());
  std::copy(values.begin(), values.end(), data());
}

Tensor Tensor::Clone() const {
  if (empty()) return Tensor();
  Tensor out(shape_);
  std::memcpy(out.data(), data(), sizeof(float) * num_elements());
  return out;
}

float& Tensor::at(int64_t i) {
  EDDE_CHECK_GE(i, 0);
  EDDE_CHECK_LT(i, num_elements());
  return data_[i];
}

float Tensor::at(int64_t i) const {
  EDDE_CHECK_GE(i, 0);
  EDDE_CHECK_LT(i, num_elements());
  return data_[i];
}

float& Tensor::at(int64_t i, int64_t j) {
  EDDE_CHECK_EQ(shape_.rank(), 2);
  return data_[i * shape_.dim(1) + j];
}

float Tensor::at(int64_t i, int64_t j) const {
  EDDE_CHECK_EQ(shape_.rank(), 2);
  return data_[i * shape_.dim(1) + j];
}

float& Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w) {
  EDDE_CHECK_EQ(shape_.rank(), 4);
  return data_[((n * shape_.dim(1) + c) * shape_.dim(2) + h) * shape_.dim(3) +
               w];
}

float Tensor::at(int64_t n, int64_t c, int64_t h, int64_t w) const {
  EDDE_CHECK_EQ(shape_.rank(), 4);
  return data_[((n * shape_.dim(1) + c) * shape_.dim(2) + h) * shape_.dim(3) +
               w];
}

void Tensor::Fill(float value) {
  std::fill(data(), data() + num_elements(), value);
}

void Tensor::FillNormal(Rng* rng, float mean, float stddev) {
  float* p = data();
  const int64_t n = num_elements();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->Normal(mean, stddev));
  }
}

void Tensor::FillUniform(Rng* rng, float lo, float hi) {
  float* p = data();
  const int64_t n = num_elements();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
}

Tensor Tensor::Reshape(Shape new_shape) const {
  EDDE_CHECK_EQ(new_shape.num_elements(), num_elements())
      << "reshape " << shape_ << " -> " << new_shape;
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::View(int64_t offset, Shape shape) const {
  EDDE_CHECK_GE(offset, 0);
  EDDE_CHECK_LE(offset + shape.num_elements(), num_elements());
  return Tensor(std::move(shape),
                std::shared_ptr<float[]>(data_, data_.get() + offset));
}

void Tensor::CopyFrom(const Tensor& other) {
  EDDE_CHECK(shape_ == other.shape_)
      << "CopyFrom shape mismatch: " << shape_ << " vs " << other.shape_;
  std::memcpy(data(), other.data(), sizeof(float) * num_elements());
}

void Tensor::Apply(const std::function<float(float)>& fn) {
  float* p = data();
  const int64_t n = num_elements();
  for (int64_t i = 0; i < n; ++i) p[i] = fn(p[i]);
}

double Tensor::Sum() const {
  double acc = 0.0;
  const float* p = data();
  const int64_t n = num_elements();
  for (int64_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

double Tensor::Mean() const {
  const int64_t n = num_elements();
  return n == 0 ? 0.0 : Sum() / static_cast<double>(n);
}

float Tensor::AbsMax() const {
  float best = 0.0f;
  const float* p = data();
  const int64_t n = num_elements();
  for (int64_t i = 0; i < n; ++i) best = std::max(best, std::fabs(p[i]));
  return best;
}

std::string Tensor::ToString(int64_t max_elements) const {
  std::ostringstream os;
  os << "Tensor" << shape_ << " [";
  const int64_t n = std::min(num_elements(), max_elements);
  for (int64_t i = 0; i < n; ++i) {
    if (i > 0) os << ", ";
    os << data_[i];
  }
  if (n < num_elements()) os << ", ...";
  os << "]";
  return os.str();
}

}  // namespace edde
