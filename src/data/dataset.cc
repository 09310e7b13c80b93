#include "data/dataset.h"

#include <cstring>

#include "utils/logging.h"
#include "utils/run_manifest.h"

namespace edde {

Dataset::Dataset(std::string name, Tensor features, std::vector<int> labels,
                 int num_classes)
    : name_(std::move(name)),
      features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  EDDE_CHECK_GT(features_.shape().rank(), 0);
  EDDE_CHECK_EQ(features_.shape().dim(0),
                static_cast<int64_t>(labels_.size()));
  EDDE_CHECK_GT(num_classes_, 1);
  for (int y : labels_) {
    EDDE_CHECK_GE(y, 0);
    EDDE_CHECK_LT(y, num_classes_);
  }
}

int64_t Dataset::sample_elements() const {
  return size() == 0 ? 0 : features_.num_elements() / size();
}

std::vector<int64_t> Dataset::SampleDims() const {
  const auto& dims = features_.shape().dims();
  return std::vector<int64_t>(dims.begin() + 1, dims.end());
}

Dataset Dataset::Subset(const std::vector<int64_t>& indices,
                        const std::string& subset_name) const {
  Tensor feats = GatherFeatures(indices);
  std::vector<int> labels = GatherLabels(indices);
  return Dataset(subset_name.empty() ? name_ + "/subset" : subset_name,
                 std::move(feats), std::move(labels), num_classes_);
}

Tensor Dataset::GatherFeatures(const std::vector<int64_t>& indices) const {
  Tensor out;
  GatherFeaturesInto(indices.data(), static_cast<int64_t>(indices.size()),
                     &out);
  return out;
}

std::vector<int> Dataset::GatherLabels(
    const std::vector<int64_t>& indices) const {
  std::vector<int> out;
  GatherLabelsInto(indices.data(), static_cast<int64_t>(indices.size()), &out);
  return out;
}

void Dataset::GatherFeaturesInto(const int64_t* indices, int64_t count,
                                 Tensor* out) const {
  const int64_t row = sample_elements();
  std::vector<int64_t> dims = SampleDims();
  dims.insert(dims.begin(), count);
  Shape shape(dims);
  if (out->empty() || !(out->shape() == shape)) *out = Tensor(shape);
  for (int64_t i = 0; i < count; ++i) {
    const int64_t src = indices[i];
    EDDE_CHECK_GE(src, 0);
    EDDE_CHECK_LT(src, size());
    std::memcpy(out->data() + i * row, features_.data() + src * row,
                sizeof(float) * row);
  }
}

void Dataset::GatherLabelsInto(const int64_t* indices, int64_t count,
                               std::vector<int>* out) const {
  out->resize(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    (*out)[static_cast<size_t>(i)] = labels_[static_cast<size_t>(indices[i])];
  }
}

uint64_t Dataset::Fingerprint(uint64_t basis) const {
  basis = FingerprintBytes(
      features_.data(),
      static_cast<size_t>(features_.num_elements()) * sizeof(float), basis);
  return FingerprintBytes(labels_.data(), labels_.size() * sizeof(int),
                          basis);
}

}  // namespace edde
