#ifndef EDDE_DATA_DATASET_H_
#define EDDE_DATA_DATASET_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace edde {

/// An in-memory labeled dataset: a feature tensor whose first axis indexes
/// samples, plus integer class labels.
///
/// Copies are cheap (the feature tensor is shared); Subset materializes.
class Dataset {
 public:
  Dataset() = default;

  /// `features` is (N, ...); `labels` has N entries in [0, num_classes).
  Dataset(std::string name, Tensor features, std::vector<int> labels,
          int num_classes);

  const std::string& name() const { return name_; }
  int64_t size() const { return static_cast<int64_t>(labels_.size()); }
  int num_classes() const { return num_classes_; }
  const Tensor& features() const { return features_; }
  const std::vector<int>& labels() const { return labels_; }

  /// Scalar feature elements per sample.
  int64_t sample_elements() const;

  /// Shape of one sample (feature shape without the leading N axis).
  std::vector<int64_t> SampleDims() const;

  /// Materializes the samples at `indices` (with repetition allowed) into a
  /// new dataset — the primitive behind bootstrap resampling and k-folds.
  Dataset Subset(const std::vector<int64_t>& indices,
                 const std::string& subset_name = "") const;

  /// Gathers a feature minibatch (B, ...) for the given sample indices.
  Tensor GatherFeatures(const std::vector<int64_t>& indices) const;

  /// Gathers the labels for the given sample indices.
  std::vector<int> GatherLabels(const std::vector<int64_t>& indices) const;

  /// Allocation-free variants for hot training loops: `out` is reused when
  /// its shape already matches (B, ...) and reallocated otherwise, so a
  /// steady-state epoch stages every batch into the same buffer. `indices`
  /// points at `count` dataset indices (e.g. a BatchPlan batch view).
  void GatherFeaturesInto(const int64_t* indices, int64_t count,
                          Tensor* out) const;
  void GatherLabelsInto(const int64_t* indices, int64_t count,
                        std::vector<int>* out) const;

  /// FNV-1a over the feature bytes then the label bytes, chained from
  /// `basis`: which bytes a result was computed from (run manifest, run
  /// checkpoint fingerprint).
  uint64_t Fingerprint(uint64_t basis = 1469598103934665603ull) const;

 private:
  std::string name_;
  Tensor features_;
  std::vector<int> labels_;
  int num_classes_ = 0;
};

/// A train/test pair produced by the synthetic generators.
struct TrainTestSplit {
  Dataset train;
  Dataset test;
};

}  // namespace edde

#endif  // EDDE_DATA_DATASET_H_
