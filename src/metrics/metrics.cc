#include "metrics/metrics.h"

#include <cstring>

#include "data/batcher.h"
#include "tensor/ops.h"
#include "utils/logging.h"

namespace edde {

double Accuracy(const std::vector<int>& predictions,
                const std::vector<int>& labels) {
  EDDE_CHECK_EQ(predictions.size(), labels.size());
  EDDE_CHECK(!labels.empty());
  int64_t correct = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (predictions[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(labels.size());
}

Tensor PredictProbs(Module* model, const Dataset& data, int64_t batch_size) {
  const int64_t n = data.size();
  const int64_t k = data.num_classes();
  Tensor probs(Shape{n, k});
  const auto batches = MakeBatches(n, batch_size, /*shuffle=*/false, nullptr);
  for (const auto& batch : batches) {
    Tensor x = data.GatherFeatures(batch);
    Tensor logits = model->Forward(x, /*training=*/false);
    Tensor p = Softmax(logits);
    for (size_t i = 0; i < batch.size(); ++i) {
      std::memcpy(probs.data() + batch[i] * k,
                  p.data() + static_cast<int64_t>(i) * k, sizeof(float) * k);
    }
  }
  return probs;
}

std::vector<int> PredictLabels(Module* model, const Dataset& data,
                               int64_t batch_size) {
  return ArgmaxRows(PredictProbs(model, data, batch_size));
}

double EvaluateAccuracy(Module* model, const Dataset& data,
                        int64_t batch_size) {
  return Accuracy(PredictLabels(model, data, batch_size), data.labels());
}

}  // namespace edde
