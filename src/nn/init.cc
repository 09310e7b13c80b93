#include "nn/init.h"

#include <cmath>

#include "utils/logging.h"

namespace edde {

void HeNormalInit(Tensor* weight, int64_t fan_in, Rng* rng) {
  EDDE_CHECK_GT(fan_in, 0);
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  weight->FillNormal(rng, 0.0f, stddev);
}

}  // namespace edde
