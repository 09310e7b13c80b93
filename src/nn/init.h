#ifndef EDDE_NN_INIT_H_
#define EDDE_NN_INIT_H_

#include <cstdint>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace edde {

/// He-normal initialization for ReLU networks: N(0, sqrt(2 / fan_in)).
void HeNormalInit(Tensor* weight, int64_t fan_in, Rng* rng);

}  // namespace edde

#endif  // EDDE_NN_INIT_H_
