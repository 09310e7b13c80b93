#ifndef EDDE_TENSOR_QUANTIZE_H_
#define EDDE_TENSOR_QUANTIZE_H_

#include <cstddef>
#include <cstdint>

namespace edde {

// ---------------------------------------------------------------------------
// fp16 artifact storage (see DESIGN.md §13)
// ---------------------------------------------------------------------------
//
// IEEE binary16 with round-to-nearest-even, implemented as scalar bit
// manipulation so conversions are bit-identical on every build (no F16C
// dependency, no flush-to-zero surprises). Used by ensemble_io's fp16
// sections; the in-memory compute type stays float32.

/// float32 -> binary16 (RNE; overflow saturates to ±inf, NaN is preserved).
uint16_t FloatToHalf(float value);

/// binary16 -> float32 (exact; subnormals and ±inf/NaN round-trip).
float HalfToFloat(uint16_t half);

void FloatsToHalfs(const float* src, uint16_t* dst, size_t count);
void HalfsToFloats(const uint16_t* src, float* dst, size_t count);

}  // namespace edde

#endif  // EDDE_TENSOR_QUANTIZE_H_
