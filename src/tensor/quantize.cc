#include "tensor/quantize.h"

#include <cstring>

namespace edde {

// ---------------------------------------------------------------------------
// fp16 conversion
// ---------------------------------------------------------------------------

uint16_t FloatToHalf(float value) {
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint32_t sign = (bits >> 16) & 0x8000u;
  const uint32_t abs = bits & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {
    // Inf / NaN. Keep a nonzero mantissa bit for NaN so it stays a NaN.
    const uint32_t mantissa = abs > 0x7F800000u ? 0x0200u : 0u;
    return static_cast<uint16_t>(sign | 0x7C00u | mantissa);
  }
  if (abs >= 0x47800000u) {  // >= 65536: overflows half range
    return static_cast<uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x38800000u) {  // < 2^-14: subnormal half (or zero)
    if (abs < 0x33000000u) {  // < 2^-25: underflows to zero even with RNE
      return static_cast<uint16_t>(sign);
    }
    // half_code = round(mantissa · 2^(e−126)): e ∈ [102, 112] here, so the
    // right shift is 126 − e ∈ [14, 24].
    const int shift = 126 - static_cast<int>(abs >> 23);
    const uint32_t mantissa = (abs & 0x007FFFFFu) | 0x00800000u;
    uint32_t half = mantissa >> shift;
    // Round to nearest even on the bits shifted out.
    const uint32_t rest = mantissa & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (rest > halfway || (rest == halfway && (half & 1u))) ++half;
    return static_cast<uint16_t>(sign | half);
  }
  // Normal range: rebias the exponent and round 13 mantissa bits away.
  uint32_t half = (abs - 0x38000000u) >> 13;
  const uint32_t rest = abs & 0x1FFFu;
  if (rest > 0x1000u || (rest == 0x1000u && (half & 1u))) ++half;
  return static_cast<uint16_t>(sign | half);
}

float HalfToFloat(uint16_t half) {
  const uint32_t sign = static_cast<uint32_t>(half & 0x8000u) << 16;
  const uint32_t exp = (half >> 10) & 0x1Fu;
  const uint32_t mantissa = half & 0x3FFu;
  uint32_t bits;
  if (exp == 0x1Fu) {  // Inf / NaN
    bits = sign | 0x7F800000u | (mantissa << 13);
  } else if (exp != 0) {  // normal
    bits = sign | ((exp + 112u) << 23) | (mantissa << 13);
  } else if (mantissa != 0) {  // subnormal: renormalize
    uint32_t m = mantissa;
    uint32_t e = 113;
    while ((m & 0x400u) == 0) {
      m <<= 1;
      --e;
    }
    bits = sign | (e << 23) | ((m & 0x3FFu) << 13);
  } else {  // ±0
    bits = sign;
  }
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

void FloatsToHalfs(const float* src, uint16_t* dst, size_t count) {
  for (size_t i = 0; i < count; ++i) dst[i] = FloatToHalf(src[i]);
}

void HalfsToFloats(const uint16_t* src, float* dst, size_t count) {
  for (size_t i = 0; i < count; ++i) dst[i] = HalfToFloat(src[i]);
}

}  // namespace edde
