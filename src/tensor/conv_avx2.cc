// AVX2/FMA policy of the direct Conv2d kernels (tensor/conv_direct.h). This
// translation unit is compiled with -mavx2 -mfma (see src/CMakeLists.txt)
// while the rest of the library stays at the project baseline, so
// everything here must be reached only through the runtime dispatch in
// ops.cc.

#include "tensor/conv_direct.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)
#define EDDE_HAVE_AVX2_KERNEL 1
#include <immintrin.h>
#else
#define EDDE_HAVE_AVX2_KERNEL 0
#endif

#include "utils/logging.h"

namespace edde {
namespace conv_internal {

#if EDDE_HAVE_AVX2_KERNEL

namespace {

// One vector is the kLanes samples of one pixel. Fma is the fused
// acc + a·b, as in the AVX2 GEMM micro-kernel.
struct Avx2Ops {
  static_assert(kLanes == 8, "one YMM register per pixel");
  using V = __m256;
  static V Zero() { return _mm256_setzero_ps(); }
  static V Load(const float* p) { return _mm256_loadu_ps(p); }
  static V Bcast(const float* p) { return _mm256_broadcast_ss(p); }
  static V Fma(V acc, V a, V b) { return _mm256_fmadd_ps(a, b, acc); }
  static V Add(V a, V b) { return _mm256_add_ps(a, b); }
  static void Store(float* p, V v) { _mm256_storeu_ps(p, v); }
};

// In-register transpose of the 8x8 block r[0..7].
void Transpose8x8(__m256 (&r)[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// Lanes [0, count) set.
__m256i FirstLanes(int64_t count) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(count)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

}  // namespace

// Both directions move 8 samples x 8 pixels per in-register transpose;
// masked loads and stores cover the last pixels of a plane and the samples
// past the batch.
void ToBatchInnermostAvx2(const float* src, int64_t n, int64_t c, int64_t p,
                          int64_t lanes, float* dst) {
  for (int64_t ch = 0; ch < c; ++ch) {
    float* plane = dst + ch * p * lanes;
    for (int64_t s0 = 0; s0 < p; s0 += kLanes) {
      const int64_t count = p - s0 < kLanes ? p - s0 : kLanes;
      const __m256i mask = FirstLanes(count);
      for (int64_t n0 = 0; n0 < lanes; n0 += kLanes) {
        __m256 r[8];
        for (int64_t i = 0; i < kLanes; ++i) {
          const float* row = src + ((n0 + i) * c + ch) * p + s0;
          r[i] = n0 + i >= n       ? _mm256_setzero_ps()
                 : count == kLanes ? _mm256_loadu_ps(row)
                                   : _mm256_maskload_ps(row, mask);
        }
        Transpose8x8(r);
        for (int64_t s = 0; s < count; ++s) {
          _mm256_storeu_ps(plane + (s0 + s) * lanes + n0, r[s]);
        }
      }
    }
  }
}

void FromBatchInnermostAvx2(const float* src, int64_t n, int64_t c,
                            int64_t p, int64_t lanes, float* dst) {
  // One block of 8 samples at a time: the rows it stores to are c·p floats
  // apart, often a multiple of 4 KiB, and more of them at once would
  // thrash one set of the L1 cache.
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* plane = src + ch * p * lanes;
    for (int64_t n0 = 0; n0 < n; n0 += kLanes) {
      for (int64_t s0 = 0; s0 < p; s0 += kLanes) {
        const int64_t count = p - s0 < kLanes ? p - s0 : kLanes;
        const __m256i mask = FirstLanes(count);
        __m256 r[8];
        for (int64_t s = 0; s < kLanes; ++s) {
          r[s] = s < count ? _mm256_loadu_ps(plane + (s0 + s) * lanes + n0)
                           : _mm256_setzero_ps();
        }
        Transpose8x8(r);
        for (int64_t i = 0; i < kLanes && n0 + i < n; ++i) {
          float* row = dst + ((n0 + i) * c + ch) * p + s0;
          if (count == kLanes) {
            _mm256_storeu_ps(row, r[i]);
          } else {
            _mm256_maskstore_ps(row, mask, r[i]);
          }
        }
      }
    }
  }
}

void DirectPassAvx2(const DirectPass& pass, int64_t i0, int64_t i1) {
  DirectConv<Avx2Ops>::RunItems(pass, i0, i1);
}

void WeightGradPassAvx2(const WeightGradPass& pass, int64_t i0, int64_t i1) {
  DirectConv<Avx2Ops>::RunWeightGradItems(pass, i0, i1);
}

#else  // !EDDE_HAVE_AVX2_KERNEL

void ToBatchInnermostAvx2(const float*, int64_t, int64_t, int64_t, int64_t,
                          float*) {
  EDDE_CHECK(false) << "AVX2 conv kernels not compiled in";
}

void FromBatchInnermostAvx2(const float*, int64_t, int64_t, int64_t, int64_t,
                            float*) {
  EDDE_CHECK(false) << "AVX2 conv kernels not compiled in";
}

void DirectPassAvx2(const DirectPass&, int64_t, int64_t) {
  EDDE_CHECK(false) << "AVX2 conv kernels not compiled in";
}

void WeightGradPassAvx2(const WeightGradPass&, int64_t, int64_t) {
  EDDE_CHECK(false) << "AVX2 conv kernels not compiled in";
}

#endif  // EDDE_HAVE_AVX2_KERNEL

}  // namespace conv_internal
}  // namespace edde
