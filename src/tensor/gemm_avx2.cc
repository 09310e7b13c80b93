// AVX2/FMA specialization of the 6x16 GEMM micro-kernel. This translation
// unit is compiled with -mavx2 -mfma (see src/CMakeLists.txt) while the
// rest of the library stays at the project baseline, so everything here
// must be reached only through the runtime dispatch in gemm.cc.

#include "tensor/gemm.h"

#if defined(__x86_64__) && defined(__AVX2__) && defined(__FMA__)
#define EDDE_HAVE_AVX2_KERNEL 1
#include <immintrin.h>
#else
#define EDDE_HAVE_AVX2_KERNEL 0
#endif

#include "utils/logging.h"

namespace edde {
namespace gemm_internal {

#if EDDE_HAVE_AVX2_KERNEL

bool Avx2Available() {
  static const bool available =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return available;
}

void MicroKernelAvx2(int64_t kc, const float* ap, int64_t a_rs,
                     int64_t a_ks, const float* bp, int64_t b_ks, float* acc) {
  // 6 rows x 2 vectors of 8 floats = 12 YMM accumulators; with the two B
  // vectors and one A broadcast that fills 15 of the 16 YMM registers.
  // Unaligned B loads: an in-place B row starts wherever the matrix puts it.
  const int64_t r2 = 2 * a_rs, r3 = 3 * a_rs, r4 = 4 * a_rs, r5 = 5 * a_rs;
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    bp += b_ks;
    __m256 a;
    a = _mm256_broadcast_ss(ap);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(ap + a_rs);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(ap + r2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(ap + r3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(ap + r4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(ap + r5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
    ap += a_ks;
  }
  _mm256_store_ps(acc + 0 * kNR, c00);
  _mm256_store_ps(acc + 0 * kNR + 8, c01);
  _mm256_store_ps(acc + 1 * kNR, c10);
  _mm256_store_ps(acc + 1 * kNR + 8, c11);
  _mm256_store_ps(acc + 2 * kNR, c20);
  _mm256_store_ps(acc + 2 * kNR + 8, c21);
  _mm256_store_ps(acc + 3 * kNR, c30);
  _mm256_store_ps(acc + 3 * kNR + 8, c31);
  _mm256_store_ps(acc + 4 * kNR, c40);
  _mm256_store_ps(acc + 4 * kNR + 8, c41);
  _mm256_store_ps(acc + 5 * kNR, c50);
  _mm256_store_ps(acc + 5 * kNR + 8, c51);
}

#else  // !EDDE_HAVE_AVX2_KERNEL

bool Avx2Available() { return false; }

void MicroKernelAvx2(int64_t, const float*, int64_t, int64_t, const float*,
                     int64_t, float*) {
  EDDE_CHECK(false) << "AVX2 micro-kernel not compiled in";
}

#endif  // EDDE_HAVE_AVX2_KERNEL

}  // namespace gemm_internal
}  // namespace edde
