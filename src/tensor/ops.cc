#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "utils/arena.h"
#include "utils/logging.h"
#include "utils/threadpool.h"

namespace edde {

namespace {

// Row-grain targeting roughly `target_work` scalar ops per chunk, so tiny
// tensors (tests, small gemms) take the serial path inside ParallelFor
// and stay bit-identical to the pre-threading implementation. Row-parallel
// kernels write disjoint rows and keep the serial accumulation order within
// each row, so results are bit-identical for every thread count anyway; the
// grain only controls scheduling overhead.
int64_t RowGrain(int64_t work_per_row, int64_t target_work) {
  if (work_per_row < 1) work_per_row = 1;
  const int64_t grain = target_work / work_per_row;
  return grain < 1 ? 1 : grain;
}

void CheckGemmShapes(bool trans_a, bool trans_b, const Tensor& a,
                     const Tensor& b, const Tensor& c, int64_t* m, int64_t* n,
                     int64_t* k) {
  EDDE_CHECK_EQ(a.shape().rank(), 2);
  EDDE_CHECK_EQ(b.shape().rank(), 2);
  EDDE_CHECK_EQ(c.shape().rank(), 2);
  *m = trans_a ? a.shape().dim(1) : a.shape().dim(0);
  *k = trans_a ? a.shape().dim(0) : a.shape().dim(1);
  const int64_t kb = trans_b ? b.shape().dim(1) : b.shape().dim(0);
  *n = trans_b ? b.shape().dim(0) : b.shape().dim(1);
  EDDE_CHECK_EQ(*k, kb) << "gemm inner dimension mismatch";
  EDDE_CHECK_EQ(c.shape().dim(0), *m);
  EDDE_CHECK_EQ(c.shape().dim(1), *n);
}

}  // namespace

void Gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c) {
  GemmEx(trans_a, trans_b, alpha, a, b, beta, c, GemmEpilogue());
}

void GemmEx(bool trans_a, bool trans_b, float alpha, const Tensor& a,
            const Tensor& b, float beta, Tensor* c,
            const GemmEpilogue& epilogue) {
  int64_t m = 0, n = 0, k = 0;
  CheckGemmShapes(trans_a, trans_b, a, b, *c, &m, &n, &k);
  GemmRaw(trans_a, trans_b, m, n, k, alpha, a.data(), a.shape().dim(1),
          b.data(), b.shape().dim(1), beta, c->data(), n, epilogue);
}

void Axpy(float alpha, const Tensor& x, Tensor* y) {
  EDDE_CHECK_EQ(x.num_elements(), y->num_elements());
  const float* px = x.data();
  float* py = y->data();
  const int64_t n = x.num_elements();
#pragma omp simd
  for (int64_t i = 0; i < n; ++i) py[i] += alpha * px[i];
}

void Scale(float alpha, Tensor* x) {
  float* p = x->data();
  const int64_t n = x->num_elements();
#pragma omp simd
  for (int64_t i = 0; i < n; ++i) p[i] *= alpha;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  EDDE_CHECK(a.shape() == b.shape());
  Tensor out = a.Clone();
  Axpy(1.0f, b, &out);
  return out;
}

double Dot(const Tensor& a, const Tensor& b) {
  EDDE_CHECK_EQ(a.num_elements(), b.num_elements());
  double acc = 0.0;
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.num_elements();
  for (int64_t i = 0; i < n; ++i) acc += static_cast<double>(pa[i]) * pb[i];
  return acc;
}

double SquaredNorm(const Tensor& x) { return Dot(x, x); }

void SoftmaxRow(const float* row, int64_t k, float* orow) {
  float mx = row[0];
  // max is exact (no rounding), so the vectorized reduction is
  // bit-identical to the serial loop.
#pragma omp simd reduction(max : mx)
  for (int64_t j = 1; j < k; ++j) mx = std::max(mx, row[j]);
  double total = 0.0;
  for (int64_t j = 0; j < k; ++j) {
    orow[j] = std::exp(row[j] - mx);
    total += orow[j];
  }
  const float inv = static_cast<float>(1.0 / total);
#pragma omp simd
  for (int64_t j = 0; j < k; ++j) orow[j] *= inv;
}

Tensor Softmax(const Tensor& logits) {
  EDDE_CHECK_EQ(logits.shape().rank(), 2);
  const int64_t n = logits.shape().dim(0);
  const int64_t k = logits.shape().dim(1);
  Tensor out(logits.shape());
  ParallelFor(0, n, RowGrain(k, 1 << 14), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      SoftmaxRow(logits.data() + i * k, k, out.data() + i * k);
    }
  });
  return out;
}

std::vector<int> ArgmaxRows(const Tensor& m) {
  EDDE_CHECK_EQ(m.shape().rank(), 2);
  const int64_t n = m.shape().dim(0);
  const int64_t k = m.shape().dim(1);
  std::vector<int> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const float* row = m.data() + i * k;
    int best = 0;
    for (int64_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = static_cast<int>(j);
    }
    out[static_cast<size_t>(i)] = best;
  }
  return out;
}

std::vector<float> RowL2Distance(const Tensor& a, const Tensor& b) {
  EDDE_CHECK(a.shape() == b.shape());
  EDDE_CHECK_EQ(a.shape().rank(), 2);
  const int64_t n = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  std::vector<float> out(static_cast<size_t>(n));
  ParallelFor(0, n, RowGrain(k, 1 << 14), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const float* ra = a.data() + i * k;
      const float* rb = b.data() + i * k;
      double acc = 0.0;
      // Vector reassociation of the double sum is fine here: the value is
      // deterministic for a fixed binary and thread-count independent
      // (per-row), and no test compares it against a serial reference.
#pragma omp simd reduction(+ : acc)
      for (int64_t j = 0; j < k; ++j) {
        const double d = static_cast<double>(ra[j]) - rb[j];
        acc += d * d;
      }
      out[static_cast<size_t>(i)] = static_cast<float>(std::sqrt(acc));
    }
  });
  return out;
}

namespace {

// Im2Col and Col2Im move each value through a zero-bordered copy of its
// (H, W) plane, (H+2p, W+2p), so that every kernel tap reads or writes
// through one precomputed offset with no bounds test: an im2col row is only
// OH·OW floats, and a per-element branch cost more than the copy itself.
struct PaddedPlanes {
  int64_t height, width, padding;
  int64_t ph, pw;  // bordered extents

  PaddedPlanes(int64_t h, int64_t w, int64_t p)
      : height(h), width(w), padding(p), ph(h + 2 * p), pw(w + 2 * p) {
    EDDE_CHECK_LE(ph * pw, std::numeric_limits<int32_t>::max())
        << "conv plane too large for int32 offsets";
  }
  int64_t size() const { return ph * pw; }

  // Copies `planes` (H, W) planes into bordered planes whose border is zero.
  void Stage(const float* src, int64_t planes, float* dst) const {
    std::memset(dst, 0, sizeof(float) * static_cast<size_t>(planes * size()));
    for (int64_t i = 0; i < planes; ++i) {
      for (int64_t y = 0; y < height; ++y) {
        std::memcpy(dst + i * size() + (y + padding) * pw + padding,
                    src + (i * height + y) * width,
                    sizeof(float) * static_cast<size_t>(width));
      }
    }
  }

  // Copies the interiors of `planes` bordered planes back to (H, W) planes.
  void Unstage(const float* src, int64_t planes, float* dst) const {
    for (int64_t i = 0; i < planes; ++i) {
      for (int64_t y = 0; y < height; ++y) {
        std::memcpy(dst + (i * height + y) * width,
                    src + i * size() + (y + padding) * pw + padding,
                    sizeof(float) * static_cast<size_t>(width));
      }
    }
  }
};

// Offset map of one channel: entry (ky·k + kx)·OH·OW + y·OW + x is where
// output pixel (y, x) of tap (ky, kx) sits in a bordered plane.
int32_t* TapOffsets(const ConvGeom& geom, const PaddedPlanes& planes,
                    int64_t oh, int64_t ow, ArenaScope* scope) {
  const int64_t k = geom.kernel;
  int32_t* offsets = static_cast<int32_t*>(
      scope->Alloc(sizeof(int32_t) * static_cast<size_t>(k * k * oh * ow)));
  int32_t* out = offsets;
  for (int64_t ky = 0; ky < k; ++ky) {
    for (int64_t kx = 0; kx < k; ++kx) {
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x) {
          *out++ = static_cast<int32_t>((y * geom.stride + ky) * planes.pw +
                                        x * geom.stride + kx);
        }
      }
    }
  }
  return offsets;
}

}  // namespace

void Im2Col(const float* input, int64_t batch, int64_t channels,
            int64_t height, int64_t width, const ConvGeom& geom, float* cols) {
  const int64_t oh = geom.OutExtent(height);
  const int64_t ow = geom.OutExtent(width);
  const int64_t taps = geom.kernel * geom.kernel;
  const int64_t plane = oh * ow;
  if (oh <= 0 || ow <= 0) return;
  // Serial: the Conv2d kernels cap a block at 32 Ki floats of columns
  // (Conv2dBlockSamples), too little copying to pay for a pool region.
  ArenaScope scope;
  const PaddedPlanes planes(height, width, geom.padding);
  const int32_t* offsets = TapOffsets(geom, planes, oh, ow, &scope);
  const float* staged = input;
  if (geom.padding > 0) {
    float* dst = scope.AllocFloats(batch * channels * planes.size());
    planes.Stage(input, batch * channels, dst);
    staged = dst;
  }
  for (int64_t row = 0; row < channels * taps; ++row) {
    const int32_t* tap = offsets + (row % taps) * plane;
    for (int64_t s = 0; s < batch; ++s) {
      const float* src = staged + (s * channels + row / taps) * planes.size();
      float* out = cols + (row * batch + s) * plane;
      // Rows are a few floats long; unrolling halves the loop overhead
      // that dominates them.
#pragma GCC unroll 4
      for (int64_t p = 0; p < plane; ++p) out[p] = src[tap[p]];
    }
  }
}

void Col2Im(const float* cols, int64_t batch, int64_t channels,
            int64_t height, int64_t width, const ConvGeom& geom,
            float* input_grad) {
  const int64_t oh = geom.OutExtent(height);
  const int64_t ow = geom.OutExtent(width);
  const int64_t taps = geom.kernel * geom.kernel;
  const int64_t plane = oh * ow;
  if (oh <= 0 || ow <= 0) return;
  ArenaScope scope;
  const PaddedPlanes planes(height, width, geom.padding);
  const int32_t* offsets = TapOffsets(geom, planes, oh, ow, &scope);
  float* staged = input_grad;
  if (geom.padding > 0) {
    staged = scope.AllocFloats(batch * channels * planes.size());
    planes.Stage(input_grad, batch * channels, staged);
  }
  // Kernel offsets of one channel accumulate into overlapping pixels; each
  // pixel sums its (ky, kx, y, x) contributions in that fixed order, the
  // same for any block size.
  for (int64_t s = 0; s < batch; ++s) {
    for (int64_t c = 0; c < channels; ++c) {
      float* dst = staged + (s * channels + c) * planes.size();
      for (int64_t t = 0; t < taps; ++t) {
        const float* in_row = cols + ((c * taps + t) * batch + s) * plane;
        const int32_t* tap = offsets + t * plane;
#pragma GCC unroll 4
        for (int64_t p = 0; p < plane; ++p) dst[tap[p]] += in_row[p];
      }
    }
  }
  if (geom.padding > 0) planes.Unstage(staged, batch * channels, input_grad);
}

int64_t Conv2dBlockSamples(const ConvGeom& geom, int64_t height,
                           int64_t width) {
  constexpr int64_t kColsBudget = 32 * 1024;  // floats
  const int64_t per_sample = geom.in_channels * geom.kernel * geom.kernel *
                             geom.OutExtent(height) * geom.OutExtent(width);
  return std::max<int64_t>(1, kColsBudget / std::max<int64_t>(1, per_sample));
}

namespace {

// Moves `bn` samples between NCHW (bn, C, P) and the im2col GEMM's
// channel-major (C, bn·P) layout, where each channel row holds the block's
// planes side by side.
void TransposeBlock(const float* src, int64_t bn, int64_t channels,
                    int64_t plane, bool to_nchw, float* dst) {
  for (int64_t s = 0; s < bn; ++s) {
    for (int64_t c = 0; c < channels; ++c) {
      const int64_t nchw = (s * channels + c) * plane;
      const int64_t cm = (c * bn + s) * plane;
      std::memcpy(dst + (to_nchw ? nchw : cm), src + (to_nchw ? cm : nchw),
                  sizeof(float) * static_cast<size_t>(plane));
    }
  }
}

// dst (cols, rows) = src (rows, cols)^T.
void Transpose(const float* src, int64_t rows, int64_t cols, float* dst) {
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) dst[j * rows + i] = src[i * cols + j];
  }
}

// Common body of the two forward convolutions. Each sample block is
// unrolled by one Im2Col, multiplied by `gemm(cols, ncols, out2d)` into
// channel-major scratch and copied into the NCHW output. Blocks run
// serially, so scratch stays at one block on one thread's arena; a batch
// that fits one block (every training batch of the tiny models) is a
// single GEMM and opens no pool region unless the GEMM itself is large.
template <typename BlockGemm>
Tensor Conv2dForwardBlocked(const Tensor& input, const ConvGeom& geom,
                            const BlockGemm& gemm) {
  EDDE_CHECK_EQ(input.shape().rank(), 4);
  const int64_t batch = input.shape().dim(0);
  const int64_t cin = input.shape().dim(1);
  const int64_t h = input.shape().dim(2);
  const int64_t w = input.shape().dim(3);
  EDDE_CHECK_EQ(cin, geom.in_channels);
  const int64_t oc = geom.out_channels;
  const int64_t plane = geom.OutExtent(h) * geom.OutExtent(w);
  const int64_t cols_rows = cin * geom.kernel * geom.kernel;
  const int64_t block = std::min(Conv2dBlockSamples(geom, h, w), batch);

  Tensor output(Shape{batch, oc, geom.OutExtent(h), geom.OutExtent(w)});
  ArenaScope scope;
  float* cols = scope.AllocFloats(cols_rows * block * plane);
  float* out2d = scope.AllocFloats(oc * block * plane);
  for (int64_t n0 = 0; n0 < batch; n0 += block) {
    const int64_t bn = std::min(block, batch - n0);
    Im2Col(input.data() + n0 * cin * h * w, bn, cin, h, w, geom, cols);
    gemm(cols, bn * plane, out2d);
    TransposeBlock(out2d, bn, oc, plane, /*to_nchw=*/true,
                   output.data() + n0 * oc * plane);
  }
  return output;
}

}  // namespace

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& geom) {
  EDDE_CHECK_EQ(weight.shape().dim(0), geom.out_channels);
  const int64_t cols_rows = geom.in_channels * geom.kernel * geom.kernel;
  GemmEpilogue epi;
  if (!bias.empty()) {
    // Output rows are channels, so the bias broadcast is per C row and the
    // gemm writes finished activations; only the NCHW row copy follows.
    epi.bias = GemmEpilogue::Bias::kPerRow;
    epi.bias_data = bias.data();
  }
  // out2d = W (OC, C·k²) @ cols (C·k², ncols).
  return Conv2dForwardBlocked(
      input, geom, [&](const float* cols, int64_t ncols, float* out2d) {
        GemmRaw(false, false, geom.out_channels, ncols, cols_rows, 1.0f,
                weight.data(), cols_rows, cols, ncols, 0.0f, out2d, ncols,
                epi);
      });
}

Tensor Conv2dForwardInt8(const Tensor& input, const QuantizedMatrix& weight,
                         const Tensor& bias, const ConvGeom& geom) {
  EDDE_CHECK_EQ(weight.rows, geom.out_channels);
  const int64_t cols_rows = geom.in_channels * geom.kernel * geom.kernel;
  EDDE_CHECK_EQ(weight.cols, cols_rows);
  GemmEpilogue epi;
  if (!bias.empty()) {
    epi.bias = GemmEpilogue::Bias::kPerRow;
    epi.bias_data = bias.data();
  }
  // trans_a reads the columns of cols as activation rows (one per output
  // pixel, quantized on its own) and trans_c lands the result in the same
  // (OC, ncols) layout as the fp32 GemmRaw call.
  return Conv2dForwardBlocked(
      input, geom, [&](const float* cols, int64_t ncols, float* out2d) {
        GemmInt8(/*trans_a=*/true, /*trans_c=*/true, ncols, cols_rows, cols,
                 ncols, weight, out2d, ncols, epi);
      });
}

namespace {

// The stride-1 correlation's weight, w̃ (C, OC·k²): w̃[c][oc][t] =
// w[oc][c][k²−1−t], the kernel transposed and flipped in both axes.
void FlipTransposeKernel(const float* w, int64_t oc, int64_t c, int64_t taps,
                         float* dst) {
  for (int64_t o = 0; o < oc; ++o) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* src = w + (o * c + ch) * taps;
      float* out = dst + (ch * oc + o) * taps + taps - 1;
      for (int64_t t = 0; t < taps; ++t) out[-t] = src[t];
    }
  }
}

// Moves a weight gradient between its (OC, C, k²) layout and the stride-1
// correlation's transposed w̃ gradient, (OC·k², C) with the taps reversed.
void FlipKernelGrad(const float* src, int64_t oc, int64_t c, int64_t taps,
                    bool to_flipped, float* dst) {
  for (int64_t o = 0; o < oc; ++o) {
    for (int64_t ch = 0; ch < c; ++ch) {
      for (int64_t t = 0; t < taps; ++t) {
        const int64_t natural = (o * c + ch) * taps + t;
        const int64_t flipped = (o * taps + taps - 1 - t) * c + ch;
        dst[to_flipped ? flipped : natural] =
            src[to_flipped ? natural : flipped];
      }
    }
  }
}

// Stride-1 backward with p ≤ k−1. dX is the forward correlation of dY,
// zero-bordered by k−1−p, with w̃; one Im2Col of dY per block (geometry
// in = OC, out = C, padding k−1−p, output extent H×W) feeds both gradients:
//   dX (C, bn·H·W)     = w̃ (C, OC·k²) · dYcols
//   w̃gradᵀ (OC·k², C) += dYcols · X2dᵀ
// where X2d is the block's input channel-major. dW sums the same nonzero
// products dY·X as the input-cols form; only zero border terms differ.
void Conv2dBackwardStride1(const Tensor& input, const Tensor& weight,
                           const Tensor& grad_out, const ConvGeom& geom,
                           Tensor* weight_grad, Tensor* grad_input) {
  const int64_t batch = input.shape().dim(0);
  const int64_t cin = input.shape().dim(1);
  const int64_t h = input.shape().dim(2);
  const int64_t w = input.shape().dim(3);
  const int64_t oc = geom.out_channels;
  const int64_t oh = geom.OutExtent(h);
  const int64_t ow = geom.OutExtent(w);
  const int64_t taps = geom.kernel * geom.kernel;
  const int64_t depth = oc * taps;
  const int64_t plane = h * w;
  ConvGeom corr;
  corr.in_channels = oc;
  corr.out_channels = cin;
  corr.kernel = geom.kernel;
  corr.stride = 1;
  corr.padding = geom.kernel - 1 - geom.padding;
  const int64_t block = std::min(Conv2dBlockSamples(corr, oh, ow), batch);

  ArenaScope scope;
  float* dy_cols = scope.AllocFloats(depth * block * plane);
  float* x2d = scope.AllocFloats(cin * block * plane);
  float* wg_t = scope.AllocFloats(depth * cin);
  FlipKernelGrad(weight_grad->data(), oc, cin, taps, /*to_flipped=*/true,
                 wg_t);
  float* w_flip = nullptr;
  float* dx2d = nullptr;
  if (grad_input != nullptr) {
    w_flip = scope.AllocFloats(cin * depth);
    FlipTransposeKernel(weight.data(), oc, cin, taps, w_flip);
    dx2d = scope.AllocFloats(cin * block * plane);
  }

  // Blocks run serially in batch order: dW accumulates across them.
  for (int64_t n0 = 0; n0 < batch; n0 += block) {
    const int64_t bn = std::min(block, batch - n0);
    const int64_t ncols = bn * plane;
    Im2Col(grad_out.data() + n0 * oc * oh * ow, bn, oc, oh, ow, corr,
           dy_cols);
    TransposeBlock(input.data() + n0 * cin * plane, bn, cin, plane,
                   /*to_nchw=*/false, x2d);
    GemmRaw(false, true, depth, cin, ncols, 1.0f, dy_cols, ncols, x2d, ncols,
            1.0f, wg_t, cin);
    if (grad_input != nullptr) {
      GemmRaw(false, false, cin, ncols, depth, 1.0f, w_flip, depth, dy_cols,
              ncols, 0.0f, dx2d, ncols);
      TransposeBlock(dx2d, bn, cin, plane, /*to_nchw=*/true,
                     grad_input->data() + n0 * cin * plane);
    }
  }
  FlipKernelGrad(wg_t, oc, cin, taps, /*to_flipped=*/false,
                 weight_grad->data());
}

// Any other geometry: dW from the input's cols, dX by Col2Im of
// dCols = Wᵀ · dY. A stride-2 correlation would need a dY that is 3/4
// zeros.
void Conv2dBackwardCol2Im(const Tensor& input, const Tensor& weight,
                          const Tensor& grad_out, const ConvGeom& geom,
                          Tensor* weight_grad, Tensor* grad_input) {
  const int64_t batch = input.shape().dim(0);
  const int64_t cin = input.shape().dim(1);
  const int64_t h = input.shape().dim(2);
  const int64_t w = input.shape().dim(3);
  const int64_t oc = geom.out_channels;
  const int64_t plane = geom.OutExtent(h) * geom.OutExtent(w);
  const int64_t cols_rows = cin * geom.kernel * geom.kernel;
  const int64_t block = std::min(Conv2dBlockSamples(geom, h, w), batch);

  ArenaScope scope;
  float* cols = scope.AllocFloats(cols_rows * block * plane);
  float* go2d = scope.AllocFloats(oc * block * plane);
  float* grad_cols = grad_input != nullptr
                         ? scope.AllocFloats(cols_rows * block * plane)
                         : nullptr;
  const float* w2d = weight.data();       // (OC, C*k*k)
  // dW accumulates transposed, (C*k*k, OC): the GEMM then reads cols where
  // they lie and packs only the OC-wide dY^T, instead of packing cols^T.
  // Every element sums the same products in the same order as dW += dY @
  // cols^T would, so the gradient is bit-identical.
  float* wg_t = scope.AllocFloats(cols_rows * oc);
  Transpose(weight_grad->data(), oc, cols_rows, wg_t);

  // Blocks run serially in batch order: dW accumulates across them.
  for (int64_t n0 = 0; n0 < batch; n0 += block) {
    const int64_t bn = std::min(block, batch - n0);
    const int64_t ncols = bn * plane;
    TransposeBlock(grad_out.data() + n0 * oc * plane, bn, oc, plane,
                   /*to_nchw=*/false, go2d);

    // dW^T += cols @ dY^T
    Im2Col(input.data() + n0 * cin * h * w, bn, cin, h, w, geom, cols);
    GemmRaw(false, true, cols_rows, oc, ncols, 1.0f, cols, ncols, go2d,
            ncols, 1.0f, wg_t, oc);

    if (grad_input != nullptr) {
      // dCols = W^T @ dY ; dX = col2im(dCols)
      GemmRaw(true, false, cols_rows, ncols, oc, 1.0f, w2d, cols_rows, go2d,
              ncols, 0.0f, grad_cols, ncols);
      Col2Im(grad_cols, bn, cin, h, w, geom,
             grad_input->data() + n0 * cin * h * w);
    }
  }
  Transpose(wg_t, cols_rows, oc, weight_grad->data());
}

}  // namespace

Tensor Conv2dBackward(const Tensor& input, const Tensor& weight,
                      const Tensor& grad_out, const ConvGeom& geom,
                      Tensor* weight_grad, Tensor* bias_grad,
                      bool input_grad) {
  const bool correlation =
      geom.stride == 1 && geom.padding <= geom.kernel - 1;
  Tensor grad_input;
  if (input_grad) {
    // The correlation writes every element; Col2Im accumulates into zeros.
    grad_input = correlation ? Tensor(input.shape())
                             : Tensor(input.shape(), 0.0f);
  }
  Tensor* dx = input_grad ? &grad_input : nullptr;
  if (correlation) {
    Conv2dBackwardStride1(input, weight, grad_out, geom, weight_grad, dx);
  } else {
    Conv2dBackwardCol2Im(input, weight, grad_out, geom, weight_grad, dx);
  }

  if (bias_grad != nullptr && !bias_grad->empty()) {
    const int64_t batch = input.shape().dim(0);
    const int64_t oc = geom.out_channels;
    const int64_t plane = grad_out.shape().dim(2) * grad_out.shape().dim(3);
    for (int64_t n = 0; n < batch; ++n) {
      for (int64_t c = 0; c < oc; ++c) {
        double acc = 0.0;
        const float* ochan = grad_out.data() + (n * oc + c) * plane;
        for (int64_t i = 0; i < plane; ++i) acc += ochan[i];
        bias_grad->data()[c] += static_cast<float>(acc);
      }
    }
  }
  return grad_input;
}

Tensor Conv1dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv1dGeom& geom) {
  EDDE_CHECK_EQ(input.shape().rank(), 3);
  const int64_t batch = input.shape().dim(0);
  const int64_t cin = input.shape().dim(1);
  const int64_t len = input.shape().dim(2);
  EDDE_CHECK_EQ(cin, geom.in_channels);
  const int64_t olen = geom.OutExtent(len);
  EDDE_CHECK_GT(olen, 0) << "conv1d output is empty";

  Tensor output(Shape{batch, geom.out_channels, olen});
  // Each (c, k) tap is an axpy over the valid output positions, which
  // vectorizes over t (the old layout reduced over the short c*k axis per
  // output element and could not). Samples are independent, so the batch
  // loop parallelizes; per-sample work stays serial and deterministic.
  const int64_t work =
      geom.out_channels * olen * (cin * geom.kernel + 1);
  ParallelFor(0, batch, RowGrain(work, 1 << 16), [&](int64_t n0, int64_t n1) {
    for (int64_t n = n0; n < n1; ++n) {
      const float* in = input.data() + n * cin * len;
      float* out = output.data() + n * geom.out_channels * olen;
      for (int64_t oc = 0; oc < geom.out_channels; ++oc) {
        const float* wrow = weight.data() + oc * cin * geom.kernel;
        float* orow = out + oc * olen;
        const float bv = bias.empty() ? 0.0f : bias.data()[oc];
#pragma omp simd
        for (int64_t t = 0; t < olen; ++t) orow[t] = bv;
        for (int64_t c = 0; c < cin; ++c) {
          const float* irow = in + c * len;
          const float* wk = wrow + c * geom.kernel;
          for (int64_t k = 0; k < geom.kernel; ++k) {
            const float wv = wk[k];
            // Valid t: 0 <= t*stride + off < len.
            const int64_t off = k - geom.padding;
            const int64_t t_lo =
                off >= 0 ? 0 : (-off + geom.stride - 1) / geom.stride;
            const int64_t t_hi = std::min(
                olen, off >= len ? int64_t{0}
                                 : (len - off + geom.stride - 1) / geom.stride);
            if (geom.stride == 1) {
              const float* src = irow + off;
#pragma omp simd
              for (int64_t t = t_lo; t < t_hi; ++t) orow[t] += wv * src[t];
            } else {
              for (int64_t t = t_lo; t < t_hi; ++t) {
                orow[t] += wv * irow[t * geom.stride + off];
              }
            }
          }
        }
      }
    }
  });
  return output;
}

Tensor Conv1dBackward(const Tensor& input, const Tensor& weight,
                      const Tensor& grad_out, const Conv1dGeom& geom,
                      Tensor* weight_grad, Tensor* bias_grad) {
  const int64_t batch = input.shape().dim(0);
  const int64_t cin = input.shape().dim(1);
  const int64_t len = input.shape().dim(2);
  const int64_t olen = geom.OutExtent(len);

  Tensor grad_input(input.shape(), 0.0f);
  for (int64_t n = 0; n < batch; ++n) {
    const float* in = input.data() + n * cin * len;
    float* gin = grad_input.data() + n * cin * len;
    const float* go = grad_out.data() + n * geom.out_channels * olen;
    for (int64_t oc = 0; oc < geom.out_channels; ++oc) {
      const float* wrow = weight.data() + oc * cin * geom.kernel;
      float* wgrow = weight_grad->data() + oc * cin * geom.kernel;
      const float* gorow = go + oc * olen;
      for (int64_t t = 0; t < olen; ++t) {
        const float g = gorow[t];
        if (g == 0.0f) continue;
        const int64_t start = t * geom.stride - geom.padding;
        for (int64_t c = 0; c < cin; ++c) {
          const float* irow = in + c * len;
          float* girow = gin + c * len;
          const float* wk = wrow + c * geom.kernel;
          float* wgk = wgrow + c * geom.kernel;
          for (int64_t k = 0; k < geom.kernel; ++k) {
            const int64_t pos = start + k;
            if (pos >= 0 && pos < len) {
              wgk[k] += g * irow[pos];
              girow[pos] += g * wk[k];
            }
          }
        }
      }
      if (bias_grad != nullptr && !bias_grad->empty()) {
        double acc = 0.0;
        for (int64_t t = 0; t < olen; ++t) acc += gorow[t];
        bias_grad->data()[oc] += static_cast<float>(acc);
      }
    }
  }
  return grad_input;
}

Tensor AvgPool2dForward(const Tensor& input, int64_t window) {
  EDDE_CHECK_EQ(input.shape().rank(), 4);
  const int64_t batch = input.shape().dim(0);
  const int64_t c = input.shape().dim(1);
  const int64_t h = input.shape().dim(2);
  const int64_t w = input.shape().dim(3);
  const int64_t oh = h / window;
  const int64_t ow = w / window;
  EDDE_CHECK_GT(oh, 0);
  EDDE_CHECK_GT(ow, 0);
  const float inv = 1.0f / static_cast<float>(window * window);
  Tensor output(Shape{batch, c, oh, ow});
  int64_t oi = 0;
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* img = input.data() + (n * c + ch) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x, ++oi) {
          double acc = 0.0;
          for (int64_t dy = 0; dy < window; ++dy) {
            for (int64_t dx = 0; dx < window; ++dx) {
              acc += img[(y * window + dy) * w + (x * window + dx)];
            }
          }
          output.data()[oi] = static_cast<float>(acc) * inv;
        }
      }
    }
  }
  return output;
}

Tensor AvgPool2dBackward(const Shape& input_shape, const Tensor& grad_out,
                         int64_t window) {
  const int64_t batch = input_shape.dim(0);
  const int64_t c = input_shape.dim(1);
  const int64_t h = input_shape.dim(2);
  const int64_t w = input_shape.dim(3);
  const int64_t oh = h / window;
  const int64_t ow = w / window;
  const float inv = 1.0f / static_cast<float>(window * window);
  Tensor grad_input(input_shape, 0.0f);
  int64_t oi = 0;
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t ch = 0; ch < c; ++ch) {
      float* img = grad_input.data() + (n * c + ch) * h * w;
      for (int64_t y = 0; y < oh; ++y) {
        for (int64_t x = 0; x < ow; ++x, ++oi) {
          const float g = grad_out.data()[oi] * inv;
          for (int64_t dy = 0; dy < window; ++dy) {
            for (int64_t dx = 0; dx < window; ++dx) {
              img[(y * window + dy) * w + (x * window + dx)] += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

Tensor GlobalAvgPool2dForward(const Tensor& input) {
  EDDE_CHECK_EQ(input.shape().rank(), 4);
  const int64_t batch = input.shape().dim(0);
  const int64_t c = input.shape().dim(1);
  const int64_t hw = input.shape().dim(2) * input.shape().dim(3);
  Tensor out(Shape{batch, c});
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* img = input.data() + (n * c + ch) * hw;
      double acc = 0.0;
      for (int64_t i = 0; i < hw; ++i) acc += img[i];
      out.data()[n * c + ch] = static_cast<float>(acc / hw);
    }
  }
  return out;
}

Tensor GlobalAvgPool2dBackward(const Shape& input_shape,
                               const Tensor& grad_out) {
  const int64_t batch = input_shape.dim(0);
  const int64_t c = input_shape.dim(1);
  const int64_t hw = input_shape.dim(2) * input_shape.dim(3);
  Tensor grad_input(input_shape);
  const float inv = 1.0f / static_cast<float>(hw);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.data()[n * c + ch] * inv;
      float* img = grad_input.data() + (n * c + ch) * hw;
      for (int64_t i = 0; i < hw; ++i) img[i] = g;
    }
  }
  return grad_input;
}

Tensor MaxOverTimeForward(const Tensor& input, std::vector<int64_t>* argmax) {
  EDDE_CHECK_EQ(input.shape().rank(), 3);
  const int64_t batch = input.shape().dim(0);
  const int64_t c = input.shape().dim(1);
  const int64_t len = input.shape().dim(2);
  Tensor out(Shape{batch, c});
  argmax->assign(static_cast<size_t>(batch * c), 0);
  for (int64_t n = 0; n < batch; ++n) {
    for (int64_t ch = 0; ch < c; ++ch) {
      const float* row = input.data() + (n * c + ch) * len;
      int64_t best = 0;
      for (int64_t t = 1; t < len; ++t) {
        if (row[t] > row[best]) best = t;
      }
      out.data()[n * c + ch] = row[best];
      (*argmax)[static_cast<size_t>(n * c + ch)] = (n * c + ch) * len + best;
    }
  }
  return out;
}

Tensor MaxOverTimeBackward(const Shape& input_shape, const Tensor& grad_out,
                           const std::vector<int64_t>& argmax) {
  Tensor grad_input(input_shape, 0.0f);
  const float* go = grad_out.data();
  for (size_t i = 0; i < argmax.size(); ++i) {
    grad_input.data()[argmax[i]] += go[i];
  }
  return grad_input;
}

Tensor ConcatChannels(const Tensor& a, const Tensor& b) {
  EDDE_CHECK_EQ(a.shape().rank(), 4);
  EDDE_CHECK_EQ(b.shape().rank(), 4);
  EDDE_CHECK_EQ(a.shape().dim(0), b.shape().dim(0));
  EDDE_CHECK_EQ(a.shape().dim(2), b.shape().dim(2));
  EDDE_CHECK_EQ(a.shape().dim(3), b.shape().dim(3));
  const int64_t batch = a.shape().dim(0);
  const int64_t ca = a.shape().dim(1);
  const int64_t cb = b.shape().dim(1);
  const int64_t hw = a.shape().dim(2) * a.shape().dim(3);
  Tensor out(Shape{batch, ca + cb, a.shape().dim(2), a.shape().dim(3)});
  for (int64_t n = 0; n < batch; ++n) {
    std::memcpy(out.data() + n * (ca + cb) * hw, a.data() + n * ca * hw,
                sizeof(float) * ca * hw);
    std::memcpy(out.data() + (n * (ca + cb) + ca) * hw,
                b.data() + n * cb * hw, sizeof(float) * cb * hw);
  }
  return out;
}

void SplitChannelsGrad(const Tensor& grad_out, int64_t channels_a,
                       Tensor* grad_a, Tensor* grad_b) {
  const int64_t batch = grad_out.shape().dim(0);
  const int64_t c = grad_out.shape().dim(1);
  const int64_t hw = grad_out.shape().dim(2) * grad_out.shape().dim(3);
  const int64_t cb = c - channels_a;
  *grad_a = Tensor(Shape{batch, channels_a, grad_out.shape().dim(2),
                         grad_out.shape().dim(3)});
  *grad_b = Tensor(
      Shape{batch, cb, grad_out.shape().dim(2), grad_out.shape().dim(3)});
  for (int64_t n = 0; n < batch; ++n) {
    std::memcpy(grad_a->data() + n * channels_a * hw,
                grad_out.data() + n * c * hw, sizeof(float) * channels_a * hw);
    std::memcpy(grad_b->data() + n * cb * hw,
                grad_out.data() + (n * c + channels_a) * hw,
                sizeof(float) * cb * hw);
  }
}

}  // namespace edde
