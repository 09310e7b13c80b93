#ifndef EDDE_TENSOR_OPS_H_
#define EDDE_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace edde {

// ---------------------------------------------------------------------------
// Dense linear algebra
// ---------------------------------------------------------------------------

/// C = alpha * op(A) @ op(B) + beta * C, with op controlled by the transpose
/// flags. A is (M, K) after op, B is (K, N) after op, C must be (M, N).
/// Packed, cache-blocked, SIMD row-major implementation (tensor/gemm.h).
void Gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c);

/// Gemm with a fused epilogue (bias broadcast and/or ReLU) applied to the
/// final C tiles, so layer forward passes skip the extra activation sweep.
void GemmEx(bool trans_a, bool trans_b, float alpha, const Tensor& a,
            const Tensor& b, float beta, Tensor* c,
            const GemmEpilogue& epilogue);

// ---------------------------------------------------------------------------
// Elementwise / BLAS-1
// ---------------------------------------------------------------------------

/// y += alpha * x (shapes must match).
void Axpy(float alpha, const Tensor& x, Tensor* y);

/// x *= alpha.
void Scale(float alpha, Tensor* x);

/// out = a + b (allocates).
Tensor Add(const Tensor& a, const Tensor& b);

/// Dot product of two equal-size tensors (flattened).
double Dot(const Tensor& a, const Tensor& b);

/// Squared L2 norm of the flattened tensor.
double SquaredNorm(const Tensor& x);

// ---------------------------------------------------------------------------
// Row-wise ops on (N, K) matrices
// ---------------------------------------------------------------------------

/// Numerically stabilized softmax of one row of `k` logits into `orow`.
/// Softmax() and the fused softmax+cross-entropy in nn/loss.cc both call
/// this, which is what keeps the loss's probs field bit-identical to
/// Softmax() output.
void SoftmaxRow(const float* row, int64_t k, float* orow);

/// Row-wise softmax of logits (N, K); numerically stabilized.
Tensor Softmax(const Tensor& logits);

/// Per-row argmax of an (N, K) matrix.
std::vector<int> ArgmaxRows(const Tensor& m);

/// Per-row L2 distance between two (N, K) matrices:
/// out[i] = ||a_i - b_i||_2. This is the distance inside the paper's
/// diversity measure (Eq. 2) and diversity loss (Eq. 10).
std::vector<float> RowL2Distance(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Convolution via im2col (NCHW layout)
// ---------------------------------------------------------------------------

/// Geometry of a 2-D convolution (square kernels).
struct ConvGeom {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 1;

  /// Output spatial extent for input extent `in`.
  int64_t OutExtent(int64_t in) const {
    return (in + 2 * padding - kernel) / stride + 1;
  }

  /// Output shape (N, OC, OH, OW) for an (N, C, H, W) input.
  Shape OutputShape(const Shape& input) const {
    return Shape{input.dim(0), out_channels, OutExtent(input.dim(2)),
                 OutExtent(input.dim(3))};
  }
};

/// Unrolls `batch` consecutive samples (N, C, H, W) into one column block
/// (C*k*k, N*OH*OW) for gemm-based convolution: sample s fills columns
/// [s*OH*OW, (s+1)*OH*OW). `cols` must be preallocated with that shape.
/// The samples are staged into zero-bordered (H+2p, W+2p) planes, one
/// memcpy per row, and every column entry is gathered through an int32
/// offset map with no bounds test; map and staging are arena scratch of
/// the call.
void Im2Col(const float* input, int64_t batch, int64_t channels,
            int64_t height, int64_t width, const ConvGeom& geom, float* cols);

/// Adjoint of Im2Col: accumulates a column block (C*k*k, N*OH*OW) back into
/// the N (C, H, W) images (zero `input_grad` first for a plain col2im).
/// Scatter-adds through Im2Col's offset map into a bordered copy of
/// `input_grad`; each pixel adds its (ky, kx, y, x) terms in that order,
/// exactly as an element-by-element loop would.
void Col2Im(const float* cols, int64_t batch, int64_t channels,
            int64_t height, int64_t width, const ConvGeom& geom,
            float* input_grad);

/// Samples per im2col block of the Conv2d kernels: as many as keep the
/// block's columns within 32 Ki floats, and at least one. A function of
/// the shapes only — never of the batch or the thread count — so the
/// blocking, and with it every result, is the same on any pool.
int64_t Conv2dBlockSamples(const ConvGeom& geom, int64_t height,
                           int64_t width);

/// Floats of the im2col columns Conv2dBackward reads for an (N, C, H, W)
/// `input`: every sample block's (C·k², bn·OH·OW) block, one after the
/// other. 0 for the stride-1 geometries, whose backward unrolls dY instead.
int64_t Conv2dBackwardColsFloats(const ConvGeom& geom, const Shape& input);

/// Forward 2-D convolution: input (N, C, H, W), weight (OC, C, k, k),
/// optional bias (OC) -> output (N, OC, OH, OW). Writes into `output` when
/// it is given (shape geom.OutputShape), else allocates it. A non-null
/// `cols` (Conv2dBackwardColsFloats floats) keeps the im2col columns there
/// for Conv2dBackward to reuse.
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& geom,
                     Tensor output = Tensor(), float* cols = nullptr);

/// Quantized forward 2-D convolution: same contract as Conv2dForward but
/// the kernel is a per-channel int8 matrix (OC rows of depth C·k²; see
/// tensor/quantize.h). Inference only — there is no int8 backward.
Tensor Conv2dForwardInt8(const Tensor& input, const QuantizedMatrix& weight,
                         const Tensor& bias, const ConvGeom& geom);

/// Backward 2-D convolution. Accumulates into weight_grad/bias_grad
/// (callers zero them at the start of each step) and writes the input
/// gradient into `grad_input` (input-shaped), or skips it when that is null
/// (the input is data, e.g. a network's stem); the parameter gradients are
/// the same either way. `cols`, when non-null, holds the forward's im2col
/// columns (Conv2dForward's `cols`), which are then not rebuilt. Stride-1
/// layers with padding ≤ k−1 take both gradients from
/// one im2col of dY per sample block: dX is the forward correlation of the
/// zero-bordered dY with the flipped, transposed kernel, and dW multiplies
/// the same dY columns by the block's input. Other geometries take dW from
/// the input's im2col and dX by Col2Im of Wᵀ·dY. Sample blocks run in a
/// fixed serial order, so the result is the same at any thread count.
void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_out, const ConvGeom& geom,
                    Tensor* weight_grad, Tensor* bias_grad,
                    Tensor* grad_input, const float* cols = nullptr);

// ---------------------------------------------------------------------------
// 1-D convolution over sequences (N, C, L), for TextCNN
// ---------------------------------------------------------------------------

/// Geometry of a 1-D convolution.
struct Conv1dGeom {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel = 3;
  int64_t stride = 1;
  int64_t padding = 0;

  int64_t OutExtent(int64_t in) const {
    return (in + 2 * padding - kernel) / stride + 1;
  }
};

/// Forward 1-D convolution: input (N, C, L), weight (OC, C, k), bias (OC)
/// -> output (N, OC, OL).
Tensor Conv1dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv1dGeom& geom);

/// Backward 1-D convolution; mirrors Conv2dBackward.
Tensor Conv1dBackward(const Tensor& input, const Tensor& weight,
                      const Tensor& grad_out, const Conv1dGeom& geom,
                      Tensor* weight_grad, Tensor* bias_grad);

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

/// Average pooling with window == stride: (N, C, H, W) ->
/// (N, C, H/window, W/window).
Tensor AvgPool2dForward(const Tensor& input, int64_t window);

/// Backward of AvgPool2dForward.
Tensor AvgPool2dBackward(const Shape& input_shape, const Tensor& grad_out,
                         int64_t window);

/// Spatial mean per channel: (N, C, H, W) -> (N, C), into `output` when
/// it is given.
Tensor GlobalAvgPool2dForward(const Tensor& input, Tensor output = Tensor());

/// Backward of global average pooling, into `grad_input` when it is given.
Tensor GlobalAvgPool2dBackward(const Shape& input_shape,
                               const Tensor& grad_out,
                               Tensor grad_input = Tensor());

/// Max over the sequence axis: (N, C, L) -> (N, C). This is TextCNN's
/// max-over-time pooling.
Tensor MaxOverTimeForward(const Tensor& input);

/// Backward of max-over-time pooling: each row's gradient goes to the first
/// position of its maximum in `input`, as the forward picked it.
Tensor MaxOverTimeBackward(const Tensor& input, const Tensor& grad_out);

// ---------------------------------------------------------------------------
// Misc
// ---------------------------------------------------------------------------

/// Concatenates 4-D tensors along the channel axis (axis 1).
Tensor ConcatChannels(const Tensor& a, const Tensor& b);

/// Splits the channel-axis gradient of ConcatChannels back into two parts.
void SplitChannelsGrad(const Tensor& grad_out, int64_t channels_a,
                       Tensor* grad_a, Tensor* grad_b);

}  // namespace edde

#endif  // EDDE_TENSOR_OPS_H_
