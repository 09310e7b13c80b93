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
/// The optional epilogue (bias broadcast and/or ReLU) is fused into the
/// final C tiles, so layer forward passes skip an extra activation sweep.
void Gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor* c,
          const GemmEpilogue& epilogue = GemmEpilogue());

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
// 2-D convolution (NCHW layout)
// ---------------------------------------------------------------------------

/// Geometry of a 2-D convolution with a kernel_h × kernel_w kernel; the
/// stride and the padding are the same on both axes. Conv1d runs as a
/// height-1 plane under a 1 × k kernel.
struct ConvGeom {
  int64_t in_channels = 0;
  int64_t out_channels = 0;
  int64_t kernel_h = 3;
  int64_t kernel_w = 3;
  int64_t stride = 1;
  int64_t padding = 1;

  /// Output extents for an input of height `h` and width `w`.
  int64_t OutHeight(int64_t h) const {
    return (h + 2 * padding - kernel_h) / stride + 1;
  }
  int64_t OutWidth(int64_t w) const {
    return (w + 2 * padding - kernel_w) / stride + 1;
  }

  /// Output shape (N, OC, OH, OW) for an (N, C, H, W) input.
  Shape OutputShape(const Shape& input) const {
    return Shape{input.dim(0), out_channels, OutHeight(input.dim(2)),
                 OutWidth(input.dim(3))};
  }
};

/// Unrolls `batch` consecutive samples (N, C, H, W) into one column block
/// (C·kh·kw, N·OH·OW) for gemm-based convolution: sample s fills columns
/// [s*OH*OW, (s+1)*OH*OW). `cols` must be preallocated with that shape.
/// The samples are staged into zero-bordered (H+2p, W+2p) planes, one
/// memcpy per row, and every column entry is gathered through an int32
/// offset map with no bounds test; map and staging are arena scratch of
/// the call. Only the int8 forward runs on it.
void Im2Col(const float* input, int64_t batch, int64_t channels,
            int64_t height, int64_t width, const ConvGeom& geom, float* cols);

/// Samples per im2col block of the int8 forward: as many as keep the
/// block's columns within 32 Ki floats, and at least one. A function of
/// the shapes only — never of the batch or the thread count — so the
/// blocking, and with it every result, is the same on any pool.
int64_t Conv2dBlockSamples(const ConvGeom& geom, int64_t height,
                           int64_t width);

/// Shape (C, H', W', N') of the batch-innermost copy of an (N, C, H, W)
/// input that the fp32 Conv2d kernels run on: the batch is the innermost
/// axis, padded with zero samples to N', a multiple of the kernels' 8
/// vector lanes.
Shape Conv2dInputCopyShape(const Shape& input);

/// Forward 2-D convolution: input (N, C, H, W), weight (OC, C, kh, kw),
/// optional bias (OC) -> output (N, OC, OH, OW); both output extents must
/// be positive. Writes into `output` when it is given (shape
/// geom.OutputShape), else allocates it. A non-empty
/// `input_t` (shape Conv2dInputCopyShape) receives the batch-innermost copy
/// of the input, for Conv2dBackward to read.
///
/// Direct kernels on the batch-innermost copy (tensor/conv_direct.h) for
/// every kernel size, picked by the GEMM kernel tier. Each output sums its
/// C·kh·kw products in im2col depth order, in blocks of the packed GEMM's kKC
/// depth steps, then adds the bias: bit for bit what Im2Col + GemmRaw
/// computes on that tier. The result does not depend on the batch size or
/// the thread count.
Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& geom,
                     Tensor output = Tensor(), Tensor input_t = Tensor());

/// Quantized forward 2-D convolution: same contract as Conv2dForward but
/// the kernel is a per-channel int8 matrix (OC rows of depth C·kh·kw; see
/// tensor/quantize.h), run as Im2Col + GemmInt8. Inference only — there
/// is no int8 backward.
Tensor Conv2dForwardInt8(const Tensor& input, const QuantizedMatrix& weight,
                         const Tensor& bias, const ConvGeom& geom);

/// Backward 2-D convolution. Accumulates into weight_grad/bias_grad
/// (callers zero them at the start of each step) and writes the input
/// gradient into `grad_input` (input-shaped), or skips it when that is null
/// (the input is data, e.g. a network's stem); the parameter gradients are
/// the same either way. `input_t`, when non-empty, is the forward's
/// batch-innermost copy of `input`, which is then not rebuilt.
///
/// dW is a set of lane-parallel sums over the output pixels, each folded
/// across its lanes in a fixed order. dX sums bit for bit as the GEMM
/// tier would over im2col columns: for stride 1 with p ≤ kh−1 and
/// p ≤ kw−1 as the forward correlation of dY with the flipped kernel,
/// otherwise as Col2Im of Wᵀ·dY, tap by tap. The result does not depend
/// on the thread count.
void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_out, const ConvGeom& geom,
                    Tensor* weight_grad, Tensor* bias_grad,
                    Tensor* grad_input, const Tensor& input_t = Tensor());

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

/// Max over the sequence axis: (N, C, L) -> (N, C), L > 0. This is
/// TextCNN's max-over-time pooling.
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
