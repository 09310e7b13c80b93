#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/conv_direct.h"
#include "tensor/gemm.h"
#include "utils/arena.h"
#include "utils/logging.h"

namespace edde {

namespace {

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
  for (int64_t i = 0; i < n; ++i) {
    SoftmaxRow(logits.data() + i * k, k, out.data() + i * k);
  }
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
  for (int64_t i = 0; i < n; ++i) {
    const float* ra = a.data() + i * k;
    const float* rb = b.data() + i * k;
    double acc = 0.0;
    // Vector reassociation of the double sum is fine here: the value is
    // deterministic for a fixed binary, and no test compares it against a
    // serial reference.
#pragma omp simd reduction(+ : acc)
    for (int64_t j = 0; j < k; ++j) {
      const double d = static_cast<double>(ra[j]) - rb[j];
      acc += d * d;
    }
    out[static_cast<size_t>(i)] = static_cast<float>(std::sqrt(acc));
  }
  return out;
}

namespace {

using conv_internal::DirectConv;
using conv_internal::DirectPass;
using conv_internal::kLanes;
using conv_internal::WeightGradPass;
using gemm_internal::kKC;

// Portable policy of the direct Conv2d kernels and of the packed GEMM's
// register tile (tensor/conv_direct.h): a vector is kLanes floats and each
// operation one `#pragma omp simd` loop. Fma rounds the product and then
// the sum.
struct PortableOps {
  struct V {
    float f[kLanes];
  };
  static V Zero() {
    V r;
#pragma omp simd
    for (int64_t l = 0; l < kLanes; ++l) r.f[l] = 0.0f;
    return r;
  }
  static V Load(const float* p) {
    V r;
#pragma omp simd
    for (int64_t l = 0; l < kLanes; ++l) r.f[l] = p[l];
    return r;
  }
  static V Bcast(const float* p) {
    V r;
    const float s = *p;
#pragma omp simd
    for (int64_t l = 0; l < kLanes; ++l) r.f[l] = s;
    return r;
  }
  static V Fma(V acc, V a, V b) {
#pragma omp simd
    for (int64_t l = 0; l < kLanes; ++l) acc.f[l] += a.f[l] * b.f[l];
    return acc;
  }
  static V Add(V a, V b) {
#pragma omp simd
    for (int64_t l = 0; l < kLanes; ++l) a.f[l] += b.f[l];
    return a;
  }
  static void Store(float* p, V v) {
#pragma omp simd
    for (int64_t l = 0; l < kLanes; ++l) p[l] = v.f[l];
  }
};

int64_t Conv2dLanes(int64_t batch) {
  return (batch + kLanes - 1) / kLanes * kLanes;
}

// Register tiles over `rows` rows of at most `max_rows` each: as few as
// cover them. Their sizes differ by at most one (see DirectPass).
int64_t TileCount(int64_t rows, int64_t max_rows) {
  return std::max<int64_t>(1, (rows + max_rows - 1) / max_rows);
}

// NCHW (n, c, p) -> batch-innermost (c, p, lanes), the lanes past n zero.
// Runs of kLanes pixels keep the scattered stores within a few lines.
void ToBatchInnermost(const float* src, int64_t n, int64_t c, int64_t p,
                      int64_t lanes, float* dst, GemmKernel kernel) {
  if (kernel == GemmKernel::kAvx2) {
    return conv_internal::ToBatchInnermostAvx2(src, n, c, p, lanes, dst);
  }
  for (int64_t ch = 0; ch < c; ++ch) {
    float* plane = dst + ch * p * lanes;
    for (int64_t x0 = 0; x0 < p; x0 += kLanes) {
      const int64_t x1 = std::min(p, x0 + kLanes);
      for (int64_t i = 0; i < n; ++i) {
        const float* img = src + (i * c + ch) * p;
        for (int64_t x = x0; x < x1; ++x) plane[x * lanes + i] = img[x];
      }
      for (int64_t x = x0; x < x1; ++x) {
        for (int64_t i = n; i < lanes; ++i) plane[x * lanes + i] = 0.0f;
      }
    }
  }
}

// Batch-innermost (c, p, lanes) -> NCHW (n, c, p), the inverse of
// ToBatchInnermost: the padded lanes are dropped.
void FromBatchInnermost(const float* src, int64_t n, int64_t c, int64_t p,
                        int64_t lanes, float* dst, GemmKernel kernel) {
  if (kernel == GemmKernel::kAvx2) {
    return conv_internal::FromBatchInnermostAvx2(src, n, c, p, lanes, dst);
  }
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* plane = src + ch * p * lanes;
    for (int64_t x0 = 0; x0 < p; x0 += kLanes) {
      const int64_t x1 = std::min(p, x0 + kLanes);
      for (int64_t i = 0; i < n; ++i) {
        float* img = dst + (i * c + ch) * p;
        for (int64_t x = x0; x < x1; ++x) img[x] = plane[x * lanes + i];
      }
    }
  }
}

// Packs `rows` weight rows of `depth` values, value(r, j), into the
// register tiles a DirectPass broadcasts from.
template <typename Value>
void PackRows(int64_t rows, int64_t depth, int64_t tiles, const Value& value,
              float* dst) {
  for (int64_t tile = 0; tile < tiles; ++tile) {
    const int64_t r0 = tile * rows / tiles;
    const int64_t rs = (tile + 1) * rows / tiles - r0;
    float* block = dst + r0 * depth;
    for (int64_t j = 0; j < depth; ++j) {
      for (int64_t r = 0; r < rs; ++r) block[j * rs + r] = value(r0 + r, j);
    }
  }
}

// Sorts the outputs of one axis into classes by the taps [lo, hi) of its
// `kernel` that fall inside the input: cls[o] is the class of output o,
// and the classes' ranges are written to lo/hi in order of first
// appearance. Returns the number of classes.
int64_t ClassifyAxis(int64_t outs, int64_t in, int64_t kernel,
                     int64_t padding, int64_t stride, int64_t* cls,
                     int64_t* lo, int64_t* hi) {
  int64_t classes = 0;
  for (int64_t o = 0; o < outs; ++o) {
    const int64_t i0 = o * stride - padding;
    const int64_t l = std::max<int64_t>(0, -i0);
    const int64_t h = std::min(kernel, in - i0);
    int64_t q = 0;
    while (q < classes && (lo[q] != l || hi[q] != h)) ++q;
    if (q == classes) {
      lo[q] = l;
      hi[q] = h;
      ++classes;
    }
    cls[o] = q;
  }
  return classes;
}

// Fills the step tables of a kGather pass (DirectPass) from `scope`: per
// pixel class, its valid taps in depth order, cut at the kKC blocks.
void BuildGatherSteps(DirectPass* pass, ArenaScope* scope) {
  const auto ints = [scope](int64_t n) {
    return static_cast<int64_t*>(scope->Alloc(
        sizeof(int64_t) * static_cast<size_t>(std::max<int64_t>(n, 1))));
  };
  const int64_t kw = pass->kw, kk = pass->kh * kw, depth = pass->in_ch * kk;
  const int64_t blocks = (depth + kKC - 1) / kKC;
  int64_t* row_class = ints(pass->oh);
  int64_t* col_class = ints(pass->ow);
  int64_t* ky_lo = ints(pass->oh);
  int64_t* ky_hi = ints(pass->oh);
  int64_t* kx_lo = ints(pass->ow);
  int64_t* kx_hi = ints(pass->ow);
  const int64_t rows = ClassifyAxis(pass->oh, pass->ih, pass->kh, pass->pad_h,
                                    pass->stride, row_class, ky_lo, ky_hi);
  const int64_t cols = ClassifyAxis(pass->ow, pass->iw, kw, pass->pad_w,
                                    pass->stride, col_class, kx_lo, kx_hi);
  int64_t* begin = ints(rows * cols * blocks + 1);
  int64_t* offset = ints(rows * cols * depth);
  int64_t* depth_index = ints(rows * cols * depth);
  const int64_t in_plane = pass->ih * pass->iw * pass->lanes;
  int64_t e = 0;
  for (int64_t qy = 0; qy < rows; ++qy) {
    for (int64_t qx = 0; qx < cols; ++qx) {
      int64_t* class_begin = begin + (qy * cols + qx) * blocks;
      int64_t b = 0;
      for (int64_t c = 0; c < pass->in_ch; ++c) {
        for (int64_t ky = ky_lo[qy]; ky < ky_hi[qy]; ++ky) {
          for (int64_t kx = kx_lo[qx]; kx < kx_hi[qx]; ++kx) {
            const int64_t j = c * kk + ky * kw + kx;
            while (b <= j / kKC) class_begin[b++] = e;
            offset[e] = c * in_plane + (ky * pass->iw + kx) * pass->lanes;
            depth_index[e] = j;
            ++e;
          }
        }
      }
      while (b < blocks) class_begin[b++] = e;
    }
  }
  begin[rows * cols * blocks] = e;
  pass->row_class = row_class;
  pass->col_class = col_class;
  pass->col_classes = cols;
  pass->step_begin = begin;
  pass->step_offset = offset;
  pass->step_depth = depth_index;
}

void RunDirectPass(DirectPass pass, GemmKernel kernel) {
  ArenaScope scope;
  if (pass.kind == DirectPass::Kind::kGather) BuildGatherSteps(&pass, &scope);
  if (kernel == GemmKernel::kAvx2) {
    conv_internal::DirectPassAvx2(pass);
  } else {
    DirectConv<PortableOps>::Run(pass);
  }
}

void RunWeightGradPass(const WeightGradPass& pass, GemmKernel kernel) {
  if (kernel == GemmKernel::kAvx2) {
    conv_internal::WeightGradPassAvx2(pass);
  } else {
    DirectConv<PortableOps>::RunWeightGrad(pass);
  }
}

// The batch-innermost copy of `input`: `kept` when it is given
// (filled here), else arena scratch of `scope`.
const float* BatchInnermostInput(const Tensor& input, Tensor kept,
                                 GemmKernel kernel, ArenaScope* scope) {
  const Shape shape = Conv2dInputCopyShape(input.shape());
  float* dst = kept.data();
  if (kept.empty()) {
    dst = scope->AllocFloats(shape.num_elements());
  } else {
    EDDE_CHECK(kept.shape() == shape);
  }
  const Shape& in = input.shape();
  ToBatchInnermost(input.data(), in.dim(0), in.dim(1), in.dim(2) * in.dim(3),
                   shape.dim(3), dst, kernel);
  return dst;
}

}  // namespace

void conv_internal::GemmTilePortable(int64_t rows, int64_t panels,
                                     int64_t kc, const float* a, int64_t a_rs,
                                     int64_t a_ks, const float* b,
                                     int64_t b_ks, int64_t b_ps, float* acc) {
  DirectConv<PortableOps>::GemmTiles(rows, panels, kc, a, a_rs, a_ks, b, b_ks,
                                     b_ps, acc);
}

Shape Conv2dInputCopyShape(const Shape& input) {
  EDDE_CHECK_EQ(input.rank(), 4);
  return Shape{input.dim(1), input.dim(2), input.dim(3),
               Conv2dLanes(input.dim(0))};
}

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const ConvGeom& geom, Tensor output,
                     Tensor input_t) {
  EDDE_CHECK_EQ(input.shape().rank(), 4);
  EDDE_CHECK_EQ(input.shape().dim(1), geom.in_channels);
  EDDE_CHECK_EQ(weight.shape().dim(0), geom.out_channels);
  EDDE_CHECK_GT(geom.OutHeight(input.shape().dim(2)), 0)
      << "conv output is empty";
  EDDE_CHECK_GT(geom.OutWidth(input.shape().dim(3)), 0)
      << "conv output is empty";
  const Shape out_shape = geom.OutputShape(input.shape());
  if (output.empty()) {
    output = Tensor(out_shape);
  } else {
    EDDE_CHECK(output.shape() == out_shape);
  }
  const GemmKernel kernel = ActiveGemmKernel();
  ArenaScope scope;
  DirectPass pass;
  pass.in = BatchInnermostInput(input, input_t, kernel, &scope);
  pass.in_ch = geom.in_channels;
  pass.ih = input.shape().dim(2);
  pass.iw = input.shape().dim(3);
  pass.out_rows = geom.out_channels;
  pass.oh = out_shape.dim(2);
  pass.ow = out_shape.dim(3);
  pass.lanes = Conv2dLanes(input.shape().dim(0));
  pass.kh = geom.kernel_h;
  pass.kw = geom.kernel_w;
  pass.stride = geom.stride;
  pass.pad_h = geom.padding;
  pass.pad_w = geom.padding;
  pass.row_blocks = TileCount(pass.out_rows, conv_internal::kMaxRows);
  pass.bias = bias.empty() ? nullptr : bias.data();
  const int64_t depth = geom.in_channels * geom.kernel_h * geom.kernel_w;
  float* packed = scope.AllocFloats(pass.out_rows * depth);
  PackRows(pass.out_rows, depth, pass.row_blocks,
           [&](int64_t r, int64_t j) { return weight.data()[r * depth + j]; },
           packed);
  pass.w = packed;
  float* out_t = scope.AllocFloats(pass.out_rows * pass.oh * pass.ow *
                                   pass.lanes);
  pass.out = out_t;
  RunDirectPass(pass, kernel);
  FromBatchInnermost(out_t, out_shape.dim(0), pass.out_rows,
                     pass.oh * pass.ow, pass.lanes, output.data(), kernel);
  return output;
}

void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_out, const ConvGeom& geom,
                    Tensor* weight_grad, Tensor* bias_grad,
                    Tensor* grad_input, const Tensor& input_t) {
  EDDE_CHECK_EQ(input.shape().rank(), 4);
  const int64_t batch = input.shape().dim(0);
  const int64_t cin = geom.in_channels;
  const int64_t oc = geom.out_channels;
  const int64_t kh = geom.kernel_h, kw = geom.kernel_w, kk = kh * kw;
  const Shape out_shape = geom.OutputShape(input.shape());
  const int64_t oh = out_shape.dim(2);
  const int64_t ow = out_shape.dim(3);
  EDDE_CHECK(grad_out.shape() == out_shape);
  if (grad_input != nullptr) {
    EDDE_CHECK(grad_input->shape() == input.shape());
  }
  const int64_t ih = input.shape().dim(2);
  const int64_t iw = input.shape().dim(3);
  const GemmKernel kernel = ActiveGemmKernel();
  const int64_t lanes = Conv2dLanes(batch);
  ArenaScope scope;
  float* dy_t = scope.AllocFloats(oc * oh * ow * lanes);
  ToBatchInnermost(grad_out.data(), batch, oc, oh * ow, lanes, dy_t, kernel);

  WeightGradPass wg;
  wg.x = input_t.empty()
             ? BatchInnermostInput(input, Tensor(), kernel, &scope)
             : input_t.data();
  if (!input_t.empty()) {
    EDDE_CHECK(input_t.shape() == Conv2dInputCopyShape(input.shape()));
  }
  wg.dy = dy_t;
  wg.wg = weight_grad->data();
  wg.c = cin;
  wg.h = ih;
  wg.w = iw;
  wg.oc = oc;
  wg.oh = oh;
  wg.ow = ow;
  wg.lanes = lanes;
  wg.kh = kh;
  wg.kw = kw;
  wg.stride = geom.stride;
  wg.padding = geom.padding;
  wg.row_blocks = TileCount(oc, conv_internal::kGradRows);
  wg.col_blocks = TileCount(cin, conv_internal::kGradCols);
  RunWeightGradPass(wg, kernel);

  if (grad_input != nullptr) {
    // dX sums as the GEMM tier would over im2col columns. A stride-1 conv
    // with p ≤ kh−1 and p ≤ kw−1 sums it as the forward correlation of dY,
    // zero-bordered by kh−1−p rows and kw−1−p columns, with the flipped,
    // transposed kernel (depth oc·kh·kw + tap, channel-major; flipping a
    // kh × kw kernel reverses its taps); any other geometry as Col2Im of
    // Wᵀ·dY, tap by tap, each tap's sum over the OC channels folded in.
    DirectPass pass;
    pass.in = dy_t;
    pass.in_ch = oc;
    pass.ih = oh;
    pass.iw = ow;
    pass.out_rows = cin;
    pass.oh = ih;
    pass.ow = iw;
    pass.lanes = lanes;
    pass.kh = kh;
    pass.kw = kw;
    pass.stride = geom.stride;
    pass.row_blocks = TileCount(cin, conv_internal::kMaxRows);
    const int64_t depth = oc * kk;
    float* packed = scope.AllocFloats(cin * depth);
    const float* wd = weight.data();
    if (geom.stride == 1 && geom.padding <= std::min(kh, kw) - 1) {
      pass.kind = DirectPass::Kind::kGather;
      pass.pad_h = kh - 1 - geom.padding;
      pass.pad_w = kw - 1 - geom.padding;
      PackRows(cin, depth, pass.row_blocks,
               [&](int64_t c, int64_t j) {
                 return wd[(j / kk * cin + c) * kk + kk - 1 - j % kk];
               },
               packed);
    } else {
      pass.kind = DirectPass::Kind::kTransposed;
      pass.pad_h = geom.padding;
      pass.pad_w = geom.padding;
      PackRows(cin, depth, pass.row_blocks,
               [&](int64_t c, int64_t j) {
                 return wd[(j % oc * cin + c) * kk + j / oc];
               },
               packed);
    }
    pass.w = packed;
    float* dx_t = scope.AllocFloats(cin * ih * iw * lanes);
    pass.out = dx_t;
    RunDirectPass(pass, kernel);
    FromBatchInnermost(dx_t, batch, cin, ih * iw, lanes, grad_input->data(),
                       kernel);
  }

  if (bias_grad != nullptr && !bias_grad->empty()) {
    const int64_t plane = oh * ow;
    for (int64_t n = 0; n < batch; ++n) {
      for (int64_t c = 0; c < oc; ++c) {
        double acc = 0.0;
        const float* ochan = grad_out.data() + (n * oc + c) * plane;
        for (int64_t i = 0; i < plane; ++i) acc += ochan[i];
        bias_grad->data()[c] += static_cast<float>(acc);
      }
    }
  }
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

Tensor GlobalAvgPool2dForward(const Tensor& input, Tensor out) {
  EDDE_CHECK_EQ(input.shape().rank(), 4);
  const int64_t batch = input.shape().dim(0);
  const int64_t c = input.shape().dim(1);
  const int64_t hw = input.shape().dim(2) * input.shape().dim(3);
  if (out.empty()) out = Tensor(Shape{batch, c});
  EDDE_CHECK(out.shape() == Shape({batch, c}));
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
                               const Tensor& grad_out, Tensor grad_input) {
  const int64_t batch = input_shape.dim(0);
  const int64_t c = input_shape.dim(1);
  const int64_t hw = input_shape.dim(2) * input_shape.dim(3);
  if (grad_input.empty()) grad_input = Tensor(input_shape);
  EDDE_CHECK(grad_input.shape() == input_shape);
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

namespace {

// Position of the first maximum of `row`.
int64_t ArgmaxOverTime(const float* row, int64_t len) {
  int64_t best = 0;
  for (int64_t t = 1; t < len; ++t) {
    if (row[t] > row[best]) best = t;
  }
  return best;
}

}  // namespace

Tensor MaxOverTimeForward(const Tensor& input, Tensor out) {
  EDDE_CHECK_EQ(input.shape().rank(), 3);
  const int64_t rows = input.shape().dim(0) * input.shape().dim(1);
  const int64_t len = input.shape().dim(2);
  EDDE_CHECK_GT(len, 0) << "max over an empty sequence";
  const Shape out_shape{input.shape().dim(0), input.shape().dim(1)};
  if (out.empty()) out = Tensor(out_shape);
  EDDE_CHECK(out.shape() == out_shape);
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = input.data() + r * len;
    out.data()[r] = row[ArgmaxOverTime(row, len)];
  }
  return out;
}

Tensor MaxOverTimeBackward(const Tensor& input, const Tensor& grad_out,
                           Tensor grad_input) {
  const int64_t rows = input.shape().dim(0) * input.shape().dim(1);
  const int64_t len = input.shape().dim(2);
  EDDE_CHECK_GT(len, 0) << "max over an empty sequence";
  EDDE_CHECK_EQ(grad_out.num_elements(), rows);
  if (grad_input.empty()) grad_input = Tensor(input.shape());
  EDDE_CHECK(grad_input.shape() == input.shape());
  grad_input.Fill(0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    grad_input.data()[r * len + ArgmaxOverTime(input.data() + r * len, len)] +=
        grad_out.data()[r];
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
