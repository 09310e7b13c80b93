#ifndef EDDE_TENSOR_CONV_DIRECT_H_
#define EDDE_TENSOR_CONV_DIRECT_H_

// Direct Conv2d kernels on batch-innermost planes (see DESIGN.md §10).
//
// Every operand is a stack of (H, W) planes whose innermost axis is the
// batch, padded to a multiple of kLanes: element (c, y, x, n) sits at
// ((c·H + y)·W + x)·lanes + n. One vector then holds one pixel of kLanes
// samples, so the forward and the input gradient are broadcast-weight FMAs
// over lane blocks with no im2col, and the weight gradient is a set of
// lane-parallel dot products.
//
// The loop nests are written once, as templates over an `Ops` policy that
// supplies the vector type and its Zero/Load/Bcast/Fma/Add/Store. tensor/
// ops.cc instantiates them with `#pragma omp simd` lane loops (the portable
// tier); kernels_avx2.cc, compiled with -mavx2 -mfma, instantiates
// them with AVX2 intrinsics. Each policy type lives in its .cc's anonymous
// namespace, so every instantiation has internal linkage and no code built
// for AVX2 can be picked by the linker for the baseline build. The packed
// GEMM (tensor/gemm.cc) runs the same register tile, DirectConv::GemmTile.
//
// Summation order. An output value is a fold of partial sums: each partial
// accumulates the steps of one block of kKC consecutive depth indices,
// starting from zero, and the blocks add into the output in depth order —
// exactly the packed GEMM's kKC blocks over Im2Col's columns, so the
// forward matches Im2Col + GemmRaw bit for bit on both tiers. Taps that
// fall on padding are skipped: their products are ±0, and adding ±0 to a
// sum that started at +0 (which can never become −0) changes no bit.

#include <cstdint>

#include "tensor/gemm.h"

namespace edde {
namespace conv_internal {

/// Samples per vector: the batch-innermost layout pads the batch to a
/// multiple of it.
constexpr int64_t kLanes = 8;
/// Output rows (channels) one register tile of the forward and input
/// gradient blocks over; packed weights are grouped by these row blocks.
/// The widest tile, kMaxRows × 2·kLanes, is also the packed GEMM's.
constexpr int64_t kMaxRows = 6;
/// Tile of the weight gradient: output channels × input channels.
constexpr int64_t kGradRows = 4;
constexpr int64_t kGradCols = 3;

/// One forward-shaped pass: out[r][o][n] = Σ_j W(r, j) · in[src(o, j)][n].
///
/// kGather (the forward, and the input gradient of a stride-1 conv with
/// padding p ≤ kh−1 and p ≤ kw−1, which is the forward correlation of dY
/// zero-bordered by kh−1−p rows and kw−1−p columns with the flipped,
/// transposed kernel): output pixel (oy, ox) and tap (ky, kx) read input
/// pixel (oy·s − pad_h + ky, ox·s − pad_w + kx); the depth index is
/// j = c·kh·kw + ky·kw + kx, channel-major. The valid steps of a pixel
/// depend only on its class — which taps fall inside the input — and come
/// from a table built once per pass, so the hot loop is one flat run of
/// steps with no bounds test.
///
/// kTransposed (the input gradient of every other geometry): output pixel
/// (iy, ix) of the input plane and tap (ky, kx) read dY pixel
/// ((iy + pad_h − ky)/s, (ix + pad_w − kx)/s) when both divide; the depth
/// index is j = (ky·kw + kx)·OC + oc, and each tap's sum over the dY
/// channels is folded into the output before the next tap — the order of
/// Col2Im accumulating the columns of Wᵀ·dY.
///
/// The output rows are cut into `row_blocks` register tiles of at most
/// kMaxRows rows: tile b holds rows [b·rows/row_blocks, (b+1)·rows/
/// row_blocks). `w` holds the weights packed by tile: the tile at row r0
/// with rs rows starts at w + r0·depth, and its element (r, j) is at
/// j·rs + r, so a step broadcasts rs contiguous floats.
struct DirectPass {
  enum class Kind { kGather, kTransposed };
  Kind kind = Kind::kGather;
  const float* in = nullptr;    ///< (in_ch, ih, iw, lanes)
  const float* w = nullptr;     ///< packed, see above
  const float* bias = nullptr;  ///< one per output row, or null
  float* out = nullptr;         ///< (out_rows, oh, ow, lanes)
  int64_t in_ch = 0, ih = 0, iw = 0;
  int64_t out_rows = 0, oh = 0, ow = 0;
  int64_t lanes = 0;
  int64_t kh = 1, kw = 1, stride = 1, pad_h = 0, pad_w = 0;
  int64_t row_blocks = 1;
  // kGather: pixel (oy, ox) is of class row_class[oy]·col_classes +
  // col_class[ox]. The steps of class q in depth block b (depth indices
  // [b·kKC, (b+1)·kKC)) are entries [step_begin[q·blocks + b],
  // step_begin[q·blocks + b + 1]), blocks = ⌈depth/kKC⌉; entry e reads the
  // input at the pixel's corner ((oy·s − pad_h)·iw + ox·s − pad_w)·lanes
  // plus step_offset[e], with the weights of depth index step_depth[e].
  const int64_t* row_class = nullptr;
  const int64_t* col_class = nullptr;
  int64_t col_classes = 0;
  const int64_t* step_begin = nullptr;
  const int64_t* step_offset = nullptr;
  const int64_t* step_depth = nullptr;
};

/// The weight gradient: wg[oc][c][ky][kx] += Σ_{oy,ox,n} dy[oc][oy][ox][n] ·
/// x[c][oy·s − p + ky][ox·s − p + kx][n]. Each kLanes-wide accumulator
/// sums its lane's products over the valid output pixels in row-major
/// order and the lane vectors of each pixel in order; the lanes are then
/// added left to right and the sum is added to wg.
struct WeightGradPass {
  const float* x = nullptr;   ///< (c, h, w, lanes)
  const float* dy = nullptr;  ///< (oc, oh, ow, lanes)
  float* wg = nullptr;        ///< (oc, c, kh, kw)
  int64_t c = 0, h = 0, w = 0;
  int64_t oc = 0, oh = 0, ow = 0;
  int64_t lanes = 0;
  int64_t kh = 1, kw = 1, stride = 1, padding = 0;
  /// Register tiles, cut as DirectPass cuts its rows: row_blocks over the
  /// output channels (at most kGradRows each), col_blocks over the input
  /// channels (at most kGradCols each).
  int64_t row_blocks = 1;
  int64_t col_blocks = 1;
};

/// A pass is split into independent items: a DirectPass item is one row
/// tile of one output row (item i: tile i / oh, row i % oh), a
/// WeightGradPass item one (output-channel tile, input-channel tile) over
/// all taps (item i: tiles i / col_blocks, i % col_blocks).
/// Every output element belongs to one item, so a pass split into item
/// ranges gives the same bits however the ranges fall.
///
/// Items [i0, i1) of a pass on the AVX2/FMA policy, compiled in
/// kernels_avx2.cc. Call only when gemm_internal::Avx2Available().
void DirectPassAvx2(const DirectPass& pass, int64_t i0, int64_t i1);
void WeightGradPassAvx2(const WeightGradPass& pass, int64_t i0, int64_t i1);

/// The packed GEMM's micro-kernel, DirectConv<Ops>::GemmTile, on the
/// portable policy (ops.cc) and on AVX2/FMA (kernels_avx2.cc; call only
/// when gemm_internal::Avx2Available()).
void GemmTilePortable(int64_t kc, const float* a, int64_t a_rs, int64_t a_ks,
                      const float* b, int64_t b_ks, float* acc);
void GemmTileAvx2(int64_t kc, const float* a, int64_t a_rs, int64_t a_ks,
                  const float* b, int64_t b_ks, float* acc);

/// NCHW (n, c, p) -> batch-innermost (c, p, lanes) with the lanes past n
/// zero, and back (the padded lanes dropped), on AVX2. Pure data movement:
/// the same bits as the portable loops in ops.cc.
void ToBatchInnermostAvx2(const float* src, int64_t n, int64_t c, int64_t p,
                          int64_t lanes, float* dst);
void FromBatchInnermostAvx2(const float* src, int64_t n, int64_t c,
                            int64_t p, int64_t lanes, float* dst);

template <class Ops>
struct DirectConv {
  using V = typename Ops::V;
  static constexpr int64_t L = kLanes;
  // Depth indices per partial sum (dY channels for kTransposed).
  static constexpr int64_t KC = gemm_internal::kKC;

  // A member, so that nothing in this header is an inline function shared
  // between the baseline and the AVX2 translation units.
  static int64_t Min(int64_t a, int64_t b) { return a < b ? a : b; }

  // acc[r][v] += w[r·w_rs] · x[v·L ..]: one depth step of an R×VV tile.
  // Always inlined, so that the tile's accumulators can live in registers.
  template <int R, int VV>
  [[gnu::always_inline]] static void Step(const float* w, int64_t w_rs,
                                          const float* x, V (&acc)[R][VV]) {
    V xv[VV];
#pragma GCC unroll 8
    for (int v = 0; v < VV; ++v) xv[v] = Ops::Load(x + v * L);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const V b = Ops::Bcast(w + r * w_rs);
#pragma GCC unroll 8
      for (int v = 0; v < VV; ++v) acc[r][v] = Ops::Fma(acc[r][v], b, xv[v]);
    }
  }

  template <int R, int VV>
  static void Zero(V (&acc)[R][VV]) {
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
      for (int v = 0; v < VV; ++v) acc[r][v] = Ops::Zero();
    }
  }

  // The packed GEMM's micro-kernel: acc = A·B over kc steps from zero, for
  // a kMaxRows × 2·L tile. Element (i, kk) of the A tile is
  // a[i·a_rs + kk·a_ks]; row kk of the B tile is the 2·L floats at
  // b + kk·b_ks. `acc` is row-major, 2·L floats a row.
  static void GemmTile(int64_t kc, const float* a, int64_t a_rs, int64_t a_ks,
                       const float* b, int64_t b_ks, float* acc) {
    V c[kMaxRows][2];
    Zero(c);
    // Advancing the pointers, rather than indexing by kk, lets the compiler
    // hold the row offsets 1..5·a_rs in registers: each broadcast is then
    // one base + index load, where indexing rebuilt rows 3 and 5 with two
    // extra instructions a step (~10% at 512³ on AVX2, where the step is
    // issue-bound).
    for (int64_t kk = 0; kk < kc; ++kk) {
      Step<kMaxRows, 2>(a, a_rs, b, c);
      a += a_ks;
      b += b_ks;
    }
#pragma GCC unroll 8
    for (int r = 0; r < kMaxRows; ++r) {
      Ops::Store(acc + 2 * r * L, c[r][0]);
      Ops::Store(acc + (2 * r + 1) * L, c[r][1]);
    }
  }

  // Rows [r0, r0 + R) × lanes [n0, n0 + VV·L) of output pixel (oy, ox).
  template <int R, int VV>
  static void GatherTile(const DirectPass& a, int64_t r0, int64_t oy,
                         int64_t ox, int64_t n0) {
    const int64_t depth = a.in_ch * a.kh * a.kw;
    const int64_t blocks = (depth + KC - 1) / KC;
    const int64_t out_plane = a.oh * a.ow * a.lanes;
    const int64_t corner =
        ((oy * a.stride - a.pad_h) * a.iw + ox * a.stride - a.pad_w) *
            a.lanes + n0;
    const int64_t* begin =
        a.step_begin + (a.row_class[oy] * a.col_classes + a.col_class[ox]) *
                           blocks;
    const float* wblk = a.w + r0 * depth;
    float* out = a.out + r0 * out_plane + (oy * a.ow + ox) * a.lanes + n0;
    for (int64_t b = 0; b < blocks; ++b) {
      V acc[R][VV];
      Zero(acc);
      for (int64_t e = begin[b]; e < begin[b + 1]; ++e) {
        Step<R, VV>(wblk + a.step_depth[e] * R, 1,
                    a.in + (corner + a.step_offset[e]), acc);
      }
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
        for (int v = 0; v < VV; ++v) {
          float* o = out + r * out_plane + v * L;
          Ops::Store(o, b == 0 ? acc[r][v] : Ops::Add(Ops::Load(o), acc[r][v]));
        }
      }
    }
    if (a.bias != nullptr) {
#pragma GCC unroll 8
      for (int r = 0; r < R; ++r) {
        const V bias = Ops::Bcast(a.bias + r0 + r);
#pragma GCC unroll 8
        for (int v = 0; v < VV; ++v) {
          float* o = out + r * out_plane + v * L;
          Ops::Store(o, Ops::Add(Ops::Load(o), bias));
        }
      }
    }
  }

  // Rows [r0, r0 + R) × lanes [n0, n0 + VV·L) of input-plane pixel (iy, ix).
  template <int R, int VV>
  static void TransposedTile(const DirectPass& a, int64_t r0, int64_t iy,
                             int64_t ix, int64_t n0) {
    const int64_t depth = a.kh * a.kw * a.in_ch;
    const int64_t in_plane = a.ih * a.iw * a.lanes;
    const int64_t out_plane = a.oh * a.ow * a.lanes;
    const float* wblk = a.w + r0 * depth;
    float* out = a.out + r0 * out_plane + (iy * a.ow + ix) * a.lanes + n0;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
      for (int v = 0; v < VV; ++v) Ops::Store(out + r * out_plane + v * L,
                                              Ops::Zero());
    }
    for (int64_t ky = 0; ky < a.kh; ++ky) {
      const int64_t ny = iy + a.pad_h - ky;
      if (ny < 0 || ny % a.stride != 0 || ny / a.stride >= a.ih) continue;
      for (int64_t kx = 0; kx < a.kw; ++kx) {
        const int64_t nx = ix + a.pad_w - kx;
        if (nx < 0 || nx % a.stride != 0 || nx / a.stride >= a.iw) continue;
        const float* x =
            a.in + ((ny / a.stride) * a.iw + nx / a.stride) * a.lanes + n0;
        const float* wt = wblk + (ky * a.kw + kx) * a.in_ch * R;
        // The tap's sum over the dY channels, in blocks of KC channels.
        V sum[R][VV];
        Zero(sum);
        for (int64_t oc = 0; oc < Min(a.in_ch, KC); ++oc) {
          Step<R, VV>(wt + oc * R, 1, x + oc * in_plane, sum);
        }
        for (int64_t o0 = KC; o0 < a.in_ch; o0 += KC) {
          V part[R][VV];
          Zero(part);
          for (int64_t oc = o0; oc < Min(a.in_ch, o0 + KC); ++oc) {
            Step<R, VV>(wt + oc * R, 1, x + oc * in_plane, part);
          }
#pragma GCC unroll 8
          for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
            for (int v = 0; v < VV; ++v) {
              sum[r][v] = Ops::Add(sum[r][v], part[r][v]);
            }
          }
        }
#pragma GCC unroll 8
        for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
          for (int v = 0; v < VV; ++v) {
            float* o = out + r * out_plane + v * L;
            Ops::Store(o, Ops::Add(Ops::Load(o), sum[r][v]));
          }
        }
      }
    }
  }

  template <int R, int VV>
  static void Tile(const DirectPass& a, int64_t r0, int64_t y, int64_t x,
                   int64_t n0) {
    if (a.kind == DirectPass::Kind::kGather) {
      GatherTile<R, VV>(a, r0, y, x, n0);
    } else {
      TransposedTile<R, VV>(a, r0, y, x, n0);
    }
  }

  template <int VV>
  static void TileRows(const DirectPass& a, int64_t r0, int64_t rows,
                       int64_t y, int64_t x, int64_t n0) {
    switch (rows) {
      case 1: return Tile<1, VV>(a, r0, y, x, n0);
      case 2: return Tile<2, VV>(a, r0, y, x, n0);
      case 3: return Tile<3, VV>(a, r0, y, x, n0);
      case 4: return Tile<4, VV>(a, r0, y, x, n0);
      case 5: return Tile<5, VV>(a, r0, y, x, n0);
      default: return Tile<6, VV>(a, r0, y, x, n0);
    }
  }

  static void RunItems(const DirectPass& a, int64_t i0, int64_t i1) {
    static_assert(kMaxRows == 6, "TileRows covers 1..6 rows");
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t tile = i / a.oh;
      const int64_t r0 = tile * a.out_rows / a.row_blocks;
      const int64_t rows = (tile + 1) * a.out_rows / a.row_blocks - r0;
      const int64_t y = i % a.oh;
      for (int64_t x = 0; x < a.ow; ++x) {
        int64_t n0 = 0;
        for (; n0 + 2 * L <= a.lanes; n0 += 2 * L) {
          TileRows<2>(a, r0, rows, y, x, n0);
        }
        if (n0 < a.lanes) TileRows<1>(a, r0, rows, y, x, n0);
      }
    }
  }

  // Output channels [oc0, oc0 + R) × input channels [c0, c0 + Q), tap t.
  template <int R, int Q>
  static void WeightGradTile(const WeightGradPass& a, int64_t oc0, int64_t c0,
                             int64_t t) {
    const int64_t ky = t / a.kw, kx = t % a.kw;
    // Output rows whose tap row lands inside the input:
    // 0 ≤ oy·s − p + ky < h, likewise for columns.
    const auto first = [&](int64_t off) {
      return off <= 0 ? int64_t{0} : (off + a.stride - 1) / a.stride;
    };
    const auto end = [&](int64_t extent, int64_t off, int64_t out) {
      const int64_t last = extent - 1 + off;  // oy·s ≤ last
      return last < 0 ? int64_t{0} : Min(out, last / a.stride + 1);
    };
    const int64_t oy_lo = first(a.padding - ky);
    const int64_t oy_hi = end(a.h, a.padding - ky, a.oh);
    const int64_t ox_lo = first(a.padding - kx);
    const int64_t ox_hi = end(a.w, a.padding - kx, a.ow);
    const int64_t x_plane = a.h * a.w * a.lanes;
    const int64_t dy_plane = a.oh * a.ow * a.lanes;
    V acc[R][Q];
    Zero(acc);
    for (int64_t oy = oy_lo; oy < oy_hi; ++oy) {
      const int64_t iy = oy * a.stride - a.padding + ky;
      for (int64_t ox = ox_lo; ox < ox_hi; ++ox) {
        const int64_t ix = ox * a.stride - a.padding + kx;
        const float* dy = a.dy + oc0 * dy_plane + (oy * a.ow + ox) * a.lanes;
        const float* x = a.x + c0 * x_plane + (iy * a.w + ix) * a.lanes;
        for (int64_t n = 0; n < a.lanes; n += L) {
          V xv[Q];
#pragma GCC unroll 8
          for (int q = 0; q < Q; ++q) xv[q] = Ops::Load(x + q * x_plane + n);
#pragma GCC unroll 8
          for (int r = 0; r < R; ++r) {
            const V d = Ops::Load(dy + r * dy_plane + n);
#pragma GCC unroll 8
            for (int q = 0; q < Q; ++q) {
              acc[r][q] = Ops::Fma(acc[r][q], d, xv[q]);
            }
          }
        }
      }
    }
    const int64_t kk = a.kh * a.kw;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
#pragma GCC unroll 8
      for (int q = 0; q < Q; ++q) {
        alignas(64) float lane[L];
        Ops::Store(lane, acc[r][q]);
        float sum = lane[0];
        for (int64_t l = 1; l < L; ++l) sum += lane[l];
        a.wg[((oc0 + r) * a.c + c0 + q) * kk + t] += sum;
      }
    }
  }

  template <int R>
  static void WeightGradCols(const WeightGradPass& a, int64_t oc0,
                             int64_t c0, int64_t cols, int64_t t) {
    switch (cols) {
      case 1: return WeightGradTile<R, 1>(a, oc0, c0, t);
      case 2: return WeightGradTile<R, 2>(a, oc0, c0, t);
      default: return WeightGradTile<R, 3>(a, oc0, c0, t);
    }
  }

  static void RunWeightGradItems(const WeightGradPass& a, int64_t i0,
                                 int64_t i1) {
    static_assert(kGradRows == 4 && kGradCols == 3,
                  "RunWeightGradItems covers 1..4 x 1..3 tiles");
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t rt = i / a.col_blocks, ct = i % a.col_blocks;
      const int64_t oc0 = rt * a.oc / a.row_blocks;
      const int64_t rows = (rt + 1) * a.oc / a.row_blocks - oc0;
      const int64_t c0 = ct * a.c / a.col_blocks;
      const int64_t cols = (ct + 1) * a.c / a.col_blocks - c0;
      for (int64_t t = 0; t < a.kh * a.kw; ++t) {
        switch (rows) {
          case 1: WeightGradCols<1>(a, oc0, c0, cols, t); break;
          case 2: WeightGradCols<2>(a, oc0, c0, cols, t); break;
          case 3: WeightGradCols<3>(a, oc0, c0, cols, t); break;
          default: WeightGradCols<4>(a, oc0, c0, cols, t); break;
        }
      }
    }
  }
};

}  // namespace conv_internal
}  // namespace edde

#endif  // EDDE_TENSOR_CONV_DIRECT_H_
