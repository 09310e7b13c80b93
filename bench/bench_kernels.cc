/// Kernel micro-benchmarks for the packed GEMM layer and the row kernels
/// behind it (DESIGN.md §10). Sweeps paper-relevant shapes — the 512³
/// acceptance shape, a dense-layer GEMM and a mid-size conv-like GEMM —
/// across every available kernel (portable SIMD, AVX2) and records GFLOP/s plus
/// the allocation audit (tensor allocs + arena slab growth at steady state
/// must both be zero) into BENCH_kernels.json. It also records the serving
/// path at its row counts (GemmRaw with and without a PackedB, and the
/// served MLP's packed eval), and prints the Conv2d layer's forward and
/// backward time per kernel tier at every conv shape of the tiny, small
/// and paper ResNet members.
///
/// CI diffs every headline against the committed baseline with a generous
/// threshold: `*.packed_gflops` (the best tier's GFLOP/s) catches a silent
/// fall-back from AVX2 to portable, which loses ~80% at 512³, and
/// `alloc.steady_state_zero` a hot loop that allocates again. The conv
/// timings are printed only.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "nn/conv2d.h"
#include "nn/mlp.h"
#include "nn/tape.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"
#include "utils/arena.h"
#include "utils/metrics.h"
#include "utils/trace.h"

namespace edde {
namespace bench {
namespace {

struct GemmShape {
  const char* name;  // headline prefix
  int64_t m, n, k;
};

/// Times `Gemm` for one kernel at one shape: one warm-up call (also grows
/// the scratch arena to its high-water mark), then a calibrated loop long
/// enough to clear bench_diff's noise floor.
double TimeGemmGflops(GemmKernel kernel, const GemmShape& shape,
                      double min_seconds, Rng* rng) {
  SetGemmKernel(kernel);
  Tensor a(Shape{shape.m, shape.k});
  Tensor b(Shape{shape.k, shape.n});
  Tensor c(Shape{shape.m, shape.n});
  a.FillUniform(rng, -1.0f, 1.0f);
  b.FillUniform(rng, -1.0f, 1.0f);

  Gemm(false, false, 1.0f, a, b, 0.0f, &c);  // warm-up
  Timer calibrate;
  Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  const double once = std::max(calibrate.Seconds(), 1e-6);
  const int reps =
      static_cast<int>(std::max(1.0, std::min(1000.0, min_seconds / once)));

  Timer timer;
  for (int r = 0; r < reps; ++r) {
    Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  }
  const double seconds = timer.Seconds() / reps;
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(shape.k);
  return flops / seconds / 1e9;
}

/// Steady-state allocation audit: after a warm-up pass, a batch of GEMM +
/// softmax calls must perform zero tensor allocations and zero arena slab
/// growth (the "allocate twice, never again" contract from DESIGN.md §10).
/// Returns 1.0 when the hot loop is allocation-free, 0.0 otherwise.
double SteadyStateZeroAlloc(Rng* rng) {
  Counter* const allocs = MetricsRegistry::Global().GetCounter("tensor.allocs");
  Counter* const alloc_bytes =
      MetricsRegistry::Global().GetCounter("tensor.alloc_bytes");
  ScratchArena& arena = ScratchArena::ForCurrentThread();

  const int64_t m = 96, n = 80, k = 128;
  Tensor a(Shape{m, k}), bt(Shape{n, k}), c(Shape{m, n});
  a.FillUniform(rng, -1.0f, 1.0f);
  bt.FillUniform(rng, -1.0f, 1.0f);

  auto hot_loop = [&] {
    for (int r = 0; r < 8; ++r) {
      // trans_b exercises the arena-backed packing path (the old kernel
      // materialized a transposed Tensor copy here).
      Gemm(false, true, 1.0f, a, bt, 0.0f, &c);
    }
  };
  hot_loop();  // warm-up: grows arena to high water
  hot_loop();  // second pass: consolidation (if any) happens here

  const int64_t allocs_before = allocs->Value();
  const int64_t bytes_before = alloc_bytes->Value();
  const int64_t slabs_before = arena.slab_allocs();
  hot_loop();
  const int64_t alloc_delta = allocs->Value() - allocs_before;
  const int64_t bytes_delta = alloc_bytes->Value() - bytes_before;
  const int64_t slab_delta = arena.slab_allocs() - slabs_before;

  std::printf("steady-state hot loop: %lld tensor allocs (%lld bytes), "
              "%lld arena slab allocs\n",
              static_cast<long long>(alloc_delta),
              static_cast<long long>(bytes_delta),
              static_cast<long long>(slab_delta));
  RecordHeadline("alloc.hot_loop_tensor_allocs",
                 static_cast<double>(alloc_delta));
  RecordHeadline("alloc.hot_loop_arena_slabs",
                 static_cast<double>(slab_delta));
  return (alloc_delta == 0 && bytes_delta == 0 && slab_delta == 0) ? 1.0
                                                                   : 0.0;
}

/// Median wall time of `call` in µs, over as many calls as fit `seconds`
/// (at least 3), after one warm-up call.
template <typename Call>
double MedianCallUs(double seconds, const Call& call) {
  call();
  std::vector<double> us;
  Timer total;
  while (us.size() < 3 || (total.Seconds() < seconds && us.size() < 2000)) {
    Timer one;
    call();
    us.push_back(one.Seconds() * 1e6);
  }
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  return us[us.size() / 2];
}

/// Prints the Conv2d layer's training forward and backward time per kernel
/// tier at every conv shape of the ResNet members (bench_common's tiny,
/// small and paper configs, batch 16): the stem, and per stage the first
/// conv, the second and the 1x1 projection. The stem computes no input
/// gradient. Printed only, not recorded as headlines.
void PrintConvTimings(const std::vector<GemmKernel>& kernels,
                      double seconds) {
  struct ModelScale {
    const char* name;
    int64_t image, width;
  };
  struct ConvShape {
    std::string name;
    int64_t in, out, kernel, stride, size;
  };
  const ModelScale scales[] = {{"tiny", 6, 4}, {"small", 10, 8},
                               {"paper", 32, 16}};
  const int64_t batch = 16;
  for (const ModelScale& scale : scales) {
    std::vector<ConvShape> shapes = {
        {"stem", 3, scale.width, 3, 1, scale.image}};
    int64_t size = scale.image, width = scale.width;
    for (int stage = 1; stage <= 3; ++stage) {
      const int64_t out = scale.width << (stage - 1);
      const int64_t stride = stage == 1 ? 1 : 2;
      const std::string s = "s" + std::to_string(stage);
      shapes.push_back({s + ".conv1", width, out, 3, stride, size});
      const int64_t next = (size - 1) / stride + 1;
      shapes.push_back({s + ".conv2", out, out, 3, 1, next});
      if (stride != 1) shapes.push_back({s + ".proj", width, out, 1, 2, size});
      size = next;
      width = out;
    }
    for (GemmKernel kernel : kernels) {
      SetGemmKernel(kernel);
      for (const ConvShape& shape : shapes) {
        Rng rng(7);
        Conv2d conv(shape.in, shape.out, shape.kernel, shape.stride,
                    shape.kernel / 2, /*use_bias=*/false, &rng);
        Tensor x(Shape{batch, shape.in, shape.size, shape.size});
        x.FillNormal(&rng, 0.0f, 1.0f);
        Tape tape;
        const bool stem = shape.name == "stem";
        auto forward = [&] {
          tape.Reset();
          if (stem) tape.MarkData(x);
          return conv.Forward(x, &tape);
        };
        Tensor dy(forward().shape());
        dy.FillNormal(&rng, 0.0f, 1.0f);
        const double fwd_us = MedianCallUs(seconds, forward);
        // Each backward needs its forward's tape; only the backward is timed.
        std::vector<double> bwd;
        Timer total;
        while (bwd.size() < 3 ||
               (total.Seconds() < 2 * seconds && bwd.size() < 2000)) {
          forward();
          Timer one;
          conv.Backward(dy, &tape);
          bwd.push_back(one.Seconds() * 1e6);
        }
        std::nth_element(bwd.begin(), bwd.begin() + bwd.size() / 2,
                         bwd.end());
        std::printf("conv2d %-5s %-9s %3lld->%-3lld k%lld s%lld %2lldx%-2lld "
                    "%-8s fwd %9.1f us  bwd %9.1f us\n",
                    scale.name, shape.name.c_str(),
                    static_cast<long long>(shape.in),
                    static_cast<long long>(shape.out),
                    static_cast<long long>(shape.kernel),
                    static_cast<long long>(shape.stride),
                    static_cast<long long>(shape.size),
                    static_cast<long long>(shape.size),
                    GemmKernelName(kernel), fwd_us, bwd[bwd.size() / 2]);
      }
    }
  }
  SetGemmKernel(GemmKernel::kAuto);
}

/// The serving path at its shapes, per kernel tier: GemmRaw at
/// bench_serve's first layer, x (m, 108) @ Wᵀ with W (48, 108), with W
/// packed on every call and with a PackedB built once; then the served
/// MLP, 108-48-10, packed for eval as an ensemble member is. m covers one
/// row, bench_serve's 3-row requests, one full 6-row tile and coalesced
/// batches. Each line records its effective GFLOP/s (2·m·n·k a product).
void PrintServedTimings(const std::vector<GemmKernel>& kernels,
                        double seconds, Rng* rng) {
  const int64_t n = 48, k = 108;
  Tensor w(Shape{n, k});
  w.FillUniform(rng, -1.0f, 1.0f);
  const PackedB packed(/*trans_b=*/true, k, n, w.data(), k);
  MlpConfig config;
  config.in_features = static_cast<int>(k);
  config.hidden = {static_cast<int>(n)};
  config.num_classes = 10;
  Mlp mlp(config, 5);
  mlp.PackForEval();
  const double mlp_flops_per_row = 2.0 * (k * n + n * 10);
  const auto report = [](const std::string& key, const char* what,
                         double us, double flops) {
    std::printf("%-28s %-26s %8.2f us  %6.2f GFLOP/s\n", key.c_str(), what,
                us, flops / us / 1e3);
    RecordHeadline(key + "_gflops", flops / us / 1e3);
  };
  for (GemmKernel kernel : kernels) {
    SetGemmKernel(kernel);
    const std::string tier = GemmKernelName(kernel);
    for (int64_t m : {1, 3, 6, 16, 64}) {
      Tensor x(Shape{m, k}), y(Shape{m, n});
      x.FillUniform(rng, -1.0f, 1.0f);
      const std::string shape = "served_m" + std::to_string(m) + "." + tier;
      const double flops = 2.0 * m * n * k;
      report(shape + "_unpacked", "GemmRaw Wᵀ packed per call",
             MedianCallUs(seconds, [&] {
               GemmRaw(false, true, m, n, k, 1.0f, x.data(), k, w.data(), k,
                       0.0f, y.data(), n);
             }),
             flops);
      report(shape + "_packed", "GemmRaw PackedB",
             MedianCallUs(seconds, [&] {
               GemmRaw(false, m, 1.0f, x.data(), k, packed, 0.0f, y.data(),
                       n);
             }),
             flops);
    }
    for (int64_t rows : {1, 3, 16, 64}) {
      Tensor x(Shape{rows, k});
      x.FillUniform(rng, -1.0f, 1.0f);
      report("served_mlp_rows" + std::to_string(rows) + "." + tier,
             "MLP 108-48-10 packed eval",
             MedianCallUs(seconds, [&] { mlp.Forward(x, nullptr); }),
             mlp_flops_per_row * rows);
    }
  }
  SetGemmKernel(GemmKernel::kAuto);
}

int Run(int argc, char** argv) {
  FlagParser flags;
  if (!InitExperiment(&flags, argc, argv)) return 0;
  const Scale scale = ParseScale(flags.GetString("scale"));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed"));
  PrintBanner("Kernels: packed GEMM + row-kernel micro-benchmarks",
              "not a paper experiment — measures the tensor kernel layer "
              "(DESIGN.md §10): GFLOP/s per kernel per shape, "
              "steady-state allocation audit",
              scale, seed);
  Rng rng(seed);

  const double min_seconds = scale == Scale::kTiny ? 0.15 : 0.6;

  // Paper-relevant shapes: the 512³ acceptance shape, a dense-layer GEMM
  // (batch x classes x hidden) and the GEMM an im2col unrolling of a 3×3
  // conv would run (out-channels x output-pixels x patch). No layer runs
  // that GEMM: Conv2d and Conv1d run the direct kernels, whose times
  // PrintConvTimings prints. The shape stays as a mid-size GEMM the
  // baseline tracks.
  const GemmShape shapes[] = {
      {"gemm512", 512, 512, 512},
      {"dense", 128, 10, 64},
      {"conv_im2col", 32, 1024, 288},
  };

  std::vector<GemmKernel> kernels = {GemmKernel::kPortable};
  if (gemm_internal::Avx2Available()) kernels.push_back(GemmKernel::kAvx2);

  for (const GemmShape& shape : shapes) {
    double best_packed = 0.0;
    for (GemmKernel kernel : kernels) {
      TraceScope ts(GetTraceRegion(
          (std::string("bench.") + shape.name + "." + GemmKernelName(kernel))
              .c_str()));
      const double gflops = TimeGemmGflops(kernel, shape, min_seconds, &rng);
      std::printf("%-12s %-8s m=%-4lld n=%-4lld k=%-4lld  %7.2f GFLOP/s\n",
                  shape.name, GemmKernelName(kernel),
                  static_cast<long long>(shape.m),
                  static_cast<long long>(shape.n),
                  static_cast<long long>(shape.k), gflops);
      RecordHeadline(std::string(shape.name) + "." + GemmKernelName(kernel) +
                         "_gflops",
                     gflops);
      best_packed = std::max(best_packed, gflops);
    }
    RecordHeadline(std::string(shape.name) + ".packed_gflops", best_packed);
  }

  PrintServedTimings(kernels, min_seconds / 4, &rng);
  PrintConvTimings(kernels, min_seconds / 4);

  const double zero_alloc = SteadyStateZeroAlloc(&rng);
  RecordHeadline("alloc.steady_state_zero", zero_alloc);
  RecordHeadline("arena.reserved_mb",
                 static_cast<double>(TotalArenaReservedBytes()) / (1 << 20));

  SetGemmKernel(GemmKernel::kAuto);
  FinishExperiment("kernels");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace edde

int main(int argc, char** argv) { return edde::bench::Run(argc, argv); }
