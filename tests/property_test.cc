/// Property-style invariant sweeps across the numeric substrate, using
/// parameterized gtest suites: softmax invariances, convolution linearity,
/// loss-gradient invariants, boosting-weight invariants, transfer-fraction
/// monotonicity over architectures.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/knowledge_transfer.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/resnet.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace edde {
namespace {

Tensor RandomTensor(Shape shape, uint64_t seed, float stddev = 1.0f) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  t.FillNormal(&rng, 0.0f, stddev);
  return t;
}

// ---------------------------------------------------------------------------
// Softmax invariances over sizes
// ---------------------------------------------------------------------------

class SoftmaxPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SoftmaxPropertyTest, ShiftInvariant) {
  const auto [n, k] = GetParam();
  Tensor logits = RandomTensor(Shape{n, k}, 11 + n * k, 2.0f);
  Tensor shifted = logits.Clone();
  shifted.Apply([](float v) { return v + 123.5f; });
  Tensor p1 = Softmax(logits);
  Tensor p2 = Softmax(shifted);
  for (int64_t i = 0; i < p1.num_elements(); ++i) {
    EXPECT_NEAR(p1.at(i), p2.at(i), 1e-5);
  }
}

TEST_P(SoftmaxPropertyTest, PreservesArgmax) {
  const auto [n, k] = GetParam();
  Tensor logits = RandomTensor(Shape{n, k}, 13 + n + k, 3.0f);
  EXPECT_EQ(ArgmaxRows(logits), ArgmaxRows(Softmax(logits)));
}

TEST_P(SoftmaxPropertyTest, MonotoneInLogit) {
  const auto [n, k] = GetParam();
  Tensor logits = RandomTensor(Shape{n, k}, 17 + n + k);
  Tensor p_before = Softmax(logits);
  logits.at(0) += 1.0f;  // bump one logit
  Tensor p_after = Softmax(logits);
  EXPECT_GT(p_after.at(0), p_before.at(0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SoftmaxPropertyTest,
                         ::testing::Combine(::testing::Values(1, 4, 32),
                                            ::testing::Values(2, 10, 50)));

// ---------------------------------------------------------------------------
// Convolution linearity & gradient over geometries
// ---------------------------------------------------------------------------

class ConvPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ConvPropertyTest, ForwardIsLinearInInput) {
  const auto [kernel, stride, padding] = GetParam();
  if (kernel + 2 * padding > 6 + 2 * padding) return;
  ConvGeom g;
  g.in_channels = 2;
  g.out_channels = 3;
  g.kernel_h = kernel;
  g.kernel_w = kernel;
  g.stride = stride;
  g.padding = padding;
  if (g.OutHeight(6) <= 0) GTEST_SKIP();
  Tensor w = RandomTensor(Shape{3, 2, kernel, kernel}, 19);
  Tensor bias;  // no bias: strict linearity
  Tensor x1 = RandomTensor(Shape{2, 2, 6, 6}, 23);
  Tensor x2 = RandomTensor(Shape{2, 2, 6, 6}, 29);
  Tensor lhs = Conv2dForward(Add(x1, x2), w, bias, g);
  Tensor rhs = Add(Conv2dForward(x1, w, bias, g),
                   Conv2dForward(x2, w, bias, g));
  for (int64_t i = 0; i < lhs.num_elements(); ++i) {
    EXPECT_NEAR(lhs.at(i), rhs.at(i), 1e-3);
  }
}

TEST_P(ConvPropertyTest, LayerGradientsMatchFiniteDifferences) {
  const auto [kernel, stride, padding] = GetParam();
  ConvGeom probe;
  probe.kernel_h = kernel;
  probe.kernel_w = kernel;
  probe.stride = stride;
  probe.padding = padding;
  if (probe.OutHeight(6) <= 0) GTEST_SKIP();
  Rng rng(31);
  Conv2d layer(2, 2, kernel, stride, padding, /*use_bias=*/true, &rng);
  const auto result = testing::CheckModuleGradients(
      &layer, RandomTensor(Shape{2, 2, 6, 6}, 37), /*training=*/true, &rng);
  // Breadth sweep: slightly looser bound than the per-layer tests — large
  // kernels accumulate more float32 noise in the central differences.
  EXPECT_LT(result.max_rel_error, 0.05)
      << "k=" << kernel << " s=" << stride << " p=" << padding;
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvPropertyTest,
                         ::testing::Combine(::testing::Values(1, 3, 5),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(0, 1, 2)));

// ---------------------------------------------------------------------------
// Loss invariants over class counts
// ---------------------------------------------------------------------------

class LossPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LossPropertyTest, GradientRowsSumToZeroForPlainCE) {
  // Softmax-CE logit gradients sum to 0 per row: Σ_c (p_c − y_c) = 0.
  const int k = GetParam();
  Tensor logits = RandomTensor(Shape{5, k}, 41 + k, 2.0f);
  std::vector<int> labels(5);
  for (int i = 0; i < 5; ++i) labels[static_cast<size_t>(i)] = i % k;
  LossResult r = SoftmaxCrossEntropyLoss(logits, labels);
  for (int64_t i = 0; i < 5; ++i) {
    double row = 0.0;
    for (int64_t c = 0; c < k; ++c) row += r.grad_logits.at(i, c);
    EXPECT_NEAR(row, 0.0, 1e-6);
  }
}

TEST_P(LossPropertyTest, DiversityGradientRowsAlsoSumToZero) {
  // The diversity term routes through the softmax Jacobian, whose rows are
  // orthogonal to the all-ones vector, so the invariant survives any γ.
  const int k = GetParam();
  Tensor logits = RandomTensor(Shape{4, k}, 43 + k, 2.0f);
  Tensor ref = Softmax(RandomTensor(Shape{4, k}, 47 + k));
  std::vector<int> labels(4, 0);
  LossConfig cfg;
  cfg.diversity_gamma = 0.7f;
  LossResult r = SoftmaxCrossEntropyLoss(logits, labels, {}, ref, cfg);
  for (int64_t i = 0; i < 4; ++i) {
    double row = 0.0;
    for (int64_t c = 0; c < k; ++c) row += r.grad_logits.at(i, c);
    EXPECT_NEAR(row, 0.0, 1e-5);
  }
}

TEST_P(LossPropertyTest, LossIsNonNegativeWithoutDiversity) {
  const int k = GetParam();
  Tensor logits = RandomTensor(Shape{8, k}, 53 + k, 2.0f);
  std::vector<int> labels(8);
  for (int i = 0; i < 8; ++i) labels[static_cast<size_t>(i)] = i % k;
  EXPECT_GE(SoftmaxCrossEntropyLoss(logits, labels).loss, 0.0);
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, LossPropertyTest,
                         ::testing::Values(2, 5, 20, 100));

// ---------------------------------------------------------------------------
// Diversity measure bounds over distribution shapes
// ---------------------------------------------------------------------------

class DiversityBoundsTest : public ::testing::TestWithParam<int> {};

TEST_P(DiversityBoundsTest, RowDistanceBoundedBySqrtTwo) {
  // Eq. 6 of the paper: ‖p − q‖₂ ≤ √2 for any two distributions.
  const int k = GetParam();
  for (uint64_t seed = 0; seed < 16; ++seed) {
    Tensor p = Softmax(RandomTensor(Shape{8, k}, 100 + seed, 5.0f));
    Tensor q = Softmax(RandomTensor(Shape{8, k}, 200 + seed, 5.0f));
    for (float d : RowL2Distance(p, q)) {
      EXPECT_LE(d, std::sqrt(2.0f) + 1e-5f);
      EXPECT_GE(d, 0.0f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ClassCounts, DiversityBoundsTest,
                         ::testing::Values(2, 3, 10, 64));

// ---------------------------------------------------------------------------
// Knowledge-transfer monotonicity across architectures
// ---------------------------------------------------------------------------

class TransferMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(TransferMonotoneTest, TransferredMassIsMonotoneInBeta) {
  const int depth = GetParam();
  ResNetConfig cfg;
  cfg.depth = depth;
  cfg.base_width = 2;
  cfg.num_classes = 4;
  int64_t prev = -1;
  for (double beta = 0.0; beta <= 1.0001; beta += 0.125) {
    ResNet teacher(cfg, 1), student(cfg, 2);
    const auto stats = TransferKnowledge(&teacher, &student, beta);
    EXPECT_GE(stats.params_transferred, prev);
    EXPECT_LE(stats.params_transferred, stats.params_total);
    prev = stats.params_transferred;
  }
  // Endpoints.
  ResNet teacher(cfg, 1), student(cfg, 2);
  EXPECT_EQ(TransferKnowledge(&teacher, &student, 0.0).params_transferred, 0);
  const auto full = TransferKnowledge(&teacher, &student, 1.0);
  EXPECT_EQ(full.params_transferred, full.params_total);
}

INSTANTIATE_TEST_SUITE_P(Depths, TransferMonotoneTest,
                         ::testing::Values(8, 14, 20));

// ---------------------------------------------------------------------------
// Gemm algebraic identities over sizes
// ---------------------------------------------------------------------------

class GemmPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GemmPropertyTest, TransposeConsistency) {
  // (A @ B)^T == B^T @ A^T, exercised via the transpose flags.
  const int n = GetParam();
  Tensor a = RandomTensor(Shape{n, n + 1}, 61 + n);
  Tensor b = RandomTensor(Shape{n + 1, n + 2}, 67 + n);
  Tensor ab(Shape{n, n + 2});
  Gemm(false, false, 1.0f, a, b, 0.0f, &ab);
  // C2 = B^T(A^T)^T using flags: trans_a on b, trans_b on a gives
  // b^T @ a^T with shape (n+2, n).
  Tensor btat(Shape{n + 2, n});
  Gemm(true, true, 1.0f, b, a, 0.0f, &btat);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n + 2; ++j) {
      EXPECT_NEAR(ab.at(i, j), btat.at(j, i), 1e-3);
    }
  }
}

TEST_P(GemmPropertyTest, IdentityIsNeutral) {
  const int n = GetParam();
  Tensor a = RandomTensor(Shape{n, n}, 71 + n);
  Tensor eye(Shape{n, n}, 0.0f);
  for (int64_t i = 0; i < n; ++i) eye.at(i, i) = 1.0f;
  Tensor out(Shape{n, n});
  Gemm(false, false, 1.0f, a, eye, 0.0f, &out);
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    EXPECT_NEAR(out.at(i), a.at(i), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmPropertyTest,
                         ::testing::Values(1, 3, 17, 64));

}  // namespace
}  // namespace edde
