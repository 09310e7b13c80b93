// Model-level differential tests for int8 inference (DESIGN.md §13): the
// fp32 ↔ int8 precision switch is lossless to the float weights, quantized
// predictions are bit-identical across kernel tiers, and — the property the
// source paper never probed — the α-weighted ensemble average absorbs
// per-member quantization noise instead of accumulating it.

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/edde.h"
#include "ensemble/ensemble_model.h"
#include "nn/mlp.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "test_util.h"

namespace edde {
namespace {

using testing::MakeBlobsSplit;

MlpConfig SmallCfg() {
  MlpConfig cfg;
  cfg.in_features = 6;
  cfg.hidden = {16};
  cfg.num_classes = 3;
  return cfg;
}

ModelFactory SmallFactory() {
  return [](uint64_t seed) { return std::make_unique<Mlp>(SmallCfg(), seed); };
}

EnsembleModel MakeDiverseEnsemble(int members) {
  EnsembleModel m;
  for (int t = 0; t < members; ++t) {
    m.AddMember(SmallFactory()(static_cast<uint64_t>(7 + 13 * t)), 1.0);
  }
  return m;
}

struct KernelGuard {
  ~KernelGuard() { SetGemmKernel(GemmKernel::kAuto); }
};

double Rmse(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.num_elements(), b.num_elements());
  double sum = 0.0;
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    const double d = static_cast<double>(a.at(i)) - b.at(i);
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.num_elements()));
}

TEST(QuantPrecisionSwitchTest, Fp32RoundTripIsBitExact) {
  EnsembleModel model = MakeDiverseEnsemble(2);
  const auto data = MakeBlobsSplit(48, 0, 6, 3, 5);
  const Tensor before = model.PredictProbs(data.train);

  model.SetPrecision(Precision::kInt8);
  EXPECT_EQ(Precision::kInt8, model.precision());
  const Tensor quant = model.PredictProbs(data.train);
  // The quantized path really is a different path...
  double dev = Rmse(before, quant);
  EXPECT_GT(dev, 0.0);

  // ...and switching back restores bit-exact float inference: the float
  // weights were never touched.
  model.SetPrecision(Precision::kFloat32);
  const Tensor after = model.PredictProbs(data.train);
  ASSERT_EQ(before.num_elements(), after.num_elements());
  EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                           sizeof(float) *
                               static_cast<size_t>(before.num_elements())));
}

TEST(QuantPrecisionSwitchTest, QuantizedProbsBitIdenticalAcrossKernels) {
  KernelGuard guard;
  EnsembleModel model = MakeDiverseEnsemble(3);
  model.SetPrecision(Precision::kInt8);
  const auto data = MakeBlobsSplit(32, 0, 6, 3, 3);

  std::vector<GemmKernel> kernels = {GemmKernel::kPortable};
  if (gemm_internal::Avx2Available()) kernels.push_back(GemmKernel::kAvx2);
  std::vector<Tensor> probs;
  for (GemmKernel kernel : kernels) {
    SetGemmKernel(kernel);
    probs.push_back(model.PredictProbs(data.train));
  }
  for (size_t i = 1; i < probs.size(); ++i) {
    ASSERT_EQ(probs[0].num_elements(), probs[i].num_elements());
    EXPECT_EQ(0,
              std::memcmp(probs[0].data(), probs[i].data(),
                          sizeof(float) *
                              static_cast<size_t>(probs[0].num_elements())))
        << GemmKernelName(kernels[i]) << " bits differ from portable";
  }
}

// Ensemble averaging of independent errors: the ensemble's int8 deviation
// is an α-weighted mean of per-member deviations, so by the triangle
// inequality it can never exceed the weighted-mean member deviation — and
// with independent member noise it lands well below (≈ 1/√M of it).
TEST(QuantNoiseAbsorptionTest, EnsembleDeviationBelowMeanMemberDeviation) {
  const int kMembers = 5;
  EnsembleModel model = MakeDiverseEnsemble(kMembers);
  const auto data = MakeBlobsSplit(96, 0, 6, 3, 11);

  const Tensor ens_fp32 = model.PredictProbs(data.train);
  const std::vector<Tensor> member_fp32 = model.MemberProbs(data.train);
  model.SetPrecision(Precision::kInt8);
  const Tensor ens_int8 = model.PredictProbs(data.train);
  const std::vector<Tensor> member_int8 = model.MemberProbs(data.train);

  double mean_member_rmse = 0.0;
  for (int t = 0; t < kMembers; ++t) {
    mean_member_rmse += Rmse(member_fp32[t], member_int8[t]);
  }
  mean_member_rmse /= kMembers;
  const double ens_rmse = Rmse(ens_fp32, ens_int8);

  ASSERT_GT(mean_member_rmse, 0.0) << "quantization had no effect at all?";
  // The hard bound (equal α: exact weighted mean + float rounding)...
  EXPECT_LE(ens_rmse, mean_member_rmse * 1.001 + 1e-7);
  // ...and the absorption claim: member noises are not perfectly
  // correlated, so averaging cancels a real fraction. 0.9 is far above the
  // ≈ 1/√5 ideal and far below 1.0 — deterministic for these fixed seeds.
  EXPECT_LT(ens_rmse, 0.9 * mean_member_rmse)
      << "ensemble is not absorbing quantization noise";
}

// End-to-end on a trained EDDE ensemble: quantizing every member costs the
// ensemble no more accuracy than it costs an average single member.
TEST(QuantNoiseAbsorptionTest, TrainedEnsembleAccuracyDropBounded) {
  testing::BlobSplit data = MakeBlobsSplit(384, 192, 6, 3, 1, /*spread=*/1.6f);
  MethodConfig mc;
  mc.num_members = 4;
  mc.epochs_per_member = 8;
  mc.batch_size = 32;
  mc.sgd.learning_rate = 0.1f;
  mc.sgd.weight_decay = 0.0f;
  mc.seed = 9;
  EddeOptions eo;
  eo.gamma = 0.1f;
  eo.beta = 0.7;
  EddeMethod method(mc, eo);
  EnsembleModel model = method.Train(data.train, SmallFactory());

  const double ens_fp32 = model.EvaluateAccuracy(data.test);
  const double avg_fp32 = model.AverageMemberAccuracy(data.test);
  model.SetPrecision(Precision::kInt8);
  const double ens_int8 = model.EvaluateAccuracy(data.test);
  const double avg_int8 = model.AverageMemberAccuracy(data.test);

  const double ens_drop = ens_fp32 - ens_int8;
  const double member_drop = avg_fp32 - avg_int8;
  // One test sample of 192 is 0.52% accuracy; allow one sample of noise.
  EXPECT_LE(ens_drop, member_drop + 1.0 / 192.0 + 1e-9)
      << "ens fp32=" << ens_fp32 << " int8=" << ens_int8
      << " member fp32=" << avg_fp32 << " int8=" << avg_int8;
  // Quantization must not wreck the trained ensemble outright.
  EXPECT_GE(ens_int8, ens_fp32 - 0.03);
}

}  // namespace
}  // namespace edde
