// Bit-identity pins for the fused training passes. Each test rebuilds a
// block from separate layers, composed the unfused way (BatchNorm, ReLU,
// Add and Axpy as passes of their own, each layer on its own tape through
// the Forward(x, true)/Backward(dy) wrappers), loads the same weights, and
// requires memcmp-equal outputs, input gradients, parameter gradients and
// running statistics from the fused module, at 1 and at 4 pool threads.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/densenet.h"
#include "nn/pooling.h"
#include "nn/resnet.h"
#include "tensor/ops.h"
#include "utils/threadpool.h"

namespace edde {
namespace {

Tensor Random(const Shape& shape, uint64_t seed) {
  Rng rng(seed);
  Tensor t(shape);
  t.FillNormal(&rng, 0.3f, 1.0f);
  return t;
}

void ExpectBitEqual(const Tensor& got, const Tensor& want,
                    const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(float) * static_cast<size_t>(
                                               want.num_elements())))
      << what;
}

// Gives every parameter a random value (BatchNorm's γ and β included, so
// they are not the identity) and copies them into `twin` in depth order.
void RandomizeAndCopy(Module* module, const std::vector<Parameter*>& twin,
                      uint64_t seed) {
  const std::vector<Parameter*> params = module->Parameters();
  ASSERT_EQ(params.size(), twin.size());
  Rng rng(seed);
  for (size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->value.shape(), twin[i]->value.shape());
    const std::string& name = params[i]->name;
    if (name == "running_var") {
      params[i]->value.FillUniform(&rng, 0.5f, 1.5f);
    } else {
      params[i]->value.FillNormal(&rng, name == "gamma" ? 1.0f : 0.0f, 0.4f);
    }
    twin[i]->value.CopyFrom(params[i]->value);
  }
}

void ExpectSameParameters(Module* fused, const std::vector<Parameter*>& twin) {
  const std::vector<Parameter*> params = fused->Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    const std::string what = "parameter " + std::to_string(i) + " (" +
                             params[i]->name + ")";
    ExpectBitEqual(params[i]->value, twin[i]->value, what + " value");
    if (!params[i]->grad.empty()) {
      ExpectBitEqual(params[i]->grad, twin[i]->grad, what + " gradient");
    }
  }
}

// The unfused ResidualBlock: y = ReLU(Add(BN2(Conv2(ReLU(BN1(Conv1 x)))),
// shortcut(x))), its backward as separate ReLU, BatchNorm and Axpy passes.
struct UnfusedBlock {
  UnfusedBlock(int64_t in, int64_t out, int64_t stride, Rng* rng)
      : conv1(in, out, 3, stride, 1, false, rng),
        bn1(out),
        conv2(out, out, 3, 1, 1, false, rng),
        bn2(out) {
    if (stride != 1 || in != out) {
      proj_conv = std::make_unique<Conv2d>(in, out, 1, stride, 0, false, rng);
      proj_bn = std::make_unique<BatchNorm>(out);
    }
  }

  Tensor Forward(const Tensor& x) {
    Tensor b = conv1.Forward(x, true);
    b = bn1.Forward(b, true);
    b = relu1.Forward(b, true);
    b = conv2.Forward(b, true);
    b = bn2.Forward(b, true);
    Tensor s = x;
    if (proj_conv) s = proj_bn->Forward(proj_conv->Forward(x, true), true);
    return out_relu.Forward(Add(b, s), true);
  }

  Tensor Backward(const Tensor& dy) {
    const Tensor grad_sum = out_relu.Backward(dy);
    Tensor g = bn2.Backward(grad_sum);
    g = conv2.Backward(g);
    g = relu1.Backward(g);
    g = bn1.Backward(g);
    Tensor dx = conv1.Backward(g);
    if (proj_conv) {
      Axpy(1.0f, proj_conv->Backward(proj_bn->Backward(grad_sum)), &dx);
    } else {
      Axpy(1.0f, grad_sum, &dx);
    }
    return dx;
  }

  void Collect(std::vector<Parameter*>* out) {
    conv1.CollectParameters(out);
    bn1.CollectParameters(out);
    conv2.CollectParameters(out);
    bn2.CollectParameters(out);
    if (proj_conv) {
      proj_conv->CollectParameters(out);
      proj_bn->CollectParameters(out);
    }
  }

  Conv2d conv1;
  BatchNorm bn1;
  ReLU relu1;
  Conv2d conv2;
  BatchNorm bn2;
  std::unique_ptr<Conv2d> proj_conv;
  std::unique_ptr<BatchNorm> proj_bn;
  ReLU out_relu;
};

// Runs `check` at 1 and at 4 pool threads.
void AtEachThreadCount(const std::function<void()>& check) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    SetNumThreads(threads);
    check();
  }
  SetNumThreads(0);
}

// Two training steps (the second accumulates onto the first's gradients
// and sees its running statistics) through `fused` on a tape and through
// the unfused twin, comparing everything after each.
void CompareSteps(Module* fused, const std::vector<Parameter*>& twin,
                  const std::function<Tensor(const Tensor&)>& twin_forward,
                  const std::function<Tensor(const Tensor&)>& twin_backward,
                  const Shape& in_shape, bool input_is_data) {
  Tape tape;
  for (uint64_t step = 0; step < 2; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    const Tensor x = Random(in_shape, 10 + step);
    tape.Reset();
    const Tensor y = fused->Forward(x, &tape);
    const Tensor y_twin = twin_forward(x);
    ExpectBitEqual(y, y_twin, "output");
    const Tensor dy = Random(y.shape(), 20 + step);
    const Tensor dx = fused->Backward(dy, &tape);
    const Tensor dx_twin = twin_backward(dy);
    EXPECT_TRUE(tape.empty());
    if (input_is_data) {
      EXPECT_TRUE(dx.empty());
    } else {
      ExpectBitEqual(dx, dx_twin, "input gradient");
    }
    ExpectSameParameters(fused, twin);
  }
}

void CheckResidualBlock(int64_t in, int64_t out, int64_t stride) {
  AtEachThreadCount([&] {
    Rng rng(5);
    ResidualBlock block(in, out, stride, &rng);
    UnfusedBlock twin(in, out, stride, &rng);
    std::vector<Parameter*> twin_params;
    twin.Collect(&twin_params);
    RandomizeAndCopy(&block, twin_params, 6);
    CompareSteps(
        &block, twin_params, [&](const Tensor& x) { return twin.Forward(x); },
        [&](const Tensor& dy) { return twin.Backward(dy); },
        Shape{6, in, 8, 8}, /*input_is_data=*/false);
  });
}

TEST(FusionPinTest, ResidualBlockIdentityShortcut) {
  CheckResidualBlock(6, 6, 1);
}

TEST(FusionPinTest, ResidualBlockProjectionShortcut) {
  CheckResidualBlock(4, 8, 2);
}

// The whole ResNet-8, so the stem (conv, then BatchNorm and ReLU fused,
// and no input gradient) is pinned in its place, along with the pooling
// and classifier on the tape.
TEST(FusionPinTest, ResNetStemAndBlocks) {
  AtEachThreadCount([&] {
    ResNetConfig config;
    config.depth = 8;
    config.base_width = 4;
    ResNet net(config, 3);
    Rng rng(4);
    Conv2d stem(3, 4, 3, 1, 1, false, &rng);
    BatchNorm stem_bn(4);
    ReLU stem_relu;
    std::vector<std::unique_ptr<UnfusedBlock>> blocks;
    blocks.push_back(std::make_unique<UnfusedBlock>(4, 4, 1, &rng));
    blocks.push_back(std::make_unique<UnfusedBlock>(4, 8, 2, &rng));
    blocks.push_back(std::make_unique<UnfusedBlock>(8, 16, 2, &rng));
    GlobalAvgPool2d pool;
    Dense classifier(16, 10, &rng);
    std::vector<Parameter*> twin;
    stem.CollectParameters(&twin);
    stem_bn.CollectParameters(&twin);
    for (auto& b : blocks) b->Collect(&twin);
    classifier.CollectParameters(&twin);
    RandomizeAndCopy(&net, twin, 8);
    CompareSteps(
        &net, twin,
        [&](const Tensor& x) {
          Tensor h = stem_relu.Forward(
              stem_bn.Forward(stem.Forward(x, true), true), true);
          for (auto& b : blocks) h = b->Forward(h);
          return classifier.Forward(pool.Forward(h, true), true);
        },
        [&](const Tensor& dy) {
          Tensor g = pool.Backward(classifier.Backward(dy));
          for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
            g = (*it)->Backward(g);
          }
          stem.Backward(stem_bn.Backward(stem_relu.Backward(g)));
          return Tensor();
        },
        Shape{5, 3, 6, 6}, /*input_is_data=*/true);
  });
}

TEST(FusionPinTest, DenseLayer) {
  AtEachThreadCount([&] {
    Rng rng(9);
    DenseLayer layer(6, 4, &rng);
    BatchNorm bn(6);
    ReLU relu;
    Conv2d conv(6, 4, 3, 1, 1, false, &rng);
    std::vector<Parameter*> twin;
    bn.CollectParameters(&twin);
    conv.CollectParameters(&twin);
    RandomizeAndCopy(&layer, twin, 10);
    CompareSteps(
        &layer, twin,
        [&](const Tensor& x) {
          return ConcatChannels(
              x, conv.Forward(relu.Forward(bn.Forward(x, true), true), true));
        },
        [&](const Tensor& dy) {
          Tensor grad_skip, grad_new;
          SplitChannelsGrad(dy, 6, &grad_skip, &grad_new);
          Tensor g = bn.Backward(relu.Backward(conv.Backward(grad_new)));
          Axpy(1.0f, grad_skip, &g);
          return g;
        },
        Shape{4, 6, 5, 5}, /*input_is_data=*/false);
  });
}

TEST(FusionPinTest, TransitionLayer) {
  AtEachThreadCount([&] {
    Rng rng(11);
    TransitionLayer layer(6, 6, &rng);
    BatchNorm bn(6);
    ReLU relu;
    Conv2d conv(6, 6, 1, 1, 0, false, &rng);
    std::vector<Parameter*> twin;
    bn.CollectParameters(&twin);
    conv.CollectParameters(&twin);
    RandomizeAndCopy(&layer, twin, 12);
    Shape conv_out;
    CompareSteps(
        &layer, twin,
        [&](const Tensor& x) {
          const Tensor h =
              conv.Forward(relu.Forward(bn.Forward(x, true), true), true);
          conv_out = h.shape();
          return AvgPool2dForward(h, 2);
        },
        [&](const Tensor& dy) {
          return bn.Backward(relu.Backward(
              conv.Backward(AvgPool2dBackward(conv_out, dy, 2))));
        },
        Shape{4, 6, 5, 4}, /*input_is_data=*/false);
  });
}

}  // namespace
}  // namespace edde
