// Per-layer probes of the traced runs: outside-timed calls into each
// module's public functions, and deltas of the counters and regions the
// library already records in MetricsRegistry. See common.h for which
// workload state each probe reads.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/knowledge_transfer.h"
#include "data/augment.h"
#include "data/batcher.h"
#include "metrics/metrics.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "optim/sgd.h"
#include "serve/protocol.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "utils/metrics.h"

namespace edde {
namespace perfbench {

SyntheticImageConfig TinyC10Config() {
  SyntheticImageConfig cfg;
  cfg.num_classes = 10;
  cfg.train_size = 1280;
  cfg.test_size = 384;
  cfg.image_size = 6;
  cfg.noise = 0.85f;
  cfg.label_noise = 0.03f;
  cfg.field_weight = 1.2f;
  cfg.grating_weight = 0.5f;
  cfg.seed = 42;
  return cfg;
}

MlpConfig ServedMlpConfig() {
  const SyntheticImageConfig cfg = TinyC10Config();
  MlpConfig mlp;
  mlp.in_features = cfg.channels * cfg.image_size * cfg.image_size;
  mlp.hidden = {48};
  mlp.num_classes = cfg.num_classes;
  return mlp;
}

namespace {

/// A layer's forward and backward, timed apart at one input shape.
struct FwdBwd {
  double fwd_us = 0.0;
  double bwd_us = 0.0;
};

FwdBwd TimeLayer(const std::string& name, Module* layer, const Tensor& x,
                 int reps, Tensor grad = Tensor()) {
  if (grad.empty()) {
    Rng rng(7);
    grad = Tensor(layer->Forward(x, /*training=*/true).shape());
    grad.FillNormal(&rng, 0.0f, 1.0f);
  }
  FwdBwd t;
  t.fwd_us = MedianCallUs(("perfbench/" + name + ".fwd").c_str(), reps,
                          [&] { layer->Forward(x, true); });
  t.bwd_us = MedianCallUs(("perfbench/" + name + ".bwd").c_str(), reps,
                          [&] { layer->Backward(grad); },
                          [&] { layer->Forward(x, true); });
  return t;
}

Tensor RandomTensor(Shape shape, Rng* rng) {
  Tensor t(std::move(shape));
  t.FillNormal(rng, 0.0f, 1.0f);
  return t;
}

/// Whole-member forward (training mode) and backward of the loss gradient.
void ProbeMember(const std::string& prefix, Module* member, const Tensor& x,
                 const std::vector<int>& labels, int reps, RunResult* result) {
  const FwdBwd t = TimeLayer(
      prefix, member, x, reps,
      SoftmaxCrossEntropyLoss(member->Forward(x, true), labels).grad_logits);
  result->Add(prefix + ".fwd_ms", t.fwd_us / 1e3, "ms");
  result->Add(prefix + ".bwd_ms", t.bwd_us / 1e3, "ms");
}

/// Conv2d layers of a ResNet-8 member at the training batch: the stem and
/// the first conv of each stage (stages 2 and 3 downsample).
void ProbeResNetLayers(const TrainSpec& spec, const TrainTestSplit& data,
                       Rng* rng, RunResult* result) {
  const int64_t b = spec.method.batch_size;
  const int64_t c = data.train.features().shape().dim(1);
  const int64_t hw = data.train.features().shape().dim(2);
  struct ConvShape {
    const char* name;
    int64_t in, out, stride, size;  // size: input height = width
  };
  const int64_t w = 4;  // ResNetSpec base_width
  const ConvShape shapes[] = {{"stem", c, w, 1, hw},
                              {"s1", w, w, 1, hw},
                              {"s2", w, 2 * w, 2, hw},
                              {"s3", 2 * w, 4 * w, 2, (hw + 1) / 2}};
  double conv_flops = 0.0, conv_us = 0.0, gemm_flops = 0.0, gemm_us = 0.0;
  for (const ConvShape& s : shapes) {
    Conv2d conv(s.in, s.out, 3, s.stride, 1, /*use_bias=*/false, rng);
    const Tensor x = RandomTensor(Shape{b, s.in, s.size, s.size}, rng);
    const FwdBwd t =
        TimeLayer(std::string("nn.conv2d.") + s.name, &conv, x, 400);
    result->Add(std::string("nn.conv2d.fwd_us.") + s.name, t.fwd_us, "us");
    result->Add(std::string("nn.conv2d.bwd_us.") + s.name, t.bwd_us, "us");
    const int64_t out = (s.size + 2 - 3) / s.stride + 1;
    const double k = static_cast<double>(s.in * 9);
    const double n = static_cast<double>(out * out);
    const double fwd_flops = 2.0 * static_cast<double>(b * s.out) * n * k;
    conv_flops += 3.0 * fwd_flops;  // backward: input and weight gradients
    conv_us += t.fwd_us + t.bwd_us;

    // The layer's im2col GEMM, one per sample as Conv2d runs it today.
    const Tensor weight = RandomTensor(Shape{s.out, s.in * 9}, rng);
    const Tensor cols = RandomTensor(Shape{s.in * 9, out * out}, rng);
    Tensor y(Shape{s.out, out * out});
    gemm_us += MedianCallUs("perfbench/tensor.gemm.conv", 400, [&] {
      for (int64_t i = 0; i < b; ++i) {
        Gemm(false, false, 1.0f, weight, cols, 0.0f, &y);
      }
    });
    gemm_flops += fwd_flops;
  }
  result->Add("nn.conv2d.gflops", conv_flops / conv_us / 1e3, "GFLOP/s");
  result->Add("tensor.gemm_gflops.conv", gemm_flops / gemm_us / 1e3,
              "GFLOP/s");

  BatchNorm bn(w);
  const Tensor bx = RandomTensor(Shape{b, w, hw, hw}, rng);
  const FwdBwd t = TimeLayer("nn.batchnorm", &bn, bx, 400);
  result->Add("nn.batchnorm.fwd_bwd_us", t.fwd_us + t.bwd_us, "us");
}

/// The served members' eval forward, and the wire format of one request of
/// the serving load (3 rows) and its answer. Evaluation costs the same for
/// any weights, so fresh members at the served shapes stand in for trained
/// ones.
void ProbeServingLayers(Rng* rng, RunResult* result) {
  const MlpConfig mlp = ServedMlpConfig();
  EnsembleModel model;
  for (int t = 0; t < kServedMembers; ++t) {
    model.AddMember(std::make_unique<Mlp>(mlp, rng->NextU64()), 1.0);
  }
  const int64_t dim = mlp.in_features;
  const Tensor rows16 = RandomTensor(Shape{16, dim}, rng);
  for (int64_t rows : {1, 16}) {
    Tensor batch(Shape{rows, dim});
    std::copy_n(rows16.data(), rows * dim, batch.data());
    int64_t t = 0;
    result->Add("nn.mlp.eval_fwd_us.rows" + std::to_string(rows),
                MedianCallUs("perfbench/nn.mlp.eval_fwd", 2000, [&] {
                  model.MemberProbsOnBatch(t++ % kServedMembers, batch);
                }),
                "us");
  }

  serve::PredictRequest req;
  req.id = 1;
  req.rows = 3;
  req.dim = dim;
  req.features.assign(rows16.data(), rows16.data() + req.rows * dim);
  const std::string payload = serve::BuildPredictRequest(req);
  serve::PredictRequest parsed;
  result->Add("serve.protocol.parse_us",
              MedianCallUs("perfbench/serve.protocol.parse", 2000, [&] {
                serve::ParsePredictRequest(payload, &parsed);
              }),
              "us");
  serve::PredictResponse resp;
  resp.id = 1;
  resp.ok = true;
  resp.trace_id = 0x1234;
  resp.generation = 1;
  for (int64_t r = 0; r < req.rows; ++r) {
    resp.labels.push_back(static_cast<int>(rng->UniformInt(mlp.num_classes)));
    resp.depth.push_back(kServedMembers);
  }
  result->Add("serve.protocol.build_us",
              MedianCallUs("perfbench/serve.protocol.build", 2000,
                           [&] { serve::BuildPredictResponse(resp); }),
              "us");
}

}  // namespace

void ProbeFixedLayers(uint64_t seed, RunResult* result) {
  const TrainSpec spec = ResNetSpec();
  const TrainTestSplit data = spec.make_data();
  Rng rng(seed);
  const int64_t b = spec.method.batch_size;
  std::vector<int64_t> batch_idx(static_cast<size_t>(b));
  for (int64_t& i : batch_idx) i = rng.UniformInt(data.train.size());
  const Tensor x = data.train.GatherFeatures(batch_idx);
  const std::vector<int> labels = data.train.GatherLabels(batch_idx);

  std::unique_ptr<Module> member = spec.factory(rng.NextU64());
  ProbeMember("nn.resnet", member.get(), x, labels, 200, result);
  ProbeResNetLayers(spec, data, &rng, result);

  Sgd sgd(member.get(), spec.method.sgd);
  result->Add("optim.sgd_step_us",
              MedianCallUs("perfbench/optim.sgd_step", 400,
                           [&] { sgd.Step(); }),
              "us");

  // What the trainer does to a batch before the forward pass: gather the
  // shuffled rows and labels, and augment the images.
  BatchPlan plan;
  plan.Build(data.train.size(), b, /*shuffle=*/true, &rng);
  Tensor staging;
  std::vector<int> y;
  int64_t next = 0;
  result->Add("data.batch_prep_us",
              MedianCallUs("perfbench/data.batch_prep", 400, [&] {
                const int64_t i = next++ % plan.num_batches();
                data.train.GatherFeaturesInto(plan.batch(i), plan.batch_len(i),
                                              &staging);
                data.train.GatherLabelsInto(plan.batch(i), plan.batch_len(i),
                                            &y);
                AugmentImageBatch(staging, spec.method.augment_config, &rng);
              }),
              "us");

  ProbeServingLayers(&rng, result);
}

void ProbeEnsembleLayers(const EnsembleModel& ensemble, const Dataset& train,
                         const Dataset& test, const ModelFactory& factory,
                         const EddeOptions& options, RunResult* result) {
  Tensor ensemble_probs;
  const double predict_us =
      MedianCallUs("perfbench/ensemble.predict_probs", 5, [&] {
        ensemble_probs = ensemble.PredictProbs(train);
      });
  result->Add("ensemble.predict_probs_ms", predict_us / 1e3, "ms");
  const Tensor member_probs =
      PredictProbs(ensemble.member(ensemble.size() - 1), train);
  result->Add("core.sim_bias_ms",
              MedianCallUs("perfbench/core.sim_bias", 20, [&] {
                PerSampleSimilarity(member_probs, ensemble_probs);
                PerSampleBias(member_probs, train.labels());
              }) / 1e3,
              "ms");
  std::unique_ptr<Module> student;
  result->Add("core.transfer_ms",
              MedianCallUs(
                  "perfbench/core.transfer", 50,
                  [&] {
                    TransferKnowledge(ensemble.member(0), student.get(),
                                      options.beta, options.granularity);
                  },
                  [&] { student = factory(1); }) /
                  1e3,
              "ms");

  // The cascade's accumulator over one 16-row batch, fed as the server
  // feeds it: α-descending members, each over the still-undecided rows.
  std::vector<int64_t> first16(16);
  for (int64_t i = 0; i < 16; ++i) first16[static_cast<size_t>(i)] = i;
  const Tensor batch = test.GatherFeatures(first16);
  std::vector<Tensor> probs;
  for (int64_t t = 0; t < ensemble.size(); ++t) {
    probs.push_back(ensemble.MemberProbsOnBatch(t, batch));
  }
  const int64_t k = test.num_classes();
  result->Add(
      "ensemble.cascade_accumulate_us",
      MedianCallUs("perfbench/ensemble.cascade_accumulate", 2000, [&] {
        PartialPredictAccumulator acc(ensemble.alphas(), 16, k);
        for (int64_t m : acc.order()) {
          if (acc.all_decided()) break;
          const std::vector<int64_t>& open = acc.UndecidedRows();
          Tensor fed(Shape{static_cast<int64_t>(open.size()), k});
          for (size_t r = 0; r < open.size(); ++r) {
            std::copy_n(probs[m].data() + open[r] * k, k, fed.data() + r * k);
          }
          acc.Accumulate(fed);
        }
        acc.Labels();
      }),
      "us");
}

namespace {
Counter* RegCounter(const char* name) {
  return MetricsRegistry::Global().GetCounter(name);
}
Histogram* RegHistogram(const char* name) {
  return MetricsRegistry::Global().GetHistogram(name);
}
}  // namespace

TrainingLayers::TrainingLayers()
    : allocs_(RegCounter("tensor.allocs")->Value()),
      bytes_(RegCounter("tensor.alloc_bytes")->Value()),
      batches_(RegCounter("trainer.batches")->Value()),
      regions_(RegCounter("threadpool.regions")->Value()),
      drain_s_(RegHistogram("time/pool/drain")->Sum()),
      batch_s_(RegHistogram("time/trainer.batch")->Sum()),
      train_model_s_(RegHistogram("time/trainer.train_model")->Sum()),
      round_s_(RegHistogram("time/edde/round")->Sum()) {}

void TrainingLayers::Report(double cpu_per_wall, RunResult* result) const {
  const double n =
      static_cast<double>(RegCounter("trainer.batches")->Value() - batches_);
  const double allocs =
      static_cast<double>(RegCounter("tensor.allocs")->Value() - allocs_);
  const double bytes =
      static_cast<double>(RegCounter("tensor.alloc_bytes")->Value() - bytes_);
  const double regions =
      static_cast<double>(RegCounter("threadpool.regions")->Value() -
                          regions_);
  const double drain_s = RegHistogram("time/pool/drain")->Sum() - drain_s_;
  const double round_overhead =
      1.0 - (RegHistogram("time/trainer.train_model")->Sum() -
             train_model_s_) /
                (RegHistogram("time/edde/round")->Sum() - round_s_);
  const double batch_ms =
      (RegHistogram("time/trainer.batch")->Sum() - batch_s_) * 1e3 / n;
  result->Check(n > 0, "the traced training ran no batches");
  result->Add("tensor.allocs_per_batch", allocs / n, "count");
  result->Add("tensor.alloc_mb_per_batch", bytes / n / 1048576.0, "MB");
  result->Add("ensemble.trainer.batch_ms.mean", batch_ms, "ms");
  result->Add("core.round_overhead_share", round_overhead, "fraction");
  result->Add("threadpool.regions_per_batch", regions / n, "count");
  result->Add("threadpool.drain_ms_per_batch", drain_s * 1e3 / n, "ms");
  // The gated figures count CPU seconds and so cannot credit work spread
  // over more pool threads; this wall-clock ratio can.
  result->Add("threadpool.cpu_per_wall", cpu_per_wall, "cpu_s/s");
}

}  // namespace perfbench
}  // namespace edde
