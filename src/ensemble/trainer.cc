#include "ensemble/trainer.h"

#include <cmath>
#include <cstring>

#include "data/batcher.h"
#include "ensemble/run_checkpoint.h"
#include "utils/crash.h"
#include "utils/failpoint.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/run_manifest.h"
#include "utils/trace.h"

namespace edde {

double TrainModel(Module* model, const Dataset& train,
                  const TrainConfig& config, const TrainContext& context,
                  const EpochCallback& on_epoch) {
  EDDE_CHECK(model != nullptr);
  EDDE_CHECK_GT(config.epochs, 0);
  const int64_t n = train.size();
  const int64_t k = train.num_classes();
  if (context.sample_weights != nullptr) {
    EDDE_CHECK_EQ(static_cast<int64_t>(context.sample_weights->size()), n);
  }
  if (context.reference_probs != nullptr) {
    EDDE_CHECK_EQ(context.reference_probs->shape().dim(0), n);
    EDDE_CHECK_EQ(context.reference_probs->shape().dim(1), k);
  }

  Rng rng(config.seed);
  Sgd optimizer(model, config.sgd);
  const bool image_batch = train.features().shape().rank() == 4;

  // Mid-member resume: when an inflight checkpoint for this exact
  // run/round exists and validates, restore parameters, momentum and the
  // shuffle RNG and skip the epochs already done. Training is fully
  // deterministic, so the continued run is bit-identical to one that was
  // never interrupted. An unusable file (corrupt, stale fingerprint) is
  // ignored — worst case the member retrains from scratch.
  int start_epoch = 0;
  if (config.checkpoint.enabled()) {
    Status resumed =
        LoadInflightCheckpoint(config.checkpoint.path, model, &optimizer,
                               &rng, &start_epoch, config.checkpoint.fingerprint);
    if (resumed.ok()) {
      EDDE_LOG(INFO) << "resuming member from " << config.checkpoint.path
                     << " at epoch " << start_epoch;
    } else if (resumed.code() != StatusCode::kNotFound) {
      EDDE_LOG(WARNING) << "ignoring unusable inflight checkpoint "
                        << config.checkpoint.path << ": "
                        << resumed.ToString();
      start_epoch = 0;
    }
  }

  // Cached instruments: the aggregates are always on (a handful of atomic
  // adds per batch), the JSONL epoch records only when a sink is set.
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Counter* const epoch_counter =
      MetricsRegistry::Global().GetCounter("trainer.epochs");
  static Counter* const batch_counter =
      MetricsRegistry::Global().GetCounter("trainer.batches");
  static Counter* const sample_counter =
      MetricsRegistry::Global().GetCounter("trainer.samples");
  static const TraceRegion* const batch_region =
      GetTraceRegion("trainer.batch");
  static const TraceRegion* const epoch_region =
      GetTraceRegion("trainer.epoch");
  TraceScope train_scope(GetTraceRegion("trainer.train_model"));

  // Staging buffers reused across batches (and epochs): the batch plan's
  // permutation, the gathered features/labels and the per-batch context
  // slices all keep their capacity, and the tape keeps the memory of the
  // model's activations and gradients, so a steady-state epoch performs no
  // per-batch heap allocation on this path. Reusing `x_staging` is safe
  // because the previous batch's backward pass has finished before the
  // next gather overwrites it.
  Tape tape;
  BatchPlan plan;
  Tensor x_staging;
  std::vector<int> y;
  std::vector<float> weights;
  Tensor reference;

  double last_epoch_loss = 0.0;
  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    TraceScope epoch_scope(epoch_region);
    Timer epoch_timer;
    if (config.schedule != nullptr) {
      optimizer.set_learning_rate(
          config.schedule->LearningRate(epoch, config.epochs));
    }
    plan.Build(n, config.batch_size, /*shuffle=*/true, &rng);
    double epoch_loss = 0.0;
    int64_t seen = 0;
    for (int64_t b = 0; b < plan.num_batches(); ++b) {
      TraceScope batch_scope(batch_region);
      const int64_t* batch = plan.batch(b);
      const int64_t bsz = plan.batch_len(b);
      train.GatherFeaturesInto(batch, bsz, &x_staging);
      Tensor x = x_staging;
      if (config.augment && image_batch) {
        x = AugmentImageBatch(x_staging, config.augment_config, &rng);
      }
      train.GatherLabelsInto(batch, bsz, &y);

      // Per-batch slices of the per-sample context.
      weights.clear();
      if (context.sample_weights != nullptr) {
        weights.reserve(static_cast<size_t>(bsz));
        for (int64_t i = 0; i < bsz; ++i) {
          weights.push_back(
              (*context.sample_weights)[static_cast<size_t>(batch[i])]);
        }
      }
      if (context.reference_probs != nullptr) {
        if (reference.empty() || reference.shape().dim(0) != bsz) {
          reference = Tensor(Shape{bsz, k});
        }
        for (int64_t i = 0; i < bsz; ++i) {
          std::memcpy(reference.data() + i * k,
                      context.reference_probs->data() + batch[i] * k,
                      sizeof(float) * k);
        }
      }

      // The step's Dropout masks: a function of the member's seed and the
      // step alone, so a member resumed at an epoch draws the masks an
      // uninterrupted run would. Nothing is drawn from `rng`.
      const uint64_t step[] = {config.seed, static_cast<uint64_t>(epoch),
                               static_cast<uint64_t>(b)};
      tape.Reset(FingerprintBytes(step, sizeof(step)));
      Tensor logits = model->Forward(x, &tape);
      LossResult loss = SoftmaxCrossEntropyLoss(logits, y, weights, reference,
                                                context.loss);
      model->Backward(loss.grad_logits, &tape);
      optimizer.Step();
      model->ZeroGrad();

      epoch_loss += loss.loss * static_cast<double>(bsz);
      seen += bsz;
    }
    last_epoch_loss = epoch_loss / static_cast<double>(seen);

    EpochStats stats;
    stats.epoch = epoch;
    stats.mean_loss = last_epoch_loss;
    stats.learning_rate = optimizer.learning_rate();
    stats.samples = seen;
    stats.batches = plan.num_batches();
    stats.epoch_seconds = epoch_timer.Seconds();
    stats.samples_per_sec =
        stats.epoch_seconds > 0.0
            ? static_cast<double>(seen) / stats.epoch_seconds
            : 0.0;

    epoch_counter->Increment();
    batch_counter->Increment(stats.batches);
    sample_counter->Increment(stats.samples);
    TraceCounter("trainer.loss", stats.mean_loss);
    TraceCounter("trainer.samples_per_sec", stats.samples_per_sec);
    if (registry.events_enabled()) {
      registry.EmitEvent(JsonBuilder()
                             .Add("record", "epoch")
                             .Add("dataset", train.name())
                             .Add("epoch", stats.epoch)
                             .Add("loss", stats.mean_loss)
                             .Add("lr", stats.learning_rate)
                             .Add("samples", stats.samples)
                             .Add("batches", stats.batches)
                             .Add("epoch_seconds", stats.epoch_seconds)
                             .Add("samples_per_sec", stats.samples_per_sec)
                             .Build());
    }
    if (on_epoch) on_epoch(stats);

    // Epoch boundary: the safe point for crash consistency and shutdown.
    const bool shutdown = ShutdownRequested();
    if (config.checkpoint.enabled() && config.checkpoint.every_epochs > 0) {
      const int next = epoch + 1;
      if (next < config.epochs &&
          (next % config.checkpoint.every_epochs == 0 || shutdown)) {
        Status s =
            SaveInflightCheckpoint(config.checkpoint.path, model, optimizer,
                                   rng, next, config.checkpoint.fingerprint);
        if (!s.ok()) {
          // Degrade, don't die: a failed checkpoint costs recoverability,
          // not the run.
          EDDE_LOG(WARNING) << "inflight checkpoint write failed: "
                            << s.ToString();
        }
      }
    }
    EDDE_FAILPOINT("trainer.epoch");
    if (shutdown) {
      // Return to the method's round loop, which owns the graceful exit
      // (and, under ParallelFor, must not exit from a worker thread).
      break;
    }
  }
  return last_epoch_loss;
}

std::vector<float> ScaleWeightsToMeanOne(const std::vector<double>& weights) {
  EDDE_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) total += w;
  // Degenerate boosting state (all-zero or non-finite weights) would turn
  // every per-sample loss weight into 0, inf or nan. Train unweighted
  // instead of corrupting the gradients.
  if (!(total > 0.0) || !std::isfinite(total)) {
    // Counted so the fallback is observable in production telemetry, not
    // just in a log line somebody has to be watching.
    MetricsRegistry::Global()
        .GetCounter("trainer.degenerate_weight_batches")
        ->Increment();
    EDDE_LOG(WARNING) << "degenerate sample weights (sum=" << total
                      << "); falling back to uniform weights";
    return std::vector<float>(weights.size(), 1.0f);
  }
  const double scale = static_cast<double>(weights.size()) / total;
  std::vector<float> out(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    out[i] = static_cast<float>(weights[i] * scale);
  }
  return out;
}

}  // namespace edde
