#include "ensemble/run_checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "metrics/metrics.h"
#include "nn/checkpoint.h"
#include "utils/crash.h"
#include "utils/durable_io.h"
#include "utils/failpoint.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/run_manifest.h"
#include "utils/trace.h"

namespace edde {

namespace {

constexpr uint32_t kGenerationMagic = 0xEDDE0005;
constexpr uint32_t kInflightMagic = 0xEDDE0006;

constexpr uint32_t kTagHeader = 1;
constexpr uint32_t kTagRng = 2;
constexpr uint32_t kTagOptim = 3;
constexpr uint32_t kTagMethodState = 4;
constexpr uint32_t kTagMember = 5;
/// Version 3: the header holds no per-member slot array, since member i
/// trains in slot i+1. A generation of another version is refused by
/// ReadSectionFile and skipped, not misread.
constexpr uint32_t kGenerationVersion = 3;
constexpr uint32_t kInflightVersion = 1;

std::string GenerationPath(const std::string& dir, int round) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt_%08d.edde", round);
  return dir + "/" + name;
}

/// Round numbers of every generation file in `dir`, unsorted.
std::vector<int> ListGenerations(const std::string& dir) {
  std::vector<int> rounds;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return rounds;
  while (struct dirent* entry = ::readdir(d)) {
    int round = 0;
    char trailing = 0;
    if (std::sscanf(entry->d_name, "ckpt_%d.edde%c", &round, &trailing) == 1) {
      rounds.push_back(round);
    }
  }
  ::closedir(d);
  return rounds;
}

// mkdir -p: the checkpoint dir is nested (base dir + per-run subdir),
// and neither level may exist yet on a fresh run.
Status EnsureDir(const std::string& dir) {
  for (size_t pos = 1; pos < dir.size(); ++pos) {
    if (dir[pos] != '/') continue;
    const std::string prefix = dir.substr(0, pos);
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir(" + prefix + "): " + std::strerror(errno));
    }
  }
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::IOError("mkdir(" + dir + "): " + std::strerror(errno));
}

void WriteRngState(const RngState& rng, SectionWriter* out) {
  for (uint64_t s : rng.state) out->WriteU64(s);
  out->WriteU32(rng.has_cached_normal ? 1 : 0);
  out->WriteF64(rng.cached_normal);
}

Status ReadRngState(SectionReader* in, RngState* rng) {
  for (uint64_t& s : rng->state) {
    if (!in->ReadU64(&s)) return in->status();
  }
  uint32_t has_cached = 0;
  if (!in->ReadU32(&has_cached) || !in->ReadF64(&rng->cached_normal)) {
    return in->status();
  }
  rng->has_cached_normal = has_cached != 0;
  return Status::OK();
}

Status ReadDoubleVector(SectionReader* in, std::vector<double>* out) {
  uint64_t count = 0;
  if (!in->ReadU64(&count)) return in->status();
  if (count > in->remaining() / sizeof(double)) {
    return Status::Corruption("vector length exceeds the section");
  }
  out->resize(count);
  if (count > 0 && !in->ReadDoubles(out->data(), count)) return in->status();
  return Status::OK();
}

/// The identity of a run: method, budget, seed, the training data's
/// contents and the members' parameter names and shapes.
uint64_t RunFingerprint(const std::string& method_name,
                        const MethodConfig& config, const Dataset& train,
                        Module* model) {
  uint64_t fp = FingerprintBytes(method_name.data(), method_name.size());
  const uint64_t fields[] = {
      config.seed,
      static_cast<uint64_t>(config.num_members),
      static_cast<uint64_t>(config.epochs_per_member),
      static_cast<uint64_t>(config.batch_size),
  };
  fp = train.Fingerprint(FingerprintBytes(fields, sizeof(fields), fp));
  for (Parameter* p : model->Parameters()) {
    fp = FingerprintBytes(p->name.data(), p->name.size(), fp);
    const std::vector<int64_t>& dims = p->value.shape().dims();
    const uint64_t rank = dims.size();
    fp = FingerprintBytes(&rank, sizeof(rank), fp);
    fp = FingerprintBytes(dims.data(), rank * sizeof(int64_t), fp);
  }
  return fp;
}

uint64_t InflightFingerprint(uint64_t method_fingerprint, int slot) {
  return FingerprintBytes(&slot, sizeof(slot), method_fingerprint);
}

/// One generation as read from disk, members rebuilt and restored.
struct Generation {
  int round = 0;
  int cumulative_epochs = 0;
  RngState rng;
  std::vector<double> weights;
  std::vector<double> alphas;
  std::vector<CurvePoint> points;
  SectionReader method_state;
  std::vector<std::unique_ptr<Module>> members;
};

Status ReadGeneration(const std::string& path, uint64_t fingerprint,
                      const ModelFactory& factory, Generation* g) {
  Result<SectionFile> read =
      ReadSectionFile(path, kGenerationMagic, kGenerationVersion);
  EDDE_RETURN_NOT_OK(read.status());
  SectionFile& file = read.ValueOrDie();
  SectionReader header;
  EDDE_RETURN_NOT_OK(file.Next(kTagHeader, &header));
  std::string method_name;
  uint64_t saved_fingerprint = 0;
  int64_t round = 0;
  int64_t cumulative_epochs = 0;
  uint64_t num_members = 0;
  if (!header.ReadString(&method_name) ||
      !header.ReadU64(&saved_fingerprint) || !header.ReadI64(&round) ||
      !header.ReadI64(&cumulative_epochs) || !header.ReadU64(&num_members)) {
    return header.status();
  }
  if (saved_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "generation belongs to a different run (method/config/dataset "
        "changed)");
  }
  EDDE_RETURN_NOT_OK(ReadDoubleVector(&header, &g->weights));
  // Check each count against the payload before sizing anything by it.
  if (num_members > header.remaining() / sizeof(double)) {
    return Status::Corruption("member count exceeds the header");
  }
  g->alphas.resize(num_members);
  if (num_members > 0 &&
      !header.ReadDoubles(g->alphas.data(), g->alphas.size())) {
    return header.status();
  }
  for (double alpha : g->alphas) {
    if (!(alpha > 0.0) || !std::isfinite(alpha)) {
      return Status::Corruption("member weight is not positive and finite");
    }
  }
  uint64_t num_points = 0;
  if (!header.ReadU64(&num_points)) return header.status();
  if (num_points > header.remaining() / (sizeof(int64_t) + sizeof(double))) {
    return Status::Corruption("curve point count exceeds the header");
  }
  for (uint64_t i = 0; i < num_points; ++i) {
    int64_t epochs = 0;
    double accuracy = 0.0;
    if (!header.ReadI64(&epochs) || !header.ReadF64(&accuracy)) {
      return header.status();
    }
    g->points.emplace_back(static_cast<int>(epochs), accuracy);
  }
  g->round = static_cast<int>(round);
  g->cumulative_epochs = static_cast<int>(cumulative_epochs);

  SectionReader rng;
  EDDE_RETURN_NOT_OK(file.Next(kTagRng, &rng));
  EDDE_RETURN_NOT_OK(ReadRngState(&rng, &g->rng));
  EDDE_RETURN_NOT_OK(file.Next(kTagMethodState, &g->method_state));

  for (uint64_t i = 0; i < num_members; ++i) {
    SectionReader section;
    EDDE_RETURN_NOT_OK(file.Next(kTagMember, &section));
    std::unique_ptr<Module> member = factory(0);
    EDDE_RETURN_NOT_OK(ReadModuleParams(member.get(), &section));
    g->members.push_back(std::move(member));
  }
  return Status::OK();
}

}  // namespace

RoundCheckpointer::RoundCheckpointer(const MethodConfig& config,
                                     const std::string& method_name,
                                     const Dataset& train,
                                     const ModelFactory& factory,
                                     const EvalCurve& curve,
                                     const RoundState& state)
    : config_(config),
      method_name_(method_name),
      factory_(factory),
      curve_(curve),
      state_(state) {
  EDDE_CHECK(state_.ensemble != nullptr);
  if (enabled()) {
    fingerprint_ =
        RunFingerprint(method_name_, config_, train, factory_(0).get());
    char name[20];
    std::snprintf(name, sizeof(name), "%016" PRIx64, fingerprint_);
    dir_ = config_.checkpoint.dir + "/" + name;
    // Created eagerly: inflight checkpoints land here before the first
    // generation write. Failure degrades (every write will warn), it never
    // fails the run.
    Status s = EnsureDir(dir_);
    if (!s.ok()) {
      EDDE_LOG(WARNING) << "cannot create checkpoint dir: " << s.ToString();
    }
  }
}

SectionReader RoundCheckpointer::Resume() {
  if (!enabled() || !config_.checkpoint.resume) return SectionReader();
  std::vector<int> rounds = ListGenerations(dir_);
  std::sort(rounds.rbegin(), rounds.rend());  // newest first
  for (int round : rounds) {
    const std::string path = GenerationPath(dir_, round);
    Generation g;
    Status s = ReadGeneration(path, fingerprint_, factory_, &g);
    if (s.ok() && state_.weights != nullptr &&
        g.weights.size() != state_.weights->size()) {
      s = Status::Corruption("sample-weight count does not match the data");
    }
    if (s.ok() && (g.round < 1 || g.round > config_.num_members ||
                   g.members.size() > static_cast<size_t>(g.round) ||
                   g.points.size() > static_cast<size_t>(g.round))) {
      s = Status::Corruption("round count out of range");
    }
    if (!s.ok()) {
      // Graceful degradation: a torn or bit-flipped newest generation must
      // never kill the run — fall back to the next older one.
      MetricsRegistry::Global()
          .GetCounter("checkpoint.corrupt_generations_skipped")
          ->Increment();
      EDDE_LOG(WARNING) << method_name_ << ": skipping unusable generation "
                        << path << ": " << s.ToString();
      continue;
    }
    rounds_ = g.round;
    epochs_ = g.cumulative_epochs;
    points_ = g.points;
    if (state_.rng != nullptr) state_.rng->RestoreState(g.rng);
    if (state_.weights != nullptr) *state_.weights = std::move(g.weights);
    for (size_t i = 0; i < g.members.size(); ++i) {
      state_.ensemble->AddMember(std::move(g.members[i]), g.alphas[i]);
    }
    if (curve_.enabled()) {
      curve_.points->insert(curve_.points->end(), points_.begin(),
                            points_.end());
    }
    MetricsRegistry::Global().GetCounter("checkpoint.resumes")->Increment();
    EDDE_LOG(INFO) << method_name_ << ": resuming from " << path
                   << " (round " << rounds_ << ")";
    return std::move(g.method_state);
  }
  return SectionReader();
}

TrainConfig RoundCheckpointer::MemberConfig(
    int slot, int epochs, uint64_t seed, int attempt,
    std::shared_ptr<const LrSchedule> schedule) const {
  TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = config_.batch_size;
  tc.sgd = config_.sgd;
  tc.schedule = schedule != nullptr
                    ? std::move(schedule)
                    : std::make_shared<StepDecayLr>(config_.sgd.learning_rate);
  tc.augment = config_.augment;
  tc.augment_config = config_.augment_config;
  tc.seed = seed;
  if (enabled()) {
    tc.checkpoint.path = InflightPath(slot);
    tc.checkpoint.every_epochs = config_.checkpoint.every;
    tc.checkpoint.fingerprint =
        InflightFingerprint(fingerprint_, slot + 1000003 * attempt);
  }
  return tc;
}

void RoundCheckpointer::TrainMember(Module* model, const Dataset& data,
                                    const TrainConfig& config,
                                    const TrainContext& context,
                                    const EpochCallback& on_epoch) const {
  if (ShutdownRequested()) GracefulShutdownExit();
  TrainModel(model, data, config, context, on_epoch);
  if (ShutdownRequested()) GracefulShutdownExit();
}

void RoundCheckpointer::EndRound(int epochs, const SectionWriter& method_state,
                                 Module* probe) {
  ++rounds_;
  epochs_ += epochs;
  if (curve_.enabled()) {
    const double accuracy =
        probe != nullptr ? EvaluateAccuracy(probe, *curve_.eval)
                         : state_.ensemble->EvaluateAccuracy(*curve_.eval);
    curve_.points->emplace_back(epochs_, accuracy);
    points_.push_back(curve_.points->back());
  }
  const int every = config_.checkpoint.every;
  if (!enabled() || (every > 0 && rounds_ % every != 0)) return;
  Status s = WriteGeneration(method_state);
  if (!s.ok()) {
    // Degrade, don't die: a failed generation costs recoverability from
    // this round, not the run itself; the inflight files stay as fallback.
    EDDE_LOG(WARNING) << method_name_
                      << ": round checkpoint failed: " << s.ToString();
    return;
  }
  // The durable generation supersedes its members' inflight files.
  for (int64_t slot = 1; slot <= state_.ensemble->size(); ++slot) {
    ::unlink(InflightPath(static_cast<int>(slot)).c_str());
  }
}

Status RoundCheckpointer::WriteGeneration(const SectionWriter& method_state) {
  TraceScope scope(GetTraceRegion("checkpoint/write"));
  EDDE_FAILPOINT_STATUS("checkpoint.round");
  EDDE_RETURN_NOT_OK(EnsureDir(dir_));

  const EnsembleModel& ensemble = *state_.ensemble;
  const std::vector<double>& alphas = ensemble.alphas();
  static const std::vector<double> kNoWeights;
  const std::vector<double>& weights =
      state_.weights != nullptr ? *state_.weights : kNoWeights;

  const std::string path = GenerationPath(dir_, rounds_);
  SectionWriter header;
  header.WriteString(method_name_);
  header.WriteU64(fingerprint_);
  header.WriteI64(rounds_);
  header.WriteI64(epochs_);
  header.WriteU64(alphas.size());
  header.WriteU64(weights.size());
  header.WriteDoubles(weights.data(), weights.size());
  header.WriteDoubles(alphas.data(), alphas.size());
  header.WriteU64(points_.size());
  for (const CurvePoint& p : points_) {
    header.WriteI64(p.first);
    header.WriteF64(p.second);
  }
  SectionWriter rng;
  WriteRngState(state_.rng != nullptr ? state_.rng->SaveState() : RngState{},
                &rng);

  std::vector<SectionWriter> members(static_cast<size_t>(ensemble.size()));
  std::vector<TaggedSection> sections = {{kTagHeader, &header},
                                         {kTagRng, &rng},
                                         {kTagMethodState, &method_state}};
  for (int64_t i = 0; i < ensemble.size(); ++i) {
    SectionWriter& section = members[static_cast<size_t>(i)];
    WriteModuleParams(ensemble.member(i), &section);
    sections.push_back({kTagMember, &section});
  }
  EDDE_RETURN_NOT_OK(WriteSectionFile(path, kGenerationMagic,
                                      kGenerationVersion, sections));
  MetricsRegistry::Global().GetCounter("checkpoint.generations")->Increment();
  EDDE_LOG(INFO) << method_name_ << ": checkpointed round " << rounds_
                 << " -> " << path;

  // The generation is durable; a crash between here and the end of rotation
  // only leaves extra old generations behind, which the next rotation
  // removes.
  EDDE_FAILPOINT("checkpoint.commit");
  if (config_.checkpoint.keep > 0) {
    std::vector<int> rounds = ListGenerations(dir_);
    std::sort(rounds.begin(), rounds.end());
    const size_t keep = static_cast<size_t>(config_.checkpoint.keep);
    for (size_t i = 0; i + keep < rounds.size(); ++i) {
      ::unlink(GenerationPath(dir_, rounds[i]).c_str());
    }
  }
  return Status::OK();
}

std::string RoundCheckpointer::InflightPath(int slot) const {
  char name[36];
  std::snprintf(name, sizeof(name), "inflight_%04d.edde", slot);
  return dir_ + "/" + name;
}

Status SaveInflightCheckpoint(const std::string& path, Module* model,
                              const Sgd& optimizer, const Rng& rng,
                              int next_epoch, uint64_t fingerprint) {
  TraceScope scope(GetTraceRegion("checkpoint/inflight"));
  SectionWriter header;
  header.WriteU64(fingerprint);
  header.WriteI64(next_epoch);
  SectionWriter rng_section;
  WriteRngState(rng.SaveState(), &rng_section);
  SectionWriter params;
  WriteModuleParams(model, &params);
  SectionWriter optim;
  optimizer.SaveState(&optim);
  Status s = WriteSectionFile(path, kInflightMagic, kInflightVersion,
                              {{kTagHeader, &header},
                               {kTagRng, &rng_section},
                               {kTagMember, &params},
                               {kTagOptim, &optim}});
  if (s.ok()) {
    MetricsRegistry::Global().GetCounter("checkpoint.inflight_writes")
        ->Increment();
  }
  return s;
}

Status LoadInflightCheckpoint(const std::string& path, Module* model,
                              Sgd* optimizer, Rng* rng, int* next_epoch,
                              uint64_t fingerprint) {
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("no inflight checkpoint at " + path);
  }
  Result<SectionFile> read =
      ReadSectionFile(path, kInflightMagic, kInflightVersion);
  EDDE_RETURN_NOT_OK(read.status());
  SectionFile& file = read.ValueOrDie();
  SectionReader header;
  EDDE_RETURN_NOT_OK(file.Next(kTagHeader, &header));
  uint64_t saved_fingerprint = 0;
  int64_t epoch = 0;
  if (!header.ReadU64(&saved_fingerprint) || !header.ReadI64(&epoch)) {
    return header.status();
  }
  if (saved_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "inflight checkpoint belongs to a different run/round");
  }

  SectionReader rng_section;
  EDDE_RETURN_NOT_OK(file.Next(kTagRng, &rng_section));
  RngState rng_state;
  EDDE_RETURN_NOT_OK(ReadRngState(&rng_section, &rng_state));

  // All or nothing: the momentum lands in a scratch optimizer, and the
  // parameters — each read restores all or none — are the last fallible
  // step, so a file refused anywhere leaves the model, the optimizer and
  // the RNG as they were.
  SectionReader params;
  EDDE_RETURN_NOT_OK(file.Next(kTagMember, &params));
  SectionReader optim;
  EDDE_RETURN_NOT_OK(file.Next(kTagOptim, &optim));
  Sgd momentum(model, optimizer->config());
  EDDE_RETURN_NOT_OK(momentum.LoadState(&optim));
  EDDE_RETURN_NOT_OK(ReadModuleParams(model, &params));

  *optimizer = std::move(momentum);
  rng->RestoreState(rng_state);
  *next_epoch = static_cast<int>(epoch);
  return Status::OK();
}

}  // namespace edde
