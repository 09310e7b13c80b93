#include "ensemble/run_checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "nn/checkpoint.h"
#include "utils/durable_io.h"
#include "utils/failpoint.h"
#include "utils/logging.h"
#include "utils/metrics.h"
#include "utils/run_manifest.h"
#include "utils/serialize.h"
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
constexpr uint32_t kVersion = 1;

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

// mkdir -p: the checkpoint dir is nested (base dir + per-method subdir),
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

// Methods sharing one --checkpoint_dir each get their own namespace, so
// e.g. a bench running Bagging then EDDE never rotates away the other
// method's generations.
std::string SanitizeForPath(const std::string& name) {
  std::string out;
  for (char c : name) {
    const auto u = static_cast<unsigned char>(c);
    out += std::isalnum(u) ? static_cast<char>(std::tolower(u)) : '_';
  }
  return out;
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
  out->resize(count);
  if (count > 0 && !in->ReadDoubles(out->data(), count)) return in->status();
  return Status::OK();
}

}  // namespace

uint64_t MethodFingerprint(const std::string& method_name,
                           const MethodConfig& config, int64_t dataset_size) {
  uint64_t fp = FingerprintBytes(method_name.data(), method_name.size());
  const uint64_t fields[] = {
      config.seed,
      static_cast<uint64_t>(config.num_members),
      static_cast<uint64_t>(config.epochs_per_member),
      static_cast<uint64_t>(config.batch_size),
      static_cast<uint64_t>(dataset_size),
  };
  return FingerprintBytes(fields, sizeof(fields), fp);
}

uint64_t InflightFingerprint(uint64_t method_fingerprint, int slot) {
  return FingerprintBytes(&slot, sizeof(slot), method_fingerprint);
}

RoundCheckpointer::RoundCheckpointer(const CheckpointConfig& config,
                                     std::string method_name,
                                     uint64_t method_fingerprint)
    : config_(config),
      method_name_(std::move(method_name)),
      fingerprint_(method_fingerprint) {
  if (!config_.dir.empty()) {
    config_.dir += "/" + SanitizeForPath(method_name_);
    // Created eagerly: inflight checkpoints land here before the first
    // generation write. Failure degrades (every write will warn), it never
    // fails the run.
    Status s = EnsureDir(config_.dir);
    if (!s.ok()) {
      EDDE_LOG(WARNING) << "cannot create checkpoint dir: " << s.ToString();
    }
  }
}

bool RoundCheckpointer::ShouldWrite(int round) const {
  if (!enabled()) return false;
  const int every = config_.every_rounds > 0 ? config_.every_rounds : 1;
  return round % every == 0;
}

Status RoundCheckpointer::Write(const TrainProgress& progress) {
  if (!enabled()) return Status::OK();
  TraceScope scope(GetTraceRegion("checkpoint/write"));
  EDDE_FAILPOINT_STATUS("checkpoint.round");
  EDDE_RETURN_NOT_OK(EnsureDir(config_.dir));

  const std::string path = GenerationPath(config_.dir, progress.round);
  BinaryWriter writer(path);
  writer.WriteU32(kGenerationMagic);

  SectionWriter header;
  header.WriteString(method_name_);
  header.WriteU64(fingerprint_);
  header.WriteI64(progress.round);
  header.WriteI64(progress.cumulative_epochs);
  header.WriteU64(progress.members.size());
  header.WriteU64(progress.weights.size());
  header.WriteDoubles(progress.weights.data(), progress.weights.size());
  header.WriteU64(progress.alphas.size());
  header.WriteDoubles(progress.alphas.data(), progress.alphas.size());
  header.WriteU64(progress.slots.size());
  for (uint64_t s : progress.slots) header.WriteU64(s);
  header.AppendTo(&writer, kTagHeader, kVersion);

  SectionWriter rng;
  WriteRngState(progress.rng, &rng);
  rng.AppendTo(&writer, kTagRng, kVersion);

  SectionWriter method_state;
  method_state.WriteBytes(progress.method_state.data(),
                          progress.method_state.size());
  method_state.AppendTo(&writer, kTagMethodState, kVersion);

  for (Module* member : progress.members) {
    SectionWriter section;
    WriteModuleParams(member, &section);
    section.AppendTo(&writer, kTagMember, kVersion);
  }
  EDDE_RETURN_NOT_OK(writer.Finish());
  MetricsRegistry::Global().GetCounter("checkpoint.generations")->Increment();
  EDDE_LOG(INFO) << method_name_ << ": checkpointed round " << progress.round
                 << " -> " << path;

  // The generation is durable; a crash between here and the end of rotation
  // only leaves extra old generations behind, which the next rotation
  // removes.
  EDDE_FAILPOINT("checkpoint.commit");
  if (config_.keep > 0) {
    std::vector<int> rounds = ListGenerations(config_.dir);
    std::sort(rounds.begin(), rounds.end());
    const size_t keep = static_cast<size_t>(config_.keep);
    if (rounds.size() > keep) {
      for (size_t i = 0; i + keep < rounds.size(); ++i) {
        ::unlink(GenerationPath(config_.dir, rounds[i]).c_str());
      }
    }
  }
  return Status::OK();
}

Status RoundCheckpointer::LoadLatest(const ModelFactory& factory,
                                     TrainProgress* progress) {
  if (!enabled()) return Status::NotFound("checkpointing disabled");
  std::vector<int> rounds = ListGenerations(config_.dir);
  std::sort(rounds.rbegin(), rounds.rend());  // newest first
  for (int round : rounds) {
    const std::string path = GenerationPath(config_.dir, round);
    TrainProgress candidate;
    Status s = [&]() -> Status {
      BinaryReader reader(path);
      EDDE_RETURN_NOT_OK(reader.status());
      uint32_t magic = 0;
      if (!reader.ReadU32(&magic)) return reader.status();
      if (magic != kGenerationMagic) {
        return Status::Corruption("bad generation magic");
      }

      SectionReader header;
      EDDE_RETURN_NOT_OK(header.Load(&reader, kTagHeader));
      std::string method_name;
      uint64_t fingerprint = 0;
      int64_t saved_round = 0;
      int64_t cumulative_epochs = 0;
      uint64_t num_members = 0;
      if (!header.ReadString(&method_name) ||
          !header.ReadU64(&fingerprint) || !header.ReadI64(&saved_round) ||
          !header.ReadI64(&cumulative_epochs) ||
          !header.ReadU64(&num_members)) {
        return header.status();
      }
      if (fingerprint != fingerprint_) {
        return Status::FailedPrecondition(
            "generation belongs to a different run (method/config/dataset "
            "changed)");
      }
      EDDE_RETURN_NOT_OK(ReadDoubleVector(&header, &candidate.weights));
      EDDE_RETURN_NOT_OK(ReadDoubleVector(&header, &candidate.alphas));
      uint64_t num_slots = 0;
      if (!header.ReadU64(&num_slots)) return header.status();
      candidate.slots.resize(num_slots);
      for (uint64_t& s : candidate.slots) {
        if (!header.ReadU64(&s)) return header.status();
      }
      if (candidate.alphas.size() != num_members) {
        return Status::Corruption("alpha count does not match member count");
      }
      candidate.round = static_cast<int>(saved_round);
      candidate.cumulative_epochs = static_cast<int>(cumulative_epochs);

      SectionReader rng;
      EDDE_RETURN_NOT_OK(rng.Load(&reader, kTagRng));
      EDDE_RETURN_NOT_OK(ReadRngState(&rng, &candidate.rng));

      SectionReader method_state;
      EDDE_RETURN_NOT_OK(method_state.Load(&reader, kTagMethodState));
      candidate.method_state = method_state.TakeRemaining();

      for (uint64_t i = 0; i < num_members; ++i) {
        SectionReader section;
        EDDE_RETURN_NOT_OK(section.Load(&reader, kTagMember));
        std::unique_ptr<Module> member = factory(0);
        EDDE_RETURN_NOT_OK(ReadModuleParams(member.get(), &section));
        candidate.owned_members.push_back(std::move(member));
      }
      return Status::OK();
    }();
    if (s.ok()) {
      *progress = std::move(candidate);
      MetricsRegistry::Global().GetCounter("checkpoint.resumes")->Increment();
      EDDE_LOG(INFO) << method_name_ << ": resuming from " << path
                     << " (round " << progress->round << ")";
      return Status::OK();
    }
    // Graceful degradation: a torn or bit-flipped newest generation must
    // never kill the run — fall back to the next older one.
    MetricsRegistry::Global()
        .GetCounter("checkpoint.corrupt_generations_skipped")
        ->Increment();
    EDDE_LOG(WARNING) << method_name_ << ": skipping unusable generation "
                      << path << ": " << s.ToString();
  }
  return Status::NotFound("no usable checkpoint generation in " +
                          config_.dir);
}

std::string RoundCheckpointer::InflightPath(int slot) const {
  char name[36];
  std::snprintf(name, sizeof(name), "inflight_%04d.edde", slot);
  return config_.dir + "/" + name;
}

void RoundCheckpointer::RemoveInflight(int slot) const {
  if (!enabled()) return;
  ::unlink(InflightPath(slot).c_str());
}

Status SaveInflightCheckpoint(const std::string& path, Module* model,
                              const Sgd& optimizer, const Rng& rng,
                              int next_epoch, uint64_t fingerprint) {
  TraceScope scope(GetTraceRegion("checkpoint/inflight"));
  BinaryWriter writer(path);
  writer.WriteU32(kInflightMagic);

  SectionWriter header;
  header.WriteU64(fingerprint);
  header.WriteI64(next_epoch);
  header.AppendTo(&writer, kTagHeader, kVersion);

  SectionWriter rng_section;
  WriteRngState(rng.SaveState(), &rng_section);
  rng_section.AppendTo(&writer, kTagRng, kVersion);

  SectionWriter params;
  WriteModuleParams(model, &params);
  params.AppendTo(&writer, kTagMember, kVersion);

  SectionWriter optim;
  optimizer.SaveState(&optim);
  optim.AppendTo(&writer, kTagOptim, kVersion);

  Status s = writer.Finish();
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
  BinaryReader reader(path);
  EDDE_RETURN_NOT_OK(reader.status());
  uint32_t magic = 0;
  if (!reader.ReadU32(&magic)) return reader.status();
  if (magic != kInflightMagic) {
    return Status::Corruption("bad inflight checkpoint magic");
  }

  SectionReader header;
  EDDE_RETURN_NOT_OK(header.Load(&reader, kTagHeader));
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
  EDDE_RETURN_NOT_OK(rng_section.Load(&reader, kTagRng));
  RngState rng_state;
  EDDE_RETURN_NOT_OK(ReadRngState(&rng_section, &rng_state));

  SectionReader params;
  EDDE_RETURN_NOT_OK(params.Load(&reader, kTagMember));
  EDDE_RETURN_NOT_OK(ReadModuleParams(model, &params));

  SectionReader optim;
  EDDE_RETURN_NOT_OK(optim.Load(&reader, kTagOptim));
  EDDE_RETURN_NOT_OK(optimizer->LoadState(&optim));

  rng->RestoreState(rng_state);
  *next_epoch = static_cast<int>(epoch);
  return Status::OK();
}

}  // namespace edde
