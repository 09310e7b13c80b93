#include "test_util.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "utils/crash.h"
#include "utils/durable_io.h"
#include "utils/logging.h"

namespace edde {
namespace testing {

namespace {

/// Death tests crash on purpose, and every crash writes a report
/// (utils/crash). Each test binary points the reports at a temporary
/// directory of its own and removes it when it exits. A threadsafe-style
/// death-test child re-executes the binary and finds the directory in the
/// environment; a forked one inherits it. Neither removes it.
class CrashReportDir {
 public:
  CrashReportDir() {
    if (const char* inherited = std::getenv(kEnv)) {
      SetCrashReportDir(inherited);
      return;
    }
    std::string dir = ::testing::TempDir();
    if (dir.empty() || dir.back() != '/') dir += '/';
    dir += "edde_test_crash_XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) return;  // reports stay in the cwd
    dir_ = dir;
    owner_ = ::getpid();
    ::setenv(kEnv, dir_.c_str(), 1);
    SetCrashReportDir(dir_);
  }

  ~CrashReportDir() {
    if (dir_.empty() || ::getpid() != owner_) return;
    if (DIR* d = ::opendir(dir_.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name != "." && name != "..") ::unlink((dir_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(dir_.c_str());
  }

 private:
  static constexpr const char* kEnv = "EDDE_TEST_CRASH_REPORT_DIR";
  std::string dir_;
  pid_t owner_ = 0;
};

const CrashReportDir g_crash_report_dir;

double Objective(Module* module, const Tensor& input, const Tensor& probe,
                 bool training) {
  Tensor out = module->Forward(input, training);
  EDDE_CHECK(out.shape() == probe.shape());
  return Dot(out, probe);
}

void UpdateErrors(double analytic, double numeric, GradCheckResult* result) {
  const double abs_err = std::fabs(analytic - numeric);
  const double denom = std::max({std::fabs(analytic), std::fabs(numeric),
                                 1e-4});
  result->max_abs_error = std::max(result->max_abs_error, abs_err);
  result->max_rel_error = std::max(result->max_rel_error, abs_err / denom);
  ++result->checked;
}

std::vector<int64_t> SampleCoords(int64_t n, int64_t max_checks, Rng* rng) {
  std::vector<int64_t> coords;
  if (n <= max_checks) {
    coords.resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) coords[static_cast<size_t>(i)] = i;
  } else {
    coords.reserve(static_cast<size_t>(max_checks));
    for (int64_t i = 0; i < max_checks; ++i) {
      coords.push_back(rng->UniformInt(n));
    }
  }
  return coords;
}

}  // namespace

GradCheckResult CheckModuleGradients(Module* module, const Tensor& input,
                                     bool training, Rng* rng, double epsilon,
                                     int64_t max_checks_per_tensor) {
  // Fixed probe so the objective is deterministic.
  Tensor out = module->Forward(input, training);
  Tensor probe(out.shape());
  probe.FillNormal(rng, 0.0f, 1.0f);

  // Analytic gradients.
  module->ZeroGrad();
  Tensor x = input.Clone();
  module->Forward(x, training);
  Tensor input_grad = module->Backward(probe);

  GradCheckResult result;

  // Input gradient check (skip modules whose input is not differentiable).
  if (!input_grad.empty()) {
    for (int64_t idx :
         SampleCoords(x.num_elements(), max_checks_per_tensor, rng)) {
      const float saved = x.data()[idx];
      x.data()[idx] = saved + static_cast<float>(epsilon);
      const double fp = Objective(module, x, probe, training);
      x.data()[idx] = saved - static_cast<float>(epsilon);
      const double fm = Objective(module, x, probe, training);
      x.data()[idx] = saved;
      UpdateErrors(input_grad.data()[idx], (fp - fm) / (2 * epsilon), &result);
    }
  }

  // Parameter gradient checks. Gradients were accumulated by the analytic
  // Backward above; numeric probes must not touch them, so stash copies.
  for (Parameter* p : module->Parameters()) {
    if (!p->trainable) continue;
    Tensor grad_copy = p->grad.Clone();
    for (int64_t idx :
         SampleCoords(p->value.num_elements(), max_checks_per_tensor, rng)) {
      const float saved = p->value.data()[idx];
      p->value.data()[idx] = saved + static_cast<float>(epsilon);
      const double fp = Objective(module, x, probe, training);
      p->value.data()[idx] = saved - static_cast<float>(epsilon);
      const double fm = Objective(module, x, probe, training);
      p->value.data()[idx] = saved;
      UpdateErrors(grad_copy.data()[idx], (fp - fm) / (2 * epsilon), &result);
    }
  }
  return result;
}

Dataset MakeBlobs(int64_t n, int64_t dim, int num_classes, uint64_t seed,
                  float spread) {
  return MakeBlobsSplit(n, 0, dim, num_classes, seed, spread).train;
}

BlobSplit MakeBlobsSplit(int64_t n_train, int64_t n_test, int64_t dim,
                         int num_classes, uint64_t seed, float spread) {
  Rng rng(seed);
  // Shared class centers for both splits.
  std::vector<std::vector<float>> centers(static_cast<size_t>(num_classes));
  for (auto& c : centers) {
    c.resize(static_cast<size_t>(dim));
    for (auto& v : c) v = static_cast<float>(rng.Normal(0.0, 2.0));
  }
  auto generate = [&](int64_t n, const std::string& name) {
    Tensor features(Shape{n, dim});
    std::vector<int> labels(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      const int y = static_cast<int>(rng.UniformInt(num_classes));
      labels[static_cast<size_t>(i)] = y;
      for (int64_t j = 0; j < dim; ++j) {
        features.at(i, j) =
            centers[static_cast<size_t>(y)][static_cast<size_t>(j)] +
            static_cast<float>(rng.Normal(0.0, spread));
      }
    }
    return Dataset(name, std::move(features), std::move(labels), num_classes);
  };
  BlobSplit split;
  split.train = generate(n_train, "blobs/train");
  if (n_test > 0) split.test = generate(n_test, "blobs/test");
  return split;
}

DirCheckResult CheckDirectionalDerivative(Module* module, const Tensor& input,
                                          bool training, Rng* rng,
                                          double epsilon) {
  Tensor out = module->Forward(input, training);
  Tensor probe(out.shape());
  probe.FillNormal(rng, 0.0f, 1.0f);

  // Analytic gradient.
  module->ZeroGrad();
  module->Forward(input, training);
  module->Backward(probe);

  // Probe along the analytic gradient itself (normalized): this maximizes
  // |∇f·d| relative to |f|, keeping the central difference above float32
  // cancellation noise for deep networks.
  auto params = module->Parameters();
  double grad_norm2 = 0.0;
  for (Parameter* p : params) {
    if (p->trainable) grad_norm2 += SquaredNorm(p->grad);
  }
  const double grad_norm = std::sqrt(std::max(grad_norm2, 1e-30));
  std::vector<Tensor> direction;
  double analytic = 0.0;
  for (Parameter* p : params) {
    Tensor d(p->value.shape());
    if (p->trainable) {
      d.CopyFrom(p->grad);
      Scale(static_cast<float>(1.0 / grad_norm), &d);
      analytic += Dot(p->grad, d);
    } else {
      d.Fill(0.0f);
    }
    direction.push_back(std::move(d));
  }

  auto objective = [&] {
    return Dot(module->Forward(input, training), probe);
  };
  auto shift = [&](double scale) {
    for (size_t i = 0; i < params.size(); ++i) {
      Axpy(static_cast<float>(scale), direction[i], &params[i]->value);
    }
  };
  shift(epsilon);
  const double fp = objective();
  shift(-2.0 * epsilon);
  const double fm = objective();
  shift(epsilon);  // restore

  DirCheckResult result;
  result.analytic = analytic;
  result.numeric = (fp - fm) / (2.0 * epsilon);
  const double denom = std::max(
      {std::fabs(result.analytic), std::fabs(result.numeric), 1e-6});
  result.rel_error = std::fabs(result.analytic - result.numeric) / denom;
  return result;
}

std::string ParameterBytes(Module* m) {
  std::string out;
  for (Parameter* p : m->Parameters()) {
    out.append(reinterpret_cast<const char*>(p->value.data()),
               static_cast<size_t>(p->value.num_elements()) * sizeof(float));
  }
  return out;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::vector<Frame> ParseFrames(const std::string& bytes, uint32_t* magic) {
  *magic = LoadWord<uint32_t>(bytes, 0);
  std::vector<Frame> frames;
  size_t pos = sizeof(uint32_t);
  while (pos < bytes.size()) {
    Frame f;
    f.tag = LoadWord<uint32_t>(bytes, pos);
    f.version = LoadWord<uint32_t>(bytes, pos + 4);
    const uint64_t size = LoadWord<uint64_t>(bytes, pos + 8);
    f.payload = bytes.substr(pos + 16, size);
    pos += 16 + size + sizeof(uint32_t);
    frames.push_back(std::move(f));
  }
  return frames;
}

std::string BuildFile(uint32_t magic, const std::vector<Frame>& frames) {
  std::string out(sizeof(uint32_t), '\0');
  StoreWord(&out, 0, magic);
  for (const Frame& f : frames) {
    std::string head(16, '\0');
    StoreWord(&head, 0, f.tag);
    StoreWord(&head, 4, f.version);
    StoreWord<uint64_t>(&head, 8, f.payload.size());
    std::string crc(sizeof(uint32_t), '\0');
    StoreWord(&crc, 0, Crc32(f.payload.data(), f.payload.size()));
    out += head + f.payload + crc;
  }
  return out;
}

}  // namespace testing
}  // namespace edde
