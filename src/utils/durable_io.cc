#include "utils/durable_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>

#include "utils/failpoint.h"
#include "utils/logging.h"
#include "utils/metrics.h"

namespace edde {

namespace {

const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    auto* t = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t crc) {
  const uint32_t* table = Crc32Table();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string TempPathFor(const std::string& path) {
  return path + ".tmp." + std::to_string(::getpid());
}

namespace {

bool IsTransientErrno(int err) { return err == EINTR || err == EAGAIN; }

void Backoff(const DurableIoOptions& options, int attempt) {
  int ms = options.backoff_ms << attempt;  // 5, 10, 20, ...
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Injected failpoint errors are treated as transient so `site=error:N`
// specs exercise the retry path end to end.
Status HitSite(const char* site) {
  if (!failpoint::AnyActive()) return Status::OK();
  return failpoint::Hit(site);
}

// Creates the staging file and lands the payload + fsync in it.
// One attempt; the caller retries.
Status WriteTempOnce(const std::string& temp, const void* data, size_t size) {
  EDDE_RETURN_NOT_OK(HitSite("durable.write"));
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open(" + temp + "): " + std::strerror(errno));
  }
  // An armed short_write drops the tail of the payload but lets the commit
  // proceed — the torn-write scenario the CRC framing must catch on load.
  size_t drop = failpoint::ShortWriteBytes("durable.write");
  size_t to_write = drop >= size ? 0 : size - drop;
  const char* p = static_cast<const char*>(data);
  size_t written = 0;
  while (written < to_write) {
    ssize_t n = ::write(fd, p + written, to_write - written);
    if (n < 0) {
      if (IsTransientErrno(errno)) continue;
      int err = errno;
      ::close(fd);
      return Status::IOError("write(" + temp + "): " + std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  Status fp = HitSite("durable.fsync");
  if (!fp.ok()) {
    ::close(fd);
    return fp;
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IOError("fsync(" + temp + "): " + std::strerror(err));
  }
  if (::close(fd) != 0) {
    return Status::IOError("close(" + temp + "): " + std::strerror(errno));
  }
  return Status::OK();
}

Status RenameOnce(const std::string& temp, const std::string& path) {
  EDDE_RETURN_NOT_OK(HitSite("durable.rename"));
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename(" + temp + " -> " + path +
                           "): " + std::strerror(errno));
  }
  return Status::OK();
}

// fsync of the parent directory persists the rename itself. A failure here
// means the commit may not survive power loss, but the in-flight process
// state is fine — log and carry on rather than failing the write.
void SyncParentDir(const std::string& path) {
  Status fp = HitSite("durable.dirsync");
  std::string dir = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash);
  if (dir.empty()) dir = "/";
  if (!fp.ok()) {
    EDDE_LOG(WARNING) << "skipping dir fsync for " << path << ": "
                      << fp.ToString();
    return;
  }
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    EDDE_LOG(WARNING) << "cannot open dir " << dir
                      << " for fsync: " << std::strerror(errno);
    return;
  }
  if (::fsync(fd) != 0) {
    EDDE_LOG(WARNING) << "dir fsync(" << dir
                      << ") failed: " << std::strerror(errno);
  }
  ::close(fd);
}

Status Retried(const char* what, const DurableIoOptions& options,
               const std::function<Status()>& op) {
  Status last;
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    if (attempt > 0) {
      Backoff(options, attempt - 1);
      MetricsRegistry::Global().GetCounter("durable.retries")->Increment();
    }
    last = op();
    if (last.ok()) return last;
    EDDE_LOG(WARNING) << what << " attempt " << (attempt + 1) << "/"
                      << options.max_attempts << " failed: "
                      << last.ToString();
  }
  return last;
}

}  // namespace

Status AtomicCommit(const std::string& path, const void* data, size_t size,
                    const DurableIoOptions& options) {
  const std::string temp = TempPathFor(path);
  Status s = Retried("durable write", options, [&] {
    return WriteTempOnce(temp, data, size);
  });
  if (s.ok()) {
    s = Retried("durable rename", options,
                [&] { return RenameOnce(temp, path); });
  }
  if (!s.ok()) {
    ::unlink(temp.c_str());  // never leave a stale staging file behind
    MetricsRegistry::Global().GetCounter("durable.commit_failures")
        ->Increment();
    return s;
  }
  SyncParentDir(path);
  MetricsRegistry::Global().GetCounter("durable.commits")->Increment();
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, const std::string& contents,
                       const DurableIoOptions& options) {
  return AtomicCommit(path, contents.data(), contents.size(), options);
}

AtomicFileWriter::AtomicFileWriter(std::string path, DurableIoOptions options)
    : path_(std::move(path)), options_(options) {}

void AtomicFileWriter::Append(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

Status AtomicFileWriter::Commit() {
  return AtomicCommit(path_, buffer_.data(), buffer_.size(), options_);
}

void SectionWriter::WriteBytes(const void* data, size_t count) {
  payload_.append(static_cast<const char*>(data), count);
}

void SectionWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void SectionWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }
void SectionWriter::WriteI64(int64_t v) { WriteBytes(&v, sizeof(v)); }
void SectionWriter::WriteF32(float v) { WriteBytes(&v, sizeof(v)); }
void SectionWriter::WriteF64(double v) { WriteBytes(&v, sizeof(v)); }

void SectionWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteBytes(s.data(), s.size());
}

void SectionWriter::WriteFloats(const float* data, size_t count) {
  WriteBytes(data, count * sizeof(float));
}

void SectionWriter::WriteDoubles(const double* data, size_t count) {
  WriteBytes(data, count * sizeof(double));
}

void SectionWriter::AppendTo(BinaryWriter* out, uint32_t tag,
                             uint32_t version) const {
  out->WriteU32(tag);
  out->WriteU32(version);
  out->WriteU64(payload_.size());
  out->WriteBytes(payload_.data(), payload_.size());
  out->WriteU32(Crc32(payload_.data(), payload_.size()));
}

Status SectionReader::Load(BinaryReader* in, uint32_t expected_tag) {
  uint32_t tag = 0;
  uint32_t version = 0;
  uint64_t size = 0;
  if (!in->ReadU32(&tag) || !in->ReadU32(&version) || !in->ReadU64(&size)) {
    return Status::Corruption("truncated section header");
  }
  if (expected_tag != 0 && tag != expected_tag) {
    return Status::Corruption("section tag mismatch: expected " +
                              std::to_string(expected_tag) + ", found " +
                              std::to_string(tag));
  }
  // The CRC trailer must also fit, so the payload can claim at most
  // remaining − 4 bytes. Checked before the resize: a bit-flipped size
  // field must not drive a huge allocation.
  if (in->remaining() < sizeof(uint32_t) ||
      size > in->remaining() - sizeof(uint32_t)) {
    return Status::Corruption("section payload exceeds remaining file bytes");
  }
  std::string payload;
  payload.resize(size);
  if (size > 0 && !in->ReadRaw(payload.data(), size)) {
    return Status::Corruption("truncated section payload");
  }
  uint32_t stored_crc = 0;
  if (!in->ReadU32(&stored_crc)) {
    return Status::Corruption("truncated section CRC");
  }
  uint32_t actual_crc = Crc32(payload.data(), payload.size());
  if (stored_crc != actual_crc) {
    return Status::Corruption("section CRC mismatch (tag " +
                              std::to_string(tag) + ")");
  }
  tag_ = tag;
  version_ = version;
  payload_ = std::move(payload);
  offset_ = 0;
  status_ = Status::OK();
  return Status::OK();
}

void SectionReader::InitFromPayload(std::string payload) {
  tag_ = 0;
  version_ = 0;
  payload_ = std::move(payload);
  offset_ = 0;
  status_ = Status::OK();
}

bool SectionReader::ReadBytes(void* dst, size_t count) {
  if (!status_.ok()) return false;
  if (count > remaining()) {
    status_ = Status::Corruption("read past end of section payload");
    return false;
  }
  std::memcpy(dst, payload_.data() + offset_, count);
  offset_ += count;
  return true;
}

std::string SectionReader::TakeRemaining() {
  std::string out = payload_.substr(offset_);
  offset_ = payload_.size();
  return out;
}

bool SectionReader::ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
bool SectionReader::ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
bool SectionReader::ReadI64(int64_t* v) { return ReadBytes(v, sizeof(*v)); }
bool SectionReader::ReadF32(float* v) { return ReadBytes(v, sizeof(*v)); }
bool SectionReader::ReadF64(double* v) { return ReadBytes(v, sizeof(*v)); }

bool SectionReader::ReadString(std::string* s) {
  uint64_t size = 0;
  if (!ReadU64(&size)) return false;
  if (size > remaining()) {
    status_ =
        Status::Corruption("string length exceeds remaining section bytes");
    return false;
  }
  s->resize(size);
  return size == 0 || ReadBytes(s->data(), size);
}

bool SectionReader::ReadFloats(float* data, size_t count) {
  if (!status_.ok()) return false;
  if (count > remaining() / sizeof(float)) {
    status_ =
        Status::Corruption("float array exceeds remaining section bytes");
    return false;
  }
  return ReadBytes(data, count * sizeof(float));
}

bool SectionReader::ReadRaw(void* dst, size_t count) {
  return ReadBytes(dst, count);
}

bool SectionReader::ReadDoubles(double* data, size_t count) {
  if (!status_.ok()) return false;
  if (count > remaining() / sizeof(double)) {
    status_ =
        Status::Corruption("double array exceeds remaining section bytes");
    return false;
  }
  return ReadBytes(data, count * sizeof(double));
}

}  // namespace edde
