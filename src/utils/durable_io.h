#ifndef EDDE_UTILS_DURABLE_IO_H_
#define EDDE_UTILS_DURABLE_IO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "utils/status.h"

namespace edde {

/// Crash-consistent file IO (DESIGN.md §11).
///
/// Two layers:
///  1. Atomic commit — AtomicCommit / AtomicWriteFile stage content in a
///     sibling temp file, fsync it, rename() over the destination, and
///     fsync the parent directory. A reader (or a restarted process)
///     observes either the previous complete file or the new complete
///     file, never a prefix. Transient errors (EINTR/EAGAIN and
///     failpoint-injected ones) are retried with bounded exponential
///     backoff.
///  2. Framed files — every on-disk format (ensemble artifacts, run
///     generations, inflight checkpoints) is a magic word followed by
///     [tag, version, size, payload, CRC32] sections. WriteSectionFile
///     commits one atomically; ReadSectionFile refuses it unless the magic
///     and every frame's bounds, CRC and version check out, so a torn,
///     bit-flipped or foreign-version file is a Status *before* any
///     payload field is parsed, and the caller can fall back to an older
///     checkpoint generation. Callers know only their field layouts.
///
/// Every fallible step carries a failpoint site (utils/failpoint.h):
/// durable.write, durable.fsync, durable.rename, durable.dirsync.

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), chainable via
/// `crc` for multi-part data. Crc32(data, n) == Crc32(b, n-k, Crc32(a, k))
/// when data = a||b.
uint32_t Crc32(const void* data, size_t size, uint32_t crc = 0);

struct DurableIoOptions {
  int max_attempts = 4;  ///< per fallible op (write / fsync / rename)
  int backoff_ms = 5;    ///< base backoff; doubles per retry
};

/// The staging path AtomicCommit uses for `path`
/// ("<path>.tmp.<pid>" — pid-suffixed so concurrent processes writing the
/// same destination cannot stomp each other's staging file).
std::string TempPathFor(const std::string& path);

/// Writes `size` bytes to `path` with the full temp → fsync → rename →
/// dirsync sequence. The destination is untouched on failure (the staging
/// file is unlinked on a failed commit).
Status AtomicCommit(const std::string& path, const void* data, size_t size,
                    const DurableIoOptions& options = DurableIoOptions());

/// Convenience wrapper over AtomicCommit for string content.
Status AtomicWriteFile(const std::string& path, const std::string& contents,
                       const DurableIoOptions& options = DurableIoOptions());

/// Builds one section payload in memory, for WriteSectionFile.
class SectionWriter {
 public:
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteFloats(const float* data, size_t count);
  void WriteDoubles(const double* data, size_t count);
  void WriteBytes(const void* data, size_t count);

  const std::string& payload() const { return payload_; }

 private:
  std::string payload_;
};

/// One section of a framed file: its tag and its payload.
struct TaggedSection {
  uint32_t tag;
  const SectionWriter* section;
};

/// Atomically commits `magic`, then one frame per section, in order.
///
/// File layout (little-endian):
///   u32 magic | frame* , frame =
///   u32 tag | u32 version | u64 payload_bytes | payload | u32 crc32(payload)
Status WriteSectionFile(const std::string& path, uint32_t magic,
                        uint32_t version,
                        const std::vector<TaggedSection>& sections);

class SectionFile;

/// Reads `path` once and refuses it — IOError when it cannot be read,
/// Corruption otherwise — unless it starts with `magic` and its frames tile
/// the rest of the file, each within bounds, with a matching CRC and
/// version `version`. A declared size is checked against the bytes left
/// before it sizes any allocation.
Result<SectionFile> ReadSectionFile(const std::string& path, uint32_t magic,
                                    uint32_t version);

/// The payload of one section that passed its frame checks. Every read is
/// bounded by the payload: a read past its end fails, sets Corruption and
/// leaves the reader failed. A default-constructed reader is empty.
class SectionReader {
 public:
  SectionReader() = default;

  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadI64(int64_t* v);
  bool ReadF32(float* v);
  bool ReadF64(double* v);
  bool ReadString(std::string* s);
  bool ReadFloats(float* data, size_t count);
  bool ReadDoubles(double* data, size_t count);
  /// Raw bytes, no length prefix (caller-framed arrays, e.g. fp16 blobs).
  bool ReadRaw(void* dst, size_t count);

  /// Bytes left in the payload. 0 when fully consumed.
  size_t remaining() const { return payload_.size() - offset_; }

  const Status& status() const { return status_; }

 private:
  friend Result<SectionFile> ReadSectionFile(const std::string&, uint32_t,
                                             uint32_t);
  explicit SectionReader(std::string payload) : payload_(std::move(payload)) {}

  bool ReadBytes(void* dst, size_t count);

  std::string payload_;
  size_t offset_ = 0;
  Status status_;
};

/// The sections of a file ReadSectionFile accepted, in file order.
class SectionFile {
 public:
  /// Moves the next section into `*section`. Corruption when no section is
  /// left or the next one does not carry `tag`.
  Status Next(uint32_t tag, SectionReader* section);

 private:
  friend Result<SectionFile> ReadSectionFile(const std::string&, uint32_t,
                                             uint32_t);

  std::vector<std::pair<uint32_t, SectionReader>> sections_;  ///< tag, body
  size_t next_ = 0;
};

}  // namespace edde

#endif  // EDDE_UTILS_DURABLE_IO_H_
