#ifndef EDDE_UTILS_DURABLE_IO_H_
#define EDDE_UTILS_DURABLE_IO_H_

#include <cstdint>
#include <string>

#include "utils/serialize.h"
#include "utils/status.h"

namespace edde {

/// Crash-consistent file IO (DESIGN.md §11).
///
/// Two layers:
///  1. Atomic commit — AtomicCommit / AtomicWriteFile (and BinaryWriter,
///     which buffers and commits through them) stage content in a sibling
///     temp file, fsync it, rename() over the destination, and fsync
///     the parent directory. A reader (or a restarted process) observes
///     either the previous complete file or the new complete file, never a
///     prefix. Transient errors (EINTR/EAGAIN and failpoint-injected ones)
///     are retried with bounded exponential backoff.
///  2. Integrity framing — SectionWriter / SectionReader wrap BinaryWriter /
///     BinaryReader with [tag, version, size, payload, CRC32] sections so a
///     torn or bit-flipped file is detected on load *before* any payload is
///     parsed, turning corruption into a Status the caller can use to fall
///     back to an older checkpoint generation.
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

/// Builds one integrity-framed section payload in memory. Append the frame
/// to a file with AppendTo(), or embed the raw payload in an enclosing
/// section via payload() (nested blobs re-enter through
/// SectionReader::InitFromPayload).
///
/// Frame layout (little-endian):
///   u32 tag | u32 version | u64 payload_bytes | payload | u32 crc32(payload)
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

  /// Appends the framed section (header + payload + CRC) to `out`.
  void AppendTo(BinaryWriter* out, uint32_t tag, uint32_t version) const;

  const std::string& payload() const { return payload_; }

 private:
  std::string payload_;
};

/// Reads one framed section and verifies its CRC before exposing any field.
/// On CRC mismatch, truncated payload, or a declared size exceeding the
/// bytes remaining in the file, Load() returns Corruption and the reader
/// stays empty — no partially-validated data is ever visible.
class SectionReader {
 public:
  /// Reads the next section frame from `in`. `expected_tag` guards against
  /// out-of-order sections; pass 0 to accept any tag.
  Status Load(BinaryReader* in, uint32_t expected_tag = 0);

  /// Adopts a raw payload extracted from an enclosing section (no frame, no
  /// CRC — the enclosing section already vouched for these bytes).
  void InitFromPayload(std::string payload);

  uint32_t tag() const { return tag_; }
  uint32_t version() const { return version_; }

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

  /// Consumes and returns all unread payload bytes (nested blobs).
  std::string TakeRemaining();

  const Status& status() const { return status_; }

 private:
  bool ReadBytes(void* dst, size_t count);

  uint32_t tag_ = 0;
  uint32_t version_ = 0;
  std::string payload_;
  size_t offset_ = 0;
  Status status_;
};

}  // namespace edde

#endif  // EDDE_UTILS_DURABLE_IO_H_
