#ifndef EDDE_UTILS_SERIALIZE_H_
#define EDDE_UTILS_SERIALIZE_H_

#include <cstdint>
#include <fstream>
#include <string>

#include "utils/status.h"

namespace edde {

/// Little-endian binary writer for the on-disk formats: a magic word, then
/// framed sections (utils/durable_io). Bytes are buffered in memory and
/// committed atomically on Finish() (temp file → fsync → rename → dir
/// fsync), so readers observe either the old file or the complete new one,
/// never a prefix.
class BinaryWriter {
 public:
  /// The destination is untouched until Finish() commits, so errors on an
  /// unwritable path surface from Finish().
  explicit BinaryWriter(const std::string& path);

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  /// Raw bytes, no length prefix (section payloads frame themselves).
  void WriteBytes(const void* data, size_t count);

  /// Atomically commits the buffered bytes.
  Status Finish();

 private:
  std::string path_;
  std::string buffer_;
};

/// Little-endian binary reader matching BinaryWriter.
/// Read operations return false (and set status) on EOF/corruption.
/// Every read is clamped against the bytes actually remaining, so a
/// corrupt length field yields a Corruption status instead of an overread.
class BinaryReader {
 public:
  /// Opens `path` for reading; check status() before use.
  explicit BinaryReader(const std::string& path);

  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  /// Raw bytes, no length prefix.
  bool ReadRaw(void* dst, size_t count);

  /// Bytes left between the cursor and end of file.
  uint64_t remaining() const { return file_size_ - offset_; }

  const Status& status() const { return status_; }

 private:
  std::ifstream in_;
  uint64_t file_size_ = 0;
  uint64_t offset_ = 0;
  Status status_;
};

}  // namespace edde

#endif  // EDDE_UTILS_SERIALIZE_H_
