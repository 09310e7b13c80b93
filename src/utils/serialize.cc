#include "utils/serialize.h"

#include "utils/durable_io.h"

namespace edde {

BinaryWriter::BinaryWriter(const std::string& path) : path_(path) {}

void BinaryWriter::WriteBytes(const void* data, size_t count) {
  buffer_.append(static_cast<const char*>(data), count);
}

void BinaryWriter::WriteU32(uint32_t v) { WriteBytes(&v, sizeof(v)); }
void BinaryWriter::WriteU64(uint64_t v) { WriteBytes(&v, sizeof(v)); }

Status BinaryWriter::Finish() { return AtomicWriteFile(path_, buffer_); }

BinaryReader::BinaryReader(const std::string& path)
    : in_(path, std::ios::binary) {
  if (!in_.is_open()) {
    status_ = Status::IOError("cannot open for reading: " + path);
    return;
  }
  in_.seekg(0, std::ios::end);
  std::streamoff end = in_.tellg();
  in_.seekg(0, std::ios::beg);
  if (end < 0 || !in_.good()) {
    status_ = Status::IOError("cannot determine file size: " + path);
    return;
  }
  file_size_ = static_cast<uint64_t>(end);
}

bool BinaryReader::ReadRaw(void* dst, size_t count) {
  if (!status_.ok()) return false;
  if (count > remaining()) {
    status_ = Status::Corruption("unexpected end of file");
    return false;
  }
  in_.read(reinterpret_cast<char*>(dst),
           static_cast<std::streamsize>(count));
  if (static_cast<size_t>(in_.gcount()) != count) {
    status_ = Status::Corruption("unexpected end of file");
    return false;
  }
  offset_ += count;
  return true;
}

bool BinaryReader::ReadU32(uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
bool BinaryReader::ReadU64(uint64_t* v) { return ReadRaw(v, sizeof(*v)); }

}  // namespace edde
