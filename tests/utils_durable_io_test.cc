#include "utils/durable_io.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "utils/failpoint.h"
#include "utils/status.h"

namespace edde {
namespace {

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class DurableIoTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::Clear(); }
  void TearDown() override { failpoint::Clear(); }

  // Fast retries so the error-injection tests don't sleep for real.
  DurableIoOptions FastRetry() {
    DurableIoOptions options;
    options.max_attempts = 3;
    options.backoff_ms = 1;
    return options;
  }
};

TEST_F(DurableIoTest, Crc32MatchesKnownVectors) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
  // Chaining must equal one-shot.
  uint32_t chained = Crc32("1234", 4);
  chained = Crc32("56789", 5, chained);
  EXPECT_EQ(chained, 0xCBF43926u);
}

TEST_F(DurableIoTest, AtomicWriteFileRoundTripsAndLeavesNoTemp) {
  const std::string path = TestPath("durable_roundtrip.bin");
  // Embedded NUL and high bytes: the writer must be 8-bit clean.
  const std::string payload("hello\0world\xff durable", 20);
  const std::string temp = TempPathFor(path);
  ASSERT_TRUE(AtomicWriteFile(path, payload).ok());
  EXPECT_EQ(ReadWholeFile(path), payload);
  EXPECT_FALSE(FileExists(temp)) << "staging file must not survive a commit";
}

TEST_F(DurableIoTest, AtomicWriteReplacesExistingFileCompletely) {
  const std::string path = TestPath("durable_replace.bin");
  ASSERT_TRUE(AtomicWriteFile(path, std::string(4096, 'a')).ok());
  ASSERT_TRUE(AtomicWriteFile(path, "short").ok());
  EXPECT_EQ(ReadWholeFile(path), "short");
}

TEST_F(DurableIoTest, InjectedWriteErrorIsRetriedToSuccess) {
  const std::string path = TestPath("durable_retry.bin");
  ASSERT_TRUE(failpoint::SetSpec("durable.write=error:2").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "recovered", FastRetry()).ok());
  EXPECT_EQ(ReadWholeFile(path), "recovered");
}

TEST_F(DurableIoTest, PersistentErrorFailsAfterMaxAttemptsWithoutStaleTemp) {
  const std::string path = TestPath("durable_giveup.bin");
  ASSERT_TRUE(failpoint::SetSpec("durable.rename=error").ok());
  const Status s = AtomicWriteFile(path, "never lands", FastRetry());
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(TempPathFor(path)))
      << "failed commits must clean up their staging file";
}

constexpr uint32_t kMagic = 0xEDDE7E57;

/// Reads `path` as a framed file of version `version` and takes its first
/// section, which must carry `tag`.
Status ReadFirstSection(const std::string& path, uint32_t tag,
                        SectionReader* section, uint32_t version = 1) {
  Result<SectionFile> file = ReadSectionFile(path, kMagic, version);
  EDDE_RETURN_NOT_OK(file.status());
  return file.ValueOrDie().Next(tag, section);
}

TEST_F(DurableIoTest, SectionFileRoundTripsEveryFieldType) {
  const std::string path = TestPath("section_roundtrip.bin");
  SectionWriter first;
  first.WriteU32(7);
  first.WriteU64(uint64_t{1} << 40);
  first.WriteI64(-42);
  first.WriteF32(0.5f);
  first.WriteF64(-0.125);
  first.WriteString("edde");
  const std::vector<float> floats = {1.5f, -2.25f, 0.0f};
  first.WriteU64(floats.size());
  first.WriteFloats(floats.data(), floats.size());
  const std::vector<double> doubles = {3.0, -1e300};
  first.WriteDoubles(doubles.data(), doubles.size());
  first.WriteBytes("raw", 3);
  SectionWriter empty;
  ASSERT_TRUE(WriteSectionFile(path, kMagic, /*version=*/2,
                               {{3, &first}, {5, &empty}})
                  .ok());

  Result<SectionFile> file = ReadSectionFile(path, kMagic, /*version=*/2);
  ASSERT_TRUE(file.ok()) << file.status();
  SectionReader in;
  ASSERT_TRUE(file.ValueOrDie().Next(/*tag=*/3, &in).ok());
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  float f32 = 0;
  double f64 = 0;
  std::string s;
  uint64_t count = 0;
  ASSERT_TRUE(in.ReadU32(&u32));
  ASSERT_TRUE(in.ReadU64(&u64));
  ASSERT_TRUE(in.ReadI64(&i64));
  ASSERT_TRUE(in.ReadF32(&f32));
  ASSERT_TRUE(in.ReadF64(&f64));
  ASSERT_TRUE(in.ReadString(&s));
  ASSERT_TRUE(in.ReadU64(&count));
  std::vector<float> back(count);
  ASSERT_TRUE(in.ReadFloats(back.data(), count));
  std::vector<double> back_doubles(doubles.size());
  ASSERT_TRUE(in.ReadDoubles(back_doubles.data(), back_doubles.size()));
  char raw[3];
  ASSERT_TRUE(in.ReadRaw(raw, sizeof(raw)));
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, uint64_t{1} << 40);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 0.5f);
  EXPECT_EQ(f64, -0.125);
  EXPECT_EQ(s, "edde");
  EXPECT_EQ(back, floats);
  EXPECT_EQ(back_doubles, doubles);
  EXPECT_EQ(std::string(raw, 3), "raw");
  EXPECT_EQ(in.remaining(), 0u);

  SectionReader second;
  ASSERT_TRUE(file.ValueOrDie().Next(/*tag=*/5, &second).ok());
  EXPECT_EQ(second.remaining(), 0u);
  EXPECT_EQ(file.ValueOrDie().Next(/*tag=*/5, &second).code(),
            StatusCode::kCorruption)
      << "no section is left";
}

TEST_F(DurableIoTest, SectionTagMismatchIsCorruption) {
  const std::string path = TestPath("section_tag.bin");
  SectionWriter section;
  section.WriteU32(1);
  ASSERT_TRUE(WriteSectionFile(path, kMagic, 1, {{2, &section}}).ok());
  SectionReader in;
  EXPECT_EQ(ReadFirstSection(path, /*tag=*/3, &in).code(),
            StatusCode::kCorruption);
}

TEST_F(DurableIoTest, MissingFileIsIOError) {
  Result<SectionFile> file =
      ReadSectionFile("/nonexistent/path/file.bin", kMagic, 1);
  EXPECT_EQ(file.status().code(), StatusCode::kIOError);
}

TEST_F(DurableIoTest, WrongMagicOrVersionIsCorruption) {
  const std::string path = TestPath("section_foreign.bin");
  SectionWriter section;
  section.WriteString("payload");
  ASSERT_TRUE(WriteSectionFile(path, kMagic, 1, {{1, &section}}).ok());
  EXPECT_EQ(ReadSectionFile(path, kMagic + 1, 1).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ReadSectionFile(path, kMagic, 2).status().code(),
            StatusCode::kCorruption);
}

TEST_F(DurableIoTest, EveryPossibleBitFlipIsDetected) {
  // Corruption acceptance: flip each byte of a framed file in turn — the
  // magic, both frames' tag, version, size and CRC, every payload byte.
  // The file must fail to load, or the section to be taken: the payloads
  // are covered by the CRCs, the frame fields by explicit checks (magic,
  // version, bounds, the frames tiling the file, the tag).
  const std::string path = TestPath("section_bitflip.bin");
  SectionWriter first;
  first.WriteString("payload under test");
  first.WriteU64(0xDEADBEEFCAFEBABEull);
  SectionWriter second;
  second.WriteU32(42);
  ASSERT_TRUE(
      WriteSectionFile(path, kMagic, 1, {{1, &first}, {2, &second}}).ok());
  const std::string good = ReadWholeFile(path);

  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    ASSERT_TRUE(AtomicWriteFile(path, bad).ok());
    Result<SectionFile> file = ReadSectionFile(path, kMagic, 1);
    SectionReader in;
    const bool loaded = file.ok() && file.ValueOrDie().Next(1, &in).ok() &&
                        file.ValueOrDie().Next(2, &in).ok();
    EXPECT_FALSE(loaded) << "bit flip at byte " << i << " went undetected";
  }
}

TEST_F(DurableIoTest, ShortWriteIsCaughtByCrc) {
  // A torn write (power loss after rename was reordered before the data
  // blocks) appears as a truncated file; the CRC framing must reject it.
  const std::string path = TestPath("section_short.bin");
  ASSERT_TRUE(failpoint::SetSpec("durable.write=short_write:5").ok());
  SectionWriter section;
  section.WriteString("will be torn");
  ASSERT_TRUE(WriteSectionFile(path, kMagic, 1, {{1, &section}}).ok())
      << "the torn commit itself succeeds";
  failpoint::Clear();

  EXPECT_EQ(ReadSectionFile(path, kMagic, 1).status().code(),
            StatusCode::kCorruption);
}

TEST_F(DurableIoTest, EveryTruncationIsCorruption) {
  const std::string path = TestPath("section_truncated.bin");
  SectionWriter section;
  section.WriteU64(1);
  ASSERT_TRUE(WriteSectionFile(path, kMagic, 1, {{1, &section}}).ok());
  const std::string good = ReadWholeFile(path);
  // The magic word alone is a file of no sections, which has none to take.
  for (size_t n = 0; n < good.size(); ++n) {
    ASSERT_TRUE(AtomicWriteFile(path, good.substr(0, n)).ok());
    SectionReader in;
    EXPECT_EQ(ReadFirstSection(path, 1, &in).code(), StatusCode::kCorruption)
        << "prefix of " << n << " bytes";
  }
  // Bytes past the last frame are refused too.
  ASSERT_TRUE(AtomicWriteFile(path, good + '\0').ok());
  EXPECT_EQ(ReadSectionFile(path, kMagic, 1).status().code(),
            StatusCode::kCorruption);
}

TEST_F(DurableIoTest, BitFlippedFrameSizeYieldsCorruptionNotOverread) {
  // A flipped high bit in a frame's size field must be refused against the
  // bytes left before it sizes the payload allocation.
  const std::string path = TestPath("bad_length.bin");
  SectionWriter section;
  section.WriteString("short");
  ASSERT_TRUE(WriteSectionFile(path, kMagic, 1, {{1, &section}}).ok());
  std::string bytes = ReadWholeFile(path);
  // magic (4), tag (4), version (4), then the u64 size: its top byte.
  bytes[4 + 4 + 4 + 7] = static_cast<char>(0x7F);  // size becomes ~2^63
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());
  EXPECT_EQ(ReadSectionFile(path, kMagic, 1).status().code(),
            StatusCode::kCorruption);
}

TEST_F(DurableIoTest, ReadPastEndOfPayloadYieldsCorruptionNotOverread) {
  const std::string path = TestPath("bad_count.bin");
  SectionWriter section;
  const std::vector<float> floats = {1.0f, 2.0f};
  section.WriteU64(floats.size());
  section.WriteFloats(floats.data(), floats.size());
  ASSERT_TRUE(WriteSectionFile(path, kMagic, 1, {{1, &section}}).ok());
  SectionReader in;
  ASSERT_TRUE(ReadFirstSection(path, 1, &in).ok());
  uint64_t count = 0;
  ASSERT_TRUE(in.ReadU64(&count));
  std::vector<float> dst(1024);  // claim far more than the payload holds
  EXPECT_FALSE(in.ReadFloats(dst.data(), dst.size()));
  EXPECT_EQ(in.status().code(), StatusCode::kCorruption);
  uint32_t next = 0;
  EXPECT_FALSE(in.ReadU32(&next)) << "a failed reader stays failed";
}

TEST_F(DurableIoTest, StringLengthClampedToPayload) {
  const std::string path = TestPath("bad_string.bin");
  SectionWriter section;
  section.WriteU64(~0ull);
  section.WriteBytes("tiny", 4);
  ASSERT_TRUE(WriteSectionFile(path, kMagic, 1, {{1, &section}}).ok());
  SectionReader in;
  ASSERT_TRUE(ReadFirstSection(path, 1, &in).ok());
  std::string s;
  EXPECT_FALSE(in.ReadString(&s));
  EXPECT_EQ(in.status().code(), StatusCode::kCorruption);
}

TEST_F(DurableIoTest, FailedSectionFileCommitLeavesTheOldFile) {
  // WriteSectionFile commits whole or not at all: a failed commit leaves
  // the previous file and no staging file.
  const std::string path = TestPath("section_commit.bin");
  SectionWriter old_section;
  old_section.WriteString("old");
  ASSERT_TRUE(WriteSectionFile(path, kMagic, 1, {{1, &old_section}}).ok());
  const std::string old_bytes = ReadWholeFile(path);
  ASSERT_TRUE(failpoint::SetSpec("durable.rename=error").ok());
  SectionWriter new_section;
  new_section.WriteString("new");
  EXPECT_FALSE(WriteSectionFile(path, kMagic, 1, {{1, &new_section}}).ok());
  failpoint::Clear();
  EXPECT_EQ(ReadWholeFile(path), old_bytes);
  EXPECT_FALSE(FileExists(TempPathFor(path)));
}

}  // namespace
}  // namespace edde
