#include "utils/durable_io.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "utils/failpoint.h"
#include "utils/serialize.h"
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

TEST_F(DurableIoTest, SectionRoundTrip) {
  const std::string path = TestPath("section_roundtrip.bin");
  SectionWriter section;
  section.WriteU32(7);
  section.WriteI64(-42);
  section.WriteString("edde");
  const std::vector<float> floats = {1.5f, -2.25f, 0.0f};
  section.WriteU64(floats.size());
  section.WriteFloats(floats.data(), floats.size());
  BinaryWriter writer(path);
  section.AppendTo(&writer, /*tag=*/3, /*version=*/2);
  ASSERT_TRUE(writer.Finish().ok());

  BinaryReader reader(path);
  SectionReader in;
  ASSERT_TRUE(in.Load(&reader, /*expected_tag=*/3).ok());
  EXPECT_EQ(in.tag(), 3u);
  EXPECT_EQ(in.version(), 2u);
  uint32_t u = 0;
  int64_t i = 0;
  std::string s;
  uint64_t count = 0;
  ASSERT_TRUE(in.ReadU32(&u));
  ASSERT_TRUE(in.ReadI64(&i));
  ASSERT_TRUE(in.ReadString(&s));
  ASSERT_TRUE(in.ReadU64(&count));
  std::vector<float> back(count);
  ASSERT_TRUE(in.ReadFloats(back.data(), count));
  EXPECT_EQ(u, 7u);
  EXPECT_EQ(i, -42);
  EXPECT_EQ(s, "edde");
  EXPECT_EQ(back, floats);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST_F(DurableIoTest, EveryPossibleBitFlipIsDetected) {
  // Corruption acceptance: flip each byte of the framed file in turn; the
  // section must either fail to load or (for the version field, which is
  // not covered by the payload CRC) still load — it must never produce a
  // wrong payload or crash.
  const std::string path = TestPath("section_bitflip.bin");
  SectionWriter section;
  section.WriteString("payload under test");
  section.WriteU64(0xDEADBEEFCAFEBABEull);
  BinaryWriter writer(path);
  section.AppendTo(&writer, /*tag=*/1, /*version=*/1);
  ASSERT_TRUE(writer.Finish().ok());
  const std::string good = ReadWholeFile(path);

  int detected = 0, survived = 0;
  for (size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    ASSERT_TRUE(AtomicWriteFile(path, bad).ok());
    BinaryReader reader(path);
    SectionReader in;
    const Status s = in.Load(&reader, /*expected_tag=*/1);
    if (s.ok()) {
      // Only a flip in the version field (bytes 4..8 of the frame) can
      // slip through the CRC; the payload must still be intact.
      ++survived;
      std::string text;
      uint64_t magic = 0;
      ASSERT_TRUE(in.ReadString(&text));
      ASSERT_TRUE(in.ReadU64(&magic));
      EXPECT_EQ(text, "payload under test");
      EXPECT_EQ(magic, 0xDEADBEEFCAFEBABEull);
    } else {
      ++detected;
    }
  }
  EXPECT_GE(detected, static_cast<int>(good.size()) - 4)
      << "every flip outside the 4-byte version field must be caught";
  EXPECT_LE(survived, 4);
}

TEST_F(DurableIoTest, ShortWriteIsCaughtByCrc) {
  // A torn write (power loss after rename was reordered before the data
  // blocks) appears as a truncated file; the CRC framing must reject it.
  const std::string path = TestPath("section_short.bin");
  ASSERT_TRUE(failpoint::SetSpec("durable.write=short_write:5").ok());
  SectionWriter section;
  section.WriteString("will be torn");
  BinaryWriter writer(path);
  section.AppendTo(&writer, /*tag=*/1, /*version=*/1);
  ASSERT_TRUE(writer.Finish().ok()) << "the torn commit itself succeeds";
  failpoint::Clear();

  BinaryReader reader(path);
  SectionReader in;
  EXPECT_FALSE(in.Load(&reader, /*expected_tag=*/1).ok());
}

TEST_F(DurableIoTest, BitFlippedLengthYieldsCorruptionNotOverread) {
  // Regression: BinaryReader used to trust on-disk lengths, so a flipped
  // high bit in a length prefix drove a multi-gigabyte read.
  const std::string path = TestPath("bad_length.bin");
  const std::string text = "short";
  {
    BinaryWriter writer(path);
    writer.WriteU64(text.size());
    writer.WriteBytes(text.data(), text.size());
    ASSERT_TRUE(writer.Finish().ok());
  }
  std::string bytes = ReadWholeFile(path);
  ASSERT_GE(bytes.size(), 8u);
  bytes[7] = static_cast<char>(0x7F);  // length becomes ~2^63
  ASSERT_TRUE(AtomicWriteFile(path, bytes).ok());

  BinaryReader reader(path);
  uint64_t size = 0;
  ASSERT_TRUE(reader.ReadU64(&size));
  EXPECT_GT(size, reader.remaining());
  std::string dst(text.size(), '\0');  // the clamp fires before any copy
  EXPECT_FALSE(reader.ReadRaw(dst.data(), size));
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
}

TEST_F(DurableIoTest, ReadPastEndYieldsCorruptionNotOverread) {
  const std::string path = TestPath("bad_count.bin");
  {
    BinaryWriter writer(path);
    const std::vector<float> floats = {1.0f, 2.0f};
    writer.WriteU64(floats.size());
    writer.WriteBytes(floats.data(), floats.size() * sizeof(float));
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path);
  uint64_t count = 0;
  ASSERT_TRUE(reader.ReadU64(&count));
  std::vector<float> dst(1024);  // claim far more than the file holds
  EXPECT_FALSE(reader.ReadRaw(dst.data(), dst.size() * sizeof(float)));
  EXPECT_EQ(reader.status().code(), StatusCode::kCorruption);
  uint32_t next = 0;
  EXPECT_FALSE(reader.ReadU32(&next)) << "a failed reader stays failed";
}

TEST_F(DurableIoTest, SectionReaderStringLengthClampedToPayload) {
  SectionReader in;
  std::string payload;
  const uint64_t huge = ~0ull;
  payload.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  payload += "tiny";
  in.InitFromPayload(payload);
  std::string s;
  EXPECT_FALSE(in.ReadString(&s));
  EXPECT_EQ(in.status().code(), StatusCode::kCorruption);
}

TEST_F(DurableIoTest, BinaryWriterBuffersUntilFinish) {
  const std::string path = TestPath("bw.bin");
  ::unlink(path.c_str());  // leftovers from a previous run of this binary
  BinaryWriter writer(path);
  writer.WriteBytes("part1 ", 6);
  EXPECT_FALSE(FileExists(path)) << "nothing lands before Finish()";
  writer.WriteBytes("part2", 5);
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(ReadWholeFile(path), "part1 part2");
}

}  // namespace
}  // namespace edde
