// MappedFile suite (core/mapped_file.h): mmap vs buffered-read parity,
// the forced kRead mode, and injected open/mmap/read failures exercising
// the EINTR-retry and short-read accumulation paths that only
// misbehaving filesystems hit organically.

#include "core/mapped_file.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/failpoint.h"

namespace reach {
namespace {

std::string WriteTempFile(const std::string& name,
                          const std::vector<uint8_t>& bytes) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
  return path;
}

std::vector<uint8_t> PatternBytes(size_t n) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131) ^ (i >> 8));
  }
  return bytes;
}

class MappedFileTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }
};

TEST_F(MappedFileTest, ReadModeMatchesMappedBytes) {
  const std::vector<uint8_t> bytes = PatternBytes(100000);
  const std::string path = WriteTempFile("mf_parity.bin", bytes);

  std::string error;
  const auto mapped = MappedFile::Open(path, &error, MappedFile::Mode::kAuto);
  ASSERT_NE(mapped, nullptr) << error;
  const auto buffered =
      MappedFile::Open(path, &error, MappedFile::Mode::kRead);
  ASSERT_NE(buffered, nullptr) << error;

  EXPECT_FALSE(buffered->IsMapped());  // kRead never mmaps
  ASSERT_EQ(mapped->size(), bytes.size());
  ASSERT_EQ(buffered->size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(mapped->data(), bytes.data(), bytes.size()));
  EXPECT_EQ(0, std::memcmp(buffered->data(), bytes.data(), bytes.size()));
}

TEST_F(MappedFileTest, EmptyFileIsAValidZeroByteView) {
  const std::string path = WriteTempFile("mf_empty.bin", {});
  std::string error;
  for (const auto mode :
       {MappedFile::Mode::kAuto, MappedFile::Mode::kRead}) {
    const auto file = MappedFile::Open(path, &error, mode);
    ASSERT_NE(file, nullptr) << error;
    EXPECT_EQ(file->size(), 0u);
  }
}

TEST_F(MappedFileTest, MissingFileFailsWithReason) {
  std::string error;
  const auto file =
      MappedFile::Open(::testing::TempDir() + "mf_does_not_exist.bin", &error);
  EXPECT_EQ(file, nullptr);
  EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// Failpoint-driven paths.

TEST_F(MappedFileTest, InjectedMmapFailureFallsBackToBufferedRead) {
  const std::vector<uint8_t> bytes = PatternBytes(4096);
  const std::string path = WriteTempFile("mf_mmap_fail.bin", bytes);
  std::string error;
  ASSERT_TRUE(FailpointRegistry::Global().Arm("mapped_file.mmap", "error",
                                              &error))
      << error;
  const auto file = MappedFile::Open(path, &error);
  ASSERT_NE(file, nullptr) << error;
  EXPECT_FALSE(file->IsMapped());  // fallback took over transparently
  ASSERT_EQ(file->size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(file->data(), bytes.data(), bytes.size()));
}

TEST_F(MappedFileTest, ShortReadsAccumulateToTheFullFile) {
  const std::vector<uint8_t> bytes = PatternBytes(10000);
  const std::string path = WriteTempFile("mf_short.bin", bytes);
  std::string error;
  // Every read returns at most 97 bytes: the loop must stitch ~104 of
  // them back into a byte-identical buffer.
  ASSERT_TRUE(FailpointRegistry::Global().Arm("mapped_file.read",
                                              "partial(bytes=97)", &error))
      << error;
  const auto file =
      MappedFile::Open(path, &error, MappedFile::Mode::kRead);
  ASSERT_NE(file, nullptr) << error;
  ASSERT_EQ(file->size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(file->data(), bytes.data(), bytes.size()));
}

TEST_F(MappedFileTest, EintrIsRetriedNotFatal) {
  const std::vector<uint8_t> bytes = PatternBytes(8192);
  const std::string path = WriteTempFile("mf_eintr.bin", bytes);
  std::string error;
  // The first five reads are interrupted; the retries must still land the
  // whole file.
  ASSERT_TRUE(FailpointRegistry::Global().Arm("mapped_file.read",
                                              "eintr(times=5)", &error))
      << error;
  const auto file =
      MappedFile::Open(path, &error, MappedFile::Mode::kRead);
  ASSERT_NE(file, nullptr) << error;
  ASSERT_EQ(file->size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(file->data(), bytes.data(), bytes.size()));
  EXPECT_GE(FailpointRegistry::Global().HitCount("mapped_file.read"), 5u);
}

TEST_F(MappedFileTest, InjectedReadErrorFailsCleanly) {
  const std::vector<uint8_t> bytes = PatternBytes(512);
  const std::string path = WriteTempFile("mf_readerr.bin", bytes);
  std::string error;
  ASSERT_TRUE(FailpointRegistry::Global().Arm("mapped_file.read", "error",
                                              &error))
      << error;
  const auto file =
      MappedFile::Open(path, &error, MappedFile::Mode::kRead);
  EXPECT_EQ(file, nullptr);
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
}

TEST_F(MappedFileTest, InjectedOpenErrorFailsCleanly) {
  const std::vector<uint8_t> bytes = PatternBytes(16);
  const std::string path = WriteTempFile("mf_openerr.bin", bytes);
  std::string error;
  ASSERT_TRUE(FailpointRegistry::Global().Arm("mapped_file.open", "error",
                                              &error))
      << error;
  EXPECT_EQ(MappedFile::Open(path, &error), nullptr);
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
}

}  // namespace
}  // namespace reach
