// Tests for the durable-I/O layer: CRC-32, atomic file replacement, the
// CAMLF1 checksummed container, and the fault-injection hooks wired into
// AtomicFileWriter.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/io.hpp"

namespace caml {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const char* tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("caml_io_" + std::to_string(::getpid()) + "_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// No stray `<target>.tmp.<pid>` staging files left behind in `dir`.
bool no_temp_files(const std::string& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// CRC-32

TEST(IoCrc32, KnownVectors) {
  // The IEEE 802.3 check value ("123456789" -> 0xCBF43926) pins both the
  // polynomial and the reflection convention.
  EXPECT_EQ(io::crc32(""), 0u);
  EXPECT_EQ(io::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(io::crc32(std::string_view("\0\0\0\0", 4)), 0x2144DF1Cu);
}

TEST(IoCrc32, SensitiveToEveryByte) {
  const std::string base(1024, 'x');
  const std::uint32_t reference = io::crc32(base);
  for (std::size_t i : {std::size_t{0}, std::size_t{511}, std::size_t{1023}}) {
    std::string flipped = base;
    flipped[i] ^= 0x01;
    EXPECT_NE(io::crc32(flipped), reference) << "flip at " << i;
  }
}

// ---------------------------------------------------------------------------
// Atomic replacement

TEST(IoAtomicWriter, PublishesAllOrNothing) {
  const std::string dir = temp_dir("atomic");
  const std::string path = dir + "/artifact.txt";

  io::write_file_atomic(path, "first version\n");
  EXPECT_EQ(slurp(path), "first version\n");

  // An abandoned writer (no commit) must leave the target untouched and
  // clean up its staging file.
  {
    io::AtomicFileWriter writer(path);
    writer.stream() << "half-finished";
  }
  EXPECT_EQ(slurp(path), "first version\n");
  EXPECT_TRUE(no_temp_files(dir));

  io::write_file_atomic(path, "second version\n");
  EXPECT_EQ(slurp(path), "second version\n");
  EXPECT_TRUE(no_temp_files(dir));
}

TEST(IoAtomicWriter, CommitIntoMissingDirectoryThrowsAndTargetStaysAbsent) {
  const std::string path = temp_dir("missing") + "/no/such/dir/artifact.txt";
  io::AtomicFileWriter writer(path);
  writer.stream() << "payload";
  EXPECT_THROW(writer.commit(), Error);
  EXPECT_FALSE(fs::exists(path));
}

// ---------------------------------------------------------------------------
// CAMLF1 container

TEST(IoContainer, FramedRoundTrip) {
  const std::string payload = "line one\nline two\nbinary \0 byte\n";
  const std::string framed = io::frame_checksummed("camodel", payload);
  EXPECT_TRUE(io::is_checksummed(framed));
  EXPECT_FALSE(io::is_checksummed(payload));
  EXPECT_EQ(io::unwrap_checksummed(framed, "camodel", "mem"), payload);
}

TEST(IoContainer, FileRoundTripAndLegacyPassthrough) {
  const std::string framed_path = temp_dir("container") + "/framed.bin";
  const std::string payload = "the payload\n";

  io::write_checksummed_file(framed_path, "models", payload);
  EXPECT_EQ(io::read_checksummed_file(framed_path, "models"), payload);
}

TEST(IoContainer, RejectsTruncationCorruptionAndKindMismatch) {
  const std::string payload(300, 'p');
  const std::string framed = io::frame_checksummed("forest", payload);

  // Truncation: every strict prefix must fail, loudly, not quietly.
  for (std::size_t keep : {framed.size() - 1, framed.size() / 2, std::size_t{10}}) {
    EXPECT_THROW(io::unwrap_checksummed(framed.substr(0, keep), "forest", "f"), ParseError)
        << "prefix of " << keep;
  }
  // Bit flip in the payload trips the CRC.
  std::string flipped = framed;
  flipped[framed.size() - 7] ^= 0x20;
  EXPECT_THROW(io::unwrap_checksummed(flipped, "forest", "f"), ParseError);
  // A valid container of the wrong kind must not feed the wrong parser.
  EXPECT_THROW(io::unwrap_checksummed(framed, "models", "f"), ParseError);
  // Garbage that merely starts with the magic.
  EXPECT_THROW(io::unwrap_checksummed("CAMLF1 oops\n", "forest", "f"), ParseError);
  // Trailing bytes after the declared payload length.
  EXPECT_THROW(io::unwrap_checksummed(framed + "x", "forest", "f"), ParseError);
}

TEST(IoStreamingWriter, MatchesBufferedFramingAndSurvivesLargePayloads) {
  const std::string dir = temp_dir("streamed");
  const std::string streamed_path = dir + "/streamed.caml";

  // A payload larger than the writer's 64 KiB chunk, fed in mixed-size
  // pieces.
  std::string payload;
  payload.reserve(300 * 1024);
  for (int i = 0; i < 12000; ++i) payload += "row " + std::to_string(i * 7) + "\n";

  io::ChecksummedFileWriter writer(streamed_path, "models");
  writer.write(payload.data(), 100);
  writer.write(payload.data() + 100, payload.size() - 100);
  writer.commit();
  EXPECT_EQ(writer.bytes_written(), payload.size());

  // The streamed container validates and unwraps like the buffered one
  // (the fixed-width len= field parses as the same number).
  EXPECT_EQ(io::read_checksummed_file(streamed_path, "models"), payload);
  const std::string on_disk = slurp(streamed_path);
  EXPECT_NE(on_disk.find("len=00000000000000"), std::string::npos)
      << "streamed header should carry the zero-padded fixed-width length";
  EXPECT_EQ(on_disk.substr(on_disk.find('\n') + 1), payload);

  // Same CRC as the buffered framing path computes.
  const std::string buffered = io::frame_checksummed("models", payload);
  const std::string crc_field = buffered.substr(buffered.find("crc32="), 6 + 8);
  EXPECT_NE(on_disk.find(crc_field), std::string::npos);
}

TEST(IoStreamingWriter, AbandonedWriterLeavesNoFile) {
  const std::string dir = temp_dir("abandoned");
  const std::string path = dir + "/never.caml";
  {
    io::ChecksummedFileWriter writer(path, "models");
    writer.write("half a payload", 14);
    // No commit: destructor must clean the staging file.
  }
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(std::distance(fs::directory_iterator(dir), fs::directory_iterator{}), 0)
      << "staging temp file should have been removed";
}

TEST(IoContainer, ParseErrorNamesTheFile) {
  const std::string dir = temp_dir("named");
  const std::string path = dir + "/store.caml";
  io::write_checksummed_file(path, "models", "payload");
  std::string bytes = slurp(path);
  bytes[bytes.size() - 2] ^= 0x01;
  io::write_file_atomic(path, bytes);
  try {
    io::read_checksummed_file(path, "models");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Fault injection

class IoFault : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm(); }
};

TEST_F(IoFault, FailWriteLeavesPreviousVersionIntact) {
  const std::string dir = temp_dir("failwrite");
  const std::string path = dir + "/artifact.txt";
  io::write_file_atomic(path, "old\n");

  fault::arm({"*", fault::Kind::kFailWrite, 1, 0});
  EXPECT_THROW(io::write_file_atomic(path, "new\n"), Error);
  fault::disarm();
  EXPECT_EQ(fault::times_triggered(), 0u);  // disarm resets counters

  EXPECT_EQ(slurp(path), "old\n");
  EXPECT_TRUE(no_temp_files(dir));
  // With the fault gone the same write succeeds.
  io::write_file_atomic(path, "new\n");
  EXPECT_EQ(slurp(path), "new\n");
}

TEST_F(IoFault, ShortWriteNeverPublishesTornBytes) {
  const std::string dir = temp_dir("shortwrite");
  const std::string path = dir + "/artifact.bin";
  const std::string payload(4096, 'z');
  io::write_checksummed_file(path, "camodel", payload);

  fault::arm({"*", fault::Kind::kShortWrite, 1, 100});
  EXPECT_THROW(io::write_checksummed_file(path, "camodel", std::string(4096, 'q')), Error);
  fault::disarm();

  // The target still validates and still holds the previous payload.
  EXPECT_EQ(io::read_checksummed_file(path, "camodel"), payload);
  EXPECT_TRUE(no_temp_files(dir));
}

TEST_F(IoFault, TornRenameLeavesTargetUntouched) {
  const std::string dir = temp_dir("tornrename");
  const std::string path = dir + "/artifact.txt";
  io::write_file_atomic(path, "old\n");

  fault::arm({"*", fault::Kind::kTornRename, 1, 0});
  EXPECT_THROW(io::write_file_atomic(path, "new\n"), Error);
  EXPECT_EQ(fault::times_triggered(), 1u);
  fault::disarm();

  EXPECT_EQ(slurp(path), "old\n");
  EXPECT_TRUE(no_temp_files(dir));
}

TEST_F(IoFault, PointNamesSelectInjectionSites) {
  const std::string dir = temp_dir("points");
  // A spec armed for point "store" must not fire on point "checkpoint".
  fault::arm({"store", fault::Kind::kFailWrite, 1, 0});
  io::write_file_atomic(dir + "/a.txt", "ok\n", "checkpoint");
  EXPECT_EQ(fault::times_triggered(), 0u);
  EXPECT_THROW(io::write_file_atomic(dir + "/b.txt", "boom\n", "store"), Error);
  EXPECT_EQ(fault::times_triggered(), 1u);
}

TEST_F(IoFault, NthSelectsTheMatchingOperation) {
  const std::string dir = temp_dir("nth");
  // fail-write counts write operations only (renames can't fail-write),
  // so nth=2 spares the first commit and fails the second.
  fault::arm({"*", fault::Kind::kFailWrite, 2, 0});
  io::write_file_atomic(dir + "/first.txt", "1\n");
  EXPECT_THROW(io::write_file_atomic(dir + "/second.txt", "2\n"), Error);
  EXPECT_EQ(slurp(dir + "/first.txt"), "1\n");
  EXPECT_FALSE(fs::exists(dir + "/second.txt"));
}

}  // namespace
}  // namespace caml
