#include "util/io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/strings.hpp"

namespace caml::io {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

std::string errno_text() { return std::strerror(errno); }

std::string hex8(std::uint32_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xF];
    value >>= 4;
  }
  return out;
}

std::optional<std::uint32_t> parse_hex8(std::string_view token) {
  if (token.size() != 8) return std::nullopt;
  std::uint32_t value = 0;
  for (const char ch : token) {
    value <<= 4;
    if (ch >= '0' && ch <= '9') value |= static_cast<std::uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f') value |= static_cast<std::uint32_t>(ch - 'a' + 10);
    else if (ch >= 'A' && ch <= 'F') value |= static_cast<std::uint32_t>(ch - 'A' + 10);
    else return std::nullopt;
  }
  return value;
}

/// fsync the directory containing `path` so the rename itself is
/// durable. Best-effort: some filesystems reject fsync on directory
/// descriptors, and by this point the data rename already succeeded.
void fsync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

void Crc32::update(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = state_;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  state_ = crc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path + ": " + errno_text());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw Error("read failed for " + path);
  return buffer.str();
}

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw Error("cannot open " + path + ": " + errno_text());
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string detail = errno_text();
    ::close(fd);
    throw Error("cannot stat " + path + ": " + detail);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    // mmap of length 0 is invalid; an empty file maps to an empty view.
    ::close(fd);
    return;
  }
  void* base = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (base == MAP_FAILED) {
    const std::string detail = errno_text();
    ::close(fd);
    size_ = 0;
    throw Error("cannot mmap " + path + ": " + detail);
  }
  data_ = static_cast<const unsigned char*>(base);
  // Keep the fd: it pins the inode for the mapping's lifetime and feeds
  // size_changed() revalidation.
  fd_ = fd;
}

MappedFile::~MappedFile() { reset(); }

void MappedFile::reset() noexcept {
  if (data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
  if (fd_ >= 0) ::close(fd_);
  data_ = nullptr;
  size_ = 0;
  fd_ = -1;
}

bool MappedFile::size_changed() const {
  if (fd_ < 0) return false;
  struct stat st{};
  if (::fstat(fd_, &st) != 0) return true;
  return static_cast<std::size_t>(st.st_size) != size_;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_), size_(other.size_), fd_(other.fd_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.fd_ = -1;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    fd_ = other.fd_;
    other.data_ = nullptr;
    other.size_ = 0;
    other.fd_ = -1;
  }
  return *this;
}

AtomicFileWriter::AtomicFileWriter(std::string path, std::string fault_point)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp." + std::to_string(::getpid())),
      point_(std::move(fault_point)) {}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) abort();
}

void AtomicFileWriter::abort() noexcept {
  std::error_code ignored;
  std::filesystem::remove(tmp_, ignored);
}

void AtomicFileWriter::commit() {
  CAML_ASSERT(!committed_);
  const std::string payload = buffer_.str();

  const fault::WriteDecision decision = fault::before_write(point_.c_str(), payload.size());

  const int fd = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw Error("cannot create " + tmp_ + ": " + errno_text());
  std::size_t written = 0;
  while (written < decision.allow_bytes) {
    const ssize_t rc =
        ::write(fd, payload.data() + written, decision.allow_bytes - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      const std::string detail = errno_text();
      ::close(fd);
      throw Error("write failed for " + tmp_ + ": " + detail);
    }
    written += static_cast<std::size_t>(rc);
  }
  if (decision.fail_after) {
    // Injected short write: the bytes on disk stop mid-payload, exactly
    // like a crash between write() and fsync(). The temp file is doomed;
    // the target was never touched.
    ::close(fd);
    throw Error("fault injection: short write at '" + point_ + "' (" +
                std::to_string(decision.allow_bytes) + " of " +
                std::to_string(payload.size()) + " bytes)");
  }
  if (::fsync(fd) != 0) {
    const std::string detail = errno_text();
    ::close(fd);
    throw Error("fsync failed for " + tmp_ + ": " + detail);
  }
  if (::close(fd) != 0) throw Error("close failed for " + tmp_ + ": " + errno_text());

  fault::before_rename(point_.c_str());

  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    throw Error("rename " + tmp_ + " -> " + path_ + " failed: " + errno_text());
  }
  fsync_parent_dir(path_);
  committed_ = true;
}

void write_file_atomic(const std::string& path, std::string_view payload,
                       const std::string& fault_point) {
  AtomicFileWriter writer(path, fault_point);
  writer.stream() << payload;
  writer.commit();
}

std::string frame_checksummed(std::string_view kind, std::string_view payload) {
  CAML_ASSERT(!kind.empty() && kind.find_first_of(" \t\n") == std::string_view::npos);
  std::string out;
  out.reserve(payload.size() + 64);
  out.append(kContainerMagic);
  out.push_back(' ');
  out.append(kind);
  out.append(" len=").append(std::to_string(payload.size()));
  out.append(" crc32=").append(hex8(crc32(payload)));
  out.push_back('\n');
  out.append(payload);
  return out;
}

bool is_checksummed(std::string_view bytes) {
  return bytes.size() > kContainerMagic.size() &&
         bytes.substr(0, kContainerMagic.size()) == kContainerMagic &&
         bytes[kContainerMagic.size()] == ' ';
}

std::string unwrap_checksummed(std::string_view bytes, std::string_view kind,
                               const std::string& path_for_errors) {
  const auto fail = [&](const std::string& what) -> ParseError {
    return ParseError::in_file(path_for_errors, ParseError(what, 1));
  };
  if (!is_checksummed(bytes)) {
    throw fail("not a " + std::string(kContainerMagic) +
               " container (bad magic at offset 0)");
  }
  const std::size_t header_end = bytes.find('\n');
  if (header_end == std::string_view::npos) {
    throw fail("container header has no newline (file truncated at offset " +
               std::to_string(bytes.size()) + ")");
  }
  const std::vector<std::string> tok = split(bytes.substr(0, header_end));
  if (tok.size() != 4 || tok[2].rfind("len=", 0) != 0 || tok[3].rfind("crc32=", 0) != 0) {
    throw fail("malformed container header '" + std::string(bytes.substr(0, header_end)) +
               "'");
  }
  if (tok[1] != kind) {
    throw fail("container holds a '" + tok[1] + "' payload, expected '" + std::string(kind) +
               "'");
  }
  const auto declared_len = try_parse_uint64(std::string_view(tok[2]).substr(4));
  const auto declared_crc = parse_hex8(std::string_view(tok[3]).substr(6));
  if (!declared_len || !declared_crc) {
    throw fail("malformed container header '" + std::string(bytes.substr(0, header_end)) +
               "'");
  }
  const std::size_t payload_offset = header_end + 1;
  const std::string_view payload = bytes.substr(payload_offset);
  if (payload.size() != *declared_len) {
    throw fail("truncated container: header declares " + std::to_string(*declared_len) +
               " payload bytes but " + std::to_string(payload.size()) +
               " are present (payload starts at offset " + std::to_string(payload_offset) +
               ")");
  }
  const std::uint32_t actual_crc = crc32(payload);
  if (actual_crc != *declared_crc) {
    throw fail("checksum mismatch: payload crc32=" + hex8(actual_crc) +
               " but header says crc32=" + hex8(*declared_crc) + " (payload at offset " +
               std::to_string(payload_offset) + ")");
  }
  return std::string(payload);
}

void write_checksummed_file(const std::string& path, std::string_view kind,
                            std::string_view payload, const std::string& fault_point) {
  write_file_atomic(path, frame_checksummed(kind, payload), fault_point);
}

std::string read_checksummed_file(const std::string& path, std::string_view kind) {
  return unwrap_checksummed(read_file(path), kind, path);
}

namespace {

/// Fixed-width CAMLF1 header so the streaming writer can back-patch the
/// real length and CRC over the placeholder: `len=` is zero-padded to 20
/// digits (the widest uint64), which from_chars-based readers parse
/// unchanged.
std::string fixed_width_header(std::string_view kind, std::uint64_t len,
                               std::uint32_t crc) {
  std::string digits = std::to_string(len);
  std::string out;
  out.append(kContainerMagic);
  out.push_back(' ');
  out.append(kind);
  out.append(" len=");
  out.append(20 - digits.size(), '0');
  out.append(digits);
  out.append(" crc32=").append(hex8(crc));
  out.push_back('\n');
  return out;
}

}  // namespace

/// Chunking streambuf: fills a fixed put area and hands full chunks to
/// the writer, so arbitrarily large payloads stream at O(chunk) memory.
class ChecksummedFileWriter::Buf : public std::streambuf {
 public:
  explicit Buf(ChecksummedFileWriter& writer) : writer_(writer) {
    setp(data_.data(), data_.data() + data_.size());
  }

  void flush_pending() {
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    if (n > 0) {
      writer_.flush_chunk(pbase(), n);
      setp(data_.data(), data_.data() + data_.size());
    }
  }

 protected:
  int overflow(int ch) override {
    flush_pending();
    if (ch != traits_type::eof()) {
      *pptr() = static_cast<char>(ch);
      pbump(1);
    }
    return ch == traits_type::eof() ? 0 : ch;
  }

  int sync() override {
    flush_pending();
    return 0;
  }

 private:
  ChecksummedFileWriter& writer_;
  std::array<char, 64 * 1024> data_;
};

ChecksummedFileWriter::ChecksummedFileWriter(std::string path, std::string kind,
                                             std::string fault_point)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp." + std::to_string(::getpid())),
      kind_(std::move(kind)),
      point_(std::move(fault_point)),
      buf_(std::make_unique<Buf>(*this)),
      out_(buf_.get()) {
  CAML_ASSERT(!kind_.empty() && kind_.find_first_of(" \t\n") == std::string::npos);
  // Propagate flush_chunk errors out of operator<< instead of silently
  // latching badbit: with badbit in the exception mask the stream
  // rethrows the original caml::Error.
  out_.exceptions(std::ios::badbit);
  open_staging();
}

ChecksummedFileWriter::~ChecksummedFileWriter() {
  if (!committed_) abort();
}

void ChecksummedFileWriter::abort() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  std::error_code ignored;
  std::filesystem::remove(tmp_, ignored);
}

void ChecksummedFileWriter::open_staging() {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) throw Error("cannot create " + tmp_ + ": " + errno_text());
  // Placeholder header of the exact final width; commit() patches the
  // real length and CRC in place.
  const std::string placeholder = fixed_width_header(kind_, 0, 0);
  std::size_t written = 0;
  while (written < placeholder.size()) {
    const ssize_t rc =
        ::write(fd_, placeholder.data() + written, placeholder.size() - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw Error("write failed for " + tmp_ + ": " + errno_text());
    }
    written += static_cast<std::size_t>(rc);
  }
}

void ChecksummedFileWriter::flush_chunk(const char* data, std::size_t n) {
  CAML_ASSERT(fd_ >= 0 && !committed_);
  const fault::WriteDecision decision = fault::before_write(point_.c_str(), n);
  crc_.update(std::string_view(data, n));
  payload_bytes_ += n;
  std::size_t written = 0;
  while (written < decision.allow_bytes) {
    const ssize_t rc = ::write(fd_, data + written, decision.allow_bytes - written);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw Error("write failed for " + tmp_ + ": " + errno_text());
    }
    written += static_cast<std::size_t>(rc);
  }
  if (decision.fail_after) {
    throw Error("fault injection: short write at '" + point_ + "' (" +
                std::to_string(decision.allow_bytes) + " of " + std::to_string(n) +
                " bytes)");
  }
}

void ChecksummedFileWriter::write(const void* data, std::size_t n) {
  out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

void ChecksummedFileWriter::commit() {
  CAML_ASSERT(!committed_);
  buf_->flush_pending();
  const std::string header = fixed_width_header(kind_, payload_bytes_, crc_.value());
  std::size_t written = 0;
  while (written < header.size()) {
    const ssize_t rc = ::pwrite(fd_, header.data() + written, header.size() - written,
                                static_cast<off_t>(written));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw Error("header patch failed for " + tmp_ + ": " + errno_text());
    }
    written += static_cast<std::size_t>(rc);
  }
  if (::fsync(fd_) != 0) throw Error("fsync failed for " + tmp_ + ": " + errno_text());
  if (::close(fd_) != 0) {
    fd_ = -1;
    throw Error("close failed for " + tmp_ + ": " + errno_text());
  }
  fd_ = -1;

  fault::before_rename(point_.c_str());

  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    throw Error("rename " + tmp_ + " -> " + path_ + " failed: " + errno_text());
  }
  fsync_parent_dir(path_);
  committed_ = true;
}

}  // namespace caml::io
