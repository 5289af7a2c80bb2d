#include "core/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/byte_codec.h"
#include "common/crash_point.h"
#include "common/hash.h"

namespace tara {
namespace {

constexpr char kWalMagic[] = "TARAWAL1";
constexpr size_t kWalMagicLen = sizeof(kWalMagic) - 1;
constexpr char kWalFile[] = "wal.tarawal";
/// u32 payload length + u64 payload checksum.
constexpr size_t kRecordHeaderBytes = 12;

LoadError Err(LoadError::Code code, std::string message) {
  return LoadError{code, std::move(message)};
}

LoadError ErrnoErr(const std::string& what, const std::string& path) {
  return Err(LoadError::Code::kIoError,
             what + " " + path + ": " + std::strerror(errno));
}

std::string WalPath(const std::string& dir) {
  return (std::filesystem::path(dir) / kWalFile).string();
}

/// Magic + the options fingerprint. The exact bytes a valid log starts
/// with — also used to verify an existing log on reopen.
std::vector<uint8_t> EncodeHeader(const KbOptions& options) {
  codec::ByteWriter out;
  out.Magic(kWalMagic, kWalMagicLen);
  WriteOptionsFingerprint(options, &out);
  return std::move(out).bytes();
}

/// Parses the header at the start of `data`; on success sets `*options`
/// (serialized subset only) and `*header_bytes`.
std::optional<LoadError> DecodeHeader(const uint8_t* data, size_t size,
                                      KbOptions* options,
                                      size_t* header_bytes) {
  codec::ByteReader in(data, size);
  if (!in.Magic(kWalMagic, kWalMagicLen)) {
    return Err(LoadError::Code::kBadMagic,
               "not a TARA write-ahead log (TARAWAL1 magic missing)");
  }
  if (auto error = ReadOptionsFingerprint(&in, options)) {
    if (error->truncated) {
      return Err(LoadError::Code::kTruncated,
                 "write-ahead log ends inside its header");
    }
    return Err(LoadError::Code::kBadManifest,
               "write-ahead log header " + error->message);
  }
  *header_bytes = in.pos();
  return std::nullopt;
}

std::optional<LoadError> SyncDir(const std::string& dir) {
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoErr("cannot open directory", dir);
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) return ErrnoErr("fsync failed on directory", dir);
  return std::nullopt;
}

}  // namespace

bool WalExists(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::exists(WalPath(dir), ec);
}

Expected<WalContents, LoadError> ReadWal(const std::string& dir) {
  const std::string path = WalPath(dir);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Err(LoadError::Code::kIoError,
               "cannot open " + path + " for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Err(LoadError::Code::kIoError, "read failed on " + path);
  }
  const std::string& raw = buffer.str();
  const uint8_t* data = reinterpret_cast<const uint8_t*>(raw.data());
  const size_t size = raw.size();

  WalContents contents;
  size_t header_bytes = 0;
  if (auto error = DecodeHeader(data, size, &contents.options,
                                &header_bytes)) {
    return *std::move(error);
  }

  // Record scan. The first length/checksum mismatch marks the torn tail
  // of a crashed append: everything before it is intact (records are
  // fdatasync'd in order), everything from it on is discarded.
  size_t pos = header_bytes;
  contents.valid_bytes = pos;
  while (size - pos >= kRecordHeaderBytes) {
    const uint32_t payload_len = codec::GetFixed<uint32_t>(data + pos);
    const uint64_t checksum = codec::GetFixed<uint64_t>(data + pos + 4);
    if (size - pos - kRecordHeaderBytes < payload_len) break;
    const uint8_t* payload = data + pos + kRecordHeaderBytes;
    if (HashBytes(payload, payload_len) != checksum) break;
    WalRecord record;
    size_t payload_pos = 0;
    if (codec::GetVarint(payload, payload_len, &payload_pos,
                         &record.total_transactions) !=
        codec::VarintStatus::kOk) {
      break;
    }
    record.segment_bytes.assign(payload + payload_pos,
                                payload + payload_len);
    contents.records.push_back(std::move(record));
    pos += kRecordHeaderBytes + payload_len;
    contents.valid_bytes = pos;
  }
  contents.truncated_bytes = size - contents.valid_bytes;
  return contents;
}

WalWriter::WalWriter(int fd, std::string path, uint64_t header_bytes,
                     obs::MetricsRegistry* metrics)
    : fd_(fd), path_(std::move(path)), header_bytes_(header_bytes) {
  if (metrics != nullptr) {
    records_ = metrics->GetCounter("tara.wal.records");
    bytes_ = metrics->GetCounter("tara.wal.bytes");
    fsyncs_ = metrics->GetCounter("tara.wal.fsyncs");
  }
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      header_bytes_(other.header_bytes_),
      records_(other.records_),
      bytes_(other.bytes_),
      fsyncs_(other.fsyncs_) {}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    header_bytes_ = other.header_bytes_;
    records_ = other.records_;
    bytes_ = other.bytes_;
    fsyncs_ = other.fsyncs_;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Expected<WalWriter, LoadError> WalWriter::Open(
    const std::string& dir, const KbOptions& options, uint64_t valid_bytes,
    obs::MetricsRegistry* metrics) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Err(LoadError::Code::kIoError,
               "cannot create directory " + dir + ": " + ec.message());
  }
  const std::string path = WalPath(dir);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return ErrnoErr("cannot open", path);

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const LoadError error = ErrnoErr("fstat failed on", path);
    ::close(fd);
    return error;
  }
  const std::vector<uint8_t> header = EncodeHeader(options);

  if (st.st_size == 0) {
    // Fresh log: header first, durably, so any later record lands in a
    // log a recovering process can parse.
    size_t written = 0;
    while (written < header.size()) {
      const ssize_t n =
          ::write(fd, header.data() + written, header.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        const LoadError error = ErrnoErr("write failed on", path);
        ::close(fd);
        return error;
      }
      written += static_cast<size_t>(n);
    }
    if (::fdatasync(fd) != 0) {
      const LoadError error = ErrnoErr("fdatasync failed on", path);
      ::close(fd);
      return error;
    }
    if (auto error = SyncDir(dir)) {
      ::close(fd);
      return *std::move(error);
    }
    return WalWriter(fd, path, header.size(), metrics);
  }

  // Existing log: the header must describe the same engine, and the
  // caller's scan tells us where the valid records end — drop the torn
  // tail before appending anything new.
  std::vector<uint8_t> on_disk(header.size());
  const ssize_t got = ::pread(fd, on_disk.data(), on_disk.size(), 0);
  if (got < 0 || static_cast<size_t>(got) != header.size() ||
      std::memcmp(on_disk.data(), header.data(), header.size()) != 0) {
    ::close(fd);
    return Err(LoadError::Code::kBadManifest,
               path +
                   " was written by an engine with different construction "
                   "options (floors/itemset cap/content index) — refusing "
                   "to append");
  }
  if (valid_bytes < header.size() ||
      valid_bytes > static_cast<uint64_t>(st.st_size)) {
    ::close(fd);
    return Err(LoadError::Code::kBadManifest,
               path + ": valid-bytes offset outside the log");
  }
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
      ::lseek(fd, 0, SEEK_END) < 0) {
    const LoadError error = ErrnoErr("cannot drop the torn tail of", path);
    ::close(fd);
    return error;
  }
  return WalWriter(fd, path, header.size(), metrics);
}

std::optional<LoadError> WalWriter::Fsync() {
  if (::fdatasync(fd_) != 0) return ErrnoErr("fdatasync failed on", path_);
  if (fsyncs_ != nullptr) fsyncs_->Increment();
  return std::nullopt;
}

std::optional<LoadError> WalWriter::Append(
    uint64_t total_transactions, const std::vector<uint8_t>& segment_bytes) {
  codec::ByteWriter payload_writer;
  payload_writer.Reserve(segment_bytes.size() + 10);
  payload_writer.U64(total_transactions);
  payload_writer.Append(segment_bytes);
  const std::vector<uint8_t>& payload = payload_writer.bytes();

  codec::ByteWriter record_writer;
  record_writer.Reserve(kRecordHeaderBytes + payload.size());
  record_writer.Raw32(static_cast<uint32_t>(payload.size()));
  record_writer.Raw64(HashBytes(payload.data(), payload.size()));
  record_writer.Append(payload);
  const std::vector<uint8_t>& record = record_writer.bytes();

  size_t written = 0;
  while (written < record.size()) {
    const ssize_t n =
        ::write(fd_, record.data() + written, record.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoErr("write failed on", path_);
    }
    written += static_cast<size_t>(n);
  }
  CrashPoint("wal.record_written");
  // The ack-durability point: only after this fdatasync may the window
  // be acknowledged anywhere.
  if (auto error = Fsync()) return error;
  CrashPoint("wal.record_synced");
  if (records_ != nullptr) records_->Increment();
  if (bytes_ != nullptr) bytes_->Increment(record.size());
  return std::nullopt;
}

std::optional<LoadError> WalWriter::Truncate() {
  CrashPoint("wal.truncate_begin");
  if (::ftruncate(fd_, static_cast<off_t>(header_bytes_)) != 0) {
    return ErrnoErr("truncate failed on", path_);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) {
    return ErrnoErr("seek failed on", path_);
  }
  if (auto error = Fsync()) return error;
  CrashPoint("wal.truncated");
  return std::nullopt;
}

}  // namespace tara
