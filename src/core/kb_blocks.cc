#include "core/kb_blocks.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <utility>

#include "common/byte_codec.h"
#include "common/crash_point.h"
#include "common/hash.h"
#include "common/logging.h"

namespace tara {
namespace {

using codec::ByteReader;
using codec::ByteWriter;

constexpr char kBlocksMagic[] = "TARAKB3";
constexpr size_t kBlocksMagicLen = sizeof(kBlocksMagic) - 1;
constexpr char kBlocksManifestFile[] = "blocks.tarakb3";

LoadError Err(LoadError::Code code, std::string message) {
  return LoadError{code, std::move(message)};
}

LoadError ErrnoErr(const std::string& what, const std::filesystem::path& path) {
  return Err(LoadError::Code::kIoError,
             what + " " + path.string() + ": " + std::strerror(errno));
}

/// Flushes the directory entry for `path` so a just-renamed file survives
/// a crash. Best-effort on filesystems where directories cannot be opened.
std::optional<LoadError> SyncParentDir(const std::filesystem::path& path) {
  const std::filesystem::path parent =
      path.has_parent_path() ? path.parent_path() : ".";
  const int dir_fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoErr("cannot open directory", parent);
  const int rc = ::fsync(dir_fd);
  ::close(dir_fd);
  if (rc != 0) return ErrnoErr("fsync failed on directory", parent);
  return std::nullopt;
}

/// Slurps a file, typed kIoError on failure.
std::optional<LoadError> ReadFileBytes(const std::filesystem::path& path,
                                       std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Err(LoadError::Code::kIoError,
               "cannot open " + path.string() + " for reading");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    return Err(LoadError::Code::kIoError, "read failed on " + path.string());
  }
  const std::string& data = buffer.str();
  out->assign(data.begin(), data.end());
  return std::nullopt;
}

/// Crash-safe file replacement: bytes land in `<path>.tmp`, are fsync'd,
/// renamed over `path`, then the parent directory entry is fsync'd. A
/// crash at any step leaves either the old file intact or the new one
/// fully in place. CrashPoint crossings ("storage.tmp_written",
/// "storage.tmp_synced", "storage.renamed", "storage.dir_synced")
/// separate the durability steps for the crash-matrix tests.
std::optional<LoadError> AtomicWriteFileBytes(
    const std::filesystem::path& path, const std::vector<uint8_t>& bytes) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoErr("cannot open", tmp);
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written,
                              bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const LoadError error = ErrnoErr("write failed on", tmp);
      ::close(fd);
      return error;
    }
    written += static_cast<size_t>(n);
  }
  CrashPoint("storage.tmp_written");
  if (::fsync(fd) != 0) {
    const LoadError error = ErrnoErr("fsync failed on", tmp);
    ::close(fd);
    return error;
  }
  if (::close(fd) != 0) return ErrnoErr("close failed on", tmp);
  CrashPoint("storage.tmp_synced");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return ErrnoErr("rename failed onto", path);
  }
  CrashPoint("storage.renamed");
  if (auto error = SyncParentDir(path)) return error;
  CrashPoint("storage.dir_synced");
  return std::nullopt;
}

uint64_t AlignUp(uint64_t offset) {
  return (offset + kBlockSegmentAlignment - 1) & ~(kBlockSegmentAlignment - 1);
}

std::vector<uint8_t> EncodeBlocksManifestBytes(
    const KbBlocksManifest& manifest) {
  ByteWriter w;
  w.Magic(kBlocksMagic, kBlocksMagicLen);
  WriteOptionsFingerprint(manifest, &w);
  w.U64(manifest.blocks.size());
  for (const KbBlockInfo& block : manifest.blocks) {
    w.U64(block.file_index);
    w.U64(block.first_window);
    w.U64(block.rows.size());
    w.U64(block.file_bytes);
    w.Raw64(block.file_hash);
    for (const KbBlockRow& row : block.rows) {
      w.U64(row.total_transactions);
      w.U64(row.rule_watermark);
      w.U64(row.entry_count);
      w.U64(row.offset);
      w.U64(row.segment_bytes);
      w.Raw64(row.segment_hash);
    }
  }
  return w.bytes();
}

std::optional<LoadError> DecodeBlocksManifest(ByteReader* reader,
                                              KbBlocksManifest* manifest) {
  if (reader->remaining() == 0) {
    return Err(LoadError::Code::kTruncated,
               "blocks manifest is zero-length (torn write from a crashed "
               "save?)");
  }
  if (!reader->Magic(kBlocksMagic, kBlocksMagicLen)) {
    ByteReader probe(*reader);
    if (probe.Magic("TARAKB", 6)) {
      return Err(LoadError::Code::kBadVersion,
                 "file is a different TARA knowledge-base format version "
                 "(expected TARAKB3); re-partition with this build");
    }
    return Err(LoadError::Code::kBadMagic,
               "not a TARA blocks manifest (TARAKB3 magic missing)");
  }
  const auto error = ReadOptionsFingerprint(reader, manifest);
  if (error.has_value() && !error->truncated) {
    return Err(LoadError::Code::kBadManifest,
               "blocks manifest " + error->message);
  }
  uint64_t block_count = 0;
  if (error.has_value() || !reader->U64(&block_count)) {
    return Err(LoadError::Code::kTruncated,
               "blocks manifest ended mid-header (truncated file?)");
  }
  manifest->blocks.reserve(block_count <= 4096 ? block_count : 0);
  uint64_t next_window = 0;
  uint64_t previous_watermark = 0;
  for (uint64_t b = 0; b < block_count; ++b) {
    KbBlockInfo block;
    uint64_t first_window = 0;
    uint64_t row_count = 0;
    if (!reader->U64(&block.file_index) || !reader->U64(&first_window) ||
        !reader->U64(&row_count) || !reader->U64(&block.file_bytes) ||
        !reader->Raw64(&block.file_hash)) {
      std::ostringstream message;
      message << "blocks manifest ended inside block " << b << " of "
              << block_count;
      return Err(LoadError::Code::kTruncated, message.str());
    }
    if (first_window != next_window) {
      std::ostringstream message;
      message << "block " << b << " starts at window " << first_window
              << " but " << next_window
              << " windows precede it — blocks must tile the window range";
      return Err(LoadError::Code::kBadManifest, message.str());
    }
    if (row_count == 0) {
      std::ostringstream message;
      message << "block " << b << " covers zero windows";
      return Err(LoadError::Code::kBadManifest, message.str());
    }
    block.first_window = static_cast<WindowId>(first_window);
    if (block.first_window != first_window ||
        next_window + row_count > UINT32_MAX) {
      return Err(LoadError::Code::kBadManifest,
                 "blocks manifest window ids overflow");
    }
    block.rows.reserve(row_count <= 4096 ? row_count : 0);
    for (uint64_t i = 0; i < row_count; ++i) {
      KbBlockRow row;
      if (!reader->U64(&row.total_transactions) ||
          !reader->U64(&row.rule_watermark) ||
          !reader->U64(&row.entry_count) || !reader->U64(&row.offset) ||
          !reader->U64(&row.segment_bytes) ||
          !reader->Raw64(&row.segment_hash)) {
        std::ostringstream message;
        message << "blocks manifest ended inside the row of window "
                << next_window + i;
        return Err(LoadError::Code::kTruncated, message.str());
      }
      if (row.rule_watermark < previous_watermark) {
        std::ostringstream message;
        message << "blocks manifest watermarks decrease at window "
                << next_window + i << " (" << previous_watermark << " -> "
                << row.rule_watermark
                << ") — watermarks count cumulative interned rules";
        return Err(LoadError::Code::kBadManifest, message.str());
      }
      if (row.entry_count < row.rule_watermark - previous_watermark) {
        std::ostringstream message;
        message << "blocks manifest window " << next_window + i << " claims "
                << row.rule_watermark - previous_watermark
                << " first-seen rules but only " << row.entry_count
                << " entries";
        return Err(LoadError::Code::kBadManifest, message.str());
      }
      if (row.offset > block.file_bytes ||
          row.segment_bytes > block.file_bytes - row.offset) {
        std::ostringstream message;
        message << "segment of window " << next_window + i
                << " extends past its block file (" << row.offset << " + "
                << row.segment_bytes << " > " << block.file_bytes << ")";
        return Err(LoadError::Code::kBadManifest, message.str());
      }
      previous_watermark = row.rule_watermark;
      block.rows.push_back(row);
    }
    next_window += row_count;
    manifest->blocks.push_back(std::move(block));
  }
  return std::nullopt;
}

std::optional<LoadError> CheckBlocksPrefix(
    const KnowledgeBaseSnapshot& snapshot, const KbBlocksManifest& manifest) {
  if (manifest.window_count() > snapshot.window_count()) {
    std::ostringstream message;
    message << "directory holds " << manifest.window_count()
            << " windows but the snapshot has only "
            << snapshot.window_count()
            << " — appending cannot rewind a knowledge base";
    return Err(LoadError::Code::kBadManifest, message.str());
  }
  for (const KbBlockInfo& block : manifest.blocks) {
    for (size_t i = 0; i < block.rows.size(); ++i) {
      const WindowId w = block.first_window + static_cast<WindowId>(i);
      const WindowSegment& segment = snapshot.segment(w);
      const KbBlockRow& row = block.rows[i];
      if (row.total_transactions != segment.total_transactions ||
          row.rule_watermark != segment.rule_watermark ||
          row.entry_count != segment.entries.size()) {
        std::ostringstream message;
        message << "window " << w
                << " on disk does not match the snapshot (different data or "
                   "floors?) — refusing to append; save to a fresh directory";
        return Err(LoadError::Code::kBadManifest, message.str());
      }
    }
  }
  return std::nullopt;
}

/// One window's segment blob plus its manifest row (offset unset), ready
/// for the packer. `data` points at caller-owned bytes.
struct PackInput {
  KbBlockRow row;
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/// Packs `inputs` into balanced blocks of about `block_bytes`, writes the
/// block files crash-safely into `dir` with file indices starting at
/// `next_index`, and appends the resulting block table entries to
/// `out_blocks`. Block files land before the caller writes the manifest
/// that names them.
std::optional<LoadError> WritePackedBlocks(const std::vector<PackInput>& inputs,
                                           WindowId first_window,
                                           uint64_t next_index,
                                           uint64_t block_bytes,
                                           const std::filesystem::path& dir,
                                           std::vector<KbBlockInfo>* out_blocks) {
  if (inputs.empty()) return std::nullopt;
  if (block_bytes == 0) block_bytes = 1;

  // Balanced greedy partition: aim every block at total/ceil(total/target)
  // bytes rather than filling to `block_bytes` and leaving a runt tail.
  uint64_t total = 0;
  for (const PackInput& in : inputs) total += AlignUp(in.size);
  const uint64_t n_blocks =
      std::max<uint64_t>(1, (total + block_bytes - 1) / block_bytes);
  const uint64_t target = (total + n_blocks - 1) / n_blocks;

  KbBlockInfo block;
  block.file_index = next_index;
  block.first_window = first_window;
  std::vector<uint8_t> bytes;
  WindowId window = first_window;

  const auto flush = [&]() -> std::optional<LoadError> {
    block.file_bytes = bytes.size();
    block.file_hash = HashBytes(bytes.data(), bytes.size());
    if (auto error = AtomicWriteFileBytes(
            dir / KnowledgeBaseBlockFileName(block.file_index), bytes)) {
      return error;
    }
    out_blocks->push_back(std::move(block));
    block = KbBlockInfo();
    block.file_index = ++next_index;
    block.first_window = window;
    bytes.clear();
    return std::nullopt;
  };

  for (const PackInput& in : inputs) {
    if (!bytes.empty() && AlignUp(bytes.size()) + in.size > target) {
      if (auto error = flush()) return error;
    }
    const uint64_t offset = AlignUp(bytes.size());
    bytes.resize(offset, 0);  // zero padding up to the aligned start
    bytes.insert(bytes.end(), in.data, in.data + in.size);
    KbBlockRow row = in.row;
    row.offset = offset;
    row.segment_bytes = in.size;
    block.rows.push_back(row);
    ++window;
  }
  if (!block.rows.empty()) {
    if (auto error = flush()) return error;
  }
  return std::nullopt;
}

std::optional<LoadError> WriteBlocksManifest(const std::filesystem::path& dir,
                                             const KbBlocksManifest& manifest) {
  return AtomicWriteFileBytes(dir / kBlocksManifestFile,
                                        EncodeBlocksManifestBytes(manifest));
}

KbBlocksManifest BlocksManifestFor(const KnowledgeBaseSnapshot& snapshot) {
  const KbOptions& options = snapshot.options();
  KbBlocksManifest manifest;
  manifest.min_support_floor = options.min_support_floor;
  manifest.min_confidence_floor = options.min_confidence_floor;
  manifest.max_itemset_size = options.max_itemset_size;
  manifest.build_content_index = options.build_content_index;
  return manifest;
}

/// Encodes windows [begin, end) of `snapshot` as pack inputs. The blob
/// storage lands in `storage` (one vector per window) so the PackInput
/// pointers stay valid.
std::vector<PackInput> EncodeRange(const KnowledgeBaseSnapshot& snapshot,
                                   WindowId begin, WindowId end,
                                   std::vector<std::vector<uint8_t>>* storage) {
  std::vector<PackInput> inputs;
  inputs.reserve(end - begin);
  for (WindowId w = begin; w < end; ++w) {
    storage->push_back(EncodeWindowSegment(snapshot, w));
    const std::vector<uint8_t>& blob = storage->back();
    const WindowSegment& segment = snapshot.segment(w);
    PackInput in;
    in.row.total_transactions = segment.total_transactions;
    in.row.rule_watermark = segment.rule_watermark;
    in.row.entry_count = segment.entries.size();
    in.row.segment_hash = HashBytes(blob.data(), blob.size());
    in.data = blob.data();
    in.size = blob.size();
    inputs.push_back(in);
  }
  return inputs;
}

/// The first file index no block of `manifest` uses: every rewrite writes
/// its new blocks from here, so it never overwrites a file the current
/// manifest names.
uint64_t NextFileIndex(const KbBlocksManifest& manifest) {
  uint64_t next = 0;
  for (const KbBlockInfo& block : manifest.blocks) {
    next = std::max(next, block.file_index + 1);
  }
  return next;
}

std::optional<LoadError> RemoveFile(const std::filesystem::path& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Err(LoadError::Code::kIoError,
               "cannot remove " + path.string() + ": " + ec.message());
  }
  return std::nullopt;
}

/// The whole-directory rewrite of a save and a split: packs `inputs`,
/// every window from window 0, into block files numbered past every file
/// `old` names, swaps in `updated` naming those blocks, and only then
/// deletes the files `old` named. A crash before the swap leaves `old`
/// and its files whole; a crash during the sweep leaves unreferenced
/// files.
std::optional<LoadError> ReplaceBlocks(const std::filesystem::path& root,
                                       const KbBlocksManifest& old,
                                       const std::vector<PackInput>& inputs,
                                       uint64_t block_bytes,
                                       KbBlocksManifest updated) {
  updated.blocks.clear();
  if (auto error = WritePackedBlocks(inputs, 0, NextFileIndex(old),
                                     block_bytes, root, &updated.blocks)) {
    return error;
  }
  if (auto error = WriteBlocksManifest(root, updated)) return error;
  for (const KbBlockInfo& block : old.blocks) {
    if (auto error =
            RemoveFile(root / KnowledgeBaseBlockFileName(block.file_index))) {
      return error;
    }
  }
  return std::nullopt;
}

}  // namespace

uint32_t KbBlocksManifest::window_count() const {
  uint64_t count = 0;
  for (const KbBlockInfo& block : blocks) count += block.rows.size();
  return static_cast<uint32_t>(count);
}

uint64_t KbBlocksManifest::rule_watermark() const {
  if (blocks.empty()) return 0;
  return blocks.back().rows.back().rule_watermark;
}

std::string KnowledgeBaseBlocksManifestFileName() {
  return kBlocksManifestFile;
}

std::string KnowledgeBaseBlockFileName(uint64_t file_index) {
  char name[32];
  std::snprintf(name, sizeof(name), "block-%06llu.blk",
                static_cast<unsigned long long>(file_index));
  return name;
}

bool KnowledgeBaseBlocksDirExists(const std::string& dir) {
  std::error_code ec;
  return std::filesystem::exists(
      std::filesystem::path(dir) / kBlocksManifestFile, ec);
}

Expected<KbBlocksManifest, LoadError> ReadKnowledgeBaseBlocksManifest(
    const std::string& dir) {
  const std::filesystem::path root(dir);
  std::vector<uint8_t> bytes;
  if (auto error =
          ReadFileBytes(root / kBlocksManifestFile, &bytes)) {
    return *std::move(error);
  }
  ByteReader reader(bytes.data(), bytes.size());
  KbBlocksManifest manifest;
  if (auto error = DecodeBlocksManifest(&reader, &manifest)) {
    return *std::move(error);
  }
  if (reader.remaining() != 0) {
    return Err(LoadError::Code::kTrailingBytes,
               "trailing bytes after the blocks manifest in " +
                   (root / kBlocksManifestFile).string());
  }
  return manifest;
}

std::optional<LoadError> SaveKnowledgeBaseBlocks(
    const KnowledgeBaseSnapshot& snapshot, const std::string& dir,
    uint64_t block_bytes) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Err(LoadError::Code::kIoError,
               "cannot create directory " + dir + ": " + ec.message());
  }
  // A knowledge base already here stays whole until the new manifest
  // lands; one whose manifest does not read is refused, since which files
  // it names is unknown.
  KbBlocksManifest old;
  if (KnowledgeBaseBlocksDirExists(dir)) {
    auto existing = ReadKnowledgeBaseBlocksManifest(dir);
    if (!existing.has_value()) return existing.error();
    old = *std::move(existing);
  }
  std::vector<std::vector<uint8_t>> storage;
  const std::vector<PackInput> inputs =
      EncodeRange(snapshot, 0, snapshot.window_count(), &storage);
  return ReplaceBlocks(std::filesystem::path(dir), old, inputs, block_bytes,
                       BlocksManifestFor(snapshot));
}

std::optional<LoadError> AppendKnowledgeBaseBlocks(
    const KnowledgeBaseSnapshot& snapshot, const std::string& dir,
    uint64_t block_bytes) {
  if (!KnowledgeBaseBlocksDirExists(dir)) {
    return SaveKnowledgeBaseBlocks(snapshot, dir, block_bytes);
  }
  auto manifest = ReadKnowledgeBaseBlocksManifest(dir);
  if (!manifest.has_value()) return manifest.error();
  if (!SameOptionsFingerprint(manifest.value(), snapshot.options())) {
    return Err(LoadError::Code::kBadManifest,
               "directory was written with different construction options "
               "(floors/itemset cap/content index) — refusing to append");
  }
  if (auto error = CheckBlocksPrefix(snapshot, manifest.value())) {
    return error;
  }
  const WindowId existing = manifest->window_count();
  if (existing == snapshot.window_count()) return std::nullopt;

  const uint64_t next_index = NextFileIndex(manifest.value());
  const std::filesystem::path root(dir);
  std::vector<std::vector<uint8_t>> storage;
  const std::vector<PackInput> inputs =
      EncodeRange(snapshot, existing, snapshot.window_count(), &storage);
  if (auto error = WritePackedBlocks(inputs, existing, next_index, block_bytes,
                                     root, &manifest.value().blocks)) {
    return error;
  }
  return WriteBlocksManifest(root, manifest.value());
}

std::optional<LoadError> RepartitionKnowledgeBase(const std::string& dir,
                                                  uint64_t block_bytes) {
  // The mapping keeps the old segment bytes alive through the pack.
  auto mapped = MappedKb::Open(dir);
  if (!mapped.has_value()) return mapped.error();
  std::vector<PackInput> inputs;
  inputs.reserve(mapped->window_count());
  for (WindowId w = 0; w < mapped->window_count(); ++w) {
    const SegmentView view = mapped->segment(w);
    inputs.push_back(PackInput{*view.row, view.data, view.size});
  }
  return ReplaceBlocks(std::filesystem::path(dir), mapped->manifest(), inputs,
                       block_bytes, mapped->manifest());
}

std::optional<LoadError> TrimKnowledgeBase(const std::string& dir,
                                           uint32_t window_count) {
  auto manifest = ReadKnowledgeBaseBlocksManifest(dir);
  if (!manifest.has_value()) return manifest.error();
  if (window_count > manifest->window_count()) {
    std::ostringstream message;
    message << "cannot trim to " << window_count << " windows; only "
            << manifest->window_count() << " exist";
    return Err(LoadError::Code::kBadManifest, message.str());
  }
  if (window_count == manifest->window_count()) return std::nullopt;

  const std::filesystem::path root(dir);
  uint64_t next_index = NextFileIndex(manifest.value());
  KbBlocksManifest updated = manifest.value();
  updated.blocks.clear();
  std::vector<std::filesystem::path> orphans;
  for (const KbBlockInfo& block : manifest->blocks) {
    const std::filesystem::path path =
        root / KnowledgeBaseBlockFileName(block.file_index);
    if (block.first_window + block.rows.size() <= window_count) {
      updated.blocks.push_back(block);  // fully kept, file untouched
      continue;
    }
    orphans.push_back(path);
    if (block.first_window >= window_count) continue;  // fully dropped
    // The block straddles the cut: byte-copy the kept prefix into a
    // fresh-indexed file (offsets inside it are unchanged).
    const size_t keep_rows = window_count - block.first_window;
    std::vector<uint8_t> bytes;
    if (auto error = ReadFileBytes(path, &bytes)) return error;
    if (bytes.size() != block.file_bytes) {
      std::ostringstream message;
      message << path.string() << " is " << bytes.size()
              << " bytes but the manifest promises " << block.file_bytes;
      return Err(LoadError::Code::kCorruptSegment, message.str());
    }
    const KbBlockRow& last = block.rows[keep_rows - 1];
    bytes.resize(last.offset + last.segment_bytes);
    KbBlockInfo partial;
    partial.file_index = next_index++;
    partial.first_window = block.first_window;
    partial.file_bytes = bytes.size();
    partial.file_hash = HashBytes(bytes.data(), bytes.size());
    partial.rows.assign(block.rows.begin(), block.rows.begin() + keep_rows);
    if (auto error = AtomicWriteFileBytes(
            root / KnowledgeBaseBlockFileName(partial.file_index), bytes)) {
      return error;
    }
    updated.blocks.push_back(std::move(partial));
  }
  if (auto error = WriteBlocksManifest(root, updated)) return error;
  for (const std::filesystem::path& orphan : orphans) {
    if (auto error = RemoveFile(orphan)) return error;
  }
  return std::nullopt;
}

std::optional<LoadError> RemoveKnowledgeBase(const std::string& dir) {
  const std::filesystem::path root(dir);
  std::vector<std::filesystem::path> blocks;
  auto manifest = ReadKnowledgeBaseBlocksManifest(dir);
  if (manifest.has_value()) {
    for (const KbBlockInfo& block : manifest->blocks) {
      blocks.push_back(root / KnowledgeBaseBlockFileName(block.file_index));
    }
  } else if (manifest.error().code == LoadError::Code::kTruncated) {
    // A torn save names no blocks, so every block-named file goes, the
    // blocks first: a second `db rm` can finish what a failed one began.
    const std::regex block_name("block-[0-9]{6,}\\.blk");
    std::error_code ec;
    for (std::filesystem::directory_iterator it(root, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (std::regex_match(it->path().filename().string(), block_name)) {
        blocks.push_back(it->path());
      }
    }
    if (ec) {
      return Err(LoadError::Code::kIoError,
                 "cannot list " + dir + ": " + ec.message());
    }
  } else {
    return manifest.error();
  }
  for (const std::filesystem::path& block : blocks) {
    if (auto error = RemoveFile(block)) return error;
  }
  return RemoveFile(root / kBlocksManifestFile);
}

Expected<MappedKb, LoadError> MappedKb::Open(const std::string& dir) {
  auto manifest = ReadKnowledgeBaseBlocksManifest(dir);
  if (!manifest.has_value()) return manifest.error();
  MappedKb kb;
  kb.dir_ = dir;
  kb.manifest_ = *std::move(manifest);
  const std::filesystem::path root(dir);
  kb.maps_.reserve(kb.manifest_.blocks.size());
  for (size_t b = 0; b < kb.manifest_.blocks.size(); ++b) {
    const KbBlockInfo& block = kb.manifest_.blocks[b];
    const std::filesystem::path path =
        root / KnowledgeBaseBlockFileName(block.file_index);
    MappedFile map;
    std::string error;
    if (!map.Open(path.string(), &error)) {
      return Err(LoadError::Code::kIoError, error);
    }
    // Size check via fstat — still no payload byte read.
    if (map.size() != block.file_bytes) {
      std::ostringstream message;
      message << path.string() << " is " << map.size()
              << " bytes but the blocks manifest promises "
              << block.file_bytes;
      return Err(LoadError::Code::kCorruptSegment, message.str());
    }
    for (size_t i = 0; i < block.rows.size(); ++i) {
      kb.locs_.push_back(WindowLoc{static_cast<uint32_t>(b),
                                   static_cast<uint32_t>(i)});
    }
    kb.maps_.push_back(std::move(map));
  }
  return kb;
}

SegmentView MappedKb::segment(WindowId w) const {
  TARA_CHECK(w < locs_.size()) << "window " << w << " out of range ("
                               << locs_.size() << " mapped windows)";
  const WindowLoc& loc = locs_[w];
  const KbBlockInfo& block = manifest_.blocks[loc.block];
  const KbBlockRow& row = block.rows[loc.row];
  SegmentView view;
  view.window = w;
  view.data = maps_[loc.block].data() + row.offset;
  view.size = row.segment_bytes;
  view.row = &row;
  return view;
}

std::optional<LoadError> MappedKb::VerifyHashes(ThreadPool* pool) const {
  const size_t n = manifest_.blocks.size();
  std::vector<std::optional<LoadError>> errors(n);
  const auto check_block = [&](size_t b) {
    const KbBlockInfo& block = manifest_.blocks[b];
    const MappedFile& map = maps_[b];
    if (HashBytes(map.data(), map.size()) != block.file_hash) {
      std::ostringstream message;
      message << KnowledgeBaseBlockFileName(block.file_index)
              << " checksum does not match the blocks manifest";
      errors[b] = Err(LoadError::Code::kCorruptSegment, message.str());
      return;
    }
    // The rows' segment hashes in one interleaved pass.
    std::vector<std::span<const uint8_t>> rows;
    for (const KbBlockRow& row : block.rows) {
      rows.emplace_back(map.data() + row.offset, row.segment_bytes);
    }
    std::vector<uint64_t> hashes(rows.size());
    HashBytesMany(rows, hashes.data());
    for (size_t i = 0; i < block.rows.size(); ++i) {
      if (hashes[i] != block.rows[i].segment_hash) {
        std::ostringstream message;
        message << "segment of window "
                << block.first_window + static_cast<WindowId>(i)
                << " is corrupt: checksum does not match the blocks manifest";
        errors[b] = Err(LoadError::Code::kCorruptSegment, message.str());
        return;
      }
    }
  };
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(n, [&](size_t, size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) check_block(b);
    });
  } else {
    for (size_t b = 0; b < n; ++b) check_block(b);
  }
  for (std::optional<LoadError>& error : errors) {
    if (error.has_value()) return std::move(error);
  }
  return std::nullopt;
}

std::optional<WindowId> MappedKb::FirstWindowWithRule(RuleId rule) const {
  if (manifest_.rule_watermark() <= rule) return std::nullopt;
  uint32_t lo = 0;
  uint32_t hi = static_cast<uint32_t>(locs_.size());
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    const WindowLoc& loc = locs_[mid];
    if (manifest_.blocks[loc.block].rows[loc.row].rule_watermark > rule) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<WindowId>(lo);
}

}  // namespace tara
