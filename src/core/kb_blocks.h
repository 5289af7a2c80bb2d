#ifndef TARA_CORE_KB_BLOCKS_H_
#define TARA_CORE_KB_BLOCKS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.h"
#include "common/mmap_file.h"
#include "common/thread_pool.h"
#include "core/kb_storage.h"
#include "core/load_error.h"
#include "core/tara_engine.h"

namespace tara {

/// Block-partitioned knowledge-base persistence (format TARAKB3) — the
/// one on-disk directory format. Each window's TSEG segment blob
/// (kb_storage.h; byte-identical to what the WAL and replication frames
/// carry) is packed into a few balanced **block files**, each covering a
/// contiguous window range:
///
///   <dir>/blocks.tarakb3        the blocks manifest
///   <dir>/block-NNNNNN.blk      segment blobs at 64-byte-aligned offsets
///
/// The manifest holds the serialized construction options and names
/// each block by an explicit `file_index` (the NNNNNN in its name), its
/// window span, byte size, and whole-file hash, plus per-window rows
/// (transaction count, rule watermark, entry count, the segment's offset
/// inside the block, its size and hash). Block boundaries are metadata
/// over the same segment bytes: checkpoints append fresh blocks at their
/// own cadence, `db split` rebalances them, and the stream form
/// (EncodeKnowledgeBase) of the knowledge base never changes.
///
/// Explicit file indices make every rewrite (save, append, split, trim)
/// crash-safe: new content always lands in fresh-indexed files through
/// the temp → fsync → rename → dir-fsync discipline, the manifest swaps
/// atomically, and orphans are deleted only afterwards — a crash at any
/// instant leaves a manifest whose named files are all fully in place.
///
/// Because segments sit at stable offsets in a handful of files, a
/// knowledge base can be **memory-mapped** (MappedKb): open cost is
/// O(blocks) mmap calls regardless of window count, and no segment
/// payload byte is read until a query needs that window — the zero-copy
/// half of OpenKnowledgeBase's OpenMode::kMapped.

/// Default target block size for the balanced partitioner.
inline constexpr uint64_t kDefaultBlockBytes = 4ull * 1024 * 1024;

/// Segments start at multiples of this within a block file (zero padding
/// in between), so decode-on-access never straddles an unaligned load.
inline constexpr uint64_t kBlockSegmentAlignment = 64;

/// Per-window row of the blocks manifest.
struct KbBlockRow {
  uint64_t total_transactions = 0;
  uint64_t rule_watermark = 0;
  uint64_t entry_count = 0;
  uint64_t offset = 0;
  uint64_t segment_bytes = 0;
  uint64_t segment_hash = 0;
};

/// One block: a contiguous run of windows packed into
/// `block-<file_index>.blk`.
struct KbBlockInfo {
  uint64_t file_index = 0;
  WindowId first_window = 0;
  uint64_t file_bytes = 0;
  /// Hash of the entire block file (padding included) — the cheap
  /// whole-block integrity check `db verify` and VerifyHashes use before
  /// the per-segment hashes.
  uint64_t file_hash = 0;
  std::vector<KbBlockRow> rows;
};

/// The decoded blocks manifest: serialized construction options plus the
/// block table.
struct KbBlocksManifest {
  double min_support_floor = 0;
  double min_confidence_floor = 0;
  uint64_t max_itemset_size = 0;
  bool build_content_index = false;
  std::vector<KbBlockInfo> blocks;

  uint32_t window_count() const;
  /// The rule watermark after the last window (0 when empty).
  uint64_t rule_watermark() const;
};

/// The TARAKB3 file names ("blocks.tarakb3", "block-NNNNNN.blk").
std::string KnowledgeBaseBlocksManifestFileName();
std::string KnowledgeBaseBlockFileName(uint64_t file_index);

/// True if `dir` holds a TARAKB3 blocks manifest.
bool KnowledgeBaseBlocksDirExists(const std::string& dir);

/// Reads and validates `<dir>/blocks.tarakb3` without touching any block
/// file.
Expected<KbBlocksManifest, LoadError> ReadKnowledgeBaseBlocksManifest(
    const std::string& dir);

/// Writes the full knowledge base of `snapshot` into `dir` as TARAKB3:
/// windows are packed into balanced blocks of about `block_bytes` each
/// (always at least one window per block), block files land before the
/// manifest that names them. Over a knowledge base already in `dir` the
/// blocks are fresh-indexed and the old ones are deleted once the new
/// manifest is durable, as in a split; a manifest that does not read is
/// refused with its LoadError.
std::optional<LoadError> SaveKnowledgeBaseBlocks(
    const KnowledgeBaseSnapshot& snapshot, const std::string& dir,
    uint64_t block_bytes = kDefaultBlockBytes);

/// Incremental save — the checkpoint step of `savedir`, `ingest` and
/// `wal recover`: verifies the manifest in `dir` describes a prefix of
/// `snapshot`'s windows (same options; per-window transaction counts,
/// watermarks, and entry counts match), then packs only the NEW windows
/// into fresh-indexed block files. Existing blocks are never rewritten,
/// so checkpoint cadence determines the tail blocks' sizes — run
/// RepartitionKnowledgeBase (`db split`) to rebalance. Falls back to
/// SaveKnowledgeBaseBlocks when `dir` has no blocks manifest yet.
std::optional<LoadError> AppendKnowledgeBaseBlocks(
    const KnowledgeBaseSnapshot& snapshot, const std::string& dir,
    uint64_t block_bytes = kDefaultBlockBytes);

/// Rebalances `dir` into blocks of about `block_bytes` (`db split`),
/// written to fresh-indexed files; the old block files are removed once
/// the new manifest is durable. Pure byte-level copy: no segment is
/// decoded.
std::optional<LoadError> RepartitionKnowledgeBase(
    const std::string& dir, uint64_t block_bytes = kDefaultBlockBytes);

/// Truncates the knowledge base in `dir` to its first `window_count`
/// windows (`db trim`). File-level: kept blocks are
/// untouched; a block straddling the cut is rewritten (byte copy) into a
/// fresh-indexed file. Trimming to more windows than exist is an error.
std::optional<LoadError> TrimKnowledgeBase(const std::string& dir,
                                           uint32_t window_count);

/// Deletes every block file named by the manifest in `dir`, then the
/// manifest itself (`db rm`). The directory itself is left in place;
/// files the manifest does not name (a WAL, stray .tmp files) are not
/// touched. A manifest that exists but ends early (a torn save) names no
/// blocks, so every file named like a block file goes with it. Without a
/// manifest, or with one that fails any other way, nothing is removed.
std::optional<LoadError> RemoveKnowledgeBase(const std::string& dir);

/// A non-owning view of one window's segment blob inside a mapped block
/// file. Valid only while the MappedKb that produced it lives.
struct SegmentView {
  WindowId window = 0;
  const uint8_t* data = nullptr;
  size_t size = 0;
  const KbBlockRow* row = nullptr;
};

/// A TARAKB3 knowledge base opened zero-copy: the manifest is decoded,
/// every block file is mmap'd and size-checked (fstat — no payload
/// read), and segments are handed out as views into the mappings.
/// Decode happens on access, never at open, which is what makes open
/// time independent of window count. Move-only; views stay valid across
/// moves (the mappings do not relocate).
class MappedKb {
 public:
  static Expected<MappedKb, LoadError> Open(const std::string& dir);

  MappedKb(MappedKb&&) noexcept = default;
  MappedKb& operator=(MappedKb&&) noexcept = default;
  MappedKb(const MappedKb&) = delete;
  MappedKb& operator=(const MappedKb&) = delete;

  const KbBlocksManifest& manifest() const { return manifest_; }
  const std::string& dir() const { return dir_; }
  uint32_t window_count() const { return manifest_.window_count(); }

  /// The mapped segment blob of window `w`. Aborts on an out-of-range id
  /// (caller bug — gate on window_count()).
  SegmentView segment(WindowId w) const;

  /// Verifies every block's whole-file hash and every segment's hash
  /// against the manifest, reading all payload bytes. Blocks are checked
  /// concurrently when `pool` is non-null. First failure wins.
  std::optional<LoadError> VerifyHashes(ThreadPool* pool = nullptr) const;

  /// The first window whose rule watermark exceeds `rule` — i.e. the
  /// window that interned it. nullopt when `rule` is past the final
  /// watermark. Drives rule-targeted lazy materialization.
  std::optional<WindowId> FirstWindowWithRule(RuleId rule) const;

 private:
  MappedKb() = default;

  struct WindowLoc {
    uint32_t block = 0;
    uint32_t row = 0;
  };

  std::string dir_;
  KbBlocksManifest manifest_;
  std::vector<MappedFile> maps_;  // index-aligned with manifest_.blocks
  std::vector<WindowLoc> locs_;   // per window
};

}  // namespace tara

#endif  // TARA_CORE_KB_BLOCKS_H_
