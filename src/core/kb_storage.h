#ifndef TARA_CORE_KB_STORAGE_H_
#define TARA_CORE_KB_STORAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.h"
#include "core/load_error.h"
#include "core/tara_engine.h"

namespace tara {

/// The byte codecs of a persisted TARA knowledge base.
///
/// - A **window segment** (magic "TSEG") is one window's self-contained
///   blob: the contents of the rules that window interned first (ids
///   [previous watermark, watermark) — contiguous by the commit-order
///   invariant) and the window's (rule, counts) entries. The same blob
///   travels everywhere: TARAKB3 block files (kb_blocks.h), WAL records
///   (wal.h) and replication frames (wire_format.h) all carry it.
/// - The **stream form** (magic "TARAKB2") is a small header — the
///   options fingerprint (kb_snapshot.h) plus one row per window (transaction
///   count, rule watermark, entry count, segment size and checksum) —
///   followed by every segment, concatenated. It is a knowledge base's
///   canonical bytes for comparison, not a loader's input: the REPL's
///   `save` writes it, and every test compares knowledge bases by it.
///
/// The one on-disk format is the TARAKB3 directory (kb_blocks.h), and
/// the one loader is OpenKnowledgeBase (kb_open.h).
///
/// Every byte goes through the shared codec (common/byte_codec.h):
/// integers are LEB128 varints, doubles and checksums are 8-byte
/// little-endian, itemsets are delta-encoded. Decoders read through its
/// ByteReader, treat all input as untrusted and return LoadError instead
/// of aborting.

/// Serializes one pinned generation in the stream form. Deterministic —
/// byte-identical for the same window sequence regardless of build
/// parallelism or whether windows arrived via BuildAll or live appends.
std::string EncodeKnowledgeBase(const KnowledgeBaseSnapshot& snapshot);

/// --- Window-segment codec -------------------------------------------------

/// The one segment encoder: window `window`, whose rules first interned
/// hold ids [first_rule, segment.rule_watermark) in `catalog`. The
/// builder logs a pending window with it before the window is published.
std::vector<uint8_t> EncodeWindowSegment(WindowId window, RuleId first_rule,
                                         const WindowSegment& segment,
                                         const RuleCatalog& catalog);

/// Encodes window `window` of `snapshot` as its segment blob.
std::vector<uint8_t> EncodeWindowSegment(const KnowledgeBaseSnapshot& snapshot,
                                         WindowId window);

/// A decoded segment blob: the window it belongs to, where its rule ids
/// start, and its entries with rule contents resolved — the shape
/// AppendPrecomputedWindow takes. Loaders commit by id instead
/// (ParseWindowSegment + CommitPersistedWindows).
struct DecodedWindowSegment {
  WindowId window = 0;
  RuleId first_rule = 0;
  std::vector<PrecomputedRule> entries;
};

/// Parses a segment blob and resolves every entry's rule contents:
/// rules older than `first_rule` through `catalog` (which must hold at
/// least `first_rule` rules), the rules the window interned first from
/// the blob itself. Untrusted-input discipline: any inconsistency is a
/// LoadError, never an abort.
Expected<DecodedWindowSegment, LoadError> DecodeWindowSegment(
    const uint8_t* data, size_t size, const RuleCatalog& catalog);

/// Catalog-free structural parse of a segment blob into the batch
/// commit's input (total_transactions, which the blob does not carry,
/// is left 0 for the caller to set). Rejects, as kCorruptSegment, a
/// truncated or overlong blob, a rule-id range that overflows RuleId, an
/// entry naming a rule past the segment's watermark, a zero rule count,
/// and an antecedent count that overflows. Safe to run on many segments
/// concurrently.
Expected<PersistedWindow, LoadError> ParseWindowSegment(const uint8_t* data,
                                                        size_t size);

/// What a TARAKB3 blocks manifest row claims about one window's segment.
struct SegmentClaim {
  WindowId window = 0;
  uint64_t total_transactions = 0;
  /// The previous row's watermark (0 for window 0).
  uint64_t first_rule = 0;
  uint64_t rule_watermark = 0;
  uint64_t entry_count = 0;
  uint64_t segment_hash = 0;
};

/// Stage 1 of loading a segment a manifest describes: checks `hash`, the
/// blob's HashBytes as the caller computed it, parses the blob, and
/// cross-checks the window id, the rule-id range and the entry count
/// against `claim`; sets total_transactions from it. Errors name the
/// window. Catalog-free, like ParseWindowSegment.
Expected<PersistedWindow, LoadError> ParseClaimedSegment(
    const uint8_t* data, size_t size, uint64_t hash, const SegmentClaim& claim);

/// Reads just the window id from a segment blob's header, so WAL replay
/// can skip records a checkpoint already covers without parsing them.
Expected<WindowId, LoadError> PeekWindowSegmentWindow(const uint8_t* data,
                                                      size_t size);

}  // namespace tara

#endif  // TARA_CORE_KB_STORAGE_H_
