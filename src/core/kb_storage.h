#ifndef TARA_CORE_KB_STORAGE_H_
#define TARA_CORE_KB_STORAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
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
///   serialized construction options plus one row per window (transaction
///   count, rule watermark, entry count, segment size and checksum) —
///   followed by every segment, concatenated. It is the single-file
///   `save`/`load` format (serialization.h) and the byte-identity oracle
///   every test compares knowledge bases with.
///
/// The one on-disk directory format is TARAKB3 (kb_blocks.h); open it
/// with OpenKnowledgeBase (kb_open.h).
///
/// Integers are LEB128 varints, doubles and checksums are 8-byte
/// little-endian; itemsets are delta-encoded. Decoders treat all input as
/// untrusted and return LoadError instead of aborting.

/// Serializes one pinned generation in the stream form. Deterministic —
/// byte-identical for the same window sequence regardless of build
/// parallelism or whether windows arrived via BuildAll or live appends.
std::string EncodeKnowledgeBase(const KnowledgeBaseSnapshot& snapshot);

/// Parses bytes produced by EncodeKnowledgeBase (or the stream helpers in
/// serialization.h). `metrics` becomes the loaded engine's
/// Options::metrics — runtime knobs are not serialized state.
Expected<TaraEngine, LoadError> DecodeKnowledgeBase(
    std::string_view bytes, obs::MetricsRegistry* metrics = nullptr);

/// --- Window-segment codec -------------------------------------------------

/// Encodes window `window` of `snapshot` as its segment blob.
std::vector<uint8_t> EncodeWindowSegment(const KnowledgeBaseSnapshot& snapshot,
                                         WindowId window);

/// A decoded segment blob: the window it belongs to, where its rule ids
/// start, and its entries with rule contents resolved — ready for
/// AppendPrecomputedWindow.
struct DecodedWindowSegment {
  WindowId window = 0;
  RuleId first_rule = 0;
  std::vector<PrecomputedRule> entries;
};

/// Parses a segment blob. Entries referencing rules older than
/// `first_rule` resolve their contents through `catalog` (which must
/// hold at least `first_rule` rules); rules the window interned first
/// come from the blob itself. Untrusted-input discipline: any
/// inconsistency is a LoadError, never an abort.
Expected<DecodedWindowSegment, LoadError> DecodeWindowSegment(
    const uint8_t* data, size_t size, const RuleCatalog& catalog);

/// A segment blob parsed WITHOUT a catalog: entries keep their raw rule
/// ids and count deltas. This is stage 1 of the two-phase decode that
/// lets block-parallel loaders parse many segments concurrently — only
/// the catalog-dependent resolution (stage 2, ResolveParsedSegment) must
/// run in window order.
struct ParsedWindowSegment {
  WindowId window = 0;
  RuleId first_rule = 0;
  /// Contents of the rules this window interned first
  /// (ids [first_rule, first_rule + new_rules.size())).
  std::vector<Rule> new_rules;
  struct RawEntry {
    uint64_t rule = 0;
    uint64_t rule_count = 0;
    uint64_t antecedent_delta = 0;
  };
  std::vector<RawEntry> entries;
};

/// Stage 1: catalog-free structural parse of a segment blob. Safe to run
/// on many segments concurrently.
Expected<ParsedWindowSegment, LoadError> ParseWindowSegment(
    const uint8_t* data, size_t size);

/// Stage 2: resolves a parsed segment's entries against `catalog`, which
/// must hold exactly the rules of all prior windows (i.e. at least
/// `parsed.first_rule` of them). Must be called in window order.
Expected<std::vector<PrecomputedRule>, LoadError> ResolveParsedSegment(
    const ParsedWindowSegment& parsed, const RuleCatalog& catalog);

/// Reads just the window id from a segment blob's header, so WAL replay
/// can order records before committing to a full (catalog-dependent)
/// decode.
Expected<WindowId, LoadError> PeekWindowSegmentWindow(const uint8_t* data,
                                                      size_t size);

}  // namespace tara

#endif  // TARA_CORE_KB_STORAGE_H_
