#include "core/kb_storage.h"

#include <cstdint>
#include <numeric>
#include <optional>
#include <sstream>
#include <vector>

#include "common/byte_codec.h"
#include "common/hash.h"

namespace tara {
namespace {

using codec::ByteReader;
using codec::ByteWriter;

constexpr char kManifestMagic[] = "TARAKB2";
constexpr size_t kManifestMagicLen = sizeof(kManifestMagic) - 1;
constexpr char kSegmentMagic[] = "TSEG";
constexpr size_t kSegmentMagicLen = sizeof(kSegmentMagic) - 1;

/// One stream-header row: a window and its segment blob.
struct ManifestRow {
  uint64_t total_transactions = 0;
  uint64_t rule_watermark = 0;
  uint64_t entry_count = 0;
  uint64_t segment_bytes = 0;
  uint64_t segment_hash = 0;
};

/// The stream header: the options fingerprint plus one row per window.
struct Manifest {
  /// Serialized subset only; runtime knobs take their defaults.
  KbOptions options;
  std::vector<ManifestRow> rows;
};

LoadError Err(LoadError::Code code, std::string message) {
  return LoadError{code, std::move(message)};
}

ManifestRow RowFor(const KnowledgeBaseSnapshot& snapshot, WindowId window,
                   const std::vector<uint8_t>& segment_bytes) {
  const WindowSegment& segment = snapshot.segment(window);
  ManifestRow row;
  row.total_transactions = segment.total_transactions;
  row.rule_watermark = segment.rule_watermark;
  row.entry_count = segment.entries.size();
  row.segment_bytes = segment_bytes.size();
  row.segment_hash = HashBytes(segment_bytes.data(), segment_bytes.size());
  return row;
}

std::vector<uint8_t> EncodeManifestBytes(const Manifest& manifest) {
  ByteWriter w;
  w.Magic(kManifestMagic, kManifestMagicLen);
  WriteOptionsFingerprint(manifest.options, &w);
  w.U64(manifest.rows.size());
  for (const ManifestRow& row : manifest.rows) {
    w.U64(row.total_transactions);
    w.U64(row.rule_watermark);
    w.U64(row.entry_count);
    w.U64(row.segment_bytes);
    w.Raw64(row.segment_hash);
  }
  return w.bytes();
}

/// Parses a stream header from `reader`; on success the cursor rests on
/// the first byte after it (the first segment).
std::optional<LoadError> DecodeManifest(ByteReader* reader,
                                        Manifest* manifest) {
  if (reader->remaining() == 0) {
    return Err(LoadError::Code::kTruncated, "knowledge-base stream is empty");
  }
  if (!reader->Magic(kManifestMagic, kManifestMagicLen)) {
    // Distinguish a stale format from arbitrary bytes for a better
    // operator message.
    ByteReader probe(*reader);
    if (probe.Magic("TARAKB", 6)) {
      return Err(LoadError::Code::kBadVersion,
                 "stream is a different TARA knowledge-base format version "
                 "(expected TARAKB2); re-serialize with this build");
    }
    return Err(LoadError::Code::kBadMagic,
               "not a TARA knowledge base (TARAKB2 magic missing)");
  }
  const auto error = ReadOptionsFingerprint(reader, &manifest->options);
  if (error.has_value() && !error->truncated) {
    return Err(LoadError::Code::kBadManifest, "manifest " + error->message);
  }
  uint64_t window_count = 0;
  if (error.has_value() || !reader->U64(&window_count)) {
    return Err(LoadError::Code::kTruncated,
               "manifest ended mid-header (truncated stream?)");
  }
  manifest->rows.reserve(window_count <= 4096 ? window_count : 0);
  uint64_t previous_watermark = 0;
  for (uint64_t i = 0; i < window_count; ++i) {
    ManifestRow row;
    if (!reader->U64(&row.total_transactions) ||
        !reader->U64(&row.rule_watermark) || !reader->U64(&row.entry_count) ||
        !reader->U64(&row.segment_bytes) || !reader->Raw64(&row.segment_hash)) {
      std::ostringstream message;
      message << "manifest ended inside window row " << i << " of "
              << window_count;
      return Err(LoadError::Code::kTruncated, message.str());
    }
    if (row.rule_watermark < previous_watermark) {
      std::ostringstream message;
      message << "manifest watermarks decrease at window " << i << " ("
              << previous_watermark << " -> " << row.rule_watermark
              << ") — watermarks count cumulative interned rules";
      return Err(LoadError::Code::kBadManifest, message.str());
    }
    if (row.entry_count < row.rule_watermark - previous_watermark) {
      std::ostringstream message;
      message << "manifest window " << i << " claims "
              << row.rule_watermark - previous_watermark
              << " first-seen rules but only " << row.entry_count
              << " entries";
      return Err(LoadError::Code::kBadManifest, message.str());
    }
    previous_watermark = row.rule_watermark;
    manifest->rows.push_back(row);
  }
  return std::nullopt;
}

TaraEngine EngineFor(const Manifest& manifest, obs::MetricsRegistry* metrics) {
  KbOptions options = manifest.options;
  options.metrics = metrics;
  return TaraEngine(options);
}

}  // namespace

std::string EncodeKnowledgeBase(const KnowledgeBaseSnapshot& snapshot) {
  Manifest manifest;
  manifest.options = snapshot.options();
  std::vector<std::vector<uint8_t>> segments;
  segments.reserve(snapshot.window_count());
  for (WindowId w = 0; w < snapshot.window_count(); ++w) {
    segments.push_back(EncodeWindowSegment(snapshot, w));
    manifest.rows.push_back(RowFor(snapshot, w, segments.back()));
  }
  const std::vector<uint8_t> header = EncodeManifestBytes(manifest);
  std::string out(header.begin(), header.end());
  for (const std::vector<uint8_t>& segment : segments) {
    out.append(segment.begin(), segment.end());
  }
  return out;
}

Expected<TaraEngine, LoadError> DecodeKnowledgeBase(
    std::string_view bytes, obs::MetricsRegistry* metrics) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  ByteReader reader(data, bytes.size());
  Manifest manifest;
  if (auto error = DecodeManifest(&reader, &manifest)) return *std::move(error);

  std::vector<PersistedWindow> batch;
  batch.reserve(manifest.rows.size());
  uint64_t first_rule = 0;
  size_t pos = reader.pos();
  for (size_t w = 0; w < manifest.rows.size(); ++w) {
    const ManifestRow& row = manifest.rows[w];
    if (bytes.size() - pos < row.segment_bytes) {
      std::ostringstream message;
      message << "stream ends inside the segment of window " << w
              << " (manifest promises " << row.segment_bytes << " bytes, "
              << bytes.size() - pos << " remain)";
      return Err(LoadError::Code::kTruncated, message.str());
    }
    auto parsed = ParseClaimedSegment(
        data + pos, row.segment_bytes,
        {.window = static_cast<WindowId>(w),
         .total_transactions = row.total_transactions,
         .first_rule = first_rule,
         .rule_watermark = row.rule_watermark,
         .entry_count = row.entry_count,
         .segment_hash = row.segment_hash});
    if (!parsed.has_value()) return parsed.error();
    batch.push_back(std::move(parsed).value());
    first_rule = row.rule_watermark;
    pos += row.segment_bytes;
  }
  if (pos != bytes.size()) {
    std::ostringstream message;
    message << bytes.size() - pos
            << " trailing bytes after the last window segment";
    return Err(LoadError::Code::kTrailingBytes, message.str());
  }
  TaraEngine engine = EngineFor(manifest, metrics);
  if (auto error = engine.CommitPersistedWindows(std::move(batch))) {
    return *std::move(error);
  }
  return engine;
}

std::vector<uint8_t> EncodeWindowSegment(WindowId window, RuleId first_rule,
                                         const WindowSegment& segment,
                                         const RuleCatalog& catalog) {
  ByteWriter w;
  w.Magic(kSegmentMagic, kSegmentMagicLen);
  w.U64(window);
  w.U64(first_rule);
  w.U64(segment.rule_watermark - first_rule);
  std::vector<RuleId> new_rules(segment.rule_watermark - first_rule);
  std::iota(new_rules.begin(), new_rules.end(), first_rule);
  catalog.ForEachRule(new_rules, [&w](size_t, const Rule& rule) {
    w.Items(rule.antecedent);
    w.Items(rule.consequent);
  });
  w.U64(segment.entries.size());
  for (const WindowIndex::Entry& e : segment.entries) {
    w.U64(e.rule);
    w.U64(e.rule_count);
    w.U64(e.antecedent_count - e.rule_count);  // delta, always >= 0
  }
  return w.bytes();
}

std::vector<uint8_t> EncodeWindowSegment(const KnowledgeBaseSnapshot& snapshot,
                                         WindowId window) {
  return EncodeWindowSegment(
      window, window == 0 ? 0 : snapshot.segment(window - 1).rule_watermark,
      snapshot.segment(window), snapshot.catalog());
}

Expected<WindowId, LoadError> PeekWindowSegmentWindow(const uint8_t* data,
                                                      size_t size) {
  ByteReader r(data, size);
  uint64_t stored_window = 0;
  if (!r.Magic(kSegmentMagic, kSegmentMagicLen) || !r.U64(&stored_window) ||
      static_cast<WindowId>(stored_window) != stored_window) {
    return Err(LoadError::Code::kCorruptSegment,
               "window segment is corrupt: unreadable window id");
  }
  return static_cast<WindowId>(stored_window);
}

Expected<PersistedWindow, LoadError> ParseWindowSegment(const uint8_t* data,
                                                        size_t size) {
  const auto corrupt = [](const std::string& what) {
    return Err(LoadError::Code::kCorruptSegment,
               "window segment is corrupt: " + what);
  };
  ByteReader r(data, size);
  if (!r.Magic(kSegmentMagic, kSegmentMagicLen)) {
    return corrupt("TSEG magic missing");
  }
  uint64_t stored_window = 0, first_rule = 0, new_rule_count = 0;
  if (!r.U64(&stored_window) || !r.U64(&first_rule) ||
      !r.U64(&new_rule_count)) {
    return corrupt("truncated segment header");
  }
  PersistedWindow parsed;
  parsed.window = static_cast<WindowId>(stored_window);
  parsed.first_rule = static_cast<RuleId>(first_rule);
  if (parsed.window != stored_window || parsed.first_rule != first_rule) {
    return corrupt("window or rule id overflows");
  }
  if (new_rule_count > r.remaining() / 2) {  // each rule takes >= 2 bytes
    return corrupt("truncated rule contents");
  }
  // Ids stay below RuleCatalog::kNotFound.
  const uint64_t watermark = first_rule + new_rule_count;
  if (watermark > RuleCatalog::kNotFound) return corrupt("rule ids overflow");
  // Rules grow as they decode: each takes far more memory than its two
  // bytes, so the count alone must not size an allocation.
  for (uint64_t i = 0; i < new_rule_count; ++i) {
    Rule rule;
    if (!r.Items(&rule.antecedent) || !r.Items(&rule.consequent)) {
      return corrupt("rule contents are truncated or name an item id past "
                     "32 bits");
    }
    parsed.new_rules.push_back(std::move(rule));
  }
  uint64_t entry_count = 0;
  if (!r.U64(&entry_count)) return corrupt("truncated entry count");
  if (entry_count > r.remaining() / 3) {  // each entry takes >= 3 bytes
    return corrupt("truncated entry list");
  }
  parsed.entries.reserve(entry_count);
  for (uint64_t i = 0; i < entry_count; ++i) {
    uint64_t rule = 0, rule_count = 0, antecedent_delta = 0;
    if (!r.U64(&rule) || !r.U64(&rule_count) || !r.U64(&antecedent_delta)) {
      return corrupt("truncated entry list");
    }
    if (rule >= watermark) {
      return corrupt("entry references a rule past the segment's range");
    }
    if (rule_count == 0) return corrupt("entry with a zero rule count");
    if (antecedent_delta > UINT64_MAX - rule_count) {
      return corrupt("entry's antecedent count overflows");
    }
    parsed.entries.push_back(WindowIndex::Entry{
        static_cast<RuleId>(rule), rule_count, rule_count + antecedent_delta});
  }
  if (r.remaining() != 0) return corrupt("trailing bytes after the entries");
  return parsed;
}

Expected<PersistedWindow, LoadError> ParseClaimedSegment(
    const uint8_t* data, size_t size, const SegmentClaim& claim) {
  const auto corrupt = [&claim](const std::string& what) {
    std::ostringstream message;
    message << "segment of window " << claim.window << " is corrupt: " << what;
    return Err(LoadError::Code::kCorruptSegment, message.str());
  };
  if (HashBytes(data, size) != claim.segment_hash) {
    return corrupt("checksum does not match the manifest");
  }
  auto parsed = ParseWindowSegment(data, size);
  if (!parsed.has_value()) return corrupt(parsed.error().message);
  if (parsed->window != claim.window) {
    return corrupt("segment belongs to a different window");
  }
  if (parsed->first_rule != claim.first_rule ||
      parsed->first_rule + parsed->new_rules.size() != claim.rule_watermark) {
    return corrupt("rule id range disagrees with the manifest watermark");
  }
  if (parsed->entries.size() != claim.entry_count) {
    return corrupt("entry count disagrees with the manifest");
  }
  parsed.value().total_transactions = claim.total_transactions;
  return parsed;
}

Expected<DecodedWindowSegment, LoadError> DecodeWindowSegment(
    const uint8_t* data, size_t size, const RuleCatalog& catalog) {
  auto parsed = ParseWindowSegment(data, size);
  if (!parsed.has_value()) return parsed.error();
  if (parsed->first_rule > catalog.size()) {
    return Err(LoadError::Code::kCorruptSegment,
               "window segment is corrupt: rule ids start past the catalog");
  }
  DecodedWindowSegment decoded;
  decoded.window = parsed->window;
  decoded.first_rule = parsed->first_rule;
  decoded.entries.reserve(parsed->entries.size());
  for (const WindowIndex::Entry& e : parsed->entries) {
    PrecomputedRule p;
    // Ids past first_rule are in range by the parse-time bound check.
    p.rule = e.rule < parsed->first_rule
                 ? catalog.rule(e.rule)
                 : parsed->new_rules[e.rule - parsed->first_rule];
    p.rule_count = e.rule_count;
    p.antecedent_count = e.antecedent_count;
    decoded.entries.push_back(std::move(p));
  }
  return decoded;
}

}  // namespace tara
