#include "core/kb_storage.h"

#include <cstdint>
#include <numeric>
#include <sstream>
#include <vector>

#include "common/byte_codec.h"
#include "common/hash.h"

namespace tara {
namespace {

using codec::ByteReader;
using codec::ByteWriter;

constexpr char kStreamMagic[] = "TARAKB2";
constexpr size_t kStreamMagicLen = sizeof(kStreamMagic) - 1;
constexpr char kSegmentMagic[] = "TSEG";
constexpr size_t kSegmentMagicLen = sizeof(kSegmentMagic) - 1;

LoadError Err(LoadError::Code code, std::string message) {
  return LoadError{code, std::move(message)};
}

}  // namespace

std::string EncodeKnowledgeBase(const KnowledgeBaseSnapshot& snapshot) {
  ByteWriter header;
  header.Magic(kStreamMagic, kStreamMagicLen);
  WriteOptionsFingerprint(snapshot.options(), &header);
  header.U64(snapshot.window_count());
  std::vector<std::vector<uint8_t>> segments;
  segments.reserve(snapshot.window_count());
  for (WindowId w = 0; w < snapshot.window_count(); ++w) {
    const std::vector<uint8_t>& bytes =
        segments.emplace_back(EncodeWindowSegment(snapshot, w));
    const WindowSegment& segment = snapshot.segment(w);
    header.U64(segment.total_transactions);
    header.U64(segment.rule_watermark);
    header.U64(segment.entries.size());
    header.U64(bytes.size());
    header.Raw64(HashBytes(bytes.data(), bytes.size()));
  }
  std::string out(header.bytes().begin(), header.bytes().end());
  for (const std::vector<uint8_t>& bytes : segments) {
    out.append(bytes.begin(), bytes.end());
  }
  return out;
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
    const uint8_t* data, size_t size, uint64_t hash,
    const SegmentClaim& claim) {
  const auto corrupt = [&claim](const std::string& what) {
    std::ostringstream message;
    message << "segment of window " << claim.window << " is corrupt: " << what;
    return Err(LoadError::Code::kCorruptSegment, message.str());
  };
  if (hash != claim.segment_hash) {
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
