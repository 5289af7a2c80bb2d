#ifndef TARA_CORE_QUERY_ERROR_H_
#define TARA_CORE_QUERY_ERROR_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace tara {

/// Why an online query was rejected. Every Q1-Q5/roll-up entrypoint
/// validates its request up front and returns one of these (inside an
/// Expected) instead of aborting: invalid *input* is a client problem the
/// serving process survives; CHECK aborts remain reserved for internal
/// invariant violations.
struct QueryError {
  /// The numeric values are the wire error codes (range 1-99 of the
  /// protocol error space, see core/wire_format.h): they round-trip over
  /// the network and are parsed by remote clients, so they are frozen.
  /// Append new codes with fresh numbers; NEVER reuse or renumber. 0 is
  /// reserved (it is not a valid wire code).
  enum class Code : uint32_t {
    /// min_support below the engine's generation floor — sub-floor rules
    /// were never mined, so the archive cannot answer.
    kSupportBelowFloor = 1,
    /// min_confidence below the generation floor.
    kConfidenceBelowFloor = 2,
    /// A window id at or past window_count().
    kBadWindow = 3,
    /// The operation needs at least one window.
    kEmptyWindowSet = 4,
    /// A WindowSet validated against a larger engine than this one.
    kWindowSetMismatch = 5,
    /// A RuleId never interned by this engine's catalog.
    kUnknownRule = 6,
    /// Q5 content query on an engine built without
    /// Options::build_content_index.
    kNoContentIndex = 7,
    /// A memory-mapped knowledge base failed to decode a window the
    /// query needed (lazy materialization hit corrupt storage). The
    /// engine stays up; this query — and any other needing the damaged
    /// window — is rejected. Opening with OpenVerify::kHashes detects
    /// the damage at open time instead.
    kCorruptStorage = 8,
    /// A support or confidence threshold that is NaN or infinite. The
    /// wire carries settings as raw f64 bits, so a client can send one;
    /// no floor comparison can reject it.
    kNonFiniteSetting = 9,
  };

  Code code = Code::kSupportBelowFloor;
  /// Actionable description including the offending value and the bound
  /// it violated.
  std::string message;
};

/// Stable identifier string of a code ("support_below_floor", ...), used
/// in error counters and CLI output.
std::string_view QueryErrorCodeName(QueryError::Code code);

/// The frozen numeric wire code of `code` (the enum value itself).
constexpr uint32_t QueryErrorWireCode(QueryError::Code code) {
  return static_cast<uint32_t>(code);
}

/// Inverse of QueryErrorWireCode: nullopt for a number this build does
/// not know (a newer peer's code — surface it numerically, don't guess).
std::optional<QueryError::Code> QueryErrorFromWireCode(uint32_t code);

/// gtest-friendly printing.
std::ostream& operator<<(std::ostream& out, const QueryError& error);

}  // namespace tara

#endif  // TARA_CORE_QUERY_ERROR_H_
