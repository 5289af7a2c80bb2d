#ifndef TARA_CORE_QUERY_REQUEST_H_
#define TARA_CORE_QUERY_REQUEST_H_

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/expected.h"
#include "core/kb_snapshot.h"
#include "core/query_error.h"
#include "core/query_kind.h"

namespace tara {

/// A self-contained description of one online query — the argument of
/// TaraEngine::Execute / ExecuteBatch, the unit of the wire protocol and
/// the key of the query cache. Unlike the typed KnowledgeBaseSnapshot
/// methods (whose WindowSet arguments are validated at construction and
/// abort on bad ids), a QueryRequest carries raw window ids and is
/// validated entirely at execution time with QueryError results, so
/// requests may be parsed from untrusted batch scripts or network
/// payloads and replayed against any engine generation.
///
/// Only the fields of the request's kind are meaningful; the factories
/// below set exactly those. Window ids and items are canonicalized
/// (sorted, deduplicated) by EncodeQueryRequest, so two requests that
/// differ only in argument order share one cache entry.
struct QueryRequest {
  QueryKind kind = QueryKind::kMineWindow;
  WindowId window = 0;          ///< single-window kinds + Q1 anchor
  ParameterSetting setting;     ///< every kind except measures/rollup_rule
  ParameterSetting second;      ///< Q2 only: the setting compared against
  std::vector<WindowId> windows;  ///< multi-window kinds (raw, unvalidated)
  MatchMode mode = MatchMode::kSingle;  ///< mine_windows / compare
  RuleId rule = 0;              ///< measures / rollup_rule
  Itemset items;                ///< Q5 content probe

  static QueryRequest MineWindow(WindowId w, const ParameterSetting& setting);
  static QueryRequest MineWindows(std::vector<WindowId> windows,
                                  const ParameterSetting& setting,
                                  MatchMode mode);
  static QueryRequest Trajectory(WindowId anchor,
                                 const ParameterSetting& setting,
                                 std::vector<WindowId> horizon);
  static QueryRequest Compare(const ParameterSetting& first,
                              const ParameterSetting& second,
                              std::vector<WindowId> windows, MatchMode mode);
  static QueryRequest Region(WindowId w, const ParameterSetting& setting);
  static QueryRequest Measures(RuleId rule, std::vector<WindowId> windows);
  static QueryRequest Content(WindowId w, Itemset items,
                              const ParameterSetting& setting);
  static QueryRequest ContentView(WindowId w, const ParameterSetting& setting);
  static QueryRequest RollUpRule(RuleId rule, std::vector<WindowId> windows);
  static QueryRequest RollUpMine(std::vector<WindowId> windows,
                                 const ParameterSetting& setting);
};

/// Any online operation's result. The active alternative is determined by
/// the request's kind (vector<RuleId> serves mine_window, mine_windows,
/// and content).
using QueryResult =
    std::variant<std::vector<RuleId>, TrajectoryQueryResult, RulesetDiff,
                 RegionInfo, TrajectoryMeasures, ContentViewResult,
                 RollUpBound, RolledUpRules>;

/// Canonical request bytes: kind byte followed by the kind's fields, with
/// window ids and items sorted + deduplicated and doubles encoded as
/// their IEEE-754 bit patterns. Two logically identical requests encode
/// identically — this is the cache key (minus the generation) and the
/// batch dedup key.
std::string EncodeQueryRequest(const QueryRequest& request);

/// Canonical result bytes: deterministic for a given result value (maps
/// are emitted in sorted key order). What a kResult frame carries after
/// its kind byte, and what the differential tests compare byte-for-byte.
///
/// The one result writer: a first pass sums the exact encoded length, a
/// second writes it into a buffer allocated once, so the string's
/// capacity equals its size. `prefix_bytes` zero bytes are left in front
/// for a caller that frames the answer in place (EncodeResultFrame).
std::string EncodeQueryResult(QueryKind kind, const QueryResult& result,
                              size_t prefix_bytes = 0);

/// Inverse of EncodeQueryResult. Returns nullopt on malformed bytes (a
/// cache handing back bytes it did not produce); never aborts.
std::optional<QueryResult> DecodeQueryResult(QueryKind kind,
                                             std::string_view bytes);

/// Executes `request` against one pinned snapshot, uninstrumented and
/// uncached — the core TaraEngine::Execute / ExecuteBatch wrap. All
/// validation errors come back as QueryError values — including
/// out-of-range window ids, which the WindowSet-based snapshot methods
/// would refuse at set construction time.
Expected<QueryResult, QueryError> ExecuteQuery(
    const KnowledgeBaseSnapshot& snapshot, const QueryRequest& request);

}  // namespace tara

#endif  // TARA_CORE_QUERY_REQUEST_H_
