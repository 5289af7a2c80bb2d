#include "core/query_request.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/varint.h"

namespace tara {
namespace {

void AppendDouble(double value, std::string* out) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

void AppendVarint(uint64_t value, std::string* out) {
  std::vector<uint8_t> bytes;
  varint::EncodeU64(value, &bytes);
  out->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
}

template <typename Int>
void AppendIdList(std::vector<Int> ids, std::string* out) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  AppendVarint(ids.size(), out);
  for (const Int id : ids) AppendVarint(id, out);
}

void AppendSetting(const ParameterSetting& setting, std::string* out) {
  AppendDouble(setting.min_support, out);
  AppendDouble(setting.min_confidence, out);
}

/// Cursor over untrusted bytes; every Read* returns false on truncation.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  explicit Reader(std::string_view bytes)
      : data(reinterpret_cast<const uint8_t*>(bytes.data())),
        size(bytes.size()) {}

  bool ReadVarint(uint64_t* out) {
    return varint::TryDecodeU64(data, size, &pos, out);
  }

  bool ReadDouble(double* out) {
    if (pos + 8 > size) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    *out = std::bit_cast<double>(bits);
    return true;
  }

  template <typename Int>
  bool ReadIdList(std::vector<Int>* out) {
    uint64_t count = 0;
    if (!ReadVarint(&count) || count > size) return false;
    out->clear();
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t id = 0;
      if (!ReadVarint(&id)) return false;
      out->push_back(static_cast<Int>(id));
    }
    return true;
  }

  bool AtEnd() const { return pos == size; }
};

void EncodeRuleIds(const std::vector<RuleId>& ids, std::string* out) {
  AppendVarint(ids.size(), out);
  for (const RuleId id : ids) AppendVarint(id, out);
}

bool DecodeRuleIds(Reader* in, std::vector<RuleId>* out) {
  return in->ReadIdList(out);
}

}  // namespace

QueryRequest QueryRequest::MineWindow(WindowId w,
                                      const ParameterSetting& setting) {
  QueryRequest request;
  request.kind = QueryKind::kMineWindow;
  request.window = w;
  request.setting = setting;
  return request;
}

QueryRequest QueryRequest::MineWindows(std::vector<WindowId> windows,
                                       const ParameterSetting& setting,
                                       MatchMode mode) {
  QueryRequest request;
  request.kind = QueryKind::kMineWindows;
  request.windows = std::move(windows);
  request.setting = setting;
  request.mode = mode;
  return request;
}

QueryRequest QueryRequest::Trajectory(WindowId anchor,
                                      const ParameterSetting& setting,
                                      std::vector<WindowId> horizon) {
  QueryRequest request;
  request.kind = QueryKind::kTrajectory;
  request.window = anchor;
  request.setting = setting;
  request.windows = std::move(horizon);
  return request;
}

QueryRequest QueryRequest::Compare(const ParameterSetting& first,
                                   const ParameterSetting& second,
                                   std::vector<WindowId> windows,
                                   MatchMode mode) {
  QueryRequest request;
  request.kind = QueryKind::kCompare;
  request.setting = first;
  request.second = second;
  request.windows = std::move(windows);
  request.mode = mode;
  return request;
}

QueryRequest QueryRequest::Region(WindowId w,
                                  const ParameterSetting& setting) {
  QueryRequest request;
  request.kind = QueryKind::kRegion;
  request.window = w;
  request.setting = setting;
  return request;
}

QueryRequest QueryRequest::Measures(RuleId rule,
                                    std::vector<WindowId> windows) {
  QueryRequest request;
  request.kind = QueryKind::kMeasures;
  request.rule = rule;
  request.windows = std::move(windows);
  return request;
}

QueryRequest QueryRequest::Content(WindowId w, Itemset items,
                                   const ParameterSetting& setting) {
  QueryRequest request;
  request.kind = QueryKind::kContent;
  request.window = w;
  request.items = std::move(items);
  request.setting = setting;
  return request;
}

QueryRequest QueryRequest::ContentView(WindowId w,
                                       const ParameterSetting& setting) {
  QueryRequest request;
  request.kind = QueryKind::kContentView;
  request.window = w;
  request.setting = setting;
  return request;
}

QueryRequest QueryRequest::RollUpRule(RuleId rule,
                                      std::vector<WindowId> windows) {
  QueryRequest request;
  request.kind = QueryKind::kRollUpRule;
  request.rule = rule;
  request.windows = std::move(windows);
  return request;
}

QueryRequest QueryRequest::RollUpMine(std::vector<WindowId> windows,
                                      const ParameterSetting& setting) {
  QueryRequest request;
  request.kind = QueryKind::kRollUpMine;
  request.windows = std::move(windows);
  request.setting = setting;
  return request;
}

std::string EncodeQueryRequest(const QueryRequest& request) {
  std::string out;
  out.push_back(static_cast<char>(request.kind));
  switch (request.kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kRegion:
    case QueryKind::kContentView:
      AppendVarint(request.window, &out);
      AppendSetting(request.setting, &out);
      break;
    case QueryKind::kMineWindows:
      out.push_back(static_cast<char>(request.mode));
      AppendSetting(request.setting, &out);
      AppendIdList(request.windows, &out);
      break;
    case QueryKind::kTrajectory:
      AppendVarint(request.window, &out);
      AppendSetting(request.setting, &out);
      AppendIdList(request.windows, &out);
      break;
    case QueryKind::kCompare:
      out.push_back(static_cast<char>(request.mode));
      AppendSetting(request.setting, &out);
      AppendSetting(request.second, &out);
      AppendIdList(request.windows, &out);
      break;
    case QueryKind::kMeasures:
    case QueryKind::kRollUpRule:
      AppendVarint(request.rule, &out);
      AppendIdList(request.windows, &out);
      break;
    case QueryKind::kContent:
      AppendVarint(request.window, &out);
      AppendSetting(request.setting, &out);
      AppendIdList(request.items, &out);
      break;
    case QueryKind::kRollUpMine:
      AppendSetting(request.setting, &out);
      AppendIdList(request.windows, &out);
      break;
  }
  return out;
}

namespace {

void EncodeTrajectory(const Trajectory& trajectory, std::string* out) {
  AppendVarint(trajectory.size(), out);
  for (const TrajectoryPoint& point : trajectory) {
    AppendVarint(point.window, out);
    out->push_back(point.present ? 1 : 0);
    AppendDouble(point.support, out);
    AppendDouble(point.confidence, out);
  }
}

bool DecodeTrajectory(Reader* in, Trajectory* out) {
  uint64_t count = 0;
  if (!in->ReadVarint(&count) || count > in->size) return false;
  out->clear();
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    TrajectoryPoint point;
    uint64_t window = 0;
    if (!in->ReadVarint(&window) || in->pos >= in->size) return false;
    point.window = static_cast<WindowId>(window);
    point.present = in->data[in->pos++] != 0;
    if (!in->ReadDouble(&point.support) ||
        !in->ReadDouble(&point.confidence)) {
      return false;
    }
    out->push_back(point);
  }
  return true;
}

}  // namespace

std::string EncodeQueryResult(QueryKind kind, const QueryResult& result) {
  std::string out;
  switch (kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kMineWindows:
    case QueryKind::kContent:
      EncodeRuleIds(std::get<std::vector<RuleId>>(result), &out);
      break;
    case QueryKind::kTrajectory: {
      const auto& value = std::get<TrajectoryQueryResult>(result);
      EncodeRuleIds(value.rules, &out);
      AppendVarint(value.trajectories.size(), &out);
      for (const Trajectory& t : value.trajectories) {
        EncodeTrajectory(t, &out);
      }
      break;
    }
    case QueryKind::kCompare: {
      const auto& value = std::get<RulesetDiff>(result);
      EncodeRuleIds(value.only_first, &out);
      EncodeRuleIds(value.only_second, &out);
      break;
    }
    case QueryKind::kRegion: {
      const auto& value = std::get<RegionInfo>(result);
      AppendDouble(value.support_lower, &out);
      AppendDouble(value.support_upper, &out);
      AppendDouble(value.confidence_lower, &out);
      AppendDouble(value.confidence_upper, &out);
      AppendVarint(value.result_size, &out);
      break;
    }
    case QueryKind::kMeasures: {
      const auto& value = std::get<TrajectoryMeasures>(result);
      AppendDouble(value.coverage, &out);
      AppendDouble(value.stability, &out);
      AppendDouble(value.support_stddev, &out);
      AppendDouble(value.confidence_stddev, &out);
      AppendDouble(value.mean_support, &out);
      AppendDouble(value.mean_confidence, &out);
      break;
    }
    case QueryKind::kContentView: {
      const auto& value = std::get<ContentViewResult>(result);
      std::vector<ItemId> items;
      items.reserve(value.size());
      for (const auto& [item, rules] : value) items.push_back(item);
      std::sort(items.begin(), items.end());
      AppendVarint(items.size(), &out);
      for (const ItemId item : items) {
        AppendVarint(item, &out);
        EncodeRuleIds(value.at(item), &out);
      }
      break;
    }
    case QueryKind::kRollUpRule: {
      const auto& value = std::get<RollUpBound>(result);
      AppendDouble(value.support_lo, &out);
      AppendDouble(value.support_hi, &out);
      AppendDouble(value.confidence_lo, &out);
      AppendDouble(value.confidence_hi, &out);
      AppendVarint(value.missing_windows, &out);
      break;
    }
    case QueryKind::kRollUpMine: {
      const auto& value = std::get<RolledUpRules>(result);
      EncodeRuleIds(value.certain, &out);
      EncodeRuleIds(value.possible, &out);
      break;
    }
  }
  return out;
}

std::optional<QueryResult> DecodeQueryResult(QueryKind kind,
                                             std::string_view bytes) {
  Reader in(bytes);
  std::optional<QueryResult> result;
  switch (kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kMineWindows:
    case QueryKind::kContent: {
      std::vector<RuleId> rules;
      if (!DecodeRuleIds(&in, &rules)) return std::nullopt;
      result = std::move(rules);
      break;
    }
    case QueryKind::kTrajectory: {
      TrajectoryQueryResult value;
      uint64_t count = 0;
      if (!DecodeRuleIds(&in, &value.rules) || !in.ReadVarint(&count) ||
          count > in.size) {
        return std::nullopt;
      }
      value.trajectories.resize(count);
      for (uint64_t i = 0; i < count; ++i) {
        if (!DecodeTrajectory(&in, &value.trajectories[i])) {
          return std::nullopt;
        }
      }
      result = std::move(value);
      break;
    }
    case QueryKind::kCompare: {
      RulesetDiff value;
      if (!DecodeRuleIds(&in, &value.only_first) ||
          !DecodeRuleIds(&in, &value.only_second)) {
        return std::nullopt;
      }
      result = std::move(value);
      break;
    }
    case QueryKind::kRegion: {
      RegionInfo value;
      uint64_t size = 0;
      if (!in.ReadDouble(&value.support_lower) ||
          !in.ReadDouble(&value.support_upper) ||
          !in.ReadDouble(&value.confidence_lower) ||
          !in.ReadDouble(&value.confidence_upper) || !in.ReadVarint(&size)) {
        return std::nullopt;
      }
      value.result_size = size;
      result = value;
      break;
    }
    case QueryKind::kMeasures: {
      TrajectoryMeasures value;
      if (!in.ReadDouble(&value.coverage) || !in.ReadDouble(&value.stability) ||
          !in.ReadDouble(&value.support_stddev) ||
          !in.ReadDouble(&value.confidence_stddev) ||
          !in.ReadDouble(&value.mean_support) ||
          !in.ReadDouble(&value.mean_confidence)) {
        return std::nullopt;
      }
      result = value;
      break;
    }
    case QueryKind::kContentView: {
      ContentViewResult value;
      uint64_t count = 0;
      if (!in.ReadVarint(&count) || count > in.size) return std::nullopt;
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t item = 0;
        std::vector<RuleId> rules;
        if (!in.ReadVarint(&item) || !DecodeRuleIds(&in, &rules)) {
          return std::nullopt;
        }
        value[static_cast<ItemId>(item)] = std::move(rules);
      }
      result = std::move(value);
      break;
    }
    case QueryKind::kRollUpRule: {
      RollUpBound value;
      uint64_t missing = 0;
      if (!in.ReadDouble(&value.support_lo) ||
          !in.ReadDouble(&value.support_hi) ||
          !in.ReadDouble(&value.confidence_lo) ||
          !in.ReadDouble(&value.confidence_hi) || !in.ReadVarint(&missing)) {
        return std::nullopt;
      }
      value.missing_windows = static_cast<uint32_t>(missing);
      result = value;
      break;
    }
    case QueryKind::kRollUpMine: {
      RolledUpRules value;
      if (!DecodeRuleIds(&in, &value.certain) ||
          !DecodeRuleIds(&in, &value.possible)) {
        return std::nullopt;
      }
      result = std::move(value);
      break;
    }
  }
  if (!result.has_value() || !in.AtEnd()) return std::nullopt;
  return result;
}

namespace {

/// Builds the WindowSet of a request's raw ids against `snapshot`,
/// producing the same kWindowSetMismatch a stale typed WindowSet would:
/// out-of-range ids are a recoverable request error here, not the
/// construction-time caller bug the WindowSet constructor aborts on.
Expected<WindowSet, QueryError> MakeRequestWindowSet(
    const KnowledgeBaseSnapshot& snapshot,
    const std::vector<WindowId>& ids) {
  for (const WindowId w : ids) {
    if (w >= snapshot.window_count()) {
      std::ostringstream message;
      message << "request refers to window " << w
              << " but this snapshot (generation " << snapshot.generation()
              << ") has only " << snapshot.window_count() << " windows";
      return QueryError{QueryError::Code::kWindowSetMismatch, message.str()};
    }
  }
  return snapshot.MakeWindowSet(ids);
}

template <typename T>
Expected<QueryResult, QueryError> Wrap(Expected<T, QueryError> result) {
  if (!result.has_value()) return result.error();
  return QueryResult(std::move(result).value());
}

}  // namespace

Expected<QueryResult, QueryError> ExecuteQuery(
    const KnowledgeBaseSnapshot& snapshot, const QueryRequest& request) {
  switch (request.kind) {
    case QueryKind::kMineWindow:
      return Wrap(snapshot.MineWindow(request.window, request.setting));
    case QueryKind::kMineWindows: {
      auto windows = MakeRequestWindowSet(snapshot, request.windows);
      if (!windows.has_value()) return windows.error();
      return Wrap(
          snapshot.MineWindows(*windows, request.setting, request.mode));
    }
    case QueryKind::kTrajectory: {
      auto horizon = MakeRequestWindowSet(snapshot, request.windows);
      if (!horizon.has_value()) return horizon.error();
      return Wrap(
          snapshot.TrajectoryQuery(request.window, request.setting, *horizon));
    }
    case QueryKind::kCompare: {
      auto windows = MakeRequestWindowSet(snapshot, request.windows);
      if (!windows.has_value()) return windows.error();
      return Wrap(snapshot.CompareSettings(request.setting, request.second,
                                           *windows, request.mode));
    }
    case QueryKind::kRegion:
      return Wrap(snapshot.RecommendRegion(request.window, request.setting));
    case QueryKind::kMeasures: {
      auto windows = MakeRequestWindowSet(snapshot, request.windows);
      if (!windows.has_value()) return windows.error();
      return Wrap(snapshot.RuleMeasures(request.rule, *windows));
    }
    case QueryKind::kContent:
      return Wrap(
          snapshot.ContentQuery(request.window, request.items,
                                request.setting));
    case QueryKind::kContentView:
      return Wrap(snapshot.ContentView(request.window, request.setting));
    case QueryKind::kRollUpRule: {
      auto windows = MakeRequestWindowSet(snapshot, request.windows);
      if (!windows.has_value()) return windows.error();
      return Wrap(snapshot.RollUpRule(request.rule, *windows));
    }
    case QueryKind::kRollUpMine: {
      auto windows = MakeRequestWindowSet(snapshot, request.windows);
      if (!windows.has_value()) return windows.error();
      return Wrap(snapshot.MineRolledUp(*windows, request.setting));
    }
  }
  return QueryError{QueryError::Code::kBadWindow, "unknown query kind"};
}

}  // namespace tara
