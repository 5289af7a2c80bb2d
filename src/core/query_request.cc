#include "core/query_request.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "common/byte_codec.h"
#include "common/logging.h"

namespace tara {
namespace {

using codec::ByteReader;
using codec::StringWriter;

/// Window ids and items are canonical: sorted and deduplicated.
template <typename Int>
void WriteIdSet(std::vector<Int> ids, StringWriter* out) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  out->IdList(ids);
}

void WriteSetting(const ParameterSetting& setting, StringWriter* out) {
  out->F64(setting.min_support);
  out->F64(setting.min_confidence);
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
  StringWriter out;
  out.Byte(static_cast<uint8_t>(request.kind));
  switch (request.kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kRegion:
    case QueryKind::kContentView:
      out.U64(request.window);
      WriteSetting(request.setting, &out);
      break;
    case QueryKind::kMineWindows:
      out.Byte(static_cast<uint8_t>(request.mode));
      WriteSetting(request.setting, &out);
      WriteIdSet(request.windows, &out);
      break;
    case QueryKind::kTrajectory:
      out.U64(request.window);
      WriteSetting(request.setting, &out);
      WriteIdSet(request.windows, &out);
      break;
    case QueryKind::kCompare:
      out.Byte(static_cast<uint8_t>(request.mode));
      WriteSetting(request.setting, &out);
      WriteSetting(request.second, &out);
      WriteIdSet(request.windows, &out);
      break;
    case QueryKind::kMeasures:
    case QueryKind::kRollUpRule:
      out.U64(request.rule);
      WriteIdSet(request.windows, &out);
      break;
    case QueryKind::kContent:
      out.U64(request.window);
      WriteSetting(request.setting, &out);
      WriteIdSet(request.items, &out);
      break;
    case QueryKind::kRollUpMine:
      WriteSetting(request.setting, &out);
      WriteIdSet(request.windows, &out);
      break;
  }
  return std::move(out).bytes();
}

namespace {

// The result writer runs one grammar twice, over a ByteCount to size the
// answer exactly, then over a raw char* cursor into a buffer of that size.
using codec::ByteCount;
using codec::WriteByte;
using codec::WriteIdList;
using codec::WriteVarint;

template <typename Out>
Out WriteF64(double value, Out out) {
  return codec::WriteFixed(std::bit_cast<uint64_t>(value), out);
}

template <typename Out>
Out WritePoints(std::span<const TrajectoryPoint> trajectory, Out out) {
  out = WriteVarint(trajectory.size(), out);
  for (const TrajectoryPoint& point : trajectory) {
    out = WriteVarint(point.window, out);
    out = WriteByte(point.present ? 1 : 0, out);
    out = WriteF64(point.support, out);
    out = WriteF64(point.confidence, out);
  }
  return out;
}

/// The canonical result grammar, the one place it is written down.
template <typename Out>
Out PutResult(QueryKind kind, const QueryResult& result, Out out) {
  switch (kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kMineWindows:
    case QueryKind::kContent:
      return WriteIdList(std::get<std::vector<RuleId>>(result), out);
    case QueryKind::kTrajectory: {
      const auto& value = std::get<TrajectoryQueryResult>(result);
      out = WriteIdList(value.rules, out);
      out = WriteVarint(value.trajectory_count(), out);
      for (size_t t = 0; t < value.trajectory_count(); ++t) {
        out = WritePoints(value.trajectory(t), out);
      }
      return out;
    }
    case QueryKind::kCompare: {
      const auto& value = std::get<RulesetDiff>(result);
      out = WriteIdList(value.only_first, out);
      return WriteIdList(value.only_second, out);
    }
    case QueryKind::kRegion: {
      const auto& value = std::get<RegionInfo>(result);
      out = WriteF64(value.support_lower, out);
      out = WriteF64(value.support_upper, out);
      out = WriteF64(value.confidence_lower, out);
      out = WriteF64(value.confidence_upper, out);
      return WriteVarint(value.result_size, out);
    }
    case QueryKind::kMeasures: {
      const auto& value = std::get<TrajectoryMeasures>(result);
      out = WriteF64(value.coverage, out);
      out = WriteF64(value.stability, out);
      out = WriteF64(value.support_stddev, out);
      out = WriteF64(value.confidence_stddev, out);
      out = WriteF64(value.mean_support, out);
      return WriteF64(value.mean_confidence, out);
    }
    case QueryKind::kContentView: {
      const auto& value = std::get<ContentViewResult>(result);
      out = WriteVarint(value.items.size(), out);
      for (size_t i = 0; i < value.items.size(); ++i) {
        out = WriteVarint(value.items[i], out);
        out = WriteIdList(value.rules_of(i), out);
      }
      return out;
    }
    case QueryKind::kRollUpRule: {
      const auto& value = std::get<RollUpBound>(result);
      out = WriteF64(value.support_lo, out);
      out = WriteF64(value.support_hi, out);
      out = WriteF64(value.confidence_lo, out);
      out = WriteF64(value.confidence_hi, out);
      return WriteVarint(value.missing_windows, out);
    }
    case QueryKind::kRollUpMine: {
      const auto& value = std::get<RolledUpRules>(result);
      out = WriteIdList(value.certain, out);
      return WriteIdList(value.possible, out);
    }
  }
  return out;
}

/// The fewest bytes a trajectory point encodes to: a one-byte window
/// varint, the present byte and two f64s.
constexpr uint64_t kMinPointBytes = 18;

/// Decodes `count` trajectories into the flat block. The points are
/// reserved once, for as many as the remaining bytes hold at
/// kMinPointBytes a point (at most 24/18 of those bytes), so they never
/// grow; a point count the rest cannot hold is malformed.
bool DecodeTrajectories(ByteReader* in, uint64_t count,
                        TrajectoryQueryResult* out) {
  out->offsets.reserve(count + 1);
  out->points.reserve(in->remaining() / kMinPointBytes);
  for (uint64_t t = 0; t < count; ++t) {
    uint64_t points = 0;
    if (!in->U64(&points) || points > in->remaining() / kMinPointBytes) {
      return false;
    }
    for (uint64_t i = 0; i < points; ++i) {
      // A window past 32 bits or a present byte other than 0 or 1 is
      // nothing an encoder writes: narrowed, it would name another answer.
      TrajectoryPoint point;
      uint8_t present = 0;
      if (!in->Id(&point.window) || !in->Byte(&present) || present > 1 ||
          !in->F64(&point.support) || !in->F64(&point.confidence)) {
        return false;
      }
      point.present = present == 1;
      out->points.push_back(point);
    }
    out->offsets.push_back(static_cast<uint32_t>(out->points.size()));
  }
  return true;
}

}  // namespace

std::string EncodeQueryResult(QueryKind kind, const QueryResult& result,
                              size_t prefix_bytes) {
  const size_t size = prefix_bytes + PutResult(kind, result, ByteCount{}).bytes;
  std::string out(size, '\0');
  const char* end = PutResult(kind, result, out.data() + prefix_bytes);
  TARA_CHECK(end == out.data() + size) << "result writer passes disagree";
  return out;
}

std::optional<QueryResult> DecodeQueryResult(QueryKind kind,
                                             std::string_view bytes) {
  ByteReader in(bytes);
  std::optional<QueryResult> result;
  switch (kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kMineWindows:
    case QueryKind::kContent: {
      std::vector<RuleId> rules;
      if (!in.IdList(&rules)) return std::nullopt;
      result = std::move(rules);
      break;
    }
    case QueryKind::kTrajectory: {
      TrajectoryQueryResult value;
      uint64_t count = 0;
      if (!in.IdList(&value.rules) || !in.Count(&count) ||
          !DecodeTrajectories(&in, count, &value)) {
        return std::nullopt;
      }
      result = std::move(value);
      break;
    }
    case QueryKind::kCompare: {
      RulesetDiff value;
      if (!in.IdList(&value.only_first) || !in.IdList(&value.only_second)) {
        return std::nullopt;
      }
      result = std::move(value);
      break;
    }
    case QueryKind::kRegion: {
      RegionInfo value;
      uint64_t size = 0;
      if (!in.F64(&value.support_lower) || !in.F64(&value.support_upper) ||
          !in.F64(&value.confidence_lower) ||
          !in.F64(&value.confidence_upper) || !in.U64(&size)) {
        return std::nullopt;
      }
      value.result_size = size;
      result = value;
      break;
    }
    case QueryKind::kMeasures: {
      TrajectoryMeasures value;
      if (!in.F64(&value.coverage) || !in.F64(&value.stability) ||
          !in.F64(&value.support_stddev) ||
          !in.F64(&value.confidence_stddev) ||
          !in.F64(&value.mean_support) || !in.F64(&value.mean_confidence)) {
        return std::nullopt;
      }
      result = value;
      break;
    }
    case QueryKind::kContentView: {
      ContentViewResult value;
      uint64_t count = 0;
      if (!in.Count(&count)) return std::nullopt;
      value.items.reserve(count);
      value.offsets.reserve(count + 1);
      // Items ascend strictly, as the grammar writes them: bytes naming an
      // item twice, or out of order, are not a result any encoder wrote.
      // The rules grow by each item's count, which the bytes behind it
      // must back.
      for (uint64_t i = 0; i < count; ++i) {
        uint64_t item = 0;
        uint64_t rules = 0;
        if (!in.U64(&item) || item > UINT32_MAX ||
            (!value.items.empty() && item <= value.items.back()) ||
            !in.Count(&rules)) {
          return std::nullopt;
        }
        value.items.push_back(static_cast<ItemId>(item));
        const size_t begin = value.rules.size();
        value.rules.resize(begin + rules);
        for (size_t r = begin; r < value.rules.size(); ++r) {
          if (!in.Id(&value.rules[r])) return std::nullopt;
        }
        value.offsets.push_back(static_cast<uint32_t>(value.rules.size()));
      }
      result = std::move(value);
      break;
    }
    case QueryKind::kRollUpRule: {
      RollUpBound value;
      uint64_t missing = 0;
      if (!in.F64(&value.support_lo) || !in.F64(&value.support_hi) ||
          !in.F64(&value.confidence_lo) || !in.F64(&value.confidence_hi) ||
          !in.U64(&missing) || missing > UINT32_MAX) {
        return std::nullopt;
      }
      value.missing_windows = static_cast<uint32_t>(missing);
      result = value;
      break;
    }
    case QueryKind::kRollUpMine: {
      RolledUpRules value;
      if (!in.IdList(&value.certain) || !in.IdList(&value.possible)) {
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
