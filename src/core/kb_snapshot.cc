#include "core/kb_snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <type_traits>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "mining/measures.h"
#include "obs/metrics.h"

namespace tara {

namespace {

/// Per-rule accumulators of one multi-window request, indexed by RuleId:
/// a slot for every id below `bound`, allocated uninitialized, and one bit
/// per slot marking the rules the request read. A slot is value-initialized
/// when first read, so a request costs the entries it reads plus bound / 64
/// bitmap words, and ForEach visits the read rules in ascending RuleId
/// order: answers need no sort.
template <typename Value>
class RuleTable {
  // A default member initializer would zero every slot per request.
  static_assert(std::is_trivially_default_constructible_v<Value>);

 public:
  explicit RuleTable(RuleId bound)
      : values_(std::make_unique_for_overwrite<Value[]>(bound)),
        read_((static_cast<size_t>(bound) + 63) / 64) {}

  /// The accumulator of `rule`, value-initialized when first read.
  Value& operator[](RuleId rule) {
    uint64_t& word = read_[rule / 64];
    const uint64_t bit = uint64_t{1} << (rule % 64);
    if ((word & bit) == 0) {
      word |= bit;
      values_[rule] = Value{};
    }
    return values_[rule];
  }

  /// The accumulator of `rule`, or nullptr if no window read it.
  Value* Find(RuleId rule) {
    const bool read = ((read_[rule / 64] >> (rule % 64)) & 1) != 0;
    return read ? &values_[rule] : nullptr;
  }

  /// Calls visit(rule, value) for every rule read, in ascending order.
  template <typename Visit>
  void ForEach(Visit visit) const {
    for (size_t i = 0; i < read_.size(); ++i) {
      for (uint64_t word = read_[i]; word != 0; word &= word - 1) {
        const RuleId rule =
            static_cast<RuleId>(64 * i + std::countr_zero(word));
        visit(rule, values_[rule]);
      }
    }
  }

 private:
  std::unique_ptr<Value[]> values_;
  std::vector<uint64_t> read_;
};

/// The table bound of a request over `windows`: the rule watermark of its
/// last window. Each window's entries name rules below its own watermark
/// and watermarks never decrease, so checking each requested window's
/// watermark against the bound bounds every entry the request reads.
RuleId TableBound(const KnowledgeBaseSnapshot& snapshot,
                  const WindowSet& windows) {
  const RuleId bound =
      snapshot.segment(windows.required_window_count() - 1).rule_watermark;
  for (WindowId w : windows) {
    TARA_CHECK_LE(snapshot.segment(w).rule_watermark, bound)
        << "window " << w << "'s rule watermark passes a later window's";
  }
  return bound;
}

/// One pass over `windows`: each rule valid under settings[s] in a window
/// counts one hit in slot s of its accumulator. Under kExact only rules
/// valid in the first window are tracked — no other rule can be valid in
/// every window.
template <size_t N>
RuleTable<std::array<uint32_t, N>> CountHits(
    const KnowledgeBaseSnapshot& snapshot, const WindowSet& windows,
    const std::array<ParameterSetting, N>& settings, MatchMode mode) {
  RuleTable<std::array<uint32_t, N>> hits(TableBound(snapshot, windows));
  std::vector<RuleId> valid;
  bool first = true;
  for (WindowId w : windows) {
    const WindowIndex& index = snapshot.window_index(w);
    for (size_t s = 0; s < N; ++s) {
      valid.clear();
      index.CollectRules(settings[s].min_support, settings[s].min_confidence,
                         &valid);
      for (RuleId rule : valid) {
        if (first || mode == MatchMode::kSingle) {
          ++hits[rule][s];
        } else if (auto* tracked = hits.Find(rule)) {
          ++(*tracked)[s];
        }
      }
    }
    first = false;
  }
  return hits;
}

/// Mean support over the second half of `trajectory` minus the first,
/// absence counting as zero; 0 for fewer than two windows.
double Emergence(std::span<const TrajectoryPoint> trajectory) {
  if (trajectory.size() < 2) return 0.0;
  const size_t half = trajectory.size() / 2;
  double early = 0, late = 0;
  for (size_t i = 0; i < trajectory.size(); ++i) {
    const double support =
        trajectory[i].present ? trajectory[i].support : 0.0;
    if (i < half) {
      early += support;
    } else {
      late += support;
    }
  }
  early /= half;
  late /= trajectory.size() - half;
  return late - early;
}

/// True when `order` ranks `a` before `b`.
bool RanksBefore(PanoramaOrder order, const RuleInsight& a,
                 const RuleInsight& b) {
  switch (order) {
    case PanoramaOrder::kStable:
      if (a.measures.coverage != b.measures.coverage) {
        return a.measures.coverage > b.measures.coverage;
      }
      if (a.measures.stability != b.measures.stability) {
        return a.measures.stability > b.measures.stability;
      }
      break;
    case PanoramaOrder::kEmerging:
      if (a.emergence != b.emergence) return a.emergence > b.emergence;
      break;
    case PanoramaOrder::kFading:
      if (a.emergence != b.emergence) return a.emergence < b.emergence;
      break;
    case PanoramaOrder::kPeriodic:
      if (a.periodicity.strength != b.periodicity.strength) {
        return a.periodicity.strength > b.periodicity.strength;
      }
      if (a.periodicity.period != b.periodicity.period) {
        return a.periodicity.period < b.periodicity.period;
      }
      break;
  }
  return a.rule < b.rule;
}

}  // namespace

std::optional<std::string> KbOptions::Validate() const {
  std::ostringstream error;
  if (!(min_support_floor > 0.0 && min_support_floor <= 1.0)) {
    error << "Options::min_support_floor must be in (0, 1] — windows are "
             "mined once at this floor and online queries may only tighten "
             "it — got "
          << min_support_floor;
    return error.str();
  }
  if (!(min_confidence_floor >= 0.0 && min_confidence_floor <= 1.0)) {
    error << "Options::min_confidence_floor must be in [0, 1] — got "
          << min_confidence_floor;
    return error.str();
  }
  if (max_itemset_size == 1) {
    error << "Options::max_itemset_size of 1 admits no rules (a rule needs "
             ">= 2 items); use 0 for unlimited or a cap >= 2";
    return error.str();
  }
  return std::nullopt;
}

const WindowIndex& WindowSegment::Index(const RuleCatalog& catalog,
                                        bool content_index,
                                        obs::Histogram* build_ns) const {
  if (!index_built_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(index_mutex_);
    if (!index_built_.load(std::memory_order_relaxed)) {
      const auto start = std::chrono::steady_clock::now();
      index_.Build(entries, total_transactions, content_index, catalog);
      if (build_ns != nullptr) {
        build_ns->Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
      }
      index_built_.store(true, std::memory_order_release);
    }
  }
  return index_;
}

const WindowSegment& KnowledgeBaseSnapshot::segment(WindowId w) const {
  TARA_CHECK_LT(w, segments_.size()) << "bad window id";
  return *segments_[w];
}

const WindowIndex& KnowledgeBaseSnapshot::window_index(WindowId w) const {
  return segment(w).Index(*catalog_, options_.build_content_index,
                          index_build_ns_);
}

size_t KnowledgeBaseSnapshot::IndexBytes() const {
  size_t bytes = 0;
  for (WindowId w = 0; w < window_count(); ++w) {
    bytes += window_index(w).ApproximateBytes();
  }
  return bytes;
}

std::optional<QueryError> KnowledgeBaseSnapshot::ValidateSetting(
    const ParameterSetting& setting) const {
  // Before the floor checks: a NaN compares false against every floor.
  if (!std::isfinite(setting.min_support) ||
      !std::isfinite(setting.min_confidence)) {
    std::ostringstream message;
    message << "setting (" << setting.min_support << ", "
            << setting.min_confidence
            << ") is not finite — thresholds must be real numbers";
    return QueryError{QueryError::Code::kNonFiniteSetting, message.str()};
  }
  if (!ClearsFloor(setting.min_support, options_.min_support_floor)) {
    std::ostringstream message;
    message << "min_support " << setting.min_support
            << " is below the generation floor "
            << options_.min_support_floor
            << " — rules under the floor were never mined";
    return QueryError{QueryError::Code::kSupportBelowFloor, message.str()};
  }
  if (!ClearsFloor(setting.min_confidence, options_.min_confidence_floor)) {
    std::ostringstream message;
    message << "min_confidence " << setting.min_confidence
            << " is below the generation floor "
            << options_.min_confidence_floor
            << " — rules under the floor were never derived";
    return QueryError{QueryError::Code::kConfidenceBelowFloor, message.str()};
  }
  return std::nullopt;
}

std::optional<QueryError> KnowledgeBaseSnapshot::ValidateWindow(
    WindowId w) const {
  if (w < segments_.size()) return std::nullopt;
  std::ostringstream message;
  message << "window " << w << " does not exist (snapshot generation "
          << generation_ << " has " << segments_.size() << " windows)";
  return QueryError{QueryError::Code::kBadWindow, message.str()};
}

std::optional<QueryError> KnowledgeBaseSnapshot::ValidateWindows(
    const WindowSet& windows) const {
  if (windows.empty()) {
    return QueryError{QueryError::Code::kEmptyWindowSet,
                      "the window set is empty — the operation needs at "
                      "least one window"};
  }
  if (windows.required_window_count() > segments_.size()) {
    std::ostringstream message;
    message << "WindowSet refers to window "
            << windows.required_window_count() - 1
            << " but this snapshot has only " << segments_.size()
            << " windows (set built for a newer generation or a different "
               "engine?)";
    return QueryError{QueryError::Code::kWindowSetMismatch, message.str()};
  }
  return std::nullopt;
}

std::optional<QueryError> KnowledgeBaseSnapshot::ValidateRule(
    RuleId rule) const {
  if (rule < rule_count_) return std::nullopt;
  std::ostringstream message;
  message << "rule " << rule << " is not part of this snapshot (generation "
          << generation_ << " has " << rule_count_ << " rules)";
  return QueryError{QueryError::Code::kUnknownRule, message.str()};
}

std::vector<RuleId> KnowledgeBaseSnapshot::CollectWindow(
    WindowId w, const ParameterSetting& setting) const {
  std::vector<RuleId> out;
  window_index(w).CollectRules(setting.min_support, setting.min_confidence,
                               &out);
  return out;
}

Expected<std::vector<RuleId>, QueryError> KnowledgeBaseSnapshot::MineWindow(
    WindowId w, const ParameterSetting& setting) const {
  if (auto error = ValidateWindow(w)) return *std::move(error);
  if (auto error = ValidateSetting(setting)) return *std::move(error);
  return CollectWindow(w, setting);
}

Expected<std::vector<RuleId>, QueryError> KnowledgeBaseSnapshot::MineWindows(
    const WindowSet& windows, const ParameterSetting& setting,
    MatchMode mode) const {
  if (auto error = ValidateWindows(windows)) return *std::move(error);
  if (auto error = ValidateSetting(setting)) return *std::move(error);
  const auto hits = CountHits<1>(*this, windows, {setting}, mode);
  const size_t need = mode == MatchMode::kSingle ? 1 : windows.size();
  std::vector<RuleId> rules;
  hits.ForEach([&](RuleId rule, const std::array<uint32_t, 1>& hit) {
    if (hit[0] >= need) rules.push_back(rule);
  });
  return rules;
}

Expected<TrajectoryQueryResult, QueryError>
KnowledgeBaseSnapshot::TrajectoryQuery(WindowId anchor,
                                       const ParameterSetting& setting,
                                       const WindowSet& horizon) const {
  if (auto error = ValidateWindow(anchor)) return *std::move(error);
  if (auto error = ValidateSetting(setting)) return *std::move(error);
  if (auto error = ValidateWindows(horizon)) return *std::move(error);
  // One block, sized once: each rule's trajectory is written behind the
  // previous one by one walk along the rule's archive series.
  TrajectoryQueryResult result;
  result.rules = CollectWindow(anchor, setting);
  TARA_CHECK_LE(result.rules.size() * horizon.size(), UINT32_MAX)
      << "a trajectory answer's points outgrow 32-bit offsets";
  result.offsets.reserve(result.rules.size() + 1);
  result.points.resize(result.rules.size() * horizon.size());
  TrajectoryPoint* out = result.points.data();
  for (const RuleId rule : result.rules) {
    out = WriteTrajectory(*archive_, rule, horizon.ids(), out);
    result.offsets.push_back(
        static_cast<uint32_t>(out - result.points.data()));
  }
  return result;
}

Expected<RulesetDiff, QueryError> KnowledgeBaseSnapshot::CompareSettings(
    const ParameterSetting& first, const ParameterSetting& second,
    const WindowSet& windows, MatchMode mode) const {
  if (auto error = ValidateWindows(windows)) return *std::move(error);
  if (auto error = ValidateSetting(first)) return *std::move(error);
  if (auto error = ValidateSetting(second)) return *std::move(error);
  const auto hits = CountHits<2>(*this, windows, {first, second}, mode);
  const size_t need = mode == MatchMode::kSingle ? 1 : windows.size();
  RulesetDiff diff;
  hits.ForEach([&](RuleId rule, const std::array<uint32_t, 2>& hit) {
    const bool in_first = hit[0] >= need;
    const bool in_second = hit[1] >= need;
    if (in_first && !in_second) diff.only_first.push_back(rule);
    if (in_second && !in_first) diff.only_second.push_back(rule);
  });
  return diff;
}

Expected<RegionInfo, QueryError> KnowledgeBaseSnapshot::RecommendRegion(
    WindowId w, const ParameterSetting& setting) const {
  if (auto error = ValidateWindow(w)) return *std::move(error);
  if (auto error = ValidateSetting(setting)) return *std::move(error);
  return window_index(w).Locate(setting.min_support, setting.min_confidence);
}

Expected<TrajectoryMeasures, QueryError> KnowledgeBaseSnapshot::RuleMeasures(
    RuleId rule, const WindowSet& windows) const {
  if (auto error = ValidateRule(rule)) return *std::move(error);
  if (auto error = ValidateWindows(windows)) return *std::move(error);
  return ComputeMeasures(BuildTrajectory(*archive_, rule, windows.ids()));
}

Expected<std::vector<RuleId>, QueryError> KnowledgeBaseSnapshot::ContentQuery(
    WindowId w, const Itemset& items, const ParameterSetting& setting) const {
  if (!options_.build_content_index) {
    return QueryError{QueryError::Code::kNoContentIndex,
                      "content queries need an engine built with "
                      "Options::build_content_index (the TARA-S variant)"};
  }
  if (auto error = ValidateWindow(w)) return *std::move(error);
  if (auto error = ValidateSetting(setting)) return *std::move(error);
  std::vector<RuleId> out;
  window_index(w).ContentQuery(items, setting.min_support,
                               setting.min_confidence, &out);
  return out;
}

Expected<ContentViewResult, QueryError> KnowledgeBaseSnapshot::ContentView(
    WindowId w, const ParameterSetting& setting) const {
  if (auto error = ValidateWindow(w)) return *std::move(error);
  if (auto error = ValidateSetting(setting)) return *std::move(error);
  // One (item, rule) pair per item of each answered rule, in rule-id
  // order, then stably by item: items ascending, each item's rules
  // ascending.
  std::vector<RuleId> answer = CollectWindow(w, setting);
  RadixSort(&answer);
  std::vector<uint64_t> pairs;
  catalog_->ForEachRule(answer, [&](size_t i, const Rule& r) {
    for (const Itemset* side : {&r.antecedent, &r.consequent}) {
      for (const ItemId item : *side) {
        pairs.push_back(uint64_t{item} << 32 | answer[i]);
      }
    }
  });
  RadixSort(&pairs, [](uint64_t pair) { return pair >> 32; });
  // The CSR straight from the sorted pairs: each new item opens a row at
  // the previous row's end, and each pair extends the open row.
  ContentViewResult view;
  view.rules.resize(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto item = static_cast<ItemId>(pairs[i] >> 32);
    if (view.items.empty() || item != view.items.back()) {
      view.items.push_back(item);
      view.offsets.push_back(view.offsets.back());
    }
    view.rules[i] = static_cast<RuleId>(pairs[i]);
    ++view.offsets.back();
  }
  return view;
}

Expected<RollUpBound, QueryError> KnowledgeBaseSnapshot::RollUpRule(
    RuleId rule, const WindowSet& windows) const {
  if (auto error = ValidateRule(rule)) return *std::move(error);
  if (auto error = ValidateWindows(windows)) return *std::move(error);
  return archive_->RollUp(rule, windows.ids());
}

Expected<RolledUpRules, QueryError> KnowledgeBaseSnapshot::MineRolledUp(
    const WindowSet& windows, const ParameterSetting& setting) const {
  if (auto error = ValidateWindows(windows)) return *std::move(error);
  if (auto error = ValidateSetting(setting)) return *std::move(error);
  // One pass over the requested windows' entries. Per rule it sums the
  // counts of the windows that archived it; the missing windows' terms are
  // the request's totals minus the rule's present ones (RollUpAggregate's
  // sums). Each rule is then classified in counts against one min count
  // over the request's total: certain if it passes while absent from the
  // missing windows that its antecedent fills, possible if it passes only
  // at the floor slack there.
  struct Present {
    uint64_t rule_count;
    uint64_t antecedent_count;
    uint64_t size;
    uint64_t slack;
  };
  uint64_t total = 0;
  uint64_t total_slack = 0;
  RuleTable<Present> present(TableBound(*this, windows));
  for (WindowId w : windows) {
    const uint64_t size = archive_->window_size(w);
    const uint64_t slack = archive_->window_slack(w);
    total += size;
    total_slack += slack;
    for (const WindowIndex::Entry& e : segments_[w]->entries) {
      Present& p = present[e.rule];
      p.rule_count += e.rule_count;
      p.antecedent_count += e.antecedent_count;
      p.size += size;
      p.slack += slack;
    }
  }

  const uint64_t min_count = MinCountForSupport(setting.min_support, total);
  const double min_confidence = setting.min_confidence;
  RolledUpRules result;
  present.ForEach([&](RuleId rule, const Present& p) {
    const uint64_t missing_size = total - p.size;
    const uint64_t missing_slack = total_slack - p.slack;
    if (p.rule_count >= min_count &&
        AdmitsConfidence(p.rule_count, p.antecedent_count + missing_size,
                         min_confidence)) {
      result.certain.push_back(rule);
    } else if (p.rule_count + missing_slack >= min_count &&
               AdmitsConfidence(p.rule_count + missing_slack,
                                p.antecedent_count + missing_slack,
                                min_confidence)) {
      result.possible.push_back(rule);
    }
  });
  return result;
}

Expected<std::vector<RuleInsight>, QueryError> KnowledgeBaseSnapshot::Panorama(
    const WindowSet& horizon, const ParameterSetting& setting,
    PanoramaOrder order, size_t k, uint32_t max_period) const {
  Expected<std::vector<RuleId>, QueryError> rules =
      MineWindows(horizon, setting, MatchMode::kSingle);
  if (!rules) return rules.error();
  std::vector<RuleInsight> insights;
  insights.reserve(rules->size());
  // One trajectory buffer, rewritten per rule.
  Trajectory trajectory(horizon.size());
  for (RuleId rule : *rules) {
    WriteTrajectory(*archive_, rule, horizon.ids(), trajectory.data());
    insights.push_back(RuleInsight{
        .rule = rule,
        .measures = ComputeMeasures(trajectory),
        .periodicity = DetectPeriodicity(trajectory, max_period),
        .emergence = Emergence(trajectory)});
  }
  if (order == PanoramaOrder::kPeriodic) {
    std::erase_if(insights, [](const RuleInsight& insight) {
      return insight.periodicity.period == 0;
    });
  }
  const size_t keep = std::min(k, insights.size());
  std::partial_sort(insights.begin(), insights.begin() + keep, insights.end(),
                    [order](const RuleInsight& a, const RuleInsight& b) {
                      return RanksBefore(order, a, b);
                    });
  insights.resize(keep);
  return insights;
}

}  // namespace tara
