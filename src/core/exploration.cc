#include "core/exploration.h"

#include <algorithm>

namespace tara {
namespace {

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

std::vector<RuleInsight> TakeTop(std::vector<RuleInsight> insights,
                                 size_t k) {
  if (insights.size() > k) insights.resize(k);
  return insights;
}

}  // namespace

Expected<std::vector<RuleInsight>, QueryError>
ExplorationService::ProfileRules(const WindowSet& horizon,
                                 const ParameterSetting& setting) const {
  const uint32_t max_period =
      std::max<uint32_t>(2, static_cast<uint32_t>(horizon.size() / 2));
  return Profile(horizon, setting, max_period);
}

Expected<std::vector<RuleInsight>, QueryError> ExplorationService::Profile(
    const WindowSet& horizon, const ParameterSetting& setting,
    uint32_t max_period) const {
  // Snapshot() materializes every window and aborts on corrupt storage;
  // the gate turns that into the typed error instead.
  if (auto error = engine_->MaterializeAll()) return *std::move(error);
  // Pin one generation for the whole profile so the mined ruleset and the
  // trajectories agree even while windows are being appended.
  const std::shared_ptr<const KnowledgeBaseSnapshot> snapshot =
      engine_->Snapshot();
  Expected<std::vector<RuleId>, QueryError> mined =
      snapshot->MineWindows(horizon, setting, MatchMode::kSingle);
  if (!mined) return mined.error();
  const std::vector<RuleId>& rules = *mined;
  std::vector<RuleInsight> insights;
  insights.reserve(rules.size());
  // One arena for the whole profile: each rule's decode + trajectory is
  // scratch that dies at the top of the next iteration.
  DecodeArena arena;
  for (RuleId rule : rules) {
    arena.Reset();
    RuleInsight insight;
    insight.rule = rule;
    const std::span<const TrajectoryPoint> trajectory =
        BuildTrajectoryInto(snapshot->archive(), rule, horizon.ids(), arena);
    insight.measures = ComputeMeasures(trajectory);
    insight.periodicity = DetectPeriodicity(trajectory, max_period);
    insight.emergence = Emergence(trajectory);
    insights.push_back(std::move(insight));
  }
  return insights;
}

Expected<std::vector<RuleInsight>, QueryError> ExplorationService::TopStable(
    const WindowSet& horizon, const ParameterSetting& setting,
    size_t k) const {
  Expected<std::vector<RuleInsight>, QueryError> profiled =
      ProfileRules(horizon, setting);
  if (!profiled) return profiled.error();
  std::vector<RuleInsight> insights = std::move(profiled).value();
  std::sort(insights.begin(), insights.end(),
            [](const RuleInsight& a, const RuleInsight& b) {
              if (a.measures.coverage != b.measures.coverage) {
                return a.measures.coverage > b.measures.coverage;
              }
              if (a.measures.stability != b.measures.stability) {
                return a.measures.stability > b.measures.stability;
              }
              return a.rule < b.rule;
            });
  return TakeTop(std::move(insights), k);
}

Expected<std::vector<RuleInsight>, QueryError>
ExplorationService::TopEmerging(const WindowSet& horizon,
                                const ParameterSetting& setting,
                                size_t k) const {
  Expected<std::vector<RuleInsight>, QueryError> profiled =
      ProfileRules(horizon, setting);
  if (!profiled) return profiled.error();
  std::vector<RuleInsight> insights = std::move(profiled).value();
  std::sort(insights.begin(), insights.end(),
            [](const RuleInsight& a, const RuleInsight& b) {
              if (a.emergence != b.emergence) {
                return a.emergence > b.emergence;
              }
              return a.rule < b.rule;
            });
  return TakeTop(std::move(insights), k);
}

Expected<std::vector<RuleInsight>, QueryError> ExplorationService::TopFading(
    const WindowSet& horizon, const ParameterSetting& setting,
    size_t k) const {
  Expected<std::vector<RuleInsight>, QueryError> profiled =
      ProfileRules(horizon, setting);
  if (!profiled) return profiled.error();
  std::vector<RuleInsight> insights = std::move(profiled).value();
  std::sort(insights.begin(), insights.end(),
            [](const RuleInsight& a, const RuleInsight& b) {
              if (a.emergence != b.emergence) {
                return a.emergence < b.emergence;
              }
              return a.rule < b.rule;
            });
  return TakeTop(std::move(insights), k);
}

Expected<std::vector<RuleInsight>, QueryError>
ExplorationService::TopPeriodic(const WindowSet& horizon,
                                const ParameterSetting& setting, size_t k,
                                uint32_t max_period) const {
  Expected<std::vector<RuleInsight>, QueryError> profiled =
      Profile(horizon, setting, max_period);
  if (!profiled) return profiled.error();
  std::vector<RuleInsight> insights = std::move(profiled).value();
  std::sort(insights.begin(), insights.end(),
            [](const RuleInsight& a, const RuleInsight& b) {
              if (a.periodicity.strength != b.periodicity.strength) {
                return a.periodicity.strength > b.periodicity.strength;
              }
              if (a.periodicity.period != b.periodicity.period) {
                return a.periodicity.period < b.periodicity.period;
              }
              return a.rule < b.rule;
            });
  while (!insights.empty() && insights.back().periodicity.period == 0) {
    insights.pop_back();
  }
  return TakeTop(std::move(insights), k);
}

}  // namespace tara
