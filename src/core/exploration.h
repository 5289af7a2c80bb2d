#ifndef TARA_CORE_EXPLORATION_H_
#define TARA_CORE_EXPLORATION_H_

#include <cstdint>
#include <vector>

#include "core/periodicity.h"
#include "core/tara_engine.h"
#include "core/trajectory.h"

namespace tara {

/// One rule with its full evolving-behavior profile.
struct RuleInsight {
  RuleId rule = 0;
  TrajectoryMeasures measures;
  PeriodicityResult periodicity;
  /// Support gained from the first half of the horizon to the second
  /// (absence counts as zero support): positive = emerging, negative =
  /// fading.
  double emergence = 0.0;
};

/// High-level "rule-centric panorama" operations over a built engine — the
/// analyst-facing queries of Section 2.1.2's fourth limitation: the most
/// stable rules, the most significant periodic rules, the emerging and
/// fading ones. All operations take a parameter setting and the window
/// horizon, collect the qualifying rules (valid in at least one horizon
/// window), profile their trajectories, and rank.
///
/// The service shares the engine's error contract: an invalid request
/// (threshold below the floor, empty or mismatched horizon) surfaces as
/// the engine's QueryError instead of aborting.
class ExplorationService {
 public:
  /// `engine` must outlive the service.
  explicit ExplorationService(const TaraEngine* engine) : engine_(engine) {}

  /// Profiles every rule valid (under `setting`) in at least one window of
  /// `horizon`, looking for cycles up to half the horizon. A mapped
  /// knowledge base that cannot materialize is kCorruptStorage.
  Expected<std::vector<RuleInsight>, QueryError> ProfileRules(
      const WindowSet& horizon, const ParameterSetting& setting) const;

  /// Top-k rules by full coverage then stability.
  Expected<std::vector<RuleInsight>, QueryError> TopStable(
      const WindowSet& horizon, const ParameterSetting& setting,
      size_t k) const;

  /// Top-k rules by emergence (most positive support trend).
  Expected<std::vector<RuleInsight>, QueryError> TopEmerging(
      const WindowSet& horizon, const ParameterSetting& setting,
      size_t k) const;

  /// Top-k rules by negative emergence (fading).
  Expected<std::vector<RuleInsight>, QueryError> TopFading(
      const WindowSet& horizon, const ParameterSetting& setting,
      size_t k) const;

  /// Top-k periodic rules (strongest cycle, then shorter period).
  Expected<std::vector<RuleInsight>, QueryError> TopPeriodic(
      const WindowSet& horizon, const ParameterSetting& setting, size_t k,
      uint32_t max_period) const;

 private:
  /// ProfileRules with periodicity detected up to `max_period`, from one
  /// pinned snapshot.
  Expected<std::vector<RuleInsight>, QueryError> Profile(
      const WindowSet& horizon, const ParameterSetting& setting,
      uint32_t max_period) const;

  const TaraEngine* engine_;
};

}  // namespace tara

#endif  // TARA_CORE_EXPLORATION_H_
