#ifndef TARA_CORE_TRAJECTORY_H_
#define TARA_CORE_TRAJECTORY_H_

#include <initializer_list>
#include <span>
#include <vector>

#include "core/tar_archive.h"
#include "txdb/evolving_database.h"

namespace tara {

/// One point of a rule's trajectory through the Evolving Parameter Space
/// (Definition 10): its measures in one window, or absence.
struct TrajectoryPoint {
  WindowId window = 0;
  bool present = false;  ///< rule was generated in this window
  double support = 0.0;
  double confidence = 0.0;
};

/// A rule's trajectory over a window sequence.
using Trajectory = std::vector<TrajectoryPoint>;

/// Summary measures of a trajectory — the evolving-behavior insights the
/// online explorer ranks rules by (Section 2.4.2: coverage, stability,
/// standard deviation).
struct TrajectoryMeasures {
  /// Fraction of windows in which the rule was present (coverage of [95]).
  double coverage = 0.0;
  /// 1 - normalized mean absolute change of support between consecutive
  /// present windows; 1 means perfectly stable ([67]'s stability notion).
  double stability = 0.0;
  /// Population standard deviation of support over present windows.
  double support_stddev = 0.0;
  /// Population standard deviation of confidence over present windows.
  double confidence_stddev = 0.0;
  double mean_support = 0.0;
  double mean_confidence = 0.0;
};

/// Writes the trajectory of `rule` over `windows` to out[0,
/// windows.size()), each point once, and returns the end: the archive's
/// window-axis walk (TarArchive::VisitWindows) yields the windows the rule
/// archived, and the windows between them are absent. The series is
/// decoded only up to the last window. `windows` must be strictly
/// ascending, as WindowSet::ids() gives them. Unchecked here, so a caller
/// writing many rules over one horizon checks it once.
TrajectoryPoint* WriteTrajectory(const TarArchive& archive, RuleId rule,
                                 std::span<const WindowId> windows,
                                 TrajectoryPoint* out);

/// The trajectory of `rule` across `windows` (strictly ascending; checked).
Trajectory BuildTrajectory(const TarArchive& archive, RuleId rule,
                           std::span<const WindowId> windows);
inline Trajectory BuildTrajectory(const TarArchive& archive, RuleId rule,
                                  std::initializer_list<WindowId> windows) {
  return BuildTrajectory(
      archive, rule, std::span<const WindowId>(windows.begin(),
                                               windows.size()));
}

/// Computes summary measures. An empty or all-absent trajectory yields
/// zeros.
TrajectoryMeasures ComputeMeasures(std::span<const TrajectoryPoint> trajectory);

}  // namespace tara

#endif  // TARA_CORE_TRAJECTORY_H_
