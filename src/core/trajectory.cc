#include "core/trajectory.h"

#include <algorithm>
#include <cmath>

namespace tara {

TrajectoryPoint* WriteTrajectory(const TarArchive& archive, RuleId rule,
                                 std::span<const WindowId> windows,
                                 TrajectoryPoint* out) {
  size_t next = 0;  // windows[next] is the first point not yet written
  const auto absent_until = [&](size_t end) {
    for (; next < end; ++next) {
      *out++ = TrajectoryPoint{.window = windows[next]};
    }
  };
  archive.VisitWindows(rule, windows, [&](size_t i, const ArchiveEntry& e) {
    absent_until(i);
    const uint64_t total = archive.window_size(e.window);
    *out++ = TrajectoryPoint{
        .window = e.window,
        .present = true,
        .support = total == 0 ? 0.0
                              : static_cast<double>(e.rule_count) /
                                    static_cast<double>(total),
        .confidence = e.antecedent_count == 0
                          ? 0.0
                          : static_cast<double>(e.rule_count) /
                                static_cast<double>(e.antecedent_count)};
    next = i + 1;
  });
  absent_until(windows.size());
  return out;
}

Trajectory BuildTrajectory(const TarArchive& archive, RuleId rule,
                           std::span<const WindowId> windows) {
  CheckAscending(windows);
  Trajectory trajectory(windows.size());
  WriteTrajectory(archive, rule, windows, trajectory.data());
  return trajectory;
}

TrajectoryMeasures ComputeMeasures(
    std::span<const TrajectoryPoint> trajectory) {
  TrajectoryMeasures m;
  if (trajectory.empty()) return m;

  size_t present = 0;
  double support_sum = 0, confidence_sum = 0;
  for (const TrajectoryPoint& p : trajectory) {
    if (!p.present) continue;
    ++present;
    support_sum += p.support;
    confidence_sum += p.confidence;
  }
  m.coverage = static_cast<double>(present) /
               static_cast<double>(trajectory.size());
  if (present == 0) return m;

  m.mean_support = support_sum / present;
  m.mean_confidence = confidence_sum / present;

  double support_var = 0, confidence_var = 0;
  for (const TrajectoryPoint& p : trajectory) {
    if (!p.present) continue;
    support_var += (p.support - m.mean_support) * (p.support - m.mean_support);
    confidence_var += (p.confidence - m.mean_confidence) *
                      (p.confidence - m.mean_confidence);
  }
  m.support_stddev = std::sqrt(support_var / present);
  m.confidence_stddev = std::sqrt(confidence_var / present);

  // Stability: mean absolute consecutive change of support, normalized by
  // the mean support (absence counts as zero support), inverted to [0, 1].
  double change_sum = 0;
  size_t steps = 0;
  for (size_t i = 1; i < trajectory.size(); ++i) {
    const double prev = trajectory[i - 1].present ? trajectory[i - 1].support
                                                  : 0.0;
    const double curr = trajectory[i].present ? trajectory[i].support : 0.0;
    change_sum += std::fabs(curr - prev);
    ++steps;
  }
  if (steps == 0 || m.mean_support <= 0) {
    m.stability = 1.0;
  } else {
    const double normalized = (change_sum / steps) / m.mean_support;
    m.stability = std::max(0.0, 1.0 - normalized);
  }
  return m;
}

}  // namespace tara
