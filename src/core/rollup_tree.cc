#include "core/rollup_tree.h"

#include <utility>

#include "common/logging.h"

namespace tara {

RollUpTree::RollUpTree(std::shared_ptr<const TarArchive> archive)
    : archive_(std::move(archive)) {
  const uint32_t windows = archive_->window_count();
  window_size_prefix_.reserve(windows + 1);
  window_slack_prefix_.reserve(windows + 1);
  window_size_prefix_.push_back(0);
  window_slack_prefix_.push_back(0);
  for (WindowId w = 0; w < windows; ++w) {
    const uint64_t size = archive_->window_size(w);
    window_size_prefix_.push_back(window_size_prefix_.back() + size);
    window_slack_prefix_.push_back(
        window_slack_prefix_.back() +
        UnarchivedCountSlack(archive_->floor_count(w),
                             archive_->confidence_floor(w), size));
  }
}

RollUpBound RollUpTree::RollUp(RuleId rule,
                               std::span<const WindowId> windows) const {
  RollUpAggregate agg;
  if (windows.empty()) return FinishRollUp(agg);
  uint64_t total_slack = 0;
  size_t i = 0;
  while (i < windows.size()) {
    // Maximal run of consecutive window ids [a, b]; the common all-windows
    // roll-up is a single run.
    const WindowId a = windows[i];
    size_t j = i + 1;
    while (j < windows.size() && windows[j] == windows[j - 1] + 1) ++j;
    const WindowId b = windows[j - 1];
    i = j;
    TARA_CHECK_LT(b, window_count());
    agg.total += window_size_prefix_[b + 1] - window_size_prefix_[a];
    total_slack += window_slack_prefix_[b + 1] - window_slack_prefix_[a];
  }

  uint64_t present_size = 0;
  uint64_t present_slack = 0;
  uint32_t present = 0;
  archive_->VisitWindows(rule, windows, [&](size_t, const ArchiveEntry& e) {
    const WindowId w = e.window;
    agg.known_rule += e.rule_count;
    agg.known_ant += e.antecedent_count;
    present_size += window_size_prefix_[w + 1] - window_size_prefix_[w];
    present_slack += window_slack_prefix_[w + 1] - window_slack_prefix_[w];
    ++present;
  });
  agg.missing_windows = static_cast<uint32_t>(windows.size()) - present;
  agg.missing_size = agg.total - present_size;
  agg.missing_slack = total_slack - present_slack;
  return FinishRollUp(agg);
}

}  // namespace tara
