#ifndef TARA_CORE_ROLLUP_TREE_H_
#define TARA_CORE_ROLLUP_TREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/tar_archive.h"
#include "txdb/evolving_database.h"

namespace tara {

/// Roll-up over the window axis (Section 2.4.1): prefix sums of window
/// size and of UnarchivedCountSlack — the worst-case undetected count the
/// floors admit per window (see tar_archive.h for the bound derivation) —
/// over one generation's archive, which stays the only per-rule copy of
/// the counts.
///
/// A request resolves as: the transactions and worst-case slack of each
/// maximal run of consecutive windows from two prefix differences; the
/// rule's known counts, and the sizes and slacks of the windows that
/// archived it, from the archive's window-axis walk
/// (TarArchive::VisitWindows); and the missing windows' terms
/// as totals minus present. Every term is an exact u64 sum, so
/// FinishRollUp produces bit-equal doubles to TarArchive::RollUp.
///
/// Immutable; KbBuilder builds one per generation, in O(windows), and
/// publishes it on the KnowledgeBaseSnapshot.
class RollUpTree {
 public:
  /// The window axis of `archive`, which the tree shares.
  explicit RollUpTree(std::shared_ptr<const TarArchive> archive);

  /// Interval measures of `rule` over `windows` (ascending, no
  /// duplicates — exactly WindowSet::ids()). Bit-identical to
  /// TarArchive::RollUp over the same archive; allocates nothing.
  RollUpBound RollUp(RuleId rule, std::span<const WindowId> windows) const;

  uint32_t window_count() const {
    return static_cast<uint32_t>(window_size_prefix_.size() - 1);
  }

 private:
  std::shared_ptr<const TarArchive> archive_;
  std::vector<uint64_t> window_size_prefix_;   // length W+1, [0] = 0
  std::vector<uint64_t> window_slack_prefix_;  // length W+1, [0] = 0
};

}  // namespace tara

#endif  // TARA_CORE_ROLLUP_TREE_H_
