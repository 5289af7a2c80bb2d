#ifndef TARA_CORE_WINDOW_SET_H_
#define TARA_CORE_WINDOW_SET_H_

#include <cstdint>
#include <vector>

#include "txdb/evolving_database.h"

namespace tara {

/// A validated, canonical set of window ids — the multi-window argument of
/// the online operations (Q1 horizons, Q2 window scopes, roll-up unions).
///
/// Construction validates once — every id must be in range for the engine
/// the set will be used with — and canonicalizes (sorted ascending,
/// duplicates removed), so query methods never re-validate or re-sort per
/// call. The ids are always in ascending (chronological) order; trajectory
/// points therefore come out oldest-first.
///
/// Prefer building one through KnowledgeBaseSnapshot::MakeWindowSet /
/// AllWindows, which supply the snapshot's window count as the bound.
class WindowSet {
 public:
  /// The empty set.
  WindowSet() = default;

  /// Canonicalizes `ids` (sort + dedup) and validates every id against
  /// `window_count`. Aborts with an actionable message on an out-of-range
  /// id — constructing a WindowSet for windows that do not exist is a
  /// caller bug, not a recoverable condition.
  WindowSet(std::vector<WindowId> ids, uint32_t window_count);

  /// All windows [0, window_count).
  static WindowSet All(uint32_t window_count);

  /// The half-open range [begin, end) of windows; end <= window_count.
  static WindowSet Range(WindowId begin, WindowId end, uint32_t window_count);

  /// The single window `w`.
  static WindowSet Single(WindowId w, uint32_t window_count);

  const std::vector<WindowId>& ids() const { return ids_; }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  std::vector<WindowId>::const_iterator begin() const { return ids_.begin(); }
  std::vector<WindowId>::const_iterator end() const { return ids_.end(); }

  /// Membership test (binary search).
  bool contains(WindowId w) const;

  /// One past the largest id, 0 when empty — the minimum window count an
  /// engine must have for this set to be applicable.
  uint32_t required_window_count() const {
    return ids_.empty() ? 0 : ids_.back() + 1;
  }

  bool operator==(const WindowSet& other) const { return ids_ == other.ids_; }

 private:
  std::vector<WindowId> ids_;  ///< sorted ascending, unique
};

}  // namespace tara

#endif  // TARA_CORE_WINDOW_SET_H_
