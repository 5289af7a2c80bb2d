#ifndef TARA_TESTS_ARCHIVE_FEED_H_
#define TARA_TESTS_ARCHIVE_FEED_H_

#include <cstdint>
#include <vector>

#include "core/tar_archive.h"

namespace tara {

/// Collects windows and (rule, window) observations in any order, then
/// hands them to TarArchive::Appended the way a commit does: one window
/// per TarArchive::Window, in window order.
class ArchiveFeed {
 public:
  /// Registers the next window.
  void Window(uint64_t transaction_count, uint64_t floor_count,
              double confidence_floor = 0.0) {
    windows_.push_back(
        {transaction_count, floor_count, confidence_floor, {}});
  }

  /// One observation of `rule` in the registered window `window`.
  void Add(RuleId rule, WindowId window, uint64_t rule_count,
           uint64_t antecedent_count) {
    windows_.at(window).entries.push_back(
        WindowIndex::Entry{rule, rule_count, antecedent_count});
  }

  size_t window_count() const { return windows_.size(); }

  /// `base` followed by windows [base.window_count(), end) of the feed, in
  /// one Appended call.
  TarArchive Append(const TarArchive& base, size_t end) const {
    std::vector<TarArchive::Window> batch;
    for (size_t w = base.window_count(); w < end; ++w) {
      const Pending& p = windows_[w];
      batch.push_back({p.transaction_count, p.floor_count,
                       p.confidence_floor, p.entries});
    }
    return base.Appended(batch);
  }

  /// Every window of the feed in one batch.
  TarArchive Build() const { return Append(TarArchive(), windows_.size()); }

 private:
  struct Pending {
    uint64_t transaction_count = 0;
    uint64_t floor_count = 0;
    double confidence_floor = 0.0;
    std::vector<WindowIndex::Entry> entries;
  };
  std::vector<Pending> windows_;
};

}  // namespace tara

#endif  // TARA_TESTS_ARCHIVE_FEED_H_
