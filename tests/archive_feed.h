#ifndef TARA_TESTS_ARCHIVE_FEED_H_
#define TARA_TESTS_ARCHIVE_FEED_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/logging.h"
#include "core/tar_archive.h"

namespace tara {

/// One window's size and generation floors as a reference reads them: from
/// the feed that built the archive, or from an engine's segments and
/// options. Never from the archive's own window axis, which the
/// references check.
struct WindowTerms {
  uint64_t size = 0;
  uint64_t floor_count = 0;
  double confidence_floor = 0.0;
};

/// Collects windows and (rule, window) observations in any order, then
/// hands them to TarArchive::Appended the way a commit does: one window
/// per TarArchive::Window, in window order.
class ArchiveFeed {
 public:
  /// Registers the next window.
  void Window(uint64_t transaction_count, uint64_t floor_count,
              double confidence_floor = 0.0) {
    windows_.push_back(
        {{transaction_count, floor_count, confidence_floor}, {}});
  }

  /// One observation of `rule` in the registered window `window`.
  void Add(RuleId rule, WindowId window, uint64_t rule_count,
           uint64_t antecedent_count) {
    windows_.at(window).entries.push_back(
        WindowIndex::Entry{rule, rule_count, antecedent_count});
  }

  size_t window_count() const { return windows_.size(); }

  /// Every registered window's size and floors, in window order.
  std::vector<WindowTerms> Terms() const {
    std::vector<WindowTerms> terms;
    for (const Pending& p : windows_) terms.push_back(p.terms);
    return terms;
  }

  /// `base` followed by windows [base.window_count(), end) of the feed, in
  /// one Appended call.
  TarArchive Append(const TarArchive& base, size_t end) const {
    std::vector<TarArchive::Window> batch;
    for (size_t w = base.window_count(); w < end; ++w) {
      const Pending& p = windows_[w];
      batch.push_back({p.terms.size, p.terms.floor_count,
                       p.terms.confidence_floor, p.entries});
    }
    return base.Appended(batch);
  }

  /// Every window of the feed in one batch.
  TarArchive Build() const { return Append(TarArchive(), windows_.size()); }

 private:
  struct Pending {
    WindowTerms terms;
    std::vector<WindowIndex::Entry> entries;
  };
  std::vector<Pending> windows_;
};

/// The rule's full series, read through VisitEntries.
inline std::vector<ArchiveEntry> Series(const TarArchive& archive,
                                        RuleId rule) {
  std::vector<ArchiveEntry> series;
  archive.VisitEntries(rule, [&](const ArchiveEntry& e) {
    series.push_back(e);
    return true;
  });
  return series;
}

/// The entry of `rule` in `window`, if archived, through VisitWindows.
inline std::optional<ArchiveEntry> EntryAt(const TarArchive& archive,
                                           RuleId rule, WindowId window) {
  std::optional<ArchiveEntry> found;
  archive.VisitWindows(rule, std::span<const WindowId>(&window, 1),
                       [&](size_t, const ArchiveEntry& e) { found = e; });
  return found;
}

/// The linear roll-up reference TarArchive::RollUp must match bit for bit:
/// decodes the rule's whole series (into `scratch` when given, reused
/// across calls), binary-searches it for each window, in any order, and
/// takes each window's size and slack from `terms`. It sums the same
/// RollUpAggregate terms in another order and finishes through the same
/// FinishRollUp. O(entries + windows log entries).
inline RollUpBound LinearRollUp(const TarArchive& archive, RuleId rule,
                                std::span<const WindowId> windows,
                                std::span<const WindowTerms> terms,
                                std::vector<ArchiveEntry>* scratch = nullptr) {
  std::vector<ArchiveEntry> local;
  std::vector<ArchiveEntry>& series = scratch != nullptr ? *scratch : local;
  series.clear();
  archive.VisitEntries(rule, [&](const ArchiveEntry& e) {
    series.push_back(e);
    return true;
  });
  RollUpAggregate agg;
  for (WindowId w : windows) {
    TARA_CHECK_LT(w, terms.size());
    const WindowTerms& t = terms[w];
    agg.total += t.size;
    const auto it = std::lower_bound(
        series.begin(), series.end(), w,
        [](const ArchiveEntry& e, WindowId target) {
          return e.window < target;
        });
    if (it != series.end() && it->window == w) {
      agg.known_rule += it->rule_count;
      agg.known_ant += it->antecedent_count;
    } else {
      ++agg.missing_windows;
      agg.missing_slack +=
          UnarchivedCountSlack(t.floor_count, t.confidence_floor, t.size);
      agg.missing_size += t.size;
    }
  }
  return FinishRollUp(agg);
}

}  // namespace tara

#endif  // TARA_TESTS_ARCHIVE_FEED_H_
