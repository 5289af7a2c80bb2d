#ifndef TARA_CORE_TAR_ARCHIVE_H_
#define TARA_CORE_TAR_ARCHIVE_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "common/byte_codec.h"
#include "common/logging.h"
#include "core/rule_catalog.h"
#include "core/stable_region_index.h"
#include "txdb/evolving_database.h"

namespace tara {

/// One decoded archive entry: the raw counts of a rule in one window.
/// Support = rule_count / window size; confidence = rule_count /
/// antecedent_count.
struct ArchiveEntry {
  WindowId window = 0;
  uint64_t rule_count = 0;
  uint64_t antecedent_count = 0;
};

/// Interval bounds for measures over a union of windows (the roll-up
/// operation, Section 2.4.1). For windows where the rule was archived the
/// contribution is exact; for windows where it fell below the generation
/// floor its count is only known to lie in [0, floor_count - 1], which
/// widens the interval — this is the paper's roll-up approximation bound
/// made explicit.
struct RollUpBound {
  double support_lo = 0;
  double support_hi = 0;
  double confidence_lo = 0;
  double confidence_hi = 0;
  uint32_t missing_windows = 0;  ///< windows with no archived entry
};

/// Largest count an *unarchived* rule could have had in a window mined
/// with the given floors: absence means support below floor_count OR
/// confidence below confidence_floor, so the undetected count is bounded
/// by the larger escape hatch (a confident-but-rare rule by
/// floor_count - 1, a frequent-but-unconfident one by
/// confidence_floor * |D_w|).
inline uint64_t UnarchivedCountSlack(uint64_t floor_count,
                                     double confidence_floor,
                                     uint64_t window_size) {
  const uint64_t support_slack = floor_count > 0 ? floor_count - 1 : 0;
  const uint64_t confidence_slack = static_cast<uint64_t>(
      confidence_floor * static_cast<double>(window_size));
  return support_slack > confidence_slack ? support_slack : confidence_slack;
}

/// Integer sums a roll-up reduces to before the final divisions.
/// TarArchive::RollUp aggregates into this and finishes through
/// FinishRollUp, rollup_rule's answer; the u64 sums are associative, so
/// any reference that sums the same terms gets bit-identical doubles from
/// the same divisions. MineRolledUp sums the same terms but builds no
/// interval: it classifies the sums in counts with the admission tests of
/// mining/measures.h.
struct RollUpAggregate {
  uint64_t known_rule = 0;     ///< rule_count over archived windows
  uint64_t known_ant = 0;      ///< antecedent_count over archived windows
  uint64_t missing_slack = 0;  ///< UnarchivedCountSlack over missing windows
  uint64_t missing_size = 0;   ///< transactions in missing windows
  uint64_t total = 0;          ///< transactions in all requested windows
  uint32_t missing_windows = 0;
};

/// The divisions that turn the sums into rollup_rule's interval.
RollUpBound FinishRollUp(const RollUpAggregate& agg);

/// Aborts unless `windows` strictly ascend, as WindowSet::ids() gives them:
/// the window-axis walk merges them with a series in one ascending pass.
void CheckAscending(std::span<const WindowId> windows);

/// Scratch for DecodeInto. Outside tests only perfbench's trace uses
/// either; ROADMAP.md item 1 replaces its calls and deletes both.
struct DecodeArena {
  void Reset() { entries.clear(); }
  std::vector<ArchiveEntry> entries;
};

/// The Temporal Association Rule Archive (TAR Archive).
///
/// Per rule, the per-window (rule_count, antecedent_count) series is stored
/// as delta-encoded varints: window gaps are varint-encoded and counts are
/// zigzag-delta encoded against the previous entry, so a rule that stays
/// stable across windows costs ~3 bytes per window instead of 20.
///
/// Chunk c holds windows [c·K, (c+1)·K), K = kChunkWindows: one byte array
/// of every rule's run for those windows, in rule-id order. A run's first
/// entry stores its window's offset from the chunk's first window and
/// plain counts, so delta bases reset at each chunk. An archive is
/// immutable; VisitEntries is the only code that reads run bytes.
///
/// The window axis is two prefix-sum columns over the archived windows:
/// their sizes and their UnarchivedCountSlack, the most an unarchived rule
/// could count there. A roll-up takes a run of consecutive windows' totals
/// as two prefix differences.
class TarArchive {
 public:
  static constexpr uint32_t kChunkWindows = 64;  ///< windows per chunk

  /// Rule r's run is bytes[offsets[r], offsets[r + 1]), empty when the two
  /// are equal; rules at or past offsets.size() - 1 have none.
  struct Chunk {
    std::vector<uint32_t> offsets;
    std::vector<uint8_t> bytes;
  };

  /// One window to append: its size, its generation floors (which bound an
  /// unarchived rule's count, see UnarchivedCountSlack), and its entries,
  /// each rule at most once, in any order.
  struct Window {
    uint64_t transaction_count = 0;
    uint64_t floor_count = 0;
    double confidence_floor = 0.0;
    std::span<const WindowIndex::Entry> entries;
  };

  TarArchive() = default;

  /// This archive followed by `windows`: filled chunks are shared by
  /// pointer, the open one is rebuilt (its runs copied, new entries encoded
  /// after them) and new ones are built. The cost is the open chunk plus
  /// the new entries, and the bytes do not depend on how commits batch.
  TarArchive Appended(std::span<const Window> windows) const;

  /// The rule's full series, decoded through VisitEntries into `arena` and
  /// valid until the arena's next use. Outside tests only perfbench's
  /// trace calls it; ROADMAP.md item 1 moves that onto VisitEntries and
  /// deletes this.
  std::span<const ArchiveEntry> DecodeInto(RuleId rule,
                                           DecodeArena& arena) const;

  /// Single-pass visitor over a rule's series in window order, no
  /// materialization: the rule's run in each chunk in turn, from the chunk
  /// holding window `from`. `visitor(const ArchiveEntry&)` returns false to
  /// stop early. This scan is the archive's one decoder: every reader of
  /// the runs goes through it.
  template <typename Visitor>
  void VisitEntries(RuleId rule, Visitor&& visitor, WindowId from = 0) const {
    for (size_t c = from / kChunkWindows; c < chunks_.size(); ++c) {
      const Chunk& chunk = *chunks_[c];
      if (rule >= chunk.offsets.size() - 1) continue;
      const uint8_t* data = chunk.bytes.data() + chunk.offsets[rule];
      const size_t size = chunk.offsets[rule + 1] - chunk.offsets[rule];
      if (size == 0) continue;
      size_t pos = 0;
      // The archive wrote these bytes itself: a bad varint is a broken
      // invariant, not bad input.
      const auto next = [data, size, &pos] {
        uint64_t value = 0;
        TARA_CHECK(codec::GetVarint(data, size, &pos, &value) ==
                   codec::VarintStatus::kOk)
            << "corrupt archive run";
        return value;
      };
      ArchiveEntry entry;
      entry.window = static_cast<WindowId>(c * kChunkWindows + next());
      entry.rule_count = next();
      entry.antecedent_count = next();
      if (!visitor(static_cast<const ArchiveEntry&>(entry))) return;
      while (pos < size) {
        uint64_t gap, rule_delta, antecedent_delta;
        // A steady rule's delta entry is three one-byte varints: read them
        // with one test instead of a branch each.
        if (size - pos >= 3 &&
            ((data[pos] | data[pos + 1] | data[pos + 2]) & 0x80) == 0) {
          gap = data[pos];
          rule_delta = data[pos + 1];
          antecedent_delta = data[pos + 2];
          pos += 3;
        } else {
          gap = next();
          rule_delta = next();
          antecedent_delta = next();
        }
        entry.window += static_cast<WindowId>(gap);
        entry.rule_count +=
            static_cast<uint64_t>(codec::ZigzagDecode(rule_delta));
        entry.antecedent_count +=
            static_cast<uint64_t>(codec::ZigzagDecode(antecedent_delta));
        if (!visitor(static_cast<const ArchiveEntry&>(entry))) return;
      }
    }
  }

  /// The window-axis walk: merges the rule's series with `windows`
  /// (strictly ascending, as WindowSet::ids() gives them; unchecked) and
  /// calls visit(i, entry) for each windows[i] the rule archived, in
  /// order. The scan starts at the chunk of the first requested window
  /// and stops after the last one, so it decodes only the runs the
  /// horizon touches.
  template <typename Visit>
  void VisitWindows(RuleId rule, std::span<const WindowId> windows,
                    Visit&& visit) const {
    if (windows.empty()) return;
    const WindowId last = windows.back();
    size_t next = 0;
    VisitEntries(rule, [&](const ArchiveEntry& e) {
      if (e.window > last) return false;
      while (windows[next] < e.window) ++next;  // stops at `last` at the latest
      if (windows[next] == e.window) visit(next, e);
      return e.window < last;
    }, windows.front());
  }

  /// Interval measures of `rule` over the union of `windows` (strictly
  /// ascending, checked; WindowSet::ids() converts implicitly), the
  /// roll-up of Section 2.4.1. Each run of consecutive windows adds its
  /// size and slack as two prefix differences; one VisitWindows pass sums
  /// the counts of the windows that archived the rule, whose sizes and
  /// slacks, subtracted from the totals, leave the missing windows' terms.
  /// Allocates nothing.
  RollUpBound RollUp(RuleId rule, std::span<const WindowId> windows) const;
  RollUpBound RollUp(RuleId rule,
                     std::initializer_list<WindowId> windows) const {
    return RollUp(rule, std::span<const WindowId>(windows.begin(),
                                                  windows.size()));
  }

  /// Number of archived windows.
  uint32_t window_count() const {
    return static_cast<uint32_t>(size_prefix_.size() - 1);
  }
  /// Transactions in window `w`.
  uint64_t window_size(WindowId w) const {
    TARA_CHECK_LT(w, window_count());
    return size_prefix_[w + 1] - size_prefix_[w];
  }
  /// UnarchivedCountSlack of window `w`'s size and floors.
  uint64_t window_slack(WindowId w) const {
    TARA_CHECK_LT(w, window_count());
    return slack_prefix_[w + 1] - slack_prefix_[w];
  }

  /// Total payload bytes across all chunks (the paper's Figure 12 "TAR
  /// Archive" series).
  size_t payload_bytes() const { return payload_bytes_; }

  /// Total archived (rule, window) entries — multiplied by the raw record
  /// width this gives Figure 12's "uncompressed" series.
  size_t entry_count() const { return entry_count_; }

  /// The chunks, oldest first; filled ones are shared across generations.
  const std::vector<std::shared_ptr<const Chunk>>& chunks() const {
    return chunks_;
  }

 private:
  std::vector<std::shared_ptr<const Chunk>> chunks_;
  /// Window sizes and slacks summed over windows [0, w) at index w.
  std::vector<uint64_t> size_prefix_{0};
  std::vector<uint64_t> slack_prefix_{0};
  size_t payload_bytes_ = 0;
  size_t entry_count_ = 0;
};

}  // namespace tara

#endif  // TARA_CORE_TAR_ARCHIVE_H_
