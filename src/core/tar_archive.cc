#include "core/tar_archive.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"

namespace tara {

RollUpBound FinishRollUp(const RollUpAggregate& agg) {
  RollUpBound bound;
  bound.missing_windows = agg.missing_windows;
  if (agg.total > 0) {
    bound.support_lo = static_cast<double>(agg.known_rule) / agg.total;
    bound.support_hi =
        static_cast<double>(agg.known_rule + agg.missing_slack) / agg.total;
  }
  // Confidence lower bound: rule absent in missing windows while the
  // antecedent could fill them entirely. Upper bound: rule count at the
  // floor slack with antecedent no larger than that.
  const uint64_t lo_den = agg.known_ant + agg.missing_size;
  if (lo_den > 0) {
    bound.confidence_lo = static_cast<double>(agg.known_rule) / lo_den;
  }
  const uint64_t hi_num = agg.known_rule + agg.missing_slack;
  const uint64_t hi_den = agg.known_ant + agg.missing_slack;
  if (hi_den > 0) {
    bound.confidence_hi = static_cast<double>(hi_num) / hi_den;
  }
  return bound;
}

void CheckAscending(std::span<const WindowId> windows) {
  TARA_CHECK(std::adjacent_find(windows.begin(), windows.end(),
                                std::greater_equal<WindowId>()) ==
             windows.end())
      << "windows must be strictly ascending";
}

namespace {

/// Writes entry `e` of `window` after the run's last entry `tail`: a run's
/// first entry (tail.rule_count == 0) as its offset in the chunk and plain
/// counts, a later one as the window gap and zigzag count deltas. Deltas
/// wrap in unsigned arithmetic: the same bytes as a signed difference for
/// every count below 2^63, and defined past it.
template <typename Out>
Out WriteEntry(WindowId chunk_first, WindowId window,
               const WindowIndex::Entry& e, ArchiveEntry& tail, Out out) {
  const auto delta = [](uint64_t now, uint64_t before) {
    return codec::ZigzagEncode(static_cast<int64_t>(now - before));
  };
  TARA_CHECK(e.rule_count > 0 && e.antecedent_count >= e.rule_count);
  if (tail.rule_count == 0) {
    out = codec::WriteVarint(window - chunk_first, out);
    out = codec::WriteVarint(e.rule_count, out);
    out = codec::WriteVarint(e.antecedent_count, out);
  } else {
    TARA_CHECK_GT(window, tail.window) << "entries must advance in time";
    out = codec::WriteVarint(window - tail.window, out);
    out = codec::WriteVarint(delta(e.rule_count, tail.rule_count), out);
    out = codec::WriteVarint(
        delta(e.antecedent_count, tail.antecedent_count), out);
  }
  tail = ArchiveEntry{window, e.rule_count, e.antecedent_count};
  return out;
}

}  // namespace

TarArchive TarArchive::Appended(std::span<const Window> windows) const {
  TarArchive next = *this;
  for (const Window& w : windows) {
    TARA_CHECK(w.confidence_floor >= 0.0 && w.confidence_floor <= 1.0);
    next.size_prefix_.push_back(next.size_prefix_.back() +
                                w.transaction_count);
    next.slack_prefix_.push_back(
        next.slack_prefix_.back() +
        UnarchivedCountSlack(w.floor_count, w.confidence_floor,
                             w.transaction_count));
    next.entry_count_ += w.entries.size();
  }
  // Chunk by chunk, from the open (partial) one, the only one rebuilt.
  for (WindowId w = window_count(); w < next.window_count();) {
    const size_t c = w / kChunkWindows;
    const auto chunk_first = static_cast<WindowId>(c * kChunkWindows);
    const std::span<const Window> batch = windows.subspan(
        w - window_count(),
        std::min(next.window_count(), chunk_first + kChunkWindows) - w);
    static const Chunk kNoChunk{{0}, {}};
    const Chunk& open = c < chunks_.size() ? *chunks_[c] : kNoChunk;
    const size_t open_rules = open.offsets.size() - 1;
    size_t rules = open_rules;
    for (const Window& window : batch) {
      for (const WindowIndex::Entry& e : window.entries) {
        rules = std::max<size_t>(rules, size_t{e.rule} + 1);
      }
    }
    // Run sizes, then offsets: each open run, copied as it is, and after
    // it the rule's new entries, delta-encoded from the run's last entry.
    std::vector<uint32_t> offsets(rules + 1, 0);
    std::vector<ArchiveEntry> tails(rules);
    for (RuleId r = 0; r < open_rules; ++r) {
      offsets[r + 1] = open.offsets[r + 1] - open.offsets[r];
      VisitEntries(r, [&](const ArchiveEntry& e) {
        tails[r] = e;
        return true;
      }, chunk_first);
    }
    // The new entries in two passes: `place` sizes each over a ByteCount,
    // then writes it.
    const auto encode = [&](auto&& place) {
      std::vector<ArchiveEntry> last = tails;
      for (size_t i = 0; i < batch.size(); ++i) {
        for (const WindowIndex::Entry& e : batch[i].entries) {
          place(e.rule, [&](auto out) {
            return WriteEntry(chunk_first, w + static_cast<WindowId>(i), e,
                              last[e.rule], out);
          });
        }
      }
    };
    encode([&](RuleId r, auto write) {
      offsets[r + 1] += write(codec::ByteCount{}).bytes;
    });
    uint64_t total = 0;
    for (uint32_t& offset : offsets) {
      offset = static_cast<uint32_t>(total += offset);
    }
    TARA_CHECK_LE(total, UINT32_MAX) << "archive chunk past 4 GiB";

    auto chunk = std::make_shared<Chunk>();
    chunk->bytes.resize(total);
    uint8_t* const base = chunk->bytes.data();
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (RuleId r = 0; r < open_rules; ++r) {
      const uint8_t* run = open.bytes.data();
      cursor[r] = static_cast<uint32_t>(
          std::copy(run + open.offsets[r], run + open.offsets[r + 1],
                    base + cursor[r]) - base);
    }
    encode([&](RuleId r, auto write) {
      cursor[r] = static_cast<uint32_t>(write(base + cursor[r]) - base);
    });
    chunk->offsets = std::move(offsets);
    next.payload_bytes_ += total - open.bytes.size();
    next.chunks_.resize(c + 1);
    next.chunks_[c] = std::move(chunk);
    w += static_cast<WindowId>(batch.size());
  }
  return next;
}

std::span<const ArchiveEntry> TarArchive::DecodeInto(
    RuleId rule, DecodeArena& arena) const {
  arena.Reset();
  VisitEntries(rule, [&](const ArchiveEntry& e) {
    arena.entries.push_back(e);
    return true;
  });
  return arena.entries;
}

RollUpBound TarArchive::RollUp(RuleId rule,
                               std::span<const WindowId> windows) const {
  CheckAscending(windows);
  RollUpAggregate agg;
  uint64_t total_slack = 0;
  for (size_t i = 0; i < windows.size();) {
    // A maximal run of consecutive windows [a, b]; the common all-windows
    // roll-up is a single run.
    const WindowId a = windows[i++];
    while (i < windows.size() && windows[i] == windows[i - 1] + 1) ++i;
    const WindowId b = windows[i - 1];
    TARA_CHECK_LT(b, window_count());
    agg.total += size_prefix_[b + 1] - size_prefix_[a];
    total_slack += slack_prefix_[b + 1] - slack_prefix_[a];
  }

  uint64_t present_size = 0;
  uint64_t present_slack = 0;
  uint32_t present = 0;
  VisitWindows(rule, windows, [&](size_t, const ArchiveEntry& e) {
    const WindowId w = e.window;
    agg.known_rule += e.rule_count;
    agg.known_ant += e.antecedent_count;
    present_size += size_prefix_[w + 1] - size_prefix_[w];
    present_slack += slack_prefix_[w + 1] - slack_prefix_[w];
    ++present;
  });
  agg.missing_windows = static_cast<uint32_t>(windows.size()) - present;
  agg.missing_size = agg.total - present_size;
  agg.missing_slack = total_slack - present_slack;
  return FinishRollUp(agg);
}

}  // namespace tara
