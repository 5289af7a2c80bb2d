#include "core/tar_archive.h"

#include <algorithm>

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
    next.window_sizes_.push_back(w.transaction_count);
    next.floor_counts_.push_back(w.floor_count);
    next.confidence_floors_.push_back(w.confidence_floor);
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
  // Every entry takes at least three bytes, and a run holds at most one
  // chunk's worth of windows.
  size_t bound = 0;
  for (const std::shared_ptr<const Chunk>& chunk : chunks_) {
    if (rule >= chunk->offsets.size() - 1) continue;
    const size_t size = chunk->offsets[rule + 1] - chunk->offsets[rule];
    bound += std::min<size_t>(kChunkWindows, size / 3);
  }
  if (bound == 0) return {};
  const std::span<ArchiveEntry> out = arena.AllocSpan<ArchiveEntry>(bound);
  size_t n = 0;
  VisitEntries(rule, [&](const ArchiveEntry& e) {
    TARA_CHECK_LT(n, out.size()) << "corrupt archive run";
    out[n++] = e;
    return true;
  });
  return out.first(n);
}

std::optional<ArchiveEntry> TarArchive::EntryFor(RuleId rule,
                                                 WindowId window) const {
  std::optional<ArchiveEntry> found;
  VisitWindows(rule, std::span<const WindowId>(&window, 1),
               [&](size_t, const ArchiveEntry& e) { found = e; });
  return found;
}

RollUpBound TarArchive::RollUp(RuleId rule, std::span<const WindowId> windows,
                               DecodeArena* scratch) const {
  DecodeArena local;
  DecodeArena& arena = scratch != nullptr ? *scratch : local;
  const std::span<const ArchiveEntry> series = DecodeInto(rule, arena);

  RollUpAggregate agg;
  for (WindowId w : windows) {
    TARA_CHECK_LT(w, window_sizes_.size());
    agg.total += window_sizes_[w];
    const auto it = std::lower_bound(
        series.begin(), series.end(), w,
        [](const ArchiveEntry& e, WindowId target) { return e.window < target; });
    if (it != series.end() && it->window == w) {
      agg.known_rule += it->rule_count;
      agg.known_ant += it->antecedent_count;
    } else {
      ++agg.missing_windows;
      agg.missing_slack += UnarchivedCountSlack(
          floor_counts_[w], confidence_floors_[w], window_sizes_[w]);
      agg.missing_size += window_sizes_[w];
    }
  }
  return FinishRollUp(agg);
}

uint64_t TarArchive::window_size(WindowId w) const {
  TARA_CHECK_LT(w, window_sizes_.size());
  return window_sizes_[w];
}

uint64_t TarArchive::floor_count(WindowId w) const {
  TARA_CHECK_LT(w, floor_counts_.size());
  return floor_counts_[w];
}

double TarArchive::confidence_floor(WindowId w) const {
  TARA_CHECK_LT(w, confidence_floors_.size());
  return confidence_floors_[w];
}

size_t TarArchive::rule_count() const {
  std::vector<bool> seen;
  for (const std::shared_ptr<const Chunk>& chunk : chunks_) {
    seen.resize(std::max(seen.size(), chunk->offsets.size() - 1));
    for (size_t r = 0; r + 1 < chunk->offsets.size(); ++r) {
      if (chunk->offsets[r] != chunk->offsets[r + 1]) seen[r] = true;
    }
  }
  return std::count(seen.begin(), seen.end(), true);
}

}  // namespace tara
