#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "archive_feed.h"
#include "core/tar_archive.h"
#include "core/tara_engine.h"

namespace tara {
namespace {

/// Rules with a run in some chunk: the rules the archive holds.
size_t RulesWithEntries(const TarArchive& archive) {
  std::vector<bool> seen;
  for (const std::shared_ptr<const TarArchive::Chunk>& chunk :
       archive.chunks()) {
    seen.resize(std::max(seen.size(), chunk->offsets.size() - 1));
    for (size_t r = 0; r + 1 < chunk->offsets.size(); ++r) {
      if (chunk->offsets[r] != chunk->offsets[r + 1]) seen[r] = true;
    }
  }
  return std::count(seen.begin(), seen.end(), true);
}

TEST(TarArchiveTest, RoundTripsSingleRule) {
  ArchiveFeed feed;
  feed.Window(100, 2);
  feed.Window(120, 2);
  feed.Window(90, 2);
  feed.Add(7, 0, 10, 20);
  feed.Add(7, 2, 12, 25);
  const TarArchive archive = feed.Build();

  const std::vector<ArchiveEntry> series = Series(archive, 7);
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].window, 0u);
  EXPECT_EQ(series[0].rule_count, 10u);
  EXPECT_EQ(series[0].antecedent_count, 20u);
  EXPECT_EQ(series[1].window, 2u);
  EXPECT_EQ(series[1].rule_count, 12u);
  EXPECT_EQ(series[1].antecedent_count, 25u);

  EXPECT_TRUE(EntryAt(archive, 7, 0).has_value());
  EXPECT_FALSE(EntryAt(archive, 7, 1).has_value());
  EXPECT_EQ(EntryAt(archive, 7, 2)->rule_count, 12u);
}

TEST(TarArchiveTest, UnknownRuleDecodesEmpty) {
  ArchiveFeed feed;
  feed.Window(10, 1);
  const TarArchive archive = feed.Build();
  EXPECT_TRUE(Series(archive, 3).empty());
  EXPECT_TRUE(Series(archive, 12345).empty());
  bool visited = false;
  archive.VisitEntries(3, [&](const ArchiveEntry&) {
    visited = true;
    return true;
  });
  EXPECT_FALSE(visited);
}

TEST(TarArchiveTest, DecreasingCountsRoundTrip) {
  ArchiveFeed feed;
  for (WindowId w = 0; w < 5; ++w) feed.Window(1000, 3);
  uint64_t counts[] = {500, 400, 450, 100, 90};
  uint64_t ants[] = {800, 700, 650, 300, 95};
  for (WindowId w = 0; w < 5; ++w) feed.Add(0, w, counts[w], ants[w]);
  const TarArchive archive = feed.Build();
  const std::vector<ArchiveEntry> series = Series(archive, 0);
  ASSERT_EQ(series.size(), 5u);
  for (WindowId w = 0; w < 5; ++w) {
    EXPECT_EQ(series[w].rule_count, counts[w]);
    EXPECT_EQ(series[w].antecedent_count, ants[w]);
  }
}

TEST(TarArchiveTest, StableRulesCompressWell) {
  // A rule with identical counts across many windows should take ~3 bytes
  // per entry after the first, versus 20 raw.
  ArchiveFeed feed;
  for (WindowId w = 0; w < 100; ++w) feed.Window(1000, 3);
  for (WindowId w = 0; w < 100; ++w) feed.Add(0, w, 50, 100);
  const TarArchive archive = feed.Build();
  EXPECT_EQ(archive.entry_count(), 100u);
  EXPECT_LT(archive.payload_bytes(), 100u * 4);
  const std::vector<ArchiveEntry> series = Series(archive, 0);
  ASSERT_EQ(series.size(), 100u);
  EXPECT_EQ(series[99].rule_count, 50u);
}

TEST(TarArchiveTest, RollUpIsExactWhenAllWindowsPresent) {
  ArchiveFeed feed;
  feed.Window(100, 2);
  feed.Window(100, 2);
  feed.Add(1, 0, 10, 20);
  feed.Add(1, 1, 30, 40);
  const TarArchive archive = feed.Build();
  const RollUpBound bound = archive.RollUp(1, {0, 1});
  EXPECT_EQ(bound.missing_windows, 0u);
  EXPECT_DOUBLE_EQ(bound.support_lo, 40.0 / 200.0);
  EXPECT_DOUBLE_EQ(bound.support_hi, 40.0 / 200.0);
  EXPECT_DOUBLE_EQ(bound.confidence_lo, 40.0 / 60.0);
  EXPECT_DOUBLE_EQ(bound.confidence_hi, 40.0 / 60.0);
}

TEST(TarArchiveTest, RollUpBoundsWidenForMissingWindows) {
  ArchiveFeed feed;
  feed.Window(100, 5);
  feed.Window(100, 5);
  feed.Add(2, 0, 10, 20);  // absent in window 1 (count must be < 5)
  const TarArchive archive = feed.Build();
  const RollUpBound bound = archive.RollUp(2, {0, 1});
  EXPECT_EQ(bound.missing_windows, 1u);
  // Support: known 10 plus at most 4 undetected, over 200.
  EXPECT_DOUBLE_EQ(bound.support_lo, 10.0 / 200.0);
  EXPECT_DOUBLE_EQ(bound.support_hi, 14.0 / 200.0);
  // Confidence: worst case antecedent fills window 1 (100 tx) with no rule;
  // best case 4 more rule occurrences with antecedent only on those.
  EXPECT_DOUBLE_EQ(bound.confidence_lo, 10.0 / 120.0);
  EXPECT_DOUBLE_EQ(bound.confidence_hi, 14.0 / 24.0);
  EXPECT_LE(bound.support_lo, bound.support_hi);
  EXPECT_LE(bound.confidence_lo, bound.confidence_hi);
}

TEST(TarArchiveTest, RollUpOfRuleAbsentEverywhereIsPureSlack) {
  ArchiveFeed feed;
  feed.Window(100, 5, 0.0);
  feed.Window(100, 5, 0.0);
  feed.Add(0, 0, 10, 20);  // some other rule exists; 9 was never added
  const TarArchive archive = feed.Build();
  const RollUpBound bound = archive.RollUp(9, {0, 1});
  EXPECT_EQ(bound.missing_windows, 2u);
  // Nothing known: lower bounds collapse to zero, upper bounds are pure
  // floor slack — at most floor-1 = 4 undetected occurrences per window.
  EXPECT_DOUBLE_EQ(bound.support_lo, 0.0);
  EXPECT_DOUBLE_EQ(bound.support_hi, 8.0 / 200.0);
  EXPECT_DOUBLE_EQ(bound.confidence_lo, 0.0);
  // Best case: every undetected occurrence is also the whole antecedent.
  EXPECT_DOUBLE_EQ(bound.confidence_hi, 1.0);
}

TEST(TarArchiveTest, RollUpSlackStaysStrictlyBelowTheFloor) {
  // A rule observed at EXACTLY the floor count is archived and exact; an
  // absent window contributes at most floor-1 — so a missing window can
  // never account for a rule that actually met the floor there.
  ArchiveFeed feed;
  feed.Window(100, 5, 0.0);
  feed.Window(100, 5, 0.0);
  feed.Add(0, 0, 5, 10);  // at the floor: present, not slack
  feed.Add(0, 1, 5, 10);
  feed.Add(1, 0, 5, 10);  // same counts, but absent from window 1
  const TarArchive archive = feed.Build();
  const RollUpBound at_floor = archive.RollUp(0, {0, 1});
  EXPECT_EQ(at_floor.missing_windows, 0u);
  EXPECT_DOUBLE_EQ(at_floor.support_lo, 10.0 / 200.0);
  EXPECT_DOUBLE_EQ(at_floor.support_hi, 10.0 / 200.0);

  const RollUpBound missing_one = archive.RollUp(1, {0, 1});
  EXPECT_EQ(missing_one.missing_windows, 1u);
  EXPECT_DOUBLE_EQ(missing_one.support_hi, 9.0 / 200.0);
  EXPECT_LT(missing_one.support_hi, at_floor.support_hi);
}

TEST(TarArchiveTest, RollUpOverASingleWindowSet) {
  ArchiveFeed feed;
  feed.Window(100, 5, 0.2);
  feed.Add(3, 0, 25, 50);
  const TarArchive archive = feed.Build();
  // Present in the only window: a single-window roll-up is exact and
  // degenerates to that window's point measures.
  const RollUpBound present = archive.RollUp(3, {0});
  EXPECT_EQ(present.missing_windows, 0u);
  EXPECT_DOUBLE_EQ(present.support_lo, 0.25);
  EXPECT_DOUBLE_EQ(present.support_hi, 0.25);
  EXPECT_DOUBLE_EQ(present.confidence_lo, 0.5);
  EXPECT_DOUBLE_EQ(present.confidence_hi, 0.5);

  // Absent from the only window, with a confidence floor that dominates
  // the count floor: slack = max(5-1, 0.2 * 100) = 20.
  const RollUpBound absent = archive.RollUp(4, {0});
  EXPECT_EQ(absent.missing_windows, 1u);
  EXPECT_DOUBLE_EQ(absent.support_lo, 0.0);
  EXPECT_DOUBLE_EQ(absent.support_hi, 20.0 / 100.0);
  EXPECT_DOUBLE_EQ(absent.confidence_lo, 0.0);
  EXPECT_DOUBLE_EQ(absent.confidence_hi, 1.0);
}

TEST(TarArchiveDeathTest, RollUpRefusesWindowsNotStrictlyAscending) {
  // The walk merges the series with the windows in one ascending pass, so
  // a window list out of order or repeated is a caller bug; RollUpRule
  // passes WindowSet::ids(), which ascend.
  ArchiveFeed feed;
  for (WindowId w = 0; w < 5; ++w) feed.Window(100, 2);
  feed.Add(1, 2, 10, 20);
  const TarArchive archive = feed.Build();
  EXPECT_DEATH(archive.RollUp(1, {3, 1}), "strictly ascending");
  EXPECT_DEATH(archive.RollUp(1, {2, 2}), "strictly ascending");
}

TEST(TarArchiveTest, RollUpBoundsAreNeverInverted) {
  Rng rng(2026);
  ArchiveFeed feed;
  const uint32_t windows = 8;
  for (WindowId w = 0; w < windows; ++w) {
    feed.Window(200 + rng.NextBounded(800), 1 + rng.NextBounded(10),
                rng.NextDouble() * 0.3);
  }
  constexpr RuleId kRules = 50;
  for (WindowId w = 0; w < windows; ++w) {
    for (RuleId r = 0; r < kRules; ++r) {
      if (rng.NextBool(0.5)) continue;
      const uint64_t count = 1 + rng.NextBounded(100);
      feed.Add(r, w, count, count + rng.NextBounded(100));
    }
  }
  const TarArchive archive = feed.Build();
  for (RuleId r = 0; r < kRules; ++r) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<WindowId> subset;
      for (WindowId w = 0; w < windows; ++w) {
        if (rng.NextBool(0.5)) subset.push_back(w);
      }
      if (subset.empty()) subset.push_back(0);
      const RollUpBound bound = archive.RollUp(r, subset);
      EXPECT_LE(bound.support_lo, bound.support_hi) << "rule " << r;
      EXPECT_LE(bound.confidence_lo, bound.confidence_hi) << "rule " << r;
      EXPECT_GE(bound.support_lo, 0.0);
      EXPECT_LE(bound.support_hi, 1.0);
      EXPECT_GE(bound.confidence_lo, 0.0);
      EXPECT_LE(bound.confidence_hi, 1.0);
      EXPECT_LE(bound.missing_windows, subset.size());
    }
  }
}

TEST(TarArchiveTest, PayloadIsSmallerThanRawEncoding) {
  Rng rng(3);
  ArchiveFeed feed;
  const uint32_t windows = 20;
  for (WindowId w = 0; w < windows; ++w) feed.Window(5000, 5);
  for (RuleId r = 0; r < 500; ++r) {
    uint64_t count = 50 + rng.NextBounded(100);
    uint64_t ant = count + rng.NextBounded(100);
    for (WindowId w = 0; w < windows; ++w) {
      // Small random walk — the realistic evolving-rule profile.
      const int64_t dc = static_cast<int64_t>(rng.NextBounded(11)) - 5;
      count = static_cast<uint64_t>(
          std::max<int64_t>(5, static_cast<int64_t>(count) + dc));
      ant = std::max(ant, count);
      feed.Add(r, w, count, ant);
    }
  }
  const TarArchive archive = feed.Build();
  // Raw record: window(4) + two counts(8+8) = 20 bytes per entry.
  const size_t raw = archive.entry_count() * 20;
  EXPECT_LT(archive.payload_bytes(), raw / 3)
      << "delta+varint should compress at least 3x on stable rules";
  EXPECT_EQ(RulesWithEntries(archive), 500u);
}

/// Series of the shapes the archive's one decoder must read back: the
/// per-window shape the build writes, counts across every varint lane
/// width, window gaps across the 1-, 2- and 3-byte widths, and a dense
/// stable run. Windows ascend strictly within each series.
std::vector<std::vector<ArchiveEntry>> ShadowSeries(Rng& rng) {
  std::vector<std::vector<ArchiveEntry>> series;
  // 200 rules over 30 windows, counts below 1,000, absent 40% of the time.
  for (RuleId r = 0; r < 200; ++r) {
    std::vector<ArchiveEntry>& s = series.emplace_back();
    for (WindowId w = 0; w < 30; ++w) {
      if (rng.NextBool(0.4)) continue;
      const uint64_t count = 3 + rng.NextBounded(500);
      s.push_back(ArchiveEntry{w, count, count + rng.NextBounded(500)});
    }
  }
  // Lane-width sweep: counts drawn below 2^0 .. 2^62, so consecutive
  // zigzag deltas take every varint length, with large negative swings;
  // gaps sit on both sides of each varint width's edge.
  constexpr uint32_t kGaps[] = {1, 2, 127, 128, 129, 16383, 16384, 16385};
  for (int r = 0; r < 60; ++r) {
    std::vector<ArchiveEntry>& s = series.emplace_back();
    WindowId window = static_cast<WindowId>(rng.NextBounded(4));
    const size_t n = rng.NextBounded(65);
    for (size_t i = 0; i < n; ++i) {
      if (i > 0) window += kGaps[rng.NextBounded(std::size(kGaps))];
      const uint64_t base = 1ULL << rng.NextBounded(63);
      const uint64_t count = 1 + rng.NextBounded(base);
      s.push_back(ArchiveEntry{window, count, count + rng.NextBounded(base)});
    }
  }
  // The dense stable shape: 512 windows with gap 1 and a small wobble, so
  // nearly every delta entry is three one-byte varints.
  std::vector<ArchiveEntry>& dense = series.emplace_back();
  for (WindowId w = 0; w < 512; ++w) {
    const uint64_t count = 500 + rng.NextBounded(9);
    dense.push_back(ArchiveEntry{w, count, count + rng.NextBounded(3)});
  }
  return series;
}

/// Every rule's DecodeInto and VisitEntries sequences equal its shadow.
void ExpectMatchesShadow(const TarArchive& archive,
                         const std::vector<std::vector<ArchiveEntry>>& shadow) {
  DecodeArena arena;
  const auto expect_equal = [](std::span<const ArchiveEntry> got,
                               const std::vector<ArchiveEntry>& want,
                               RuleId r) {
    ASSERT_EQ(got.size(), want.size()) << "rule " << r;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].window, want[i].window) << "rule " << r;
      EXPECT_EQ(got[i].rule_count, want[i].rule_count) << "rule " << r;
      EXPECT_EQ(got[i].antecedent_count, want[i].antecedent_count)
          << "rule " << r;
    }
  };
  for (RuleId r = 0; r < shadow.size(); ++r) {
    arena.Reset();
    expect_equal(archive.DecodeInto(r, arena), shadow[r], r);
    std::vector<ArchiveEntry> visited;
    archive.VisitEntries(r, [&](const ArchiveEntry& e) {
      visited.push_back(e);
      return true;
    });
    expect_equal(visited, shadow[r], r);
  }
}

/// The feed committed in batches of 1 to `max_batch` windows.
TarArchive BuildInBatches(const ArchiveFeed& feed, Rng& rng,
                          size_t max_batch) {
  TarArchive archive;
  while (archive.window_count() < feed.window_count()) {
    const size_t end = std::min(
        feed.window_count(),
        archive.window_count() + 1 + rng.NextBounded(max_batch));
    archive = feed.Append(archive, end);
  }
  return archive;
}

TEST(TarArchiveTest, RandomizedRoundTripAgainstShadow) {
  // The shadow the feed was built from is the decoder's only oracle:
  // DecodeInto and VisitEntries read the runs through the same scan. The
  // windows arrive in random batches, so runs cross chunk boundaries and
  // open chunks are rebuilt.
  Rng rng(99);
  const std::vector<std::vector<ArchiveEntry>> shadow = ShadowSeries(rng);
  WindowId windows = 0;
  for (const auto& s : shadow) {
    if (!s.empty()) windows = std::max(windows, s.back().window + 1);
  }
  ArchiveFeed feed;
  for (WindowId w = 0; w < windows; ++w) feed.Window(1000, 3);
  for (RuleId r = 0; r < shadow.size(); ++r) {
    for (const ArchiveEntry& e : shadow[r]) {
      feed.Add(r, e.window, e.rule_count, e.antecedent_count);
    }
  }
  const TarArchive archive = BuildInBatches(feed, rng, windows / 4 + 1);
  ExpectMatchesShadow(archive, shadow);
  EXPECT_EQ(archive.window_count(), windows);
}

/// A feed of `windows` windows and its shadow, with every shape chunking
/// can break: steady rules, rules first seen in a later chunk, rules
/// absent for whole chunks, sparse rules whose gaps cross chunk
/// boundaries, counts of every varint width, and entries listed in random
/// rule order within each window.
ArchiveFeed ChunkShapes(uint32_t windows, Rng& rng,
                        std::vector<std::vector<ArchiveEntry>>* shadow) {
  constexpr uint32_t K = TarArchive::kChunkWindows;
  constexpr RuleId kRules = 60;
  shadow->assign(kRules, {});
  ArchiveFeed feed;
  for (WindowId w = 0; w < windows; ++w) {
    feed.Window(1000 + w, 3, 0.1);
    std::vector<WindowIndex::Entry> entries;
    for (RuleId r = 0; r < kRules; ++r) {
      bool present = false;
      uint64_t base = 1000;
      switch (r / 10) {
        case 0: present = true; break;                       // steady
        case 1: present = w >= K && rng.NextBool(0.7); break;  // later chunk
        case 2: present = (w / K) % 2 == 0; break;     // whole chunks absent
        case 3: present = rng.NextBool(0.05) || w % K == K - 1; break;
        default:  // every varint width
          present = rng.NextBool(0.6);
          base = 1ULL << rng.NextBounded(63);
      }
      if (!present) continue;
      const uint64_t count = 1 + rng.NextBounded(base);
      entries.push_back({r, count, count + rng.NextBounded(base)});
    }
    for (size_t i = entries.size(); i > 1; --i) {
      std::swap(entries[i - 1], entries[rng.NextBounded(i)]);
    }
    for (const WindowIndex::Entry& e : entries) {
      feed.Add(e.rule, w, e.rule_count, e.antecedent_count);
      (*shadow)[e.rule].push_back({w, e.rule_count, e.antecedent_count});
    }
  }
  return feed;
}

TEST(TarArchiveTest, CommitBatchingDoesNotChangeTheBytes) {
  constexpr uint32_t K = TarArchive::kChunkWindows;
  Rng rng(4242);
  for (const uint32_t windows : {1u, K - 1, K, K + 1, 3 * K + 5}) {
    SCOPED_TRACE(windows);
    std::vector<std::vector<ArchiveEntry>> shadow;
    const ArchiveFeed feed = ChunkShapes(windows, rng, &shadow);
    const TarArchive one_batch = feed.Build();
    const TarArchive single = BuildInBatches(feed, rng, 1);
    const TarArchive random = BuildInBatches(feed, rng, K + 7);
    ASSERT_EQ(one_batch.chunks().size(), (windows + K - 1) / K);
    // The window axis: each window's size and slack as the feed gave them,
    // and an all-windows roll-up, which spans every prefix.
    const std::vector<WindowTerms> terms = feed.Terms();
    ASSERT_EQ(one_batch.window_count(), windows);
    for (WindowId w = 0; w < windows; ++w) {
      EXPECT_EQ(one_batch.window_size(w), terms[w].size) << "window " << w;
      EXPECT_EQ(one_batch.window_slack(w),
                UnarchivedCountSlack(terms[w].floor_count,
                                     terms[w].confidence_floor,
                                     terms[w].size))
          << "window " << w;
    }
    std::vector<WindowId> all(windows);
    std::iota(all.begin(), all.end(), WindowId{0});
    const auto bound = [&](const TarArchive& archive, RuleId r) {
      const RollUpBound b = archive.RollUp(r, all);
      return std::make_tuple(b.support_lo, b.support_hi, b.confidence_lo,
                             b.confidence_hi, b.missing_windows);
    };
    for (const TarArchive* other : {&single, &random}) {
      ASSERT_EQ(other->window_count(), windows);
      for (WindowId w = 0; w < windows; ++w) {
        EXPECT_EQ(other->window_size(w), one_batch.window_size(w))
            << "window " << w;
        EXPECT_EQ(other->window_slack(w), one_batch.window_slack(w))
            << "window " << w;
      }
      for (RuleId r = 0; r <= shadow.size(); ++r) {
        EXPECT_EQ(bound(*other, r), bound(one_batch, r)) << "rule " << r;
      }
      ASSERT_EQ(other->chunks().size(), one_batch.chunks().size());
      for (size_t c = 0; c < one_batch.chunks().size(); ++c) {
        EXPECT_EQ(other->chunks()[c]->bytes, one_batch.chunks()[c]->bytes)
            << "chunk " << c;
        EXPECT_EQ(other->chunks()[c]->offsets,
                  one_batch.chunks()[c]->offsets)
            << "chunk " << c;
      }
      EXPECT_EQ(other->payload_bytes(), one_batch.payload_bytes());
      EXPECT_EQ(other->entry_count(), one_batch.entry_count());
      EXPECT_EQ(RulesWithEntries(*other), RulesWithEntries(one_batch));
    }
    size_t entries = 0;
    size_t rules = 0;
    for (const auto& s : shadow) {
      entries += s.size();
      rules += s.empty() ? 0 : 1;
    }
    EXPECT_EQ(one_batch.entry_count(), entries);
    EXPECT_EQ(RulesWithEntries(one_batch), rules);
    ExpectMatchesShadow(one_batch, shadow);
    ExpectMatchesShadow(random, shadow);
  }
}

TEST(TarArchiveTest, OneChunkHoldsTheUnchunkedStreams) {
  // Up to kChunkWindows windows, a rule's run is the stream an unchunked
  // archive wrote: absolute first window, plain counts, then gap and
  // zigzag deltas.
  ArchiveFeed feed;
  for (WindowId w = 0; w < 4; ++w) feed.Window(1000, 3);
  feed.Add(1, 1, 300, 400);  // 300 and 400 take two varint bytes
  feed.Add(1, 3, 299, 402);  // gap 2, deltas -1 and +2
  const TarArchive archive = feed.Build();
  ASSERT_EQ(archive.chunks().size(), 1u);
  const TarArchive::Chunk& chunk = *archive.chunks()[0];
  EXPECT_EQ(chunk.offsets, (std::vector<uint32_t>{0, 0, 8}));
  EXPECT_EQ(chunk.bytes, (std::vector<uint8_t>{1, 0xac, 0x02, 0x90, 0x03, 2,
                                               1, 4}));
  EXPECT_EQ(archive.payload_bytes(), 8u);
}

TEST(TarArchiveTest, PublicationSharesFilledChunks) {
  // A knowledge base of 2K + 1 windows holds two filled chunks and an
  // open one; one more append shares both filled chunks with the parent
  // generation, whose reads do not move.
  constexpr uint32_t K = TarArchive::kChunkWindows;
  TaraEngine::Options options;
  options.min_support_floor = 0.02;
  options.min_confidence_floor = 0.3;
  options.parallelism = 1;
  TaraEngine engine(options);
  Rng rng(8);
  const auto append = [&](WindowId w) {
    std::vector<TaraEngine::PrecomputedRule> rules;
    for (uint32_t r = 0; r < 40; ++r) {
      if (r >= 20 && rng.NextBool(0.5)) continue;
      TaraEngine::PrecomputedRule p;
      p.rule = Rule{{static_cast<ItemId>(r)},
                    {static_cast<ItemId>(1000 + r + (w % 3) * 100)}};
      p.rule_count = 20 + rng.NextBounded(50);
      p.antecedent_count = p.rule_count + rng.NextBounded(50);
      rules.push_back(p);
    }
    engine.AppendPrecomputedWindow(500, rules);
  };
  for (WindowId w = 0; w < 2 * K + 1; ++w) append(w);
  const auto parent = engine.Snapshot();
  const TarArchive& before = parent->archive();
  ASSERT_EQ(before.chunks().size(), 3u);
  const size_t payload = before.payload_bytes();
  std::vector<std::vector<ArchiveEntry>> series(parent->rule_count());
  for (RuleId r = 0; r < series.size(); ++r) {
    before.VisitEntries(r, [&](const ArchiveEntry& e) {
      series[r].push_back(e);
      return true;
    });
  }

  append(2 * K + 1);
  const auto child = engine.Snapshot();
  const TarArchive& after = child->archive();
  ASSERT_EQ(after.chunks().size(), 3u);
  EXPECT_EQ(after.chunks()[0].get(), before.chunks()[0].get());
  EXPECT_EQ(after.chunks()[1].get(), before.chunks()[1].get());
  EXPECT_NE(after.chunks()[2].get(), before.chunks()[2].get());
  EXPECT_EQ(before.window_count(), 2 * K + 1);
  EXPECT_EQ(before.payload_bytes(), payload);
  ExpectMatchesShadow(before, series);
}

TEST(TarArchiveTest, VisitEntriesEarlyExitMatchesVisitWindows) {
  ArchiveFeed feed;
  for (WindowId w = 0; w < 64; ++w) feed.Window(100, 2);
  for (WindowId w = 0; w < 64; w += 3) feed.Add(4, w, 10 + w, 20 + w);
  const TarArchive archive = feed.Build();

  size_t visited = 0;
  archive.VisitEntries(4, [&](const ArchiveEntry& e) {
    ++visited;
    return e.window < 30;
  });
  // Early exit: stops at the first window >= 30, not the full 22 entries.
  EXPECT_EQ(visited, 11u);

  for (WindowId w = 0; w < 64; ++w) {
    const auto entry = EntryAt(archive, 4, w);
    if (w % 3 == 0) {
      ASSERT_TRUE(entry.has_value()) << w;
      EXPECT_EQ(entry->rule_count, 10u + w);
      EXPECT_EQ(entry->antecedent_count, 20u + w);
    } else {
      EXPECT_FALSE(entry.has_value()) << w;
    }
  }
  EXPECT_FALSE(EntryAt(archive, 4, 1000).has_value());
  EXPECT_FALSE(EntryAt(archive, 999, 0).has_value());
}

TEST(TarArchiveTest, ConcurrentReadersShareOneArchive) {
  // An archive is immutable: concurrent readers of one archive must not
  // race (tsan coverage).
  ArchiveFeed feed;
  for (WindowId w = 0; w < 128; ++w) feed.Window(1000, 3);
  for (RuleId r = 0; r < 16; ++r) {
    for (WindowId w = 0; w < 128; ++w) {
      feed.Add(r, w, 100 + r + (w % 7), 200 + r + (w % 11));
    }
  }
  const TarArchive archive = feed.Build();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&archive, t] {
      for (int round = 0; round < 50; ++round) {
        const RuleId rule = static_cast<RuleId>((t + round) % 16);
        const std::vector<ArchiveEntry> entries = Series(archive, rule);
        ASSERT_EQ(entries.size(), 128u);
        ASSERT_EQ(entries.front().rule_count, 100u + rule);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

}  // namespace
}  // namespace tara
