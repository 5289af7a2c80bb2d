// The archive's roll-up (window-axis prefix sums plus one pass over the
// rule's series) against the linear reference of archive_feed.h, and the
// snapshot's one-pass multi-window queries against per-window and per-rule
// references. The references read each window's size and floors from the
// feed or the engine's segments, never from the archive's window axis.
// Both interval paths aggregate into RollUpAggregate and finish through
// FinishRollUp, and roll-up mining classifies the same u64 sums with the
// admission tests, so the property tests here demand EXACT double equality
// (or equal result bytes), not tolerances — any drift means the sums
// diverged.

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "archive_feed.h"
#include "common/rng.h"
#include "core/query_request.h"
#include "core/tar_archive.h"
#include "core/tara_engine.h"
#include "core/window_set.h"
#include "gtest/gtest.h"
#include "mining/measures.h"

namespace tara {
namespace {

void ExpectSameBound(const RollUpBound& served, const RollUpBound& linear) {
  EXPECT_EQ(served.support_lo, linear.support_lo);
  EXPECT_EQ(served.support_hi, linear.support_hi);
  EXPECT_EQ(served.confidence_lo, linear.confidence_lo);
  EXPECT_EQ(served.confidence_hi, linear.confidence_hi);
  EXPECT_EQ(served.missing_windows, linear.missing_windows);
}

/// The sizes and floors an engine fed its archive: each segment's size and
/// count floor, and the engine's confidence floor.
std::vector<WindowTerms> KbTerms(const KnowledgeBaseSnapshot& kb) {
  std::vector<WindowTerms> terms;
  for (WindowId w = 0; w < kb.window_count(); ++w) {
    terms.push_back({kb.segment(w).total_transactions,
                     kb.segment(w).floor_count,
                     kb.options().min_confidence_floor});
  }
  return terms;
}

/// An archive fed the way KbBuilder's commit feeds it.
struct MirroredIndex {
  ArchiveFeed feed;
  TarArchive archive;
  uint32_t window_count = 0;
  uint32_t rule_count = 0;

  void AddWindow(uint64_t size, uint64_t floor_count,
                 double confidence_floor) {
    feed.Window(size, floor_count, confidence_floor);
    ++window_count;
  }

  void AddEntry(RuleId rule, uint64_t rule_cnt, uint64_t ant_cnt) {
    feed.Add(rule, window_count - 1, rule_cnt, ant_cnt);
    if (rule >= rule_count) rule_count = rule + 1;
  }

  /// Builds the archive from every window fed so far.
  const TarArchive& Build() {
    archive = feed.Build();
    return archive;
  }

  /// The linear reference over the feed's own sizes and floors.
  RollUpBound Reference(RuleId rule, std::span<const WindowId> ids) const {
    return LinearRollUp(archive, rule, ids, feed.Terms());
  }
};

/// A seeded random index: per-window sizes/floors vary, rules are present
/// in ~60% of windows with counts spanning several varint widths.
MirroredIndex RandomIndex(uint64_t seed, uint32_t windows, uint32_t rules) {
  MirroredIndex m;
  Rng rng(seed);
  for (uint32_t w = 0; w < windows; ++w) {
    const uint64_t size = 500 + rng.NextBounded(1000);
    const uint64_t floor_count = rng.NextBounded(12);  // 0 = no count floor
    const double confidence_floor = rng.NextDouble() * 0.3;
    m.AddWindow(size, floor_count, confidence_floor);
    for (RuleId r = 0; r < rules; ++r) {
      if (rng.NextBounded(10) >= 6) continue;  // absent ~40% of windows
      const uint64_t rule_cnt = 1 + rng.NextBounded(size / 2);
      const uint64_t ant_cnt = rule_cnt + rng.NextBounded(size / 2);
      m.AddEntry(r, rule_cnt, ant_cnt);
    }
  }
  m.rule_count = rules;
  return m;
}

/// Random sorted-unique window sets of every interesting shape: singles,
/// dense ranges, sparse subsets, and the full set.
WindowSet RandomWindowSet(Rng& rng, uint32_t window_count) {
  switch (rng.NextBounded(4)) {
    case 0:
      return WindowSet::Single(
          static_cast<WindowId>(rng.NextBounded(window_count)), window_count);
    case 1: {
      const WindowId begin =
          static_cast<WindowId>(rng.NextBounded(window_count));
      const WindowId end =
          begin + 1 +
          static_cast<WindowId>(rng.NextBounded(window_count - begin));
      return WindowSet::Range(begin, end, window_count);
    }
    case 2: {
      std::vector<WindowId> ids;
      for (WindowId w = 0; w < window_count; ++w) {
        if (rng.NextBounded(3) == 0) ids.push_back(w);
      }
      if (ids.empty()) ids.push_back(0);
      return WindowSet(std::move(ids), window_count);
    }
    default:
      return WindowSet::All(window_count);
  }
}

TEST(ArchiveRollUp, MatchesLinearScanOnRandomizedIndexes) {
  // 48 windows fit one archive chunk; 3K + 5 span four.
  for (const uint32_t windows : {48u, 3 * TarArchive::kChunkWindows + 5}) {
    for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      MirroredIndex m = RandomIndex(seed, windows, 12);
      const TarArchive& archive = m.Build();
      Rng rng(seed * 1000 + 7);
      for (int round = 0; round < 100; ++round) {
        const WindowSet windows_set = RandomWindowSet(rng, m.window_count);
        // Include a rule id past everything archived (decodes to empty).
        for (RuleId rule = 0; rule <= m.rule_count; ++rule) {
          ExpectSameBound(archive.RollUp(rule, windows_set.ids()),
                          m.Reference(rule, windows_set.ids()));
        }
      }
    }
  }
}

TEST(ArchiveRollUp, HandlesEmptyAndSparseSeries) {
  MirroredIndex m;
  m.AddWindow(100, 3, 0.1);
  m.AddWindow(200, 3, 0.1);
  m.AddWindow(300, 3, 0.1);
  // Rule 0: only the last window. Rules 1 and 7: never archived.
  m.AddEntry(0, 12, 24);
  const TarArchive& archive = m.Build();
  for (RuleId rule : {0u, 1u, 7u}) {
    ExpectSameBound(archive.RollUp(rule, WindowSet::All(3).ids()),
                    m.Reference(rule, WindowSet::All(3).ids()));
  }
  EXPECT_EQ(archive.window_count(), 3u);

  // Rule 0 spans windows 2-3 of 6, rule 2 only window 0, rule 1 none.
  // Sets that end before a series begins, begin after it ends, or
  // straddle it exercise every exit of the walk over the series.
  MirroredIndex gaps;
  for (WindowId w = 0; w < 6; ++w) {
    gaps.AddWindow(100 * (w + 1), 4, 0.05);
    if (w == 0) gaps.AddEntry(2, 9, 30);
    if (w == 2 || w == 3) gaps.AddEntry(0, 10 + w, 40);
  }
  const TarArchive& gap_archive = gaps.Build();
  const std::vector<std::vector<WindowId>> sets = {
      {0}, {0, 1}, {1}, {4, 5}, {5}, {1, 4}, {0, 5}, {2}, {3, 4}, {1, 2}};
  for (const std::vector<WindowId>& ids : sets) {
    for (RuleId rule : {0u, 1u, 2u}) {
      ExpectSameBound(gap_archive.RollUp(rule, ids),
                      gaps.Reference(rule, ids));
    }
  }
  EXPECT_EQ(gap_archive.RollUp(0, sets[1]).missing_windows, 2u);  // before
  EXPECT_EQ(gap_archive.RollUp(0, sets[3]).missing_windows, 2u);  // after
  EXPECT_EQ(gap_archive.RollUp(0, sets[8]).missing_windows, 1u);  // straddles
}

/// Live appends through the engine: after every published window the
/// snapshot's roll-up must agree with a linear scan of that snapshot's own
/// archive, and snapshots pinned earlier must keep answering from their
/// generation while later windows are appended.
TEST(ArchiveRollUp, LiveAppendsKeepPinnedSnapshotsConsistent) {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.2;
  TaraEngine engine(options);

  Rng rng(2024);
  std::vector<std::shared_ptr<const KnowledgeBaseSnapshot>> pinned;
  constexpr uint64_t kWindowSize = 1000;
  constexpr int kRules = 6;

  for (int w = 0; w < 10; ++w) {
    std::vector<TaraEngine::PrecomputedRule> rules;
    for (int r = 0; r < kRules; ++r) {
      if (rng.NextBounded(10) >= 7) continue;  // rule absent this window
      TaraEngine::PrecomputedRule p;
      p.rule = Rule{{static_cast<ItemId>(r)},
                    {static_cast<ItemId>(1000 + r)}};
      p.rule_count = 20 + rng.NextBounded(200);
      p.antecedent_count = p.rule_count + rng.NextBounded(300);
      rules.push_back(p);
    }
    engine.AppendPrecomputedWindow(kWindowSize, rules);
    pinned.push_back(engine.Snapshot());
  }

  for (size_t g = 0; g < pinned.size(); ++g) {
    const auto& snapshot = pinned[g];
    ASSERT_EQ(snapshot->window_count(), g + 1);
    const WindowSet all = snapshot->AllWindows();
    const std::vector<WindowTerms> terms = KbTerms(*snapshot);
    const auto known_rules = static_cast<RuleId>(snapshot->rule_count());
    for (RuleId rule = 0; rule < known_rules; ++rule) {
      // The pinned snapshot's archive IS that generation — its roll-up
      // must match it, not the engine's latest state.
      const RollUpBound linear =
          LinearRollUp(snapshot->archive(), rule, all.ids(), terms);
      ExpectSameBound(snapshot->archive().RollUp(rule, all.ids()), linear);
      const auto bound = snapshot->RollUpRule(rule, all);
      ASSERT_TRUE(bound.has_value());
      ExpectSameBound(*bound, linear);
    }
    // Windows published after this snapshot do not exist on its axis.
    EXPECT_EQ(snapshot->archive().window_count(), g + 1);
  }
}

/// A seeded random knowledge base appended through
/// AppendPrecomputedWindow: window sizes vary, each rule of a fixed pool
/// is present in about 70% of windows, and every count passes the floors.
std::shared_ptr<const KnowledgeBaseSnapshot> RandomKnowledgeBase(
    uint64_t seed, const TaraEngine::Options& options) {
  TaraEngine engine(options);
  Rng rng(seed);
  const uint32_t windows = 2 + static_cast<uint32_t>(rng.NextBounded(9));
  // Up to 600 rules, so sorted outputs span RuleIds of one and two bytes.
  const uint32_t rules = 8 + static_cast<uint32_t>(rng.NextBounded(600));
  for (uint32_t w = 0; w < windows; ++w) {
    const uint64_t size = 400 + rng.NextBounded(1200);
    const uint64_t floor_count =
        MinCountForSupport(options.min_support_floor, size);
    std::vector<TaraEngine::PrecomputedRule> mined;
    for (uint32_t r = 0; r < rules; ++r) {
      if (rng.NextBounded(10) >= 7) continue;
      TaraEngine::PrecomputedRule p;
      p.rule = Rule{{static_cast<ItemId>(r)},
                    {static_cast<ItemId>(1000 + r)}};
      p.rule_count = floor_count + rng.NextBounded(size / 2);
      const uint64_t most = std::min<uint64_t>(
          size, static_cast<uint64_t>(static_cast<double>(p.rule_count) /
                                      options.min_confidence_floor));
      p.antecedent_count =
          p.rule_count + rng.NextBounded(most - p.rule_count + 1);
      mined.push_back(p);
    }
    engine.AppendPrecomputedWindow(size, mined);
  }
  return engine.Snapshot();
}

/// A seeded knowledge base whose catalog grows with every window: each
/// window interns 64-127 new rules and keeps about half of the earlier
/// ones, so consecutive rule watermarks fall in different 64-rule words.
std::shared_ptr<const KnowledgeBaseSnapshot> GrowingKnowledgeBase(
    uint64_t seed, const TaraEngine::Options& options) {
  TaraEngine engine(options);
  Rng rng(seed);
  const uint32_t windows = 3 + static_cast<uint32_t>(rng.NextBounded(6));
  uint32_t interned = 0;
  for (uint32_t w = 0; w < windows; ++w) {
    const uint64_t size = 400 + rng.NextBounded(1200);
    const uint64_t floor_count =
        MinCountForSupport(options.min_support_floor, size);
    const uint32_t rules =
        interned + 64 + static_cast<uint32_t>(rng.NextBounded(64));
    std::vector<TaraEngine::PrecomputedRule> mined;
    for (uint32_t r = 0; r < rules; ++r) {
      if (r < interned && rng.NextBounded(2) == 0) continue;
      TaraEngine::PrecomputedRule p;
      p.rule = Rule{{static_cast<ItemId>(r)},
                    {static_cast<ItemId>(100000 + r)}};
      p.rule_count = floor_count + rng.NextBounded(size / 2);
      const uint64_t most = std::min<uint64_t>(
          size, static_cast<uint64_t>(static_cast<double>(p.rule_count) /
                                      options.min_confidence_floor));
      p.antecedent_count =
          p.rule_count + rng.NextBounded(most - p.rule_count + 1);
      mined.push_back(p);
    }
    engine.AppendPrecomputedWindow(size, mined);
    interned = rules;
  }
  return engine.Snapshot();
}

/// A random window set whose last window is `last`: the single window, a
/// range ending there, or a sparse subset of the windows before it.
WindowSet WindowSetEndingAt(Rng& rng, WindowId last, uint32_t window_count) {
  std::vector<WindowId> ids = {last};
  switch (rng.NextBounded(3)) {
    case 0:
      break;
    case 1:
      for (WindowId w = static_cast<WindowId>(rng.NextBounded(last + 1));
           w < last; ++w) {
        ids.push_back(w);
      }
      break;
    default:
      for (WindowId w = 0; w < last; ++w) {
        if (rng.NextBounded(2) == 0) ids.push_back(w);
      }
  }
  return WindowSet(std::move(ids), window_count);
}

/// MineWindows reference: each window's answer sorted, merged pairwise.
std::vector<RuleId> ReferenceMineWindows(const KnowledgeBaseSnapshot& kb,
                                         const WindowSet& windows,
                                         const ParameterSetting& setting,
                                         MatchMode mode) {
  std::vector<RuleId> combined;
  bool first = true;
  for (WindowId w : windows) {
    std::vector<RuleId> rules = kb.MineWindow(w, setting).value();
    std::sort(rules.begin(), rules.end());
    if (first) {
      combined = std::move(rules);
      first = false;
      continue;
    }
    std::vector<RuleId> merged;
    if (mode == MatchMode::kSingle) {
      std::set_union(combined.begin(), combined.end(), rules.begin(),
                     rules.end(), std::back_inserter(merged));
    } else {
      std::set_intersection(combined.begin(), combined.end(), rules.begin(),
                            rules.end(), std::back_inserter(merged));
    }
    combined = std::move(merged);
  }
  return combined;
}

/// MineRolledUp reference: every rule the archive holds in some requested
/// window, its counts read per window and summed, each missing window's
/// size and slack taken from the engine's segments, and classified by the
/// admission tests of mining/measures.h.
RolledUpRules ReferenceMineRolledUp(const KnowledgeBaseSnapshot& kb,
                                    const WindowSet& windows,
                                    const ParameterSetting& setting) {
  const std::vector<WindowTerms> terms = KbTerms(kb);
  uint64_t total = 0;
  for (WindowId w : windows) total += terms[w].size;
  const uint64_t min_count = MinCountForSupport(setting.min_support, total);
  const double c = setting.min_confidence;
  RolledUpRules result;
  for (RuleId rule = 0; rule < kb.rule_count(); ++rule) {
    bool present = false;
    uint64_t known_rule = 0, known_ant = 0, missing_size = 0, slack = 0;
    for (WindowId w : windows) {
      if (const auto entry = EntryAt(kb.archive(), rule, w)) {
        present = true;
        known_rule += entry->rule_count;
        known_ant += entry->antecedent_count;
      } else {
        const WindowTerms& t = terms[w];
        missing_size += t.size;
        slack += UnarchivedCountSlack(t.floor_count, t.confidence_floor,
                                      t.size);
      }
    }
    if (!present) continue;
    if (known_rule >= min_count &&
        AdmitsConfidence(known_rule, known_ant + missing_size, c)) {
      result.certain.push_back(rule);
    } else if (known_rule + slack >= min_count &&
               AdmitsConfidence(known_rule + slack, known_ant + slack, c)) {
      result.possible.push_back(rule);
    }
  }
  return result;
}

/// The multi-window queries (MineWindows, CompareSettings, MineRolledUp)
/// against the references above, byte for byte, over random knowledge
/// bases, window sets of every shape, both match modes, and settings at
/// the floors, in between, and above every rule. Growing knowledge bases
/// add window sets that end at every window, each with its own rule
/// watermark.
TEST(ArchiveRollUp, MultiWindowQueriesMatchPerWindowReferences) {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  const ParameterSetting floors{options.min_support_floor,
                                options.min_confidence_floor};
  const ParameterSetting above_every_rule{1.0, 1.0};
  size_t nonempty = 0;
  const auto check = [&](const KnowledgeBaseSnapshot& kb,
                         const WindowSet& windows, Rng& rng, uint64_t seed,
                         int round) {
    const auto random_setting = [&] {
      return ParameterSetting{0.01 + 0.4 * rng.NextDouble(),
                              0.1 + 0.9 * rng.NextDouble()};
    };
    const ParameterSetting settings[] = {floors, above_every_rule,
                                         random_setting()};
    for (const ParameterSetting& setting : settings) {
      const RolledUpRules rolled = kb.MineRolledUp(windows, setting).value();
      EXPECT_EQ(EncodeQueryResult(QueryKind::kRollUpMine, rolled),
                EncodeQueryResult(
                    QueryKind::kRollUpMine,
                    ReferenceMineRolledUp(kb, windows, setting)))
          << "seed " << seed << " round " << round;
      nonempty += rolled.certain.size() + rolled.possible.size();

      for (MatchMode mode : {MatchMode::kSingle, MatchMode::kExact}) {
        const std::vector<RuleId> mined =
            kb.MineWindows(windows, setting, mode).value();
        const std::vector<RuleId> expected =
            ReferenceMineWindows(kb, windows, setting, mode);
        EXPECT_EQ(EncodeQueryResult(QueryKind::kMineWindows, mined),
                  EncodeQueryResult(QueryKind::kMineWindows, expected))
            << "seed " << seed << " round " << round;
        nonempty += mined.size();

        const ParameterSetting second = random_setting();
        const RulesetDiff diff =
            kb.CompareSettings(setting, second, windows, mode).value();
        const std::vector<RuleId> other =
            ReferenceMineWindows(kb, windows, second, mode);
        RulesetDiff expected_diff;
        std::set_difference(expected.begin(), expected.end(),
                            other.begin(), other.end(),
                            std::back_inserter(expected_diff.only_first));
        std::set_difference(other.begin(), other.end(), expected.begin(),
                            expected.end(),
                            std::back_inserter(expected_diff.only_second));
        EXPECT_EQ(EncodeQueryResult(QueryKind::kCompare, diff),
                  EncodeQueryResult(QueryKind::kCompare, expected_diff))
            << "seed " << seed << " round " << round;
      }
    }
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const auto kb = RandomKnowledgeBase(seed, options);
    Rng rng(seed * 7919);
    for (int round = 0; round < 60; ++round) {
      const WindowSet windows = RandomWindowSet(rng, kb->window_count());
      check(*kb, windows, rng, seed, round);
    }
  }
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto kb = GrowingKnowledgeBase(seed, options);
    Rng rng(seed * 104729);
    int round = 0;
    for (WindowId last = 0; last < kb->window_count(); ++last) {
      ASSERT_GE(kb->segment(last).rule_watermark,
                (last + 1) * 64)  // one word further per window
          << "seed " << seed;
      for (int draw = 0; draw < 6; ++draw, ++round) {
        check(*kb, WindowSetEndingAt(rng, last, kb->window_count()), rng,
              seed, round);
      }
    }
  }
  EXPECT_GT(nonempty, 0u);  // the floors admit rules; not all answers empty
}

}  // namespace
}  // namespace tara
