#include <vector>

#include <gtest/gtest.h>

#include "core/tara_engine.h"
#include "core/window_set.h"

namespace tara {
namespace {

TEST(WindowSetTest, CanonicalizesToSortedUnique) {
  const WindowSet set({3, 1, 3, 0, 1}, 4);
  EXPECT_EQ(set.ids(), (std::vector<WindowId>{0, 1, 3}));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_FALSE(set.empty());
  EXPECT_EQ(set.required_window_count(), 4u);
}

TEST(WindowSetTest, DefaultIsEmpty) {
  const WindowSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.required_window_count(), 0u);
  EXPECT_EQ(set.begin(), set.end());
}

TEST(WindowSetTest, OutOfRangeIdAborts) {
  EXPECT_DEATH(WindowSet({0, 4}, 4), "window");
  EXPECT_DEATH(WindowSet({0}, 0), "window");
}

TEST(WindowSetTest, AllAndRangeAndSingle) {
  EXPECT_EQ(WindowSet::All(3).ids(), (std::vector<WindowId>{0, 1, 2}));
  EXPECT_TRUE(WindowSet::All(0).empty());
  EXPECT_EQ(WindowSet::Range(1, 3, 4).ids(), (std::vector<WindowId>{1, 2}));
  EXPECT_TRUE(WindowSet::Range(2, 2, 4).empty());
  EXPECT_EQ(WindowSet::Single(2, 4).ids(), (std::vector<WindowId>{2}));
  EXPECT_DEATH(WindowSet::Single(4, 4), "window");
}

TEST(WindowSetTest, ContainsUsesTheCanonicalIds) {
  const WindowSet set({5, 2, 2, 0}, 6);
  EXPECT_TRUE(set.contains(0));
  EXPECT_TRUE(set.contains(2));
  EXPECT_TRUE(set.contains(5));
  EXPECT_FALSE(set.contains(1));
  EXPECT_FALSE(set.contains(3));
  EXPECT_FALSE(set.contains(6));
}

TEST(WindowSetTest, EqualityIsSetEquality) {
  EXPECT_EQ(WindowSet({2, 1}, 3), WindowSet({1, 2, 2}, 3));
  EXPECT_FALSE(WindowSet({1}, 3) == WindowSet({2}, 3));
}

TEST(WindowSetTest, RangeForIterationIsAscending) {
  const WindowSet set({4, 0, 2}, 5);
  std::vector<WindowId> seen;
  for (WindowId w : set) seen.push_back(w);
  EXPECT_EQ(seen, (std::vector<WindowId>{0, 2, 4}));
}

TEST(WindowSetTest, SnapshotFactoriesBoundByWindowCount) {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  TaraEngine engine(options);
  engine.AppendPrecomputedWindow(100, {});
  engine.AppendPrecomputedWindow(100, {});
  engine.AppendPrecomputedWindow(100, {});
  const auto kb = engine.Snapshot();

  EXPECT_EQ(kb->AllWindows().ids(), (std::vector<WindowId>{0, 1, 2}));
  EXPECT_EQ(kb->MakeWindowSet({2, 0}).ids(), (std::vector<WindowId>{0, 2}));
  EXPECT_DEATH(kb->MakeWindowSet({3}), "window");
  EXPECT_EQ(kb->RecentWindows(2).ids(), (std::vector<WindowId>{1, 2}));
  EXPECT_EQ(kb->RecentWindows(99).ids(), (std::vector<WindowId>{0, 1, 2}));
}

TEST(WindowSetTest, CanonicalizedSetsAnswerLikeTheirSortedForm) {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  TaraEngine engine(options);
  TaraEngine::PrecomputedRule rule;
  rule.rule = Rule{{1}, {2}};
  rule.rule_count = 40;
  rule.antecedent_count = 50;
  engine.AppendPrecomputedWindow(1000, {rule});
  engine.AppendPrecomputedWindow(1000, {rule});
  const auto kb = engine.Snapshot();

  // MakeWindowSet canonicalizes an unsorted, duplicated id list, so every
  // query sees {0, 1} regardless of how the caller spelled it.
  const ParameterSetting setting{0.02, 0.5};
  const WindowSet all = kb->AllWindows();
  const WindowSet loose = kb->MakeWindowSet({1, 0, 1});
  EXPECT_EQ(loose, all);
  EXPECT_EQ(kb->MineWindows(loose, setting, MatchMode::kExact).value(),
            kb->MineWindows(all, setting, MatchMode::kExact).value());
  EXPECT_EQ(kb->TrajectoryQuery(1, setting, loose).value().rules,
            kb->TrajectoryQuery(1, setting, all).value().rules);
  const RuleId id = engine.catalog().Find(rule.rule);
  EXPECT_EQ(kb->RuleMeasures(id, loose).value().coverage,
            kb->RuleMeasures(id, all).value().coverage);
  EXPECT_EQ(kb->RollUpRule(id, loose).value().support_lo,
            kb->RollUpRule(id, all).value().support_lo);
}

}  // namespace
}  // namespace tara
