#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/dctar.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

EvolvingDatabase MakeEvolvingQuest(uint32_t windows, uint64_t seed) {
  QuestGenerator::Params params;
  params.num_transactions = 400 * windows;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = seed;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, windows);
}

TaraEngine::Options EngineOptions() {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 5;
  return options;
}

std::set<std::pair<Itemset, Itemset>> AsRuleSet(
    const TaraEngine& engine, const std::vector<RuleId>& ids) {
  std::set<std::pair<Itemset, Itemset>> set;
  for (RuleId id : ids) {
    const Rule& r = engine.catalog().rule(id);
    set.emplace(r.antecedent, r.consequent);
  }
  return set;
}

std::set<std::pair<Itemset, Itemset>> AsRuleSet(
    const std::vector<MinedRule>& rules) {
  std::set<std::pair<Itemset, Itemset>> set;
  for (const MinedRule& r : rules) set.emplace(r.antecedent, r.consequent);
  return set;
}

class EngineGroundTruthTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(EngineGroundTruthTest, MineWindowMatchesScratchMining) {
  const auto& [min_supp, min_conf] = GetParam();
  const EvolvingDatabase data = MakeEvolvingQuest(4, 31);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();
  const DctarBaseline scratch(&data, 5);

  for (WindowId w = 0; w < data.window_count(); ++w) {
    const ParameterSetting setting{min_supp, min_conf};
    const auto tara_rules =
        AsRuleSet(engine, kb->MineWindow(w, setting).value());
    const auto scratch_rules = AsRuleSet(scratch.MineWindow(w, setting));
    EXPECT_EQ(tara_rules, scratch_rules)
        << "window " << w << " supp=" << min_supp << " conf=" << min_conf;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterSweep, EngineGroundTruthTest,
    ::testing::Combine(::testing::Values(0.01, 0.02, 0.05, 0.1),
                       ::testing::Values(0.1, 0.3, 0.5, 0.8)));

// Each horizon shape exercises a part of the archive walk: every window;
// one window; a set with a gap (the walk skips archived windows before
// and between requested ones); a prefix ending before the anchor, which
// every answered rule archived (the walk stops early); and a suffix
// starting after window 0, the first archived window of many (the walk
// skips the series' head).
TEST(TaraEngineTest, TrajectoriesMatchRawScans) {
  const EvolvingDatabase data = MakeEvolvingQuest(4, 32);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();

  const ParameterSetting setting{0.03, 0.3};
  const WindowId anchor = 3;
  const std::vector<std::vector<WindowId>> horizons = {
      {0, 1, 2, 3}, {2}, {1, 3}, {0, 1, 2}, {2, 3}};
  for (const std::vector<WindowId>& ids : horizons) {
    const WindowSet horizon = kb->MakeWindowSet(ids);
    const auto result = kb->TrajectoryQuery(anchor, setting, horizon).value();
    ASSERT_FALSE(result.rules.empty());
    ASSERT_EQ(result.rules.size(), result.trajectory_count());

    size_t present = 0;
    for (size_t i = 0; i < result.rules.size(); ++i) {
      const Rule& rule = engine.catalog().rule(result.rules[i]);
      const Itemset whole = Union(rule.antecedent, rule.consequent);
      const auto trajectory = result.trajectory(i);
      ASSERT_EQ(trajectory.size(), ids.size());
      for (size_t k = 0; k < ids.size(); ++k) {
        const TrajectoryPoint& p = trajectory[k];
        ASSERT_EQ(p.window, ids[k]);
        const WindowInfo& info = data.window(p.window);
        const uint64_t rule_count = data.database().CountContaining(
            whole, info.begin, info.end);
        const uint64_t ant_count = data.database().CountContaining(
            rule.antecedent, info.begin, info.end);
        if (p.present) {
          ++present;
          EXPECT_DOUBLE_EQ(p.support,
                           static_cast<double>(rule_count) / info.size());
          EXPECT_DOUBLE_EQ(p.confidence,
                           static_cast<double>(rule_count) / ant_count);
        } else {
          // Absent means sub-floor in that window (or rule truly missing)
          // — the rule may still occur, but below the generation
          // threshold or confidence floor.
          const double support =
              static_cast<double>(rule_count) / info.size();
          const double confidence =
              ant_count == 0 ? 0.0
                             : static_cast<double>(rule_count) / ant_count;
          EXPECT_TRUE(support < engine.options().min_support_floor ||
                      confidence < engine.options().min_confidence_floor)
              << "rule archived counts missing though above floors, window "
              << p.window;
        }
      }
    }
    EXPECT_GT(present, 0u) << "no point present over " << ids.size()
                           << " windows";
  }
}

TEST(TaraEngineTest, MatchModesCombineWindows) {
  const EvolvingDatabase data = MakeEvolvingQuest(3, 33);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();

  const ParameterSetting setting{0.02, 0.2};
  const WindowSet windows = kb->AllWindows();
  const auto any =
      kb->MineWindows(windows, setting, MatchMode::kSingle).value();
  const auto all =
      kb->MineWindows(windows, setting, MatchMode::kExact).value();
  EXPECT_TRUE(std::is_sorted(any.begin(), any.end()));
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_LE(all.size(), any.size());
  // kExact results must each be valid in every window.
  for (RuleId id : all) {
    for (WindowId w : windows) {
      const auto in_window = kb->MineWindow(w, setting).value();
      EXPECT_TRUE(std::find(in_window.begin(), in_window.end(), id) !=
                  in_window.end());
    }
  }
  // Union really is the union.
  std::set<RuleId> union_set;
  for (WindowId w : windows) {
    for (RuleId id : kb->MineWindow(w, setting).value()) union_set.insert(id);
  }
  EXPECT_EQ(any.size(), union_set.size());
}

TEST(TaraEngineTest, CompareSettingsMatchesManualDiff) {
  const EvolvingDatabase data = MakeEvolvingQuest(3, 34);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();

  const ParameterSetting p1{0.02, 0.2};
  const ParameterSetting p2{0.05, 0.2};
  const WindowSet windows = kb->AllWindows();
  const auto diff =
      kb->CompareSettings(p1, p2, windows, MatchMode::kExact).value();

  const auto a = kb->MineWindows(windows, p1, MatchMode::kExact).value();
  const auto b = kb->MineWindows(windows, p2, MatchMode::kExact).value();
  std::vector<RuleId> only_a, only_b;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(only_a));
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(only_b));
  EXPECT_EQ(diff.only_first, only_a);
  EXPECT_EQ(diff.only_second, only_b);
  // Tighter support can only lose rules.
  EXPECT_TRUE(diff.only_second.empty());
  EXPECT_FALSE(diff.only_first.empty());
}

TEST(TaraEngineTest, RecommendRegionIsConsistentWithMining) {
  const EvolvingDatabase data = MakeEvolvingQuest(2, 35);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();

  const ParameterSetting setting{0.04, 0.4};
  const RegionInfo region = kb->RecommendRegion(1, setting).value();
  EXPECT_EQ(region.result_size, kb->MineWindow(1, setting).value().size());
  EXPECT_LE(region.support_lower, setting.min_support);
  EXPECT_GE(region.support_upper + 1e-12, setting.min_support);
}

TEST(TaraEngineTest, ContentQueryRequiresAndUsesContentIndex) {
  TaraEngine::Options options = EngineOptions();
  options.build_content_index = true;
  const EvolvingDatabase data = MakeEvolvingQuest(2, 36);
  TaraEngine engine(options);
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();

  const ParameterSetting setting{0.02, 0.2};
  const auto all_rules = kb->MineWindow(0, setting).value();
  ASSERT_FALSE(all_rules.empty());
  // Pick an item appearing in some rule and query for it.
  const Rule& probe = engine.catalog().rule(all_rules.front());
  const ItemId item = probe.antecedent.front();
  const auto matches = kb->ContentQuery(0, {item}, setting).value();
  EXPECT_FALSE(matches.empty());
  for (RuleId id : matches) {
    const Rule& r = engine.catalog().rule(id);
    const Itemset items = Union(r.antecedent, r.consequent);
    EXPECT_TRUE(std::binary_search(items.begin(), items.end(), item));
  }
  // Every matching rule from plain mining appears here too.
  size_t expected = 0;
  for (RuleId id : all_rules) {
    const Rule& r = engine.catalog().rule(id);
    const Itemset items = Union(r.antecedent, r.consequent);
    if (std::binary_search(items.begin(), items.end(), item)) ++expected;
  }
  EXPECT_EQ(matches.size(), expected);
}

TEST(TaraEngineTest, ContentViewGroupsResultByItem) {
  const EvolvingDatabase data = MakeEvolvingQuest(2, 37);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();
  const ParameterSetting setting{0.02, 0.2};
  const auto view = kb->ContentView(0, setting).value();
  const auto rules = kb->MineWindow(0, setting).value();
  // Every rule appears under each of its items.
  for (RuleId id : rules) {
    const Rule& r = engine.catalog().rule(id);
    for (ItemId item : r.antecedent) {
      const auto it =
          std::lower_bound(view.items.begin(), view.items.end(), item);
      ASSERT_TRUE(it != view.items.end() && *it == item);
      const auto item_rules = view.rules_of(it - view.items.begin());
      EXPECT_TRUE(
          std::binary_search(item_rules.begin(), item_rules.end(), id));
    }
  }
}

TEST(TaraEngineTest, RollUpCertainRulesAreTrulyValid) {
  const EvolvingDatabase data = MakeEvolvingQuest(3, 38);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();

  const ParameterSetting setting{0.02, 0.3};
  const WindowSet windows = kb->AllWindows();
  const auto rolled = kb->MineRolledUp(windows, setting).value();

  // "Certain" rules must pass an exact raw-scan check over the union.
  size_t begin = data.window(0).begin;
  size_t end = data.window(2).end;
  const uint64_t total = end - begin;
  for (RuleId id : rolled.certain) {
    const Rule& r = engine.catalog().rule(id);
    const Itemset whole = Union(r.antecedent, r.consequent);
    const uint64_t rule_count =
        data.database().CountContaining(whole, begin, end);
    const uint64_t ant_count =
        data.database().CountContaining(r.antecedent, begin, end);
    EXPECT_GE(static_cast<double>(rule_count) / total + 1e-9,
              setting.min_support);
    EXPECT_GE(static_cast<double>(rule_count) / ant_count + 1e-9,
              setting.min_confidence);
  }
  // And every truly-valid archived rule must appear in certain ∪ possible.
  std::set<RuleId> candidates(rolled.certain.begin(), rolled.certain.end());
  candidates.insert(rolled.possible.begin(), rolled.possible.end());
  const auto anywhere =
      kb->MineWindows(windows, ParameterSetting{0.02, 0.3}, MatchMode::kSingle)
          .value();
  for (RuleId id : anywhere) {
    const Rule& r = engine.catalog().rule(id);
    const Itemset whole = Union(r.antecedent, r.consequent);
    const uint64_t rule_count =
        data.database().CountContaining(whole, begin, end);
    const uint64_t ant_count =
        data.database().CountContaining(r.antecedent, begin, end);
    const bool valid =
        static_cast<double>(rule_count) / total + 1e-9 >=
            setting.min_support &&
        static_cast<double>(rule_count) / ant_count + 1e-9 >=
            setting.min_confidence;
    if (valid) {
      EXPECT_TRUE(candidates.count(id))
          << "valid rolled-up rule missing from certain ∪ possible";
    }
  }
}

TEST(TaraEngineTest, RollUpBoundsContainExactValues) {
  const EvolvingDatabase data = MakeEvolvingQuest(3, 39);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();

  const WindowSet windows = kb->AllWindows();
  const auto rules = kb->MineWindow(0, ParameterSetting{0.02, 0.2}).value();
  const size_t begin = data.window(0).begin;
  const size_t end = data.window(2).end;
  const uint64_t total = end - begin;
  for (RuleId id : rules) {
    const RollUpBound bound = kb->RollUpRule(id, windows).value();
    const Rule& r = engine.catalog().rule(id);
    const Itemset whole = Union(r.antecedent, r.consequent);
    const double support = static_cast<double>(data.database().CountContaining(
                               whole, begin, end)) /
                           total;
    const uint64_t ant =
        data.database().CountContaining(r.antecedent, begin, end);
    const double confidence =
        ant == 0 ? 0.0
                 : static_cast<double>(
                       data.database().CountContaining(whole, begin, end)) /
                       ant;
    EXPECT_LE(bound.support_lo, support + 1e-9);
    EXPECT_GE(bound.support_hi + 1e-9, support);
    EXPECT_LE(bound.confidence_lo, confidence + 1e-9);
    EXPECT_GE(bound.confidence_hi + 1e-9, confidence);
  }
}

TEST(TaraEngineTest, IncrementalAppendMatchesBulkBuild) {
  const EvolvingDatabase data = MakeEvolvingQuest(4, 40);

  TaraEngine bulk(EngineOptions());
  bulk.BuildAll(data);

  TaraEngine incremental(EngineOptions());
  for (WindowId w = 0; w < data.window_count(); ++w) {
    const WindowInfo& info = data.window(w);
    incremental.AppendWindow(data.database(), info.begin, info.end);
  }

  const ParameterSetting setting{0.02, 0.3};
  for (WindowId w = 0; w < data.window_count(); ++w) {
    EXPECT_EQ(
        AsRuleSet(bulk, bulk.Snapshot()->MineWindow(w, setting).value()),
        AsRuleSet(incremental,
                  incremental.Snapshot()->MineWindow(w, setting).value()));
  }
}

TEST(TaraEngineTest, BuildStatsCoverEveryWindowAndTask) {
  const EvolvingDatabase data = MakeEvolvingQuest(3, 41);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto kb = engine.Snapshot();
  ASSERT_EQ(kb->window_count(), 3u);
  for (WindowId w = 0; w < kb->window_count(); ++w) {
    const auto& stats = kb->segment(w).stats;
    EXPECT_GT(stats.itemset_count, 0u);
    EXPECT_GT(stats.rule_count, 0u);
    EXPECT_GT(kb->window_index(w).location_count(), 0u);
    EXPECT_GE(stats.total_seconds(), stats.itemset_seconds);
  }
}

TEST(TaraEngineTest, RejectsQueriesBelowTheFloorWithoutAborting) {
  const EvolvingDatabase data = MakeEvolvingQuest(1, 42);
  TaraEngine engine(EngineOptions());
  engine.BuildAll(data);
  const auto rejected = engine.Execute(
      QueryRequest::MineWindow(0, ParameterSetting{0.001, 0.2}));
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, QueryError::Code::kSupportBelowFloor);
  EXPECT_NE(rejected.error().message.find("generation floor"),
            std::string::npos);
  // The engine survives and keeps answering valid requests.
  EXPECT_TRUE(
      engine.Execute(QueryRequest::MineWindow(0, ParameterSetting{0.02, 0.2}))
          .has_value());
}

}  // namespace
}  // namespace tara
