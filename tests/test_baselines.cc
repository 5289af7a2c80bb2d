#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "baselines/dctar.h"
#include "baselines/hmine_baseline.h"
#include "baselines/paras_baseline.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"

namespace tara {
namespace {

EvolvingDatabase MakeData(uint64_t seed) {
  QuestGenerator::Params params;
  params.num_transactions = 1200;
  params.num_items = 70;
  params.num_patterns = 35;
  params.avg_transaction_len = 8;
  params.seed = seed;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, 3);
}

using RuleSet = std::set<std::pair<Itemset, Itemset>>;

RuleSet ToSet(const std::vector<MinedRule>& rules) {
  RuleSet set;
  for (const MinedRule& r : rules) set.emplace(r.antecedent, r.consequent);
  return set;
}

RuleSet ToSet(const std::vector<Rule>& rules) {
  RuleSet set;
  for (const Rule& r : rules) set.emplace(r.antecedent, r.consequent);
  return set;
}

TEST(DctarTest, MinedRuleCountsMatchRawScans) {
  const EvolvingDatabase data = MakeData(50);
  const DctarBaseline dctar(&data, 5);
  const ParameterSetting setting{0.03, 0.3};
  const auto rules = dctar.MineWindow(1, setting);
  ASSERT_FALSE(rules.empty());
  const WindowInfo& info = data.window(1);
  for (const MinedRule& r : rules) {
    EXPECT_EQ(r.rule_count,
              data.database().CountContaining(
                  Union(r.antecedent, r.consequent), info.begin, info.end));
    EXPECT_GE(r.SupportOver(info.size()) + 1e-12, setting.min_support);
    EXPECT_GE(r.Confidence() + 1e-12, setting.min_confidence);
  }
}

TEST(HMineBaselineTest, OnlineMiningMatchesDctar) {
  const EvolvingDatabase data = MakeData(51);
  const DctarBaseline dctar(&data, 5);
  HMineBaseline hmine(0.01, 5);
  hmine.Build(data);

  for (WindowId w = 0; w < data.window_count(); ++w) {
    for (double supp : {0.02, 0.05}) {
      for (double conf : {0.2, 0.5}) {
        const ParameterSetting setting{supp, conf};
        EXPECT_EQ(ToSet(hmine.MineWindow(w, setting)),
                  ToSet(dctar.MineWindow(w, setting)))
            << "w=" << w << " supp=" << supp << " conf=" << conf;
      }
    }
  }
}

TEST(HMineBaselineTest, TrajectoriesMatchDctarForArchivedItemsets) {
  const EvolvingDatabase data = MakeData(52);
  const DctarBaseline dctar(&data, 5);
  HMineBaseline hmine(0.01, 5);
  hmine.Build(data);

  const ParameterSetting setting{0.04, 0.3};
  const std::vector<WindowId> horizon = {0, 1, 2};
  const auto rules = hmine.MineWindow(2, setting);
  for (const MinedRule& mined : rules) {
    const Rule rule{mined.antecedent, mined.consequent};
    for (WindowId w : horizon) {
      const TrajectoryPoint from_hmine = hmine.EvaluateRule(rule, w);
      const TrajectoryPoint from_raw = dctar.EvaluateRule(rule, w);
      if (from_hmine.present) {
        // Counts above the pregeneration floor are exact.
        EXPECT_DOUBLE_EQ(from_hmine.support, from_raw.support);
        EXPECT_DOUBLE_EQ(from_hmine.confidence, from_raw.confidence);
      } else {
        // Itemset below floor in w: H-Mine's store cannot see it; raw
        // support must indeed be below the floor.
        EXPECT_LT(from_raw.support, 0.01 + 1e-9);
      }
    }
  }
}

TEST(HMineBaselineTest, StoreSizesAreReported) {
  const EvolvingDatabase data = MakeData(53);
  HMineBaseline hmine(0.01, 5);
  const auto stats = hmine.Build(data);
  EXPECT_GT(stats.itemset_count, 0u);
  EXPECT_EQ(stats.itemset_count, hmine.StoredItemsetCount());
  EXPECT_GT(hmine.ApproximateBytes(), 0u);
  EXPECT_EQ(hmine.window_count(), 3u);
}

TEST(ParasBaselineTest, IndexedWindowMatchesDctar) {
  const EvolvingDatabase data = MakeData(54);
  const DctarBaseline dctar(&data, 5);
  ParasBaseline paras(0.01, 0.1, 5);
  const auto stats = paras.Build(&data);
  EXPECT_GT(stats.rule_count, 0u);
  EXPECT_EQ(paras.indexed_window(), 2u);

  for (double supp : {0.02, 0.05}) {
    const ParameterSetting setting{supp, 0.3};
    EXPECT_EQ(ToSet(paras.MineWindow(2, setting)),
              ToSet(dctar.MineWindow(2, setting)));
  }
}

TEST(ParasBaselineTest, OtherWindowsFallBackToScratchButStayCorrect) {
  const EvolvingDatabase data = MakeData(55);
  const DctarBaseline dctar(&data, 5);
  ParasBaseline paras(0.01, 0.1, 5);
  paras.Build(&data);
  const ParameterSetting setting{0.03, 0.3};
  EXPECT_EQ(ToSet(paras.MineWindow(0, setting)),
            ToSet(dctar.MineWindow(0, setting)));
}

TEST(ParasBaselineTest, RegionQueryOnIndexedWindowMatchesTara) {
  const EvolvingDatabase data = MakeData(56);
  ParasBaseline paras(0.01, 0.1, 5);
  paras.Build(&data);

  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 5;
  TaraEngine engine(options);
  engine.BuildAll(data);

  const ParameterSetting setting{0.04, 0.4};
  const RegionInfo from_paras = paras.RecommendRegion(setting);
  const RegionInfo from_tara =
      engine.Snapshot()->RecommendRegion(2, setting).value();
  EXPECT_DOUBLE_EQ(from_paras.support_lower, from_tara.support_lower);
  EXPECT_DOUBLE_EQ(from_paras.support_upper, from_tara.support_upper);
  EXPECT_EQ(from_paras.result_size, from_tara.result_size);
}

TEST(BaselineAgreementTest, AllFourSystemsProduceTheSameRulesets) {
  const EvolvingDatabase data = MakeData(57);
  const DctarBaseline dctar(&data, 5);
  HMineBaseline hmine(0.01, 5);
  hmine.Build(data);
  ParasBaseline paras(0.01, 0.1, 5);
  paras.Build(&data);
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 5;
  TaraEngine engine(options);
  engine.BuildAll(data);

  const WindowId w = data.window_count() - 1;
  const ParameterSetting setting{0.03, 0.25};

  const RuleSet truth = ToSet(dctar.MineWindow(w, setting));
  EXPECT_EQ(ToSet(hmine.MineWindow(w, setting)), truth);
  EXPECT_EQ(ToSet(paras.MineWindow(w, setting)), truth);
  RuleSet tara_set;
  for (RuleId id : engine.Snapshot()->MineWindow(w, setting).value()) {
    const Rule& r = engine.catalog().rule(id);
    tara_set.emplace(r.antecedent, r.consequent);
  }
  EXPECT_EQ(tara_set, truth);
}

}  // namespace
}  // namespace tara
