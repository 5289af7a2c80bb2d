// Parameterized ground-truth sweeps of the whole engine against scratch
// mining, across generator families (the Quest-based sweep lives in
// test_tara_engine.cc; this file covers the power-law retail/webdocs
// analogues and the FAERS reports, whose distributions stress different
// index shapes: long heads, long transactions, and bipartite item spaces).

#include <set>

#include <gtest/gtest.h>

#include "archive_feed.h"
#include "baselines/dctar.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "datagen/faers_generator.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

struct Workload {
  std::string name;
  EvolvingDatabase data;
  double floor_support;
  uint32_t max_size;
  std::vector<double> supports;
};

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "retail") {
    BasketGenerator::Params params = BasketGenerator::RetailPreset();
    params.num_transactions = 1500;
    params.num_items = 400;
    const BasketGenerator gen(params);
    for (uint32_t b = 0; b < 3; ++b) {
      w.data.AppendBatch(gen.GenerateBatch(b, b * 1500).transactions());
    }
    w.floor_support = 0.004;
    w.max_size = 4;
    w.supports = {0.004, 0.01, 0.03};
  } else if (name == "webdocs") {
    BasketGenerator::Params params = BasketGenerator::WebdocsPreset();
    params.num_transactions = 400;
    params.num_items = 3000;
    params.avg_len = 30;
    const BasketGenerator gen(params);
    for (uint32_t b = 0; b < 3; ++b) {
      w.data.AppendBatch(gen.GenerateBatch(b, b * 400).transactions());
    }
    w.floor_support = 0.05;
    w.max_size = 3;
    w.supports = {0.05, 0.1, 0.2};
  } else {  // faers
    FaersGenerator::Params params;
    params.reports_per_quarter = 1200;
    params.num_drugs = 60;
    params.num_adrs = 30;
    params.num_ddis = 4;
    params.seed = 5;
    const FaersGenerator gen(params);
    for (uint32_t q = 0; q < 3; ++q) {
      w.data.AppendBatch(gen.GenerateQuarter(q, q * 2000).transactions());
    }
    w.floor_support = 0.005;
    w.max_size = 4;
    w.supports = {0.005, 0.01, 0.02};
  }
  return w;
}

using RuleSet = std::set<std::pair<Itemset, Itemset>>;

class EnginePropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EnginePropertyTest, AllQueriesMatchScratchMiningEverywhere) {
  Workload w = MakeWorkload(GetParam());
  TaraEngine::Options options;
  options.min_support_floor = w.floor_support;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = w.max_size;
  TaraEngine engine(options);
  engine.BuildAll(w.data);
  const auto kb = engine.Snapshot();
  const DctarBaseline scratch(&w.data, w.max_size);

  for (WindowId window = 0; window < w.data.window_count(); ++window) {
    for (double support : w.supports) {
      for (double confidence : {0.1, 0.4, 0.7}) {
        const ParameterSetting setting{support, confidence};
        RuleSet from_index;
        for (RuleId id : kb->MineWindow(window, setting).value()) {
          const Rule& r = engine.catalog().rule(id);
          from_index.emplace(r.antecedent, r.consequent);
        }
        RuleSet from_scratch;
        for (const MinedRule& r : scratch.MineWindow(window, setting)) {
          from_scratch.emplace(r.antecedent, r.consequent);
        }
        EXPECT_EQ(from_index, from_scratch)
            << w.name << " window=" << window << " supp=" << support
            << " conf=" << confidence;
        // Region result size is consistent with the mining result.
        EXPECT_EQ(kb->RecommendRegion(window, setting).value().result_size,
                  from_index.size());
      }
    }
  }
}

TEST_P(EnginePropertyTest, ArchivedCountsMatchRawScans) {
  Workload w = MakeWorkload(GetParam());
  TaraEngine::Options options;
  options.min_support_floor = w.floor_support;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = w.max_size;
  TaraEngine engine(options);
  engine.BuildAll(w.data);

  const auto kb = engine.Snapshot();
  for (WindowId window = 0; window < w.data.window_count(); ++window) {
    const WindowInfo& info = w.data.window(window);
    for (const WindowIndex::Entry& e : kb->window_entries(window)) {
      const Rule& rule = engine.catalog().rule(e.rule);
      const Itemset whole = Union(rule.antecedent, rule.consequent);
      EXPECT_EQ(e.rule_count, w.data.database().CountContaining(
                                  whole, info.begin, info.end));
      EXPECT_EQ(e.antecedent_count,
                w.data.database().CountContaining(rule.antecedent,
                                                  info.begin, info.end));
      const auto archived = EntryAt(kb->archive(), e.rule, window);
      ASSERT_TRUE(archived.has_value());
      EXPECT_EQ(archived->rule_count, e.rule_count);
      EXPECT_EQ(archived->antecedent_count, e.antecedent_count);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EnginePropertyTest,
                         ::testing::Values("retail", "webdocs", "faers"));

}  // namespace
}  // namespace tara
