// Quickstart: build a TARA knowledge base over a small evolving dataset
// and run the core interactive operations — mining, trajectories, region
// recommendation, and ruleset comparison.
//
//   $ ./examples/quickstart

#include <cstdio>
#include <memory>
#include <variant>

#include "core/query_request.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "txdb/evolving_database.h"

using namespace tara;

int main() {
  // 1. Generate an evolving dataset: 4 windows of market-basket data.
  QuestGenerator::Params gen_params;
  gen_params.num_transactions = 8000;
  gen_params.num_items = 200;
  gen_params.num_patterns = 80;
  gen_params.avg_transaction_len = 8;
  gen_params.seed = 7;
  const TransactionDatabase db = QuestGenerator(gen_params).Generate();
  const EvolvingDatabase data = EvolvingDatabase::PartitionIntoBatches(db, 4);

  // 2. Offline phase: one pass over the data builds the knowledge base.
  TaraEngine::Options options;
  options.min_support_floor = 0.01;  // archive floor — queries go above it
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 5;
  TaraEngine engine(options);
  engine.BuildAll(data);
  // Typed reads and queries run on a pinned snapshot — one immutable
  // generation of the knowledge base.
  const std::shared_ptr<const KnowledgeBaseSnapshot> kb = engine.Snapshot();
  std::printf("built knowledge base: %u windows, %zu distinct rules, "
              "%zu archived entries\n",
              kb->window_count(), kb->catalog().size(),
              kb->archive().entry_count());

  // 3. Online: mine the newest window.
  const ParameterSetting setting{0.02, 0.5};
  const WindowId newest = kb->window_count() - 1;
  // Queries return Expected<..., QueryError>; .value() asserts success,
  // which is the right call for a demo with known-good parameters.
  const std::vector<RuleId> rules = kb->MineWindow(newest, setting).value();
  std::printf("\nQ: rules with support >= %.2f, confidence >= %.2f in the "
              "newest window: %zu\n",
              setting.min_support, setting.min_confidence, rules.size());

  // 4. Trajectory of the first few rules across all windows. WindowSet
  // validates the window list once, at construction.
  const WindowSet horizon = kb->AllWindows();
  std::printf("\ntrajectories (support/confidence per window):\n");
  for (size_t i = 0; i < rules.size() && i < 3; ++i) {
    std::printf("  %-28s", kb->catalog().FormatRule(rules[i]).c_str());
    for (const TrajectoryPoint& p :
         BuildTrajectory(kb->archive(), rules[i], horizon.ids())) {
      if (p.present) {
        std::printf("  [%.3f/%.2f]", p.support, p.confidence);
      } else {
        std::printf("  [   --    ]");
      }
    }
    const TrajectoryMeasures m = kb->RuleMeasures(rules[i], horizon).value();
    std::printf("  coverage=%.2f stability=%.2f\n", m.coverage, m.stability);
  }

  // 5. Parameter recommendation: the stable region around the setting.
  // Execute(QueryRequest) is the engine's one query entry point — the
  // instrumented, cached path a server uses — answering like the snapshot.
  const RegionInfo region = std::get<RegionInfo>(
      engine.Execute(QueryRequest::Region(newest, setting)).value());
  std::printf("\nstable region around (%.3f, %.2f): support (%.4f, %.4f], "
              "confidence (%.3f, %.3f], %zu rules — any setting inside "
              "gives the same answer\n",
              setting.min_support, setting.min_confidence,
              region.support_lower, region.support_upper,
              region.confidence_lower, region.confidence_upper,
              region.result_size);

  // 6. Compare two settings across all windows.
  const auto diff = kb->CompareSettings(ParameterSetting{0.02, 0.5},
                                        ParameterSetting{0.04, 0.5}, horizon,
                                        MatchMode::kExact)
                        .value();
  std::printf("\ntightening support 0.02 -> 0.04 over all windows drops %zu "
              "rules (gains %zu)\n",
              diff.only_first.size(), diff.only_second.size());
  return 0;
}
