// Parameter-space exploration: walks the Evolving Parameter Space the way
// an analyst would — start from a guess, read the stable region, snap to
// the region boundary, diff against a neighboring region, and drill into
// rules about a specific item (Q3, Q2, Q5 of the paper).
//
//   $ ./examples/parameter_explorer

#include <cstdio>
#include <memory>
#include <vector>

#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "txdb/evolving_database.h"

using namespace tara;

int main() {
  QuestGenerator::Params gen_params;
  gen_params.num_transactions = 10000;
  gen_params.num_items = 300;
  gen_params.num_patterns = 120;
  gen_params.avg_transaction_len = 9;
  gen_params.seed = 4242;
  const TransactionDatabase db = QuestGenerator(gen_params).Generate();
  const EvolvingDatabase data = EvolvingDatabase::PartitionIntoBatches(db, 5);

  TaraEngine::Options options;
  options.min_support_floor = 0.005;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 5;
  options.build_content_index = true;  // enable Q5
  TaraEngine engine(options);
  engine.BuildAll(data);

  // Every query below runs on one pinned snapshot.
  const std::shared_ptr<const KnowledgeBaseSnapshot> kb = engine.Snapshot();
  const WindowId newest = engine.window_count() - 1;
  std::printf("knowledge base ready: %u windows, %zu rules interned\n\n",
              engine.window_count(), engine.catalog().size());

  // An analyst's first guess.
  ParameterSetting guess{0.013, 0.37};
  std::printf("guess (minsupp=%.3f, minconf=%.2f)\n", guess.min_support,
              guess.min_confidence);

  // Q3: what region does the guess land in, and what would change it?
  for (int step = 0; step < 4; ++step) {
    const RegionInfo region = kb->RecommendRegion(newest, guess).value();
    std::printf("  region: supp (%.4f, %.4f], conf (%.3f, %.3f] -> %zu "
                "rules\n",
                region.support_lower, region.support_upper,
                region.confidence_lower, region.confidence_upper,
                region.result_size);
    // Recommendation: the region's upper corner is the tightest equivalent
    // setting; stepping just past the lower support boundary admits the
    // next batch of rules.
    if (region.support_lower <= options.min_support_floor) break;
    ParameterSetting next = guess;
    next.min_support = region.support_lower;
    const RegionInfo next_region = kb->RecommendRegion(newest, next).value();
    std::printf("  -> relaxing support to %.4f would grow the result to %zu "
                "rules\n",
                next.min_support, next_region.result_size);
    if (next_region.result_size > 60) {
      std::printf("  (stopping: result set large enough)\n");
      break;
    }
    guess = next;
  }

  // Q2: what exactly changed between the last two settings?
  const ParameterSetting chosen = guess;
  const ParameterSetting looser{chosen.min_support * 0.7,
                                chosen.min_confidence};
  const WindowSet windows = WindowSet::Single(newest, engine.window_count());
  const auto diff =
      kb->CompareSettings(looser, chosen, windows, MatchMode::kExact).value();
  std::printf("\nQ2 diff (supp %.4f vs %.4f): %zu rules only at the looser "
              "setting, e.g.:\n",
              looser.min_support, chosen.min_support,
              diff.only_first.size());
  for (size_t i = 0; i < diff.only_first.size() && i < 3; ++i) {
    std::printf("  %s\n",
                engine.catalog().FormatRule(diff.only_first[i]).c_str());
  }

  // Q5: content-based exploration — rules about one specific item.
  const std::vector<RuleId> all = kb->MineWindow(newest, chosen).value();
  if (!all.empty()) {
    const ItemId focus = engine.catalog().rule(all[0]).antecedent[0];
    const std::vector<RuleId> about =
        kb->ContentQuery(newest, {focus}, chosen).value();
    std::printf("\nQ5: %zu of the %zu current rules involve item %u:\n",
                about.size(), all.size(), focus);
    for (size_t i = 0; i < about.size() && i < 4; ++i) {
      std::printf("  %s\n", engine.catalog().FormatRule(about[i]).c_str());
    }
  }
  return 0;
}
