// Retail trend analysis: the paper's motivating scenario — a retailer's
// evolving transaction log where product popularity drifts between batches.
// Finds the most stable rules, the emerging rules (absent early, strong
// late), and the fading ones, using trajectory measures over the TAR
// Archive; then rolls windows up into a "month" with exact-or-bounded
// measures.
//
//   $ ./examples/retail_trends

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/exploration.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "txdb/evolving_database.h"

using namespace tara;

namespace {

// Weekend-bundle items injected into alternating weeks only.
constexpr ItemId kGrillItem = 900;
constexpr ItemId kCharcoalItem = 901;

}  // namespace

int main() {
  // Six "weeks" of drifting retail baskets, plus a seasonal bundle (grill +
  // charcoal) that sells only every other week.
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = 4000;
  params.num_items = 800;
  params.drift_rate = 0.004;  // visible drift across six windows
  const BasketGenerator gen(params);
  Rng seasonal_rng(99);
  EvolvingDatabase data;
  for (uint32_t week = 0; week < 6; ++week) {
    TransactionDatabase batch =
        gen.GenerateBatch(week, week * params.num_transactions);
    std::vector<Transaction> transactions = batch.transactions();
    if (week % 2 == 0) {
      for (Transaction& t : transactions) {
        if (seasonal_rng.NextBool(0.05)) {
          t.items.push_back(kGrillItem);
          t.items.push_back(kCharcoalItem);
          Canonicalize(&t.items);
        }
      }
    }
    data.AppendBatch(transactions);
  }

  TaraEngine::Options options;
  options.min_support_floor = 0.004;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  TaraEngine engine(options);
  engine.BuildAll(data);

  // Every query below runs on one pinned snapshot.
  const std::shared_ptr<const KnowledgeBaseSnapshot> kb = engine.Snapshot();
  const WindowSet all_weeks = kb->AllWindows();
  const ParameterSetting setting{0.006, 0.3};

  // Rules valid in at least one week, with their evolving measures.
  const std::vector<RuleId> rules =
      kb->MineWindows(all_weeks, setting, MatchMode::kSingle).value();
  struct Scored {
    RuleId rule;
    TrajectoryMeasures m;
  };
  std::vector<Scored> scored;
  for (RuleId r : rules) {
    scored.push_back(Scored{r, kb->RuleMeasures(r, all_weeks).value()});
  }
  std::printf("%zu rules were significant in at least one week\n",
              scored.size());

  auto print_top = [&](const char* title, auto&& better) {
    std::sort(scored.begin(), scored.end(), better);
    std::printf("\n%s\n", title);
    for (size_t i = 0; i < scored.size() && i < 5; ++i) {
      std::printf("  %-24s coverage=%.2f stability=%.2f mean_supp=%.4f\n",
                  engine.catalog().FormatRule(scored[i].rule).c_str(),
                  scored[i].m.coverage, scored[i].m.stability,
                  scored[i].m.mean_support);
    }
  };

  print_top("most stable rules (every week, steady support):",
            [](const Scored& a, const Scored& b) {
              if (a.m.coverage != b.m.coverage) {
                return a.m.coverage > b.m.coverage;
              }
              return a.m.stability > b.m.stability;
            });

  // Emerging: strong in the last week, absent in the first weeks.
  auto emergence = [&](const Scored& s) {
    const Trajectory t = BuildTrajectory(kb->archive(), s.rule, all_weeks.ids());
    const double early = t[0].present ? t[0].support : 0.0;
    const double late = t.back().present ? t.back().support : 0.0;
    return late - early;
  };
  print_top("most emerging rules (gaining support over the six weeks):",
            [&](const Scored& a, const Scored& b) {
              return emergence(a) > emergence(b);
            });
  print_top("most fading rules (losing support):",
            [&](const Scored& a, const Scored& b) {
              return emergence(a) < emergence(b);
            });

  // Periodic rules: the exploration service spots the alternating-week
  // bundle.
  ExplorationService service(&engine);
  const auto periodic = service.TopPeriodic(all_weeks, setting, 3, 3).value();
  std::printf("\nperiodic rules (cycle detected over the six weeks):\n");
  for (const RuleInsight& insight : periodic) {
    std::printf("  %-24s period=%u phase=%u strength=%.2f\n",
                engine.catalog().FormatRule(insight.rule).c_str(),
                insight.periodicity.period, insight.periodicity.phase,
                insight.periodicity.strength);
  }

  // Roll-up: treat weeks 0-3 as a "month" and mine it with bounds.
  const WindowSet month = WindowSet::Range(0, 4, engine.window_count());
  const auto rolled =
      kb->MineRolledUp(month, ParameterSetting{0.01, 0.3}).value();
  std::printf("\nrolled-up month (weeks 1-4): %zu rules certainly valid, "
              "%zu possibly valid (depend on sub-floor windows)\n",
              rolled.certain.size(), rolled.possible.size());
  if (!rolled.certain.empty()) {
    const RollUpBound bound = kb->RollUpRule(rolled.certain[0], month).value();
    std::printf("  e.g. %s: support in [%.4f, %.4f], confidence in "
                "[%.3f, %.3f]\n",
                engine.catalog().FormatRule(rolled.certain[0]).c_str(),
                bound.support_lo, bound.support_hi, bound.confidence_lo,
                bound.confidence_hi);
  }
  return 0;
}
