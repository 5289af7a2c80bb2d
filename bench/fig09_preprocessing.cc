// Reproduces Figure 9 (offline preprocessing time, TARA vs H-Mine, stacked
// by task) and prints Table 4 (the index-construction thresholds used).
//
// Expected shape (paper): frequent itemset generation dominates; TARA's
// extra tasks (rule derivation + archive + EPS index) add no more than
// ~20% over H-Mine's itemset-only preprocessing.

#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/hmine_baseline.h"
#include "bench/bench_datasets.h"
#include "common/stopwatch.h"
#include "core/tara_engine.h"

namespace tara::bench {
namespace {

void Run() {
  std::printf("=== Table 4: thresholds for indexes ===\n");
  std::printf("%-10s %12s %12s %10s\n", "dataset", "supp_floor", "conf_floor",
              "max_size");
  for (const BenchDataset& d : MakeAllDatasets()) {
    std::printf("%-10s %12.4f %12.2f %10u\n", d.name.c_str(), d.support_floor,
                d.confidence_floor, d.max_itemset_size);
  }

  std::printf("\n=== Figure 9: preprocessing time per window (seconds) ===\n");
  for (BenchDataset& d : MakeAllDatasets()) {
    std::printf("\n--- dataset %s (%u windows, %zu tx) ---\n", d.name.c_str(),
                d.data.window_count(), d.data.database().size());

    TaraEngine::Options options;
    options.min_support_floor = d.support_floor;
    options.min_confidence_floor = d.confidence_floor;
    options.max_itemset_size = d.max_itemset_size;
    TaraEngine engine(options);
    Stopwatch tara_total;
    engine.BuildAll(d.data);
    const std::shared_ptr<const KnowledgeBaseSnapshot> kb = engine.Snapshot();
    // A window's EPS slice is built by its first read: time that read.
    std::vector<double> eps_per_window;
    for (WindowId w = 0; w < kb->window_count(); ++w) {
      Stopwatch timer;
      kb->window_index(w);
      eps_per_window.push_back(timer.ElapsedSeconds());
    }
    const double tara_seconds = tara_total.ElapsedSeconds();

    // H-Mine baseline preprocessing, timed per window.
    HMineBaseline hmine(d.support_floor, d.max_itemset_size);
    std::vector<double> hmine_per_window;
    double hmine_seconds = 0;
    for (WindowId w = 0; w < d.data.window_count(); ++w) {
      const WindowInfo& info = d.data.window(w);
      Stopwatch timer;
      hmine.AppendWindow(d.data.database(), info.begin, info.end);
      hmine_per_window.push_back(timer.ElapsedSeconds());
      hmine_seconds += hmine_per_window.back();
    }

    std::printf("%-8s %10s %10s %10s %10s %10s | %10s\n", "window",
                "itemsets", "rules", "archive", "eps-index", "TARA-total",
                "HMine");
    double extra_sum = 0, itemset_sum = 0;
    for (WindowId w = 0; w < kb->window_count(); ++w) {
      const WindowBuildStats& s = kb->segment(w).stats;
      const double eps = eps_per_window[w];
      extra_sum += s.rule_seconds + s.archive_seconds + eps;
      itemset_sum += s.itemset_seconds;
      std::printf("%-8u %10.3f %10.3f %10.3f %10.3f %10.3f | %10.3f\n",
                  s.window, s.itemset_seconds, s.rule_seconds,
                  s.archive_seconds, eps, s.total_seconds() + eps,
                  hmine_per_window[s.window]);
    }
    std::printf("%-8s %54.3f | %10.3f  (TARA/HMine = %.2fx, extra tasks = "
                "%.0f%% of itemset time)\n",
                "total", tara_seconds, hmine_seconds,
                hmine_seconds > 0 ? tara_seconds / hmine_seconds : 0.0,
                itemset_sum > 0 ? 100.0 * extra_sum / itemset_sum : 0.0);
    size_t itemsets = 0, rules = 0;
    for (WindowId w = 0; w < kb->window_count(); ++w) {
      const WindowBuildStats& s = kb->segment(w).stats;
      itemsets += s.itemset_count;
      rules += s.rule_count;
    }
    std::printf("itemsets=%zu rules=%zu catalog=%zu archive_entries=%zu\n",
                itemsets, rules, kb->catalog().size(),
                kb->archive().entry_count());
  }
}

}  // namespace
}  // namespace tara::bench

int main() {
  tara::bench::Run();
  return 0;
}
