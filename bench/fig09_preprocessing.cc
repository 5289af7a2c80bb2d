// Reproduces Figure 9 (offline preprocessing time, TARA vs H-Mine, stacked
// by task) and prints Table 4 (the index-construction thresholds used).
//
// Expected shape (paper): frequent itemset generation dominates; TARA's
// extra tasks (rule derivation + archive + EPS index) add no more than
// ~20% over H-Mine's itemset-only preprocessing.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <vector>

#include "baselines/hmine_baseline.h"
#include "bench/bench_datasets.h"
#include "common/stopwatch.h"
#include "core/tara_engine.h"

namespace tara::bench {
namespace {

/// Every cell is the median of this many passes, each with a fresh engine
/// and a fresh H-Mine: one pass is a single sample, and on a shared host a
/// single sample of unchanged code moves by half.
constexpr int kPasses = 5;

double Median(std::vector<double> samples) {
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// The per-window columns of the table, in print order.
enum Column { kItemsets, kRules, kArchive, kEps, kTaraTotal, kHMine, kColumns };

void Run() {
  std::printf("=== Table 4: thresholds for indexes ===\n");
  std::printf("%-10s %12s %12s %10s\n", "dataset", "supp_floor", "conf_floor",
              "max_size");
  for (const BenchDataset& d : MakeAllDatasets()) {
    std::printf("%-10s %12.4f %12.2f %10u\n", d.name.c_str(), d.support_floor,
                d.confidence_floor, d.max_itemset_size);
  }

  std::printf("\n=== Figure 9: preprocessing time per window (seconds, "
              "median of %d passes) ===\n",
              kPasses);
  for (BenchDataset& d : MakeAllDatasets()) {
    const uint32_t windows = d.data.window_count();
    std::printf("\n--- dataset %s (%u windows, %zu tx) ---\n", d.name.c_str(),
                windows, d.data.database().size());

    TaraEngine::Options options;
    options.min_support_floor = d.support_floor;
    options.min_confidence_floor = d.confidence_floor;
    options.max_itemset_size = d.max_itemset_size;
    // cells[w][column] and the totals hold one sample per pass.
    std::vector<std::array<std::vector<double>, kColumns>> cells(windows);
    std::vector<double> tara_totals, hmine_totals, ratios, extra_shares;
    size_t itemsets = 0, rules = 0, catalog = 0, entries = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      TaraEngine engine(options);
      Stopwatch tara_total;
      engine.BuildAll(d.data);
      const std::shared_ptr<const KnowledgeBaseSnapshot> kb =
          engine.Snapshot();
      // A window's EPS slice is built by its first read: time that read.
      std::vector<double> eps_per_window;
      for (WindowId w = 0; w < windows; ++w) {
        Stopwatch timer;
        kb->window_index(w);
        eps_per_window.push_back(timer.ElapsedSeconds());
      }
      const double tara_seconds = tara_total.ElapsedSeconds();

      // H-Mine baseline preprocessing, timed per window.
      HMineBaseline hmine(d.support_floor, d.max_itemset_size);
      double hmine_seconds = 0;
      for (WindowId w = 0; w < windows; ++w) {
        const WindowInfo& info = d.data.window(w);
        Stopwatch timer;
        hmine.AppendWindow(d.data.database(), info.begin, info.end);
        const double seconds = timer.ElapsedSeconds();
        cells[w][kHMine].push_back(seconds);
        hmine_seconds += seconds;
      }

      double extra_sum = 0, itemset_sum = 0;
      itemsets = rules = 0;
      for (WindowId w = 0; w < windows; ++w) {
        const WindowBuildStats& s = kb->segment(w).stats;
        const double eps = eps_per_window[w];
        extra_sum += s.rule_seconds + s.archive_seconds + eps;
        itemset_sum += s.itemset_seconds;
        cells[w][kItemsets].push_back(s.itemset_seconds);
        cells[w][kRules].push_back(s.rule_seconds);
        cells[w][kArchive].push_back(s.archive_seconds);
        cells[w][kEps].push_back(eps);
        cells[w][kTaraTotal].push_back(s.total_seconds() + eps);
        itemsets += s.itemset_count;
        rules += s.rule_count;
      }
      tara_totals.push_back(tara_seconds);
      hmine_totals.push_back(hmine_seconds);
      ratios.push_back(hmine_seconds > 0 ? tara_seconds / hmine_seconds : 0);
      extra_shares.push_back(itemset_sum > 0 ? 100.0 * extra_sum / itemset_sum
                                             : 0);
      catalog = kb->catalog().size();
      entries = kb->archive().entry_count();
    }

    std::printf("%-8s %10s %10s %10s %10s %10s | %10s\n", "window",
                "itemsets", "rules", "archive", "eps-index", "TARA-total",
                "HMine");
    for (WindowId w = 0; w < windows; ++w) {
      std::printf("%-8u %10.3f %10.3f %10.3f %10.3f %10.3f | %10.3f\n", w,
                  Median(cells[w][kItemsets]), Median(cells[w][kRules]),
                  Median(cells[w][kArchive]), Median(cells[w][kEps]),
                  Median(cells[w][kTaraTotal]), Median(cells[w][kHMine]));
    }
    std::printf("%-8s %54.3f | %10.3f  (TARA/HMine = %.2fx, extra tasks = "
                "%.0f%% of itemset time)\n",
                "total", Median(tara_totals), Median(hmine_totals),
                Median(ratios), Median(extra_shares));
    std::printf("itemsets=%zu rules=%zu catalog=%zu archive_entries=%zu\n",
                itemsets, rules, catalog, entries);
  }
}

}  // namespace
}  // namespace tara::bench

int main() {
  tara::bench::Run();
  return 0;
}
