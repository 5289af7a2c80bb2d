// Micro-benchmarks comparing the frequent-itemset miners on the same
// workload — the ablation behind choosing FP-Growth for TARA's offline
// phase while the H-Mine baseline pregenerates with H-Mine, plus the rule
// derivation stage on its own.
//
// BM_Window rows time FP-Growth and Eclat on one window of each shape the
// system mines: the repository benchmark's explore_cold read window and
// its ingest window, and the first window of the retail and webdocs
// figure datasets, each at its own floor and itemset cap. CI runs them
// with --benchmark_filter=BM_Window and checks two relative bars.

#include <benchmark/benchmark.h>

#include "bench/bench_datasets.h"
#include "datagen/quest_generator.h"
#include "mining/apriori.h"
#include "mining/eclat.h"
#include "mining/fp_growth.h"
#include "mining/h_mine.h"
#include "mining/rule_generation.h"

namespace tara {
namespace {

const TransactionDatabase& Workload() {
  static const TransactionDatabase* db = [] {
    QuestGenerator::Params params;
    params.num_transactions = 5000;
    params.num_items = 500;
    params.num_patterns = 200;
    params.avg_transaction_len = 10;
    params.seed = 7;
    return new TransactionDatabase(QuestGenerator(params).Generate());
  }();
  return *db;
}

FrequentItemsetMiner::Options MineOptions(double support) {
  FrequentItemsetMiner::Options options;
  options.min_count = MinCountForSupport(support, Workload().size());
  options.max_size = 5;
  return options;
}

template <typename Miner>
void BM_Miner(benchmark::State& state) {
  const Miner miner;
  const double support = static_cast<double>(state.range(0)) / 10000.0;
  const auto options = MineOptions(support);
  size_t itemsets = 0;
  for (auto _ : state) {
    const auto result =
        miner.Mine(Workload(), 0, Workload().size(), options);
    itemsets = result.size();
    benchmark::DoNotOptimize(result.data());
  }
  state.SetLabel("itemsets=" + std::to_string(itemsets));
}

BENCHMARK_TEMPLATE(BM_Miner, AprioriMiner)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Miner, FpGrowthMiner)->Arg(20)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Miner, HMineMiner)->Arg(20)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_Miner, EclatMiner)->Arg(20)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// One window to mine, with the floor and cap its system mines it at.
struct Window {
  TransactionDatabase db;
  double support = 0;
  uint32_t max_size = 0;
};

enum class Shape { kExplore, kIngest, kRetail, kWebdocs };

/// `transactions` of a Quest stream shaped like the repository
/// benchmark's inputs (300 items, 200 patterns of mean length 3).
TransactionDatabase BenchmarkQuest(uint32_t transactions, uint64_t stream) {
  QuestGenerator::Params params;
  params.num_transactions = transactions;
  params.num_items = 300;
  params.num_patterns = 200;
  params.avg_pattern_len = 3;
  params.seed = stream;
  return QuestGenerator(params).Generate();
}

/// The first window of a figure dataset, at the dataset's floor and cap.
Window FirstWindow(const bench::BenchDataset& dataset) {
  const WindowInfo& info = dataset.data.window(0);
  TransactionDatabase db;
  for (size_t i = info.begin; i < info.end; ++i) {
    const Transaction& t = dataset.data.database()[i];
    db.Append(t.time, t.items);
  }
  return Window{std::move(db), dataset.support_floor,
                dataset.max_itemset_size};
}

const Window& WindowOf(Shape shape) {
  // explore_cold reads 1,500-transaction windows mined at 0.01; every
  // workload appends 500-transaction windows mined at 0.02; both cap
  // itemsets at 4.
  static const Window explore{BenchmarkQuest(1500, 1), 0.01, 4};
  static const Window ingest{BenchmarkQuest(500, 2), 0.02, 4};
  static const Window retail = FirstWindow(bench::MakeRetail());
  static const Window webdocs = FirstWindow(bench::MakeWebdocs());
  switch (shape) {
    case Shape::kExplore: return explore;
    case Shape::kIngest: return ingest;
    case Shape::kRetail: return retail;
    case Shape::kWebdocs: return webdocs;
  }
  return explore;
}

const FpGrowthMiner kFpGrowth;
const EclatMiner kEclat;

void BM_Window(benchmark::State& state, const FrequentItemsetMiner* miner,
               Shape shape) {
  const Window& window = WindowOf(shape);
  FrequentItemsetMiner::Options options;
  options.min_count = MinCountForSupport(window.support, window.db.size());
  options.max_size = window.max_size;
  size_t itemsets = 0;
  for (auto _ : state) {
    const auto result = miner->Mine(window.db, 0, window.db.size(), options);
    itemsets = result.size();
    benchmark::DoNotOptimize(result.data());
  }
  state.SetLabel("itemsets=" + std::to_string(itemsets));
}

BENCHMARK_CAPTURE(BM_Window, fp_growth/explore, &kFpGrowth, Shape::kExplore)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Window, fp_growth/ingest, &kFpGrowth, Shape::kIngest)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Window, fp_growth/retail, &kFpGrowth, Shape::kRetail)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Window, fp_growth/webdocs, &kFpGrowth, Shape::kWebdocs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Window, eclat/explore, &kEclat, Shape::kExplore)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Window, eclat/ingest, &kEclat, Shape::kIngest)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Window, eclat/retail, &kEclat, Shape::kRetail)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Window, eclat/webdocs, &kEclat, Shape::kWebdocs)
    ->Unit(benchmark::kMillisecond);

void BM_RuleGeneration(benchmark::State& state) {
  const FpGrowthMiner miner;
  const auto options = MineOptions(static_cast<double>(state.range(0)) /
                                   10000.0);
  const auto frequent = miner.Mine(Workload(), 0, Workload().size(), options);
  size_t rules = 0;
  for (auto _ : state) {
    const auto result = GenerateRules(frequent, 0.1);
    rules = result.size();
    benchmark::DoNotOptimize(result.data());
  }
  state.SetLabel("rules=" + std::to_string(rules));
}
BENCHMARK(BM_RuleGeneration)->Arg(20)->Arg(100)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tara

BENCHMARK_MAIN();
