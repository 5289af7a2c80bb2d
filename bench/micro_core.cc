// Micro-benchmarks (google-benchmark) for the core data structures —
// ablation-level measurements behind the figure harnesses: archive
// encode/decode throughput, append cost against history, the
// stable-region build, stable-region query cost versus result size, the
// content view, roll-up mining over the trailing windows of a long
// history, tidset counting, contrast scoring, and the observability
// layer's overhead on the online query path (null sink versus live
// registry).

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/query_request.h"
#include "core/stable_region_index.h"
#include "core/tar_archive.h"
#include "core/tara_engine.h"
#include "datagen/faers_generator.h"
#include "datagen/quest_generator.h"
#include "maras/contrast.h"
#include "maras/tidset_index.h"
#include "mining/frequent_itemset.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

/// One Appended batch of 20 windows of 1,000 rules: the two-pass chunk
/// build every commit runs.
void BM_ArchiveAppend(benchmark::State& state) {
  constexpr int kWindows = 20;
  Rng rng(1);
  std::vector<std::vector<WindowIndex::Entry>> entries(kWindows);
  std::vector<TarArchive::Window> batch;
  for (int w = 0; w < kWindows; ++w) {
    for (RuleId r = 0; r < 1000; ++r) {
      const uint64_t count = 10 + rng.NextBounded(100);
      entries[w].push_back({r, count, count + rng.NextBounded(100)});
    }
    batch.push_back({10000, 10, 0.0, entries[w]});
  }
  for (auto _ : state) {
    const TarArchive archive = TarArchive().Appended(batch);
    benchmark::DoNotOptimize(archive.payload_bytes());
  }
  state.SetItemsProcessed(state.iterations() * kWindows * 1000);
}
BENCHMARK(BM_ArchiveAppend);

void BM_ArchiveVisitEntries(benchmark::State& state) {
  const int windows = static_cast<int>(state.range(0));
  Rng rng(2);
  std::vector<WindowIndex::Entry> entries;
  for (int w = 0; w < windows; ++w) {
    const uint64_t count = 50 + rng.NextBounded(20);
    entries.push_back({0, count, count * 2});
  }
  std::vector<TarArchive::Window> batch;
  for (int w = 0; w < windows; ++w) {
    batch.push_back({10000, 10, 0.0, std::span(&entries[w], 1)});
  }
  const TarArchive archive = TarArchive().Appended(batch);
  for (auto _ : state) {
    uint64_t sum = 0;
    archive.VisitEntries(0, [&](const ArchiveEntry& e) {
      sum += e.rule_count + e.antecedent_count;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * windows);
}
BENCHMARK(BM_ArchiveVisitEntries)->Arg(5)->Arg(50)->Arg(500);

std::vector<WindowIndex::Entry> IndexEntries(size_t rules,
                                             RuleCatalog* catalog) {
  Rng rng(3);
  std::vector<WindowIndex::Entry> entries;
  for (size_t i = 0; i < rules; ++i) {
    const RuleId id = catalog->Intern(
        Rule{{static_cast<ItemId>(i)}, {static_cast<ItemId>(100000 + i)}});
    const uint64_t count = 10 + rng.NextBounded(1000);
    entries.push_back(
        WindowIndex::Entry{id, count, count + rng.NextBounded(1000)});
  }
  return entries;
}

WindowIndex BuildIndex(size_t rules, RuleCatalog* catalog) {
  WindowIndex index;
  index.Build(IndexEntries(rules, catalog), 100000, false, *catalog);
  return index;
}

void BM_StableRegionCollect(benchmark::State& state) {
  RuleCatalog catalog;
  const WindowIndex index = BuildIndex(state.range(0), &catalog);
  std::vector<RuleId> out;
  for (auto _ : state) {
    out.clear();
    index.CollectRules(0.001, 0.3, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel("result=" + std::to_string(out.size()));
}
BENCHMARK(BM_StableRegionCollect)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_StableRegionLocate(benchmark::State& state) {
  RuleCatalog catalog;
  const WindowIndex index = BuildIndex(10000, &catalog);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Locate(0.003, 0.42));
  }
}
BENCHMARK(BM_StableRegionLocate);

// One window of explore_cold's read knowledge base: a Quest window of
// 1,500 transactions over 300 items and 200 patterns of mean length 3,
// mined at floors 0.01/0.2 with itemsets capped at 4, content index on.
const KnowledgeBaseSnapshot& ExploreWindow() {
  static const auto* snapshot = [] {
    QuestGenerator::Params params;
    params.num_transactions = 1500;
    params.num_items = 300;
    params.num_patterns = 200;
    params.avg_pattern_len = 3;
    const TransactionDatabase db = QuestGenerator(params).Generate();
    TaraEngine::Options options;
    options.min_support_floor = 0.01;
    options.min_confidence_floor = 0.2;
    options.max_itemset_size = 4;
    options.build_content_index = true;
    auto* engine = new TaraEngine(options);
    engine->AppendWindow(db, 0, db.size());
    return new std::shared_ptr<const KnowledgeBaseSnapshot>(
        engine->Snapshot());
  }();
  return **snapshot;
}

// The EPS build of that window, the cost a mapped open pays per window its
// first query materializes: content index off (0) and on (1).
void BM_StableRegionBuild(benchmark::State& state) {
  const KnowledgeBaseSnapshot& kb = ExploreWindow();
  const WindowSegment& segment = kb.segment(0);
  const bool content = state.range(0) != 0;
  size_t bytes = 0;
  for (auto _ : state) {
    WindowIndex index;
    index.Build(segment.entries, segment.total_transactions, content,
                kb.catalog());
    bytes = index.ApproximateBytes();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * segment.entries.size());
  state.SetLabel("entries=" + std::to_string(segment.entries.size()) +
                 " bytes=" + std::to_string(bytes));
}
BENCHMARK(BM_StableRegionBuild)->Arg(0)->Arg(1);

// One synthetic window of 20k entries: a large single-window commit's EPS
// build, which runs on the committing thread whatever the pool.
void BM_StableRegionBuildLarge(benchmark::State& state) {
  RuleCatalog catalog;
  const std::vector<WindowIndex::Entry> entries =
      IndexEntries(state.range(0), &catalog);
  for (auto _ : state) {
    WindowIndex index;
    index.Build(entries, 100000, false, catalog);
    benchmark::DoNotOptimize(index.location_count());
  }
  state.SetItemsProcessed(state.iterations() * entries.size());
}
BENCHMARK(BM_StableRegionBuildLarge)->Arg(20000);

// Q5's merged item→rules view of the explore_cold window at a mid
// setting.
void BM_ContentView(benchmark::State& state) {
  const KnowledgeBaseSnapshot& kb = ExploreWindow();
  const ParameterSetting setting{0.02, 0.4};
  size_t items = 0;
  for (auto _ : state) {
    const ContentViewResult view = kb.ContentView(0, setting).value();
    items = view.items.size();
    benchmark::DoNotOptimize(items);
  }
  state.SetLabel("items=" + std::to_string(items) + " rules=" +
                 std::to_string(kb.window_index(0).CountRules(
                     setting.min_support, setting.min_confidence)));
}
BENCHMARK(BM_ContentView);

/// The append harness's window stream: 600 rules per window, 400 present
/// in every window and 200 drawn from a 20k-rule pool, so the catalog
/// (about 20k rules after a few hundred windows) far outgrows what one
/// window holds.
class ChurnyWindows {
 public:
  explicit ChurnyWindows(uint64_t seed) : rng_(seed) {}

  /// The next window's rules.
  const std::vector<TaraEngine::PrecomputedRule>& Next() {
    rules_.clear();
    for (uint32_t r = 0; r < kSteady; ++r) Add(r);
    while (rules_.size() < kSteady + kDrawn) {
      const auto r = static_cast<uint32_t>(rng_.NextBounded(kPool));
      if (drawn_in_[r] == window_) continue;
      drawn_in_[r] = window_;
      Add(kSteady + r);
    }
    ++window_;
    return rules_;
  }

 private:
  static constexpr uint32_t kSteady = 400;
  static constexpr uint32_t kDrawn = 200;
  static constexpr uint32_t kPool = 20000;

  void Add(uint32_t r) {
    TaraEngine::PrecomputedRule p;
    p.rule =
        Rule{{static_cast<ItemId>(r)}, {static_cast<ItemId>(100000 + r)}};
    p.rule_count = 10 + rng_.NextBounded(100);
    p.antecedent_count = p.rule_count + rng_.NextBounded(2 * p.rule_count);
    rules_.push_back(p);
  }

  Rng rng_;
  uint32_t window_ = 0;
  std::vector<uint32_t> drawn_in_ = std::vector<uint32_t>(kPool, UINT32_MAX);
  std::vector<TaraEngine::PrecomputedRule> rules_;
};

// Roll-up mining over the trailing windows of a long, churny history: 512
// windows of the append harness's stream. A request should cost its
// windows' entries, not the catalog.
const KnowledgeBaseSnapshot& ChurnyKnowledgeBase() {
  static const auto* snapshot = [] {
    TaraEngine::Options options;
    options.min_support_floor = 0.02;
    options.min_confidence_floor = 0.3;
    TaraEngine engine(options);
    ChurnyWindows stream(29);
    for (uint32_t w = 0; w < 512; ++w) {
      engine.AppendPrecomputedWindow(500, stream.Next());
    }
    return new std::shared_ptr<const KnowledgeBaseSnapshot>(
        engine.Snapshot());
  }();
  return **snapshot;
}

// Append cost against history, on the append harness's shape (floors
// 0.02/0.3, 500 transactions a window, content index on): the mean of 8
// AppendPrecomputedWindow calls after `history` windows. Commits share
// every filled archive chunk, so the 2,048-window append should cost
// about what the 24-window one does; CI holds it under 2x.
void BM_AppendAfterHistory(benchmark::State& state) {
  const auto history = static_cast<uint32_t>(state.range(0));
  constexpr int kTimed = 8;
  for (auto _ : state) {
    TaraEngine::Options options;
    options.min_support_floor = 0.02;
    options.min_confidence_floor = 0.3;
    options.build_content_index = true;
    TaraEngine engine(options);
    ChurnyWindows stream(31);
    for (uint32_t w = 0; w < history; ++w) {
      engine.AppendPrecomputedWindow(500, stream.Next());
    }
    std::vector<std::vector<TaraEngine::PrecomputedRule>> next;
    for (int i = 0; i < kTimed; ++i) next.push_back(stream.Next());
    const auto start = std::chrono::steady_clock::now();
    for (const auto& rules : next) engine.AppendPrecomputedWindow(500, rules);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    state.SetIterationTime(elapsed.count() / kTimed);
  }
}
BENCHMARK(BM_AppendAfterHistory)
    ->Arg(24)
    ->Arg(2048)
    ->Iterations(1)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_MineRolledUp(benchmark::State& state) {
  const KnowledgeBaseSnapshot& kb = ChurnyKnowledgeBase();
  const uint32_t count = kb.window_count();
  const WindowSet windows = WindowSet::Range(
      count - static_cast<uint32_t>(state.range(0)), count, count);
  const ParameterSetting setting{0.05, 0.4};
  size_t answered = 0;
  for (auto _ : state) {
    const RolledUpRules rules = kb.MineRolledUp(windows, setting).value();
    answered = rules.certain.size() + rules.possible.size();
    benchmark::DoNotOptimize(rules.certain.data());
    benchmark::DoNotOptimize(rules.possible.data());
  }
  state.SetLabel("answer=" + std::to_string(answered) +
                 " catalog=" + std::to_string(kb.rule_count()));
}
BENCHMARK(BM_MineRolledUp)->Arg(2)->Arg(8)->Arg(24);

void BM_TidsetCount(benchmark::State& state) {
  FaersGenerator::Params params;
  params.reports_per_quarter = static_cast<uint32_t>(state.range(0));
  const FaersGenerator gen(params);
  const TransactionDatabase db = gen.GenerateQuarter(0, 0);
  const TidsetIndex index(db, 0, db.size());
  const Itemset query = {gen.ground_truth()[0].drugs[0],
                         gen.ground_truth()[0].drugs[1],
                         gen.ground_truth()[0].adr};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Count(query));
  }
}
BENCHMARK(BM_TidsetCount)->Arg(2000)->Arg(16000);

// --- Observability overhead: the same online queries against an engine
// with metrics disabled (Options::metrics == nullptr, the null sink) and
// one recording into a live registry. The acceptance bar is <3% on the
// hot path; compare the paired benchmarks below.

const EvolvingDatabase& ObsData() {
  static const EvolvingDatabase* data = [] {
    QuestGenerator::Params params;
    params.num_transactions = 8000;
    params.num_items = 150;
    params.num_patterns = 60;
    params.avg_transaction_len = 8;
    params.seed = 23;
    const TransactionDatabase db = QuestGenerator(params).Generate();
    return new EvolvingDatabase(EvolvingDatabase::PartitionIntoBatches(db, 4));
  }();
  return *data;
}

TaraEngine& ObsEngine(obs::MetricsRegistry* registry) {
  auto make = [registry] {
    TaraEngine::Options options;
    options.min_support_floor = 0.01;
    options.min_confidence_floor = 0.1;
    options.max_itemset_size = 4;
    options.metrics = registry;
    auto* engine = new TaraEngine(options);
    engine->BuildAll(ObsData());
    return engine;
  };
  if (registry == nullptr) {
    static TaraEngine* null_sink = make();
    return *null_sink;
  }
  static TaraEngine* recording = make();
  return *recording;
}

obs::MetricsRegistry& ObsRegistry() {
  static obs::MetricsRegistry* registry = new obs::MetricsRegistry;
  return *registry;
}

void MineWindowLoop(benchmark::State& state, TaraEngine& engine) {
  const QueryRequest request = QueryRequest::MineWindow(
      engine.window_count() - 1, ParameterSetting{0.02, 0.3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(request).value());
  }
}

void BM_MineWindowNullSink(benchmark::State& state) {
  MineWindowLoop(state, ObsEngine(nullptr));
}
BENCHMARK(BM_MineWindowNullSink);

void BM_MineWindowRegistry(benchmark::State& state) {
  MineWindowLoop(state, ObsEngine(&ObsRegistry()));
}
BENCHMARK(BM_MineWindowRegistry);

// A region query is the cheapest (a point-locate on the EPS), so it is
// the most sensitive to per-query span overhead.
void RecommendRegionLoop(benchmark::State& state, TaraEngine& engine) {
  const QueryRequest request = QueryRequest::Region(
      engine.window_count() - 1, ParameterSetting{0.02, 0.3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Execute(request).value());
  }
}

void BM_RecommendRegionNullSink(benchmark::State& state) {
  RecommendRegionLoop(state, ObsEngine(nullptr));
}
BENCHMARK(BM_RecommendRegionNullSink);

void BM_RecommendRegionRegistry(benchmark::State& state) {
  RecommendRegionLoop(state, ObsEngine(&ObsRegistry()));
}
BENCHMARK(BM_RecommendRegionRegistry);

// Raw instrument costs, for attributing any query-path delta.
void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram histogram;
  uint64_t value = 1;
  for (auto _ : state) {
    histogram.Record(value);
    value = value * 2654435761u % (1u << 20);
  }
  benchmark::DoNotOptimize(histogram.Count());
}
BENCHMARK(BM_HistogramRecord);

void BM_CounterIncrement(benchmark::State& state) {
  obs::Counter counter;
  for (auto _ : state) {
    counter.Increment();
  }
  benchmark::DoNotOptimize(counter.Value());
}
BENCHMARK(BM_CounterIncrement);

void BM_ContrastScore(benchmark::State& state) {
  FaersGenerator gen(FaersGenerator::Params{});
  const TransactionDatabase db = gen.GenerateQuarter(0, 0);
  const TidsetIndex index(db, 0, db.size());
  const PlantedDdi& ddi = gen.ground_truth()[0];
  const DrugAdrAssociation target{ddi.drugs, {ddi.adr}};
  for (auto _ : state) {
    const Cac cac = BuildCac(target, index);
    benchmark::DoNotOptimize(ContrastScore(cac, 0.75));
  }
}
BENCHMARK(BM_ContrastScore);

}  // namespace
}  // namespace tara

BENCHMARK_MAIN();
