// Multi-threaded stress test of the online query path: N threads hammer
// Q1-Q5 and the roll-up operations against one finished engine, and every
// answer must equal the single-threaded baseline computed up front. Run
// under ThreadSanitizer (tools/run_tsan.sh) this also proves the const
// query path performs no hidden mutation — including metric recording,
// which the fixture leaves ENABLED so the relaxed-atomic instrument
// writes are exercised under the race detector.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/exploration.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

class ConcurrentQueriesTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kWindows = 4;

  ConcurrentQueriesTest() : engine_(MakeOptions(&registry_)) {
    BasketGenerator::Params params = BasketGenerator::RetailPreset();
    params.num_transactions = 1000;
    params.num_items = 200;
    const BasketGenerator gen(params);
    EvolvingDatabase data;
    for (uint32_t w = 0; w < kWindows; ++w) {
      data.AppendBatch(gen.GenerateBatch(w, w * 1000).transactions());
    }
    engine_.BuildAll(data);
    all_ = engine_.AllWindows();
  }

  static TaraEngine::Options MakeOptions(obs::MetricsRegistry* registry) {
    TaraEngine::Options options;
    options.min_support_floor = 0.005;
    options.min_confidence_floor = 0.1;
    options.max_itemset_size = 4;
    options.build_content_index = true;  // Q5 needs the content index
    options.metrics = registry;
    return options;
  }

  // Declared before engine_: the registry must outlive the engine.
  obs::MetricsRegistry registry_;
  TaraEngine engine_;
  WindowSet all_;
  const ParameterSetting setting_{0.01, 0.3};
};

TEST_F(ConcurrentQueriesTest, QueriesMatchSingleThreadedBaselines) {
  const WindowId anchor = kWindows - 1;

  // Single-threaded baselines, computed before any concurrency starts.
  const auto base_q1 =
      engine_.TrajectoryQuery(anchor, setting_, all_).value();
  ASSERT_FALSE(base_q1.rules.empty());
  const ParameterSetting second{0.02, 0.4};
  const auto base_q2 =
      engine_.CompareSettings(setting_, second, all_, MatchMode::kExact)
          .value();
  const RegionInfo base_q3 =
      engine_.RecommendRegion(anchor, setting_).value();
  const RuleId probe_rule = base_q1.rules[0];
  const TrajectoryMeasures base_q4 =
      engine_.RuleMeasures(probe_rule, all_).value();
  const Itemset probe_items = {
      engine_.catalog().rule(probe_rule).antecedent[0]};
  const auto base_q5 =
      engine_.ContentQuery(anchor, probe_items, setting_).value();
  const RollUpBound base_rollup =
      engine_.RollUpRule(probe_rule, all_).value();
  const auto base_mined = engine_.MineRolledUp(all_, setting_).value();
  const auto base_window = engine_.MineWindow(anchor, setting_).value();
  // Multi-window mining in both modes over sparse window sets, so every
  // per-request accumulator runs concurrently with the others.
  const std::vector<WindowSet> sparse = {
      engine_.MakeWindowSet({0, 2}), engine_.MakeWindowSet({1, 3}),
      engine_.MakeWindowSet({0, 3})};
  constexpr MatchMode kModes[] = {MatchMode::kSingle, MatchMode::kExact};
  std::vector<std::vector<RuleId>> base_multi;
  for (const WindowSet& windows : sparse) {
    for (MatchMode mode : kModes) {
      base_multi.push_back(
          engine_.MineWindows(windows, setting_, mode).value());
    }
  }
  ASSERT_FALSE(base_multi[0].empty());  // kSingle over {0, 2}
  ASSERT_FALSE(base_multi[1].empty());  // kExact over {0, 2}

  const unsigned hw = std::thread::hardware_concurrency();
  const size_t num_threads = hw > 1 ? (hw > 8 ? 8 : hw) : 4;
  constexpr int kItersPerThread = 25;
  std::atomic<int> failures{0};

  auto worker = [&](size_t tid) {
    for (int i = 0; i < kItersPerThread; ++i) {
      // Each thread builds its own WindowSet too, exercising the catalog
      // and window accessors concurrently.
      const WindowSet mine = engine_.AllWindows();
      const auto q1 = engine_.TrajectoryQuery(anchor, setting_, mine).value();
      if (q1.rules != base_q1.rules) failures.fetch_add(1);

      const auto q2 =
          engine_.CompareSettings(setting_, second, mine, MatchMode::kExact)
              .value();
      if (q2.only_first != base_q2.only_first ||
          q2.only_second != base_q2.only_second) {
        failures.fetch_add(1);
      }

      const RegionInfo q3 = engine_.RecommendRegion(anchor, setting_).value();
      if (q3.result_size != base_q3.result_size ||
          q3.support_lower != base_q3.support_lower) {
        failures.fetch_add(1);
      }

      const TrajectoryMeasures q4 =
          engine_.RuleMeasures(probe_rule, mine).value();
      if (q4.coverage != base_q4.coverage ||
          q4.mean_support != base_q4.mean_support) {
        failures.fetch_add(1);
      }

      const auto q5 =
          engine_.ContentQuery(anchor, probe_items, setting_).value();
      if (q5 != base_q5) failures.fetch_add(1);

      const RollUpBound ru = engine_.RollUpRule(probe_rule, mine).value();
      if (ru.support_lo != base_rollup.support_lo ||
          ru.confidence_hi != base_rollup.confidence_hi) {
        failures.fetch_add(1);
      }

      // Rejections must also be concurrency-safe: a sub-floor setting
      // comes back as an error value (rejected counter only), never an
      // abort or a race.
      const auto rejected =
          engine_.MineWindow(anchor, ParameterSetting{0.0001, 0.3});
      if (rejected.has_value() ||
          rejected.error().code != QueryError::Code::kSupportBelowFloor) {
        failures.fetch_add(1);
      }

      // Stagger the heavier calls so threads interleave different queries.
      if ((i + tid) % 3 == 0) {
        const auto mined = engine_.MineRolledUp(mine, setting_).value();
        if (mined.certain != base_mined.certain) failures.fetch_add(1);
      }
      if ((i + tid) % 2 == 0) {
        if (engine_.MineWindow(anchor, setting_).value() != base_window) {
          failures.fetch_add(1);
        }
      }
      for (size_t s = 0; s < sparse.size(); ++s) {
        for (size_t m = 0; m < 2; ++m) {
          if (engine_.MineWindows(sparse[s], setting_, kModes[m]).value() !=
              base_multi[2 * s + m]) {
            failures.fetch_add(1);
          }
        }
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Concurrent recording must not lose samples: every rejection above is
  // in the rejected counter, and each per-kind histogram holds exactly
  // the calls made of that kind (relaxed atomics still count exactly —
  // only ordering is relaxed).
  const uint64_t per_thread = static_cast<uint64_t>(kItersPerThread);
  const uint64_t n = static_cast<uint64_t>(num_threads);
  EXPECT_EQ(registry_.GetCounter("tara.query.rejected")->Value(),
            n * per_thread);
  const auto* trajectory =
      registry_.GetHistogram("tara.query.trajectory.latency_ns");
  // +1 for the single-threaded baseline.
  EXPECT_EQ(trajectory->Count(), n * per_thread + 1);
  EXPECT_GT(registry_.GetCounter("tara.query.ok")->Value(),
            6 * n * per_thread);
}

TEST_F(ConcurrentQueriesTest, ExplorationServiceIsConcurrencySafe) {
  const ExplorationService service(&engine_);
  const auto base_stable = service.TopStable(all_, setting_, 5).value();
  const auto base_emerging = service.TopEmerging(all_, setting_, 5).value();

  std::atomic<int> failures{0};
  auto worker = [&] {
    for (int i = 0; i < 10; ++i) {
      const auto stable = service.TopStable(all_, setting_, 5).value();
      if (stable.size() != base_stable.size() ||
          (!stable.empty() && stable[0].rule != base_stable[0].rule)) {
        failures.fetch_add(1);
      }
      const auto emerging = service.TopEmerging(all_, setting_, 5).value();
      if (emerging.size() != base_emerging.size()) failures.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrentQueriesTest, SnapshotsAreSafeWhileRecordersRun) {
  // Readers (SnapshotText/SnapshotJson) race benignly with recorders;
  // under TSan this proves snapshotting needs no stop-the-world.
  std::atomic<bool> stop{false};
  std::thread recorder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)engine_.MineWindow(0, setting_);
    }
  });
  for (int i = 0; i < 50; ++i) {
    const std::string text = registry_.SnapshotText();
    const std::string json = registry_.SnapshotJson();
    EXPECT_NE(text.find("tara.query.mine_window.latency_ns"),
              std::string::npos);
    EXPECT_NE(json.find("\"tara.query.ok\""), std::string::npos);
  }
  stop.store(true);
  recorder.join();
}

}  // namespace
}  // namespace tara
