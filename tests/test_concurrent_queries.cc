// Multi-threaded stress test of the online query path: N threads hammer
// Q1-Q5 and the roll-up operations through TaraEngine::Execute against one
// finished engine, and every answer must equal the single-threaded
// baseline computed up front. Run under ThreadSanitizer
// (tools/run_tsan.sh) this also proves the const query path performs no
// hidden mutation — including metric recording, which the fixture leaves
// ENABLED so the relaxed-atomic instrument writes are exercised under the
// race detector.

#include <atomic>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/exploration.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

/// Executes `request` and unwraps its typed result (aborting on a
/// rejection, like .value() on any query result).
template <typename T>
T Answer(const TaraEngine& engine, const QueryRequest& request) {
  return std::get<T>(engine.Execute(request).value());
}

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
    all_ = WindowSet::All(engine_.window_count());
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
  const std::vector<WindowId>& all = all_.ids();
  const ParameterSetting second{0.02, 0.4};

  // Single-threaded baselines, computed before any concurrency starts.
  const auto base_q1 = Answer<TrajectoryQueryResult>(
      engine_, QueryRequest::Trajectory(anchor, setting_, all));
  ASSERT_FALSE(base_q1.rules.empty());
  const auto base_q2 = Answer<RulesetDiff>(
      engine_, QueryRequest::Compare(setting_, second, all, MatchMode::kExact));
  const RegionInfo base_q3 =
      Answer<RegionInfo>(engine_, QueryRequest::Region(anchor, setting_));
  const RuleId probe_rule = base_q1.rules[0];
  const TrajectoryMeasures base_q4 = Answer<TrajectoryMeasures>(
      engine_, QueryRequest::Measures(probe_rule, all));
  const Itemset probe_items = {
      engine_.catalog().rule(probe_rule).antecedent[0]};
  const QueryRequest q5 = QueryRequest::Content(anchor, probe_items, setting_);
  const auto base_q5 = Answer<std::vector<RuleId>>(engine_, q5);
  const RollUpBound base_rollup = Answer<RollUpBound>(
      engine_, QueryRequest::RollUpRule(probe_rule, all));
  const auto base_mined = Answer<RolledUpRules>(
      engine_, QueryRequest::RollUpMine(all, setting_));
  const QueryRequest mine_window = QueryRequest::MineWindow(anchor, setting_);
  const auto base_window = Answer<std::vector<RuleId>>(engine_, mine_window);
  // Multi-window mining in both modes over sparse window sets, so every
  // per-request accumulator runs concurrently with the others.
  const std::vector<std::vector<WindowId>> sparse = {{0, 2}, {1, 3}, {0, 3}};
  constexpr MatchMode kModes[] = {MatchMode::kSingle, MatchMode::kExact};
  std::vector<QueryRequest> multi;
  std::vector<std::vector<RuleId>> base_multi;
  for (const std::vector<WindowId>& windows : sparse) {
    for (MatchMode mode : kModes) {
      multi.push_back(QueryRequest::MineWindows(windows, setting_, mode));
      base_multi.push_back(Answer<std::vector<RuleId>>(engine_, multi.back()));
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
      // Each thread builds its own window list too, exercising the window
      // accessors concurrently.
      const std::vector<WindowId> mine =
          WindowSet::All(engine_.window_count()).ids();
      const auto q1 = Answer<TrajectoryQueryResult>(
          engine_, QueryRequest::Trajectory(anchor, setting_, mine));
      if (q1.rules != base_q1.rules) failures.fetch_add(1);

      const auto q2 = Answer<RulesetDiff>(
          engine_,
          QueryRequest::Compare(setting_, second, mine, MatchMode::kExact));
      if (q2.only_first != base_q2.only_first ||
          q2.only_second != base_q2.only_second) {
        failures.fetch_add(1);
      }

      const RegionInfo q3 =
          Answer<RegionInfo>(engine_, QueryRequest::Region(anchor, setting_));
      if (q3.result_size != base_q3.result_size ||
          q3.support_lower != base_q3.support_lower) {
        failures.fetch_add(1);
      }

      const TrajectoryMeasures q4 = Answer<TrajectoryMeasures>(
          engine_, QueryRequest::Measures(probe_rule, mine));
      if (q4.coverage != base_q4.coverage ||
          q4.mean_support != base_q4.mean_support) {
        failures.fetch_add(1);
      }

      if (Answer<std::vector<RuleId>>(engine_, q5) != base_q5) {
        failures.fetch_add(1);
      }

      const RollUpBound ru = Answer<RollUpBound>(
          engine_, QueryRequest::RollUpRule(probe_rule, mine));
      if (ru.support_lo != base_rollup.support_lo ||
          ru.confidence_hi != base_rollup.confidence_hi) {
        failures.fetch_add(1);
      }

      // Rejections must also be concurrency-safe: a sub-floor setting
      // comes back as an error value (rejected counter only), never an
      // abort or a race.
      const auto rejected = engine_.Execute(
          QueryRequest::MineWindow(anchor, ParameterSetting{0.0001, 0.3}));
      if (rejected.has_value() ||
          rejected.error().code != QueryError::Code::kSupportBelowFloor) {
        failures.fetch_add(1);
      }

      // Stagger the heavier calls so threads interleave different queries.
      if ((i + tid) % 3 == 0) {
        const auto mined = Answer<RolledUpRules>(
            engine_, QueryRequest::RollUpMine(mine, setting_));
        if (mined.certain != base_mined.certain) failures.fetch_add(1);
      }
      if ((i + tid) % 2 == 0) {
        if (Answer<std::vector<RuleId>>(engine_, mine_window) != base_window) {
          failures.fetch_add(1);
        }
      }
      for (size_t k = 0; k < multi.size(); ++k) {
        if (Answer<std::vector<RuleId>>(engine_, multi[k]) != base_multi[k]) {
          failures.fetch_add(1);
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
      (void)engine_.Execute(QueryRequest::MineWindow(0, setting_));
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
