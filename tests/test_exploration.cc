#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/exploration.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/tara_engine.h"

namespace tara {
namespace {

/// Builds an engine from hand-crafted per-window rule profiles via
/// AppendPrecomputedWindow, giving the exploration tests full control over
/// every trajectory.
class ExplorationFixture : public ::testing::Test {
 protected:
  static constexpr uint64_t kWindowSize = 1000;

  ExplorationFixture() : engine_(MakeOptions()) {}

  static TaraEngine::Options MakeOptions() {
    TaraEngine::Options options;
    options.min_support_floor = 0.005;
    options.min_confidence_floor = 0.1;
    return options;
  }

  static Rule MakeRule(ItemId a, ItemId c) { return Rule{{a}, {c}}; }

  /// profiles[rule_index] = counts per window (0 = absent that window).
  void Build(const std::vector<std::vector<uint64_t>>& profiles) {
    const size_t windows = profiles[0].size();
    for (size_t w = 0; w < windows; ++w) {
      std::vector<TaraEngine::PrecomputedRule> rules;
      for (size_t r = 0; r < profiles.size(); ++r) {
        const uint64_t count = profiles[r][w];
        if (count == 0) continue;
        TaraEngine::PrecomputedRule p;
        p.rule = MakeRule(static_cast<ItemId>(r), 1000 + static_cast<ItemId>(r));
        p.rule_count = count;
        p.antecedent_count = count * 2;  // confidence 0.5 everywhere
        rules.push_back(p);
      }
      engine_.AppendPrecomputedWindow(kWindowSize, rules);
    }
    horizon_ = WindowSet::All(engine_.window_count());
  }

  RuleId IdOf(size_t rule_index) {
    return engine_.catalog().Find(MakeRule(
        static_cast<ItemId>(rule_index),
        1000 + static_cast<ItemId>(rule_index)));
  }

  TaraEngine engine_;
  WindowSet horizon_;
  ParameterSetting setting_{0.005, 0.1};
};

TEST_F(ExplorationFixture, TopStablePrefersFullSteadyCoverage) {
  Build({
      {50, 50, 50, 50, 50, 50},  // rule 0: rock stable
      {50, 80, 20, 90, 10, 60},  // rule 1: volatile but always present
      {50, 50, 0, 50, 50, 50},   // rule 2: one gap
  });
  ExplorationService service(&engine_);
  const auto top = service.TopStable(horizon_, setting_, 3).value();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].rule, IdOf(0));
  EXPECT_EQ(top[1].rule, IdOf(1));  // full coverage beats gap
  EXPECT_EQ(top[2].rule, IdOf(2));
  EXPECT_DOUBLE_EQ(top[0].measures.coverage, 1.0);
  EXPECT_GT(top[0].measures.stability, top[1].measures.stability);
}

TEST_F(ExplorationFixture, TopEmergingAndFadingAreMirrors) {
  Build({
      {0, 0, 0, 40, 80, 120},    // rule 0: emerging
      {120, 80, 40, 0, 0, 0},    // rule 1: fading
      {50, 50, 50, 50, 50, 50},  // rule 2: flat
  });
  ExplorationService service(&engine_);
  const auto emerging = service.TopEmerging(horizon_, setting_, 1).value();
  const auto fading = service.TopFading(horizon_, setting_, 1).value();
  ASSERT_EQ(emerging.size(), 1u);
  ASSERT_EQ(fading.size(), 1u);
  EXPECT_EQ(emerging[0].rule, IdOf(0));
  EXPECT_EQ(fading[0].rule, IdOf(1));
  EXPECT_GT(emerging[0].emergence, 0.0);
  EXPECT_LT(fading[0].emergence, 0.0);
}

TEST_F(ExplorationFixture, TopPeriodicFindsTheCycle) {
  Build({
      {60, 0, 60, 0, 60, 0, 60, 0},      // rule 0: period 2
      {60, 60, 60, 60, 60, 60, 60, 60},  // rule 1: constant (not periodic)
      {60, 0, 0, 60, 30, 0, 0, 60},      // rule 2: messy
  });
  ExplorationService service(&engine_);
  const auto periodic = service.TopPeriodic(horizon_, setting_, 3, 4).value();
  ASSERT_FALSE(periodic.empty());
  EXPECT_EQ(periodic[0].rule, IdOf(0));
  EXPECT_EQ(periodic[0].periodicity.period, 2u);
  EXPECT_DOUBLE_EQ(periodic[0].periodicity.strength, 1.0);
  // The constant rule must not appear in the periodic list.
  for (const RuleInsight& insight : periodic) {
    EXPECT_NE(insight.rule, IdOf(1));
  }
}

TEST_F(ExplorationFixture, ProfileCoversRulesValidAnywhere) {
  Build({
      {50, 0, 0, 0, 0, 0},  // only in window 0
      {0, 0, 0, 0, 0, 50},  // only in window 5
  });
  ExplorationService service(&engine_);
  const auto insights = service.ProfileRules(horizon_, setting_).value();
  EXPECT_EQ(insights.size(), 2u);
}

TEST_F(ExplorationFixture, SettingFiltersProfiles) {
  Build({
      {50, 50, 50, 50, 50, 50},  // support 0.05 everywhere
      {8, 8, 8, 8, 8, 8},        // support 0.008 everywhere
  });
  ExplorationService service(&engine_);
  const auto all =
      service.ProfileRules(horizon_, ParameterSetting{0.005, 0.1}).value();
  const auto strong =
      service.ProfileRules(horizon_, ParameterSetting{0.02, 0.1}).value();
  EXPECT_EQ(all.size(), 2u);
  ASSERT_EQ(strong.size(), 1u);
  EXPECT_EQ(strong[0].rule, IdOf(0));
}

TEST_F(ExplorationFixture, CorruptMappedStorageIsATypedError) {
  Build({
      {50, 50, 50, 50, 50, 50},
      {50, 80, 20, 90, 10, 60},
  });
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("exploration_corrupt_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine_.Snapshot(), dir.string()).has_value());
  // Flip one payload byte in the last window's segment.
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir.string());
  ASSERT_TRUE(manifest.has_value()) << manifest.error();
  const KbBlockInfo& block = manifest->blocks.back();
  const KbBlockRow& row = block.rows.back();
  {
    std::fstream file(dir / KnowledgeBaseBlockFileName(block.file_index),
                      std::ios::in | std::ios::out | std::ios::binary);
    const std::streamoff at =
        static_cast<std::streamoff>(row.offset + row.segment_bytes / 2);
    file.seekg(at);
    const int byte = file.get();
    file.seekp(at);
    file.put(static_cast<char>(byte ^ 0x5a));
    ASSERT_TRUE(file.good());
  }

  OpenOptions options;
  options.kb_dir = dir.string();
  options.mode = OpenMode::kMapped;
  const auto mapped = OpenKnowledgeBase(options);
  ASSERT_TRUE(mapped.has_value()) << mapped.error();
  const auto top =
      ExplorationService(&mapped.value()).TopStable(horizon_, setting_, 3);
  ASSERT_FALSE(top.has_value());
  EXPECT_EQ(top.error().code, QueryError::Code::kCorruptStorage);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace tara
