#include <gtest/gtest.h>

#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

EvolvingDatabase MakeData(uint64_t seed) {
  QuestGenerator::Params params;
  params.num_transactions = 1500;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = seed;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, 3);
}

TaraEngine BuildEngine(const EvolvingDatabase& data, bool content_index) {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 5;
  options.build_content_index = content_index;
  TaraEngine engine(options);
  engine.BuildAll(data);
  return engine;
}

TEST(SerializationTest, RoundTripPreservesEveryQueryAnswer) {
  const EvolvingDatabase data = MakeData(60);
  const TaraEngine original = BuildEngine(data, false);
  const TaraEngine loaded =
      DecodeKnowledgeBase(EncodeKnowledgeBase(*original.Snapshot())).value();

  ASSERT_EQ(loaded.window_count(), original.window_count());
  ASSERT_EQ(loaded.catalog().size(), original.catalog().size());
  const auto loaded_kb = loaded.Snapshot();
  const auto original_kb = original.Snapshot();
  ASSERT_EQ(loaded_kb->archive().entry_count(),
            original_kb->archive().entry_count());

  // Every interned rule survives verbatim (same ids, same content).
  for (RuleId id = 0; id < original.catalog().size(); ++id) {
    EXPECT_EQ(loaded.catalog().rule(id).antecedent,
              original.catalog().rule(id).antecedent);
    EXPECT_EQ(loaded.catalog().rule(id).consequent,
              original.catalog().rule(id).consequent);
  }

  // Mining, regions, and trajectories answer identically.
  const std::vector<WindowId> horizon = {0, 1, 2};
  for (double supp : {0.01, 0.02, 0.05}) {
    for (double conf : {0.1, 0.4, 0.7}) {
      const ParameterSetting setting{supp, conf};
      for (WindowId w = 0; w < original.window_count(); ++w) {
        EXPECT_EQ(loaded_kb->MineWindow(w, setting).value(),
                  original_kb->MineWindow(w, setting).value());
        const RegionInfo a = loaded_kb->RecommendRegion(w, setting).value();
        const RegionInfo b = original_kb->RecommendRegion(w, setting).value();
        EXPECT_DOUBLE_EQ(a.support_upper, b.support_upper);
        EXPECT_EQ(a.result_size, b.result_size);
      }
    }
  }
  const auto rules =
      original_kb->MineWindow(0, ParameterSetting{0.02, 0.3}).value();
  for (RuleId id : rules) {
    const Trajectory a = BuildTrajectory(loaded_kb->archive(), id, horizon);
    const Trajectory b = BuildTrajectory(original_kb->archive(), id, horizon);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].present, b[i].present);
      EXPECT_DOUBLE_EQ(a[i].support, b[i].support);
      EXPECT_DOUBLE_EQ(a[i].confidence, b[i].confidence);
    }
  }
}

TEST(SerializationTest, PreservesOptionsAndContentIndex) {
  const EvolvingDatabase data = MakeData(61);
  const TaraEngine original = BuildEngine(data, true);
  const TaraEngine loaded =
      DecodeKnowledgeBase(EncodeKnowledgeBase(*original.Snapshot())).value();
  EXPECT_DOUBLE_EQ(loaded.options().min_support_floor, 0.01);
  EXPECT_DOUBLE_EQ(loaded.options().min_confidence_floor, 0.1);
  EXPECT_EQ(loaded.options().max_itemset_size, 5u);
  EXPECT_TRUE(loaded.options().build_content_index);

  // Content queries work on the reloaded base.
  const ParameterSetting setting{0.02, 0.2};
  const auto rules = loaded.Snapshot()->MineWindow(0, setting).value();
  ASSERT_FALSE(rules.empty());
  const ItemId item = loaded.catalog().rule(rules[0]).antecedent[0];
  EXPECT_EQ(loaded.Snapshot()->ContentQuery(0, {item}, setting).value(),
            original.Snapshot()->ContentQuery(0, {item}, setting).value());
}

TEST(SerializationTest, LoadedEngineKeepsEvolving) {
  const EvolvingDatabase data = MakeData(62);
  const TaraEngine original = BuildEngine(data, false);
  TaraEngine loaded =
      DecodeKnowledgeBase(EncodeKnowledgeBase(*original.Snapshot())).value();

  // A new batch can be appended to the reloaded base.
  const EvolvingDatabase more = MakeData(63);
  const WindowInfo& info = more.window(0);
  const WindowId w = loaded.AppendWindow(more.database(), info.begin,
                                         info.end);
  EXPECT_EQ(w, 3u);
  EXPECT_FALSE(loaded.Snapshot()
                   ->MineWindow(w, ParameterSetting{0.02, 0.2})
                   .value()
                   .empty());
}

TEST(SerializationTest, RejectsGarbageStreamsAsValues) {
  // The loader treats its input as untrusted bytes: garbage comes back as
  // a LoadError value, never a crash.
  const auto garbage = DecodeKnowledgeBase("not a knowledge base");
  ASSERT_FALSE(garbage.has_value());
  EXPECT_EQ(garbage.error().code, LoadError::Code::kBadMagic);

  // An old-format magic is distinguished for a better operator message.
  const auto stale = DecodeKnowledgeBase("TARAKB1 leftover bytes");
  ASSERT_FALSE(stale.has_value());
  EXPECT_EQ(stale.error().code, LoadError::Code::kBadVersion);

  const TaraEngine original = BuildEngine(MakeData(64), false);
  const std::string bytes = EncodeKnowledgeBase(*original.Snapshot());

  // Truncation anywhere is reported, not CHECK-aborted.
  for (size_t keep : {size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    const auto truncated = DecodeKnowledgeBase(bytes.substr(0, keep));
    ASSERT_FALSE(truncated.has_value()) << "kept " << keep << " bytes";
  }

  // Trailing bytes after a well-formed knowledge base are flagged too.
  const auto trailing = DecodeKnowledgeBase(bytes + "x");
  ASSERT_FALSE(trailing.has_value());
  EXPECT_EQ(trailing.error().code, LoadError::Code::kTrailingBytes);
}

TEST(SerializationTest, EmptyEngineRoundTrips) {
  TaraEngine::Options options;
  options.min_support_floor = 0.05;
  const TaraEngine empty(options);
  const TaraEngine loaded =
      DecodeKnowledgeBase(EncodeKnowledgeBase(*empty.Snapshot())).value();
  EXPECT_EQ(loaded.window_count(), 0u);
  EXPECT_EQ(loaded.catalog().size(), 0u);
}

}  // namespace
}  // namespace tara
