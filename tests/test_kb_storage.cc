// The stream form of a persisted knowledge base (kb_storage.h): seeded
// byte flips and truncations must always come back as a loaded engine or
// a typed LoadError, never a crash. The TARAKB3 directory format and its
// crash safety are covered by test_kb_blocks.cc.

#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/serialization.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

EvolvingDatabase MakeData(uint32_t windows) {
  QuestGenerator::Params params;
  params.num_transactions = 500 * windows;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = 77;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, windows);
}

TaraEngine BuildEngine(const EvolvingDatabase& data) {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  TaraEngine engine(options);
  engine.BuildAll(data);
  return engine;
}

// Corruption fuzz smoke: seeded single-byte flips and truncations of a
// valid serialized knowledge base. Every mutation must come back as a
// loaded engine or a typed LoadError — never a crash, hang, or (under
// the ASan preset) a leak. A flipped byte may land somewhere the decoder
// legitimately tolerates (a rule's count, say), so a successful load is
// acceptable; an abort is not.
TEST(KbStorageFuzz, SingleByteFlipsNeverCrashTheStreamLoader) {
  const TaraEngine engine = BuildEngine(MakeData(2));
  const std::string valid = KnowledgeBaseToString(engine);
  ASSERT_GT(valid.size(), 256u);
  ASSERT_TRUE(KnowledgeBaseFromString(valid).has_value());

  Rng rng(0xF00DF00D);
  int rejected = 0;
  constexpr int kFlips = 150;
  for (int i = 0; i < kFlips; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] ^= static_cast<char>(1 + rng.NextBounded(255));
    const auto loaded = KnowledgeBaseFromString(mutated);
    if (!loaded.has_value()) {
      ++rejected;
      EXPECT_FALSE(loaded.error().message.empty());
    }
  }
  // The format is dense: the vast majority of flips must be detected.
  EXPECT_GT(rejected, kFlips / 2);
}

TEST(KbStorageFuzz, TruncationsNeverCrashTheStreamLoader) {
  const TaraEngine engine = BuildEngine(MakeData(2));
  const std::string valid = KnowledgeBaseToString(engine);

  Rng rng(0xBADC0FFE);
  for (int i = 0; i < 50; ++i) {
    const auto loaded =
        KnowledgeBaseFromString(valid.substr(0, rng.NextBounded(valid.size())));
    // A strict prefix can never be a whole knowledge base.
    ASSERT_FALSE(loaded.has_value());
    EXPECT_FALSE(loaded.error().message.empty());
  }
  // Every exact-boundary truncation near the tail as well.
  for (size_t cut = valid.size() - 16; cut < valid.size(); ++cut) {
    ASSERT_FALSE(KnowledgeBaseFromString(valid.substr(0, cut)).has_value());
  }
}

}  // namespace
}  // namespace tara
