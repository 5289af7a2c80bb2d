#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "datagen/basket_generators.h"
#include "datagen/quest_generator.h"
#include "mining/apriori.h"
#include "mining/eclat.h"
#include "mining/fp_growth.h"
#include "mining/frequent_itemset.h"
#include "mining/h_mine.h"
#include "txdb/transaction_database.h"

namespace tara {
namespace {

std::unique_ptr<FrequentItemsetMiner> MakeMiner(const std::string& name) {
  if (name == "apriori") return std::make_unique<AprioriMiner>();
  if (name == "fp-growth") return std::make_unique<FpGrowthMiner>();
  if (name == "eclat") return std::make_unique<EclatMiner>();
  return std::make_unique<HMineMiner>();
}

/// Exhaustive reference: enumerates every itemset over a small item
/// universe and counts by scanning.
std::vector<FrequentItemset> BruteForceMine(const TransactionDatabase& db,
                                            uint64_t min_count,
                                            uint32_t max_size) {
  const ItemId bound = db.item_bound();
  EXPECT_LE(bound, 16u) << "brute force only for tiny universes";
  std::vector<FrequentItemset> out;
  for (uint32_t mask = 1; mask < (1u << bound); ++mask) {
    Itemset items;
    for (ItemId i = 0; i < bound; ++i) {
      if (mask & (1u << i)) items.push_back(i);
    }
    if (max_size != 0 && items.size() > max_size) continue;
    const uint64_t count = db.CountContaining(items);
    if (count >= min_count) out.push_back(FrequentItemset{items, count});
  }
  return out;
}

TransactionDatabase RandomTinyDatabase(uint64_t seed, size_t transactions,
                                       ItemId universe, double density) {
  Rng rng(seed);
  TransactionDatabase db;
  for (size_t t = 0; t < transactions; ++t) {
    Itemset items;
    for (ItemId i = 0; i < universe; ++i) {
      if (rng.NextBool(density)) items.push_back(i);
    }
    if (items.empty()) items.push_back(static_cast<ItemId>(
        rng.NextBounded(universe)));
    db.Append(static_cast<Timestamp>(t), items);
  }
  return db;
}

struct MinerCase {
  std::string miner;
  uint64_t seed;
};

class MinerCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(MinerCorrectnessTest, MatchesBruteForceOnRandomData) {
  const auto& [miner_name, seed] = GetParam();
  const TransactionDatabase db = RandomTinyDatabase(seed, 40, 8, 0.35);
  const std::unique_ptr<FrequentItemsetMiner> miner = MakeMiner(miner_name);
  for (uint64_t min_count : {1u, 2u, 4u, 8u}) {
    FrequentItemsetMiner::Options options;
    options.min_count = min_count;
    std::vector<FrequentItemset> got = miner->Mine(db, 0, db.size(), options);
    std::vector<FrequentItemset> want = BruteForceMine(db, min_count, 0);
    SortItemsets(&got);
    SortItemsets(&want);
    ASSERT_EQ(got.size(), want.size())
        << miner_name << " min_count=" << min_count;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].items, want[i].items);
      EXPECT_EQ(got[i].count, want[i].count);
    }
  }
}

TEST_P(MinerCorrectnessTest, HonorsMaxSize) {
  const auto& [miner_name, seed] = GetParam();
  const TransactionDatabase db = RandomTinyDatabase(seed + 1000, 30, 8, 0.4);
  const std::unique_ptr<FrequentItemsetMiner> miner = MakeMiner(miner_name);
  FrequentItemsetMiner::Options options;
  options.min_count = 2;
  options.max_size = 2;
  std::vector<FrequentItemset> got = miner->Mine(db, 0, db.size(), options);
  std::vector<FrequentItemset> want = BruteForceMine(db, 2, 2);
  SortItemsets(&got);
  SortItemsets(&want);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].items, want[i].items);
    EXPECT_LE(got[i].items.size(), 2u);
  }
}

TEST_P(MinerCorrectnessTest, MinesSubrangesIndependently) {
  const auto& [miner_name, seed] = GetParam();
  const TransactionDatabase db = RandomTinyDatabase(seed + 2000, 60, 6, 0.4);
  const std::unique_ptr<FrequentItemsetMiner> miner = MakeMiner(miner_name);
  FrequentItemsetMiner::Options options;
  options.min_count = 3;
  // Mining [0, 30) must only reflect those transactions.
  std::vector<FrequentItemset> got = miner->Mine(db, 0, 30, options);
  for (const FrequentItemset& f : got) {
    EXPECT_EQ(f.count, db.CountContaining(f.items, 0, 30));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMiners, MinerCorrectnessTest,
    ::testing::Combine(::testing::Values("apriori", "fp-growth", "h-mine", "eclat"),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(MinerEquivalenceTest, AllFourAgreeOnQuestData) {
  QuestGenerator::Params params;
  params.num_transactions = 800;
  params.num_items = 60;
  params.num_patterns = 30;
  params.avg_transaction_len = 8;
  params.seed = 99;
  const TransactionDatabase db = QuestGenerator(params).Generate();

  FrequentItemsetMiner::Options options;
  options.min_count = MinCountForSupport(0.02, db.size());
  options.max_size = 5;

  std::vector<FrequentItemset> apriori =
      AprioriMiner().Mine(db, 0, db.size(), options);
  std::vector<FrequentItemset> fp =
      FpGrowthMiner().Mine(db, 0, db.size(), options);
  std::vector<FrequentItemset> hmine =
      HMineMiner().Mine(db, 0, db.size(), options);
  std::vector<FrequentItemset> eclat =
      EclatMiner().Mine(db, 0, db.size(), options);
  SortItemsets(&apriori);
  SortItemsets(&fp);
  SortItemsets(&hmine);
  SortItemsets(&eclat);

  ASSERT_FALSE(apriori.empty());
  ASSERT_EQ(apriori.size(), fp.size());
  ASSERT_EQ(apriori.size(), hmine.size());
  ASSERT_EQ(apriori.size(), eclat.size());
  for (size_t i = 0; i < apriori.size(); ++i) {
    EXPECT_EQ(apriori[i].items, fp[i].items);
    EXPECT_EQ(apriori[i].count, fp[i].count);
    EXPECT_EQ(apriori[i].items, hmine[i].items);
    EXPECT_EQ(apriori[i].count, hmine[i].count);
    EXPECT_EQ(apriori[i].items, eclat[i].items);
    EXPECT_EQ(apriori[i].count, eclat[i].count);
  }
}

/// Order-sensitive hash of a miner's output: every itemset's items and
/// count, in the order the miner emitted them.
uint64_t EmissionHash(const std::vector<FrequentItemset>& mined) {
  uint64_t h = 0;
  for (const FrequentItemset& f : mined) {
    h = HashCombine(h, f.items.size());
    for (const ItemId item : f.items) h = HashCombine(h, item);
    h = HashCombine(h, f.count);
  }
  return h;
}

/// A Quest window shaped like the benchmark's explore_cold read windows:
/// 300 items, 200 patterns of mean length 3.
TransactionDatabase ExploreShapedQuest(uint32_t transactions) {
  QuestGenerator::Params params;
  params.num_transactions = transactions;
  params.num_items = 300;
  params.num_patterns = 200;
  params.avg_pattern_len = 3;
  params.seed = 1;
  return QuestGenerator(params).Generate();
}

std::vector<FrequentItemset> MineFp(const TransactionDatabase& db,
                                    size_t begin, size_t end, double support,
                                    uint32_t max_size) {
  FrequentItemsetMiner::Options options;
  options.min_count = MinCountForSupport(support, end - begin);
  options.max_size = max_size;
  return FpGrowthMiner().Mine(db, begin, end, options);
}

// FP-growth's emission order is part of the stored bytes: GenerateRules
// walks the itemsets in that order and the rule catalog interns ids in
// it, so every segment, WAL record and wire answer built from a mined
// window depends on it. The order is: singletons by descending count
// (ties by ascending item id); then each frequent item from the rarest to
// the most frequent, followed depth-first by its extensions, siblings in
// ascending item id. The constants below were captured from the nested
// FP-tree miner that preceded the flat one, before the flat one replaced
// it; they pin that order and must never be edited.
TEST(FpGrowthEmissionOrderTest, MatchesThePinnedSequence) {
  const TransactionDatabase explore = ExploreShapedQuest(1500);
  const auto capped = MineFp(explore, 0, explore.size(), 0.01, 4);
  EXPECT_EQ(capped.size(), 1903u);
  EXPECT_EQ(EmissionHash(capped), 0x271dfb96964cd55eULL);
  const auto uncapped = MineFp(explore, 0, explore.size(), 0.01, 0);
  EXPECT_EQ(uncapped.size(), 1904u);
  EXPECT_EQ(EmissionHash(uncapped), 0x13985645dd2673eaULL);

  BasketGenerator::Params retail = BasketGenerator::RetailPreset();
  retail.num_transactions = 3000;
  const TransactionDatabase basket =
      BasketGenerator(retail).GenerateBatch(0, 0);
  const auto baskets = MineFp(basket, 0, basket.size(), 0.002, 5);
  EXPECT_EQ(baskets.size(), 7253u);
  EXPECT_EQ(EmissionHash(baskets), 0xadf88b38edd3a4f7ULL);

  const TransactionDatabase longer = ExploreShapedQuest(3000);
  const auto slice = MineFp(longer, 1000, 2500, 0.01, 4);
  EXPECT_EQ(slice.size(), 1860u);
  EXPECT_EQ(EmissionHash(slice), 0x0ed22bb488bb57a6ULL);
}

// Item ids are 32-bit and may be sparse: the same window relabelled to ids
// near 3e9 (an order-preserving map) mines the relabelled itemsets with
// the same counts, in the same order, without an allocation sized by the
// largest id.
TEST(FpGrowthEmissionOrderTest, SparseHighItemIdsMineTheSameItemsets) {
  const TransactionDatabase explore = ExploreShapedQuest(1500);
  const auto relabel = [](ItemId item) {
    return static_cast<ItemId>(3'000'000'000u + item * 1'000'003u);
  };
  TransactionDatabase wide;
  for (const Transaction& t : explore.transactions()) {
    Itemset items;
    for (const ItemId item : t.items) items.push_back(relabel(item));
    wide.Append(t.time, std::move(items));
  }
  const auto want = MineFp(explore, 0, explore.size(), 0.01, 4);
  const auto got = MineFp(wide, 0, wide.size(), 0.01, 4);
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    Itemset expected;
    for (const ItemId item : want[i].items) expected.push_back(relabel(item));
    ASSERT_EQ(got[i].items, expected) << "itemset " << i;
    ASSERT_EQ(got[i].count, want[i].count) << "itemset " << i;
  }
}

TEST(MinCountForSupportTest, CeilsAndClampsToOne) {
  EXPECT_EQ(MinCountForSupport(0.1, 100), 10u);
  EXPECT_EQ(MinCountForSupport(0.101, 100), 11u);
  EXPECT_EQ(MinCountForSupport(0.0, 100), 1u);
  EXPECT_EQ(MinCountForSupport(0.001, 100), 1u);
  EXPECT_EQ(MinCountForSupport(1.0, 100), 100u);
  // Counts of 2^64 or more saturate; no itemset reaches UINT64_MAX.
  EXPECT_EQ(MinCountForSupport(0x1p52, 2048), uint64_t{1} << 63);
  EXPECT_EQ(MinCountForSupport(0x1p53, 2048), UINT64_MAX);  // exactly 2^64
  EXPECT_EQ(MinCountForSupport(1e17, 1000), UINT64_MAX);
  EXPECT_EQ(MinCountForSupport(1e300, 1000), UINT64_MAX);
}

}  // namespace
}  // namespace tara
