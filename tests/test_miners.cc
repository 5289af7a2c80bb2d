#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
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
