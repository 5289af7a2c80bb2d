#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/rule_catalog.h"

namespace tara {
namespace {

TEST(RuleCatalogTest, InterningIsIdempotent) {
  RuleCatalog catalog;
  const Rule rule{{1, 2}, {3}};
  const RuleId id = catalog.Intern(rule);
  EXPECT_EQ(catalog.Intern(rule), id);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_EQ(catalog.rule(id).antecedent, (Itemset{1, 2}));
  EXPECT_EQ(catalog.rule(id).consequent, (Itemset{3}));
}

TEST(RuleCatalogTest, DirectionMatters) {
  RuleCatalog catalog;
  const RuleId forward = catalog.Intern(Rule{{1}, {2}});
  const RuleId backward = catalog.Intern(Rule{{2}, {1}});
  EXPECT_NE(forward, backward);
  EXPECT_EQ(catalog.size(), 2u);
}

TEST(RuleCatalogTest, FindDoesNotIntern) {
  RuleCatalog catalog;
  EXPECT_EQ(catalog.Find(Rule{{1}, {2}}), RuleCatalog::kNotFound);
  EXPECT_EQ(catalog.size(), 0u);
  const RuleId id = catalog.Intern(Rule{{1}, {2}});
  EXPECT_EQ(catalog.Find(Rule{{1}, {2}}), id);
}

TEST(RuleCatalogTest, IdsAreDenseAndStable) {
  RuleCatalog catalog;
  for (ItemId i = 0; i < 100; ++i) {
    EXPECT_EQ(catalog.Intern(Rule{{i}, {i + 1000}}), i);
  }
  // Re-interning in reverse order returns the original ids.
  for (ItemId i = 100; i-- > 0;) {
    EXPECT_EQ(catalog.Intern(Rule{{i}, {i + 1000}}), i);
  }
  EXPECT_EQ(catalog.size(), 100u);
}

TEST(RuleCatalogTest, FormatRuleIsReadable) {
  RuleCatalog catalog;
  const RuleId id = catalog.Intern(Rule{{3, 7}, {11, 12}});
  EXPECT_EQ(catalog.FormatRule(id), "3 7 -> 11 12");
}

TEST(RuleCatalogTest, RandomizedInternRetrieveConsistency) {
  Rng rng(1234);
  RuleCatalog catalog;
  std::vector<std::pair<Rule, RuleId>> interned;
  for (int i = 0; i < 2000; ++i) {
    Rule rule;
    const size_t na = 1 + rng.NextBounded(3);
    const size_t nc = 1 + rng.NextBounded(2);
    for (size_t k = 0; k < na; ++k) {
      rule.antecedent.push_back(static_cast<ItemId>(rng.NextBounded(30)));
    }
    for (size_t k = 0; k < nc; ++k) {
      rule.consequent.push_back(
          static_cast<ItemId>(100 + rng.NextBounded(30)));
    }
    Canonicalize(&rule.antecedent);
    Canonicalize(&rule.consequent);
    interned.emplace_back(rule, catalog.Intern(rule));
  }
  for (const auto& [rule, id] : interned) {
    EXPECT_EQ(catalog.Find(rule), id);
    EXPECT_EQ(catalog.rule(id), rule);
  }
}

TEST(RuleCatalogTest, InternNewIsAllOrNothing) {
  RuleCatalog catalog;
  catalog.Intern(Rule{{1}, {2}});
  std::vector<Rule> batch = {Rule{{3}, {4}}, Rule{{5}, {6}}};
  EXPECT_FALSE(catalog.InternNew(batch).has_value());
  ASSERT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.Find(Rule{{3}, {4}}), 1u);
  EXPECT_EQ(catalog.Find(Rule{{5}, {6}}), 2u);

  // A rule the catalog already holds, and a rule repeated within the
  // batch: the offender's index comes back and nothing is interned.
  std::vector<Rule> held = {Rule{{7}, {8}}, Rule{{1}, {2}}};
  EXPECT_EQ(catalog.InternNew(held), std::optional<size_t>(1));
  std::vector<Rule> repeated = {Rule{{7}, {8}}, Rule{{9}, {10}},
                                Rule{{7}, {8}}};
  EXPECT_EQ(catalog.InternNew(repeated), std::optional<size_t>(2));
  EXPECT_EQ(catalog.size(), 3u);
  EXPECT_EQ(catalog.Find(Rule{{7}, {8}}), RuleCatalog::kNotFound);
  EXPECT_EQ(catalog.Find(Rule{{9}, {10}}), RuleCatalog::kNotFound);
  EXPECT_EQ(catalog.Intern(Rule{{7}, {8}}), 3u);
}

TEST(RuleCatalogTest, RefusedBatchAfterGrowthLeavesTheCatalogUnchanged) {
  // The batch grows the table (from 16 slots to 512) before its last rule
  // repeats a held one; the refusal must leave every lookup as it was.
  RuleCatalog catalog;
  for (ItemId i = 0; i < 6; ++i) catalog.Intern(Rule{{i}, {100 + i}});
  std::vector<Rule> batch;
  for (ItemId i = 6; i < 200; ++i) batch.push_back(Rule{{i}, {100 + i}});
  batch.push_back(Rule{{3}, {103}});
  const std::vector<Rule> sent = batch;
  EXPECT_EQ(catalog.InternNew(batch), std::optional<size_t>(194));
  EXPECT_EQ(batch, sent);
  ASSERT_EQ(catalog.size(), 6u);
  for (ItemId i = 0; i < 6; ++i) {
    EXPECT_EQ(catalog.Find(Rule{{i}, {100 + i}}), i);
    EXPECT_EQ(catalog.rule(i), (Rule{{i}, {100 + i}}));
  }
  for (ItemId i = 6; i < 200; ++i) {
    EXPECT_EQ(catalog.Find(Rule{{i}, {100 + i}}), RuleCatalog::kNotFound);
  }
  // The grown table still interns, in order, from the same next id.
  batch.pop_back();
  EXPECT_FALSE(catalog.InternNew(batch).has_value());
  ASSERT_EQ(catalog.size(), 200u);
  for (ItemId i = 0; i < 200; ++i) {
    EXPECT_EQ(catalog.Find(Rule{{i}, {100 + i}}), i);
  }
}

// Readers hash and compare through the rules the catalog stores, so they
// must be safe beside one interning writer: Intern, InternNew batches,
// and refused batches whose rules are interned and then handed back.
// A TSan and ASan target.
TEST(RuleCatalogTest, ReadersRaceOneInterningWriter) {
  constexpr ItemId kRules = 3000;
  const auto nth = [](ItemId i) { return Rule{{i}, {i + kRules}}; };
  // Never interned: the refused batches offer these.
  const auto never = [](ItemId i) { return Rule{{i + 2 * kRules}, {i}}; };
  RuleCatalog catalog;
  std::atomic<ItemId> interned{0};  // rules [0, interned) hold id == i
  std::atomic<bool> done{false};

  std::thread writer([&] {
    ItemId next = 0;
    while (next < kRules) {
      if (next % 7 == 0) {
        EXPECT_EQ(catalog.Intern(nth(next)), next);
        ++next;
      } else {
        std::vector<Rule> batch;
        for (ItemId i = next; i < std::min(kRules, next + 3); ++i) {
          batch.push_back(nth(i));
        }
        EXPECT_FALSE(catalog.InternNew(batch).has_value());
        next += static_cast<ItemId>(batch.size());
      }
      interned.store(next, std::memory_order_release);
      if (next % 50 < 3) {
        // A rule already held, then one repeated within the batch.
        std::vector<Rule> held = {never(next), nth(next / 2)};
        EXPECT_EQ(catalog.InternNew(held), std::optional<size_t>(1));
        EXPECT_EQ(held[0], never(next));
        std::vector<Rule> repeated = {never(next), never(next)};
        EXPECT_EQ(catalog.InternNew(repeated), std::optional<size_t>(1));
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    readers.emplace_back([&, seed] {
      Rng rng(seed);
      size_t lookups = 0;
      while (!done.load(std::memory_order_acquire) || lookups < 1000) {
        const ItemId have = interned.load(std::memory_order_acquire);
        if (have == 0) continue;
        const auto id = static_cast<RuleId>(rng.NextBounded(have));
        EXPECT_EQ(catalog.Find(nth(id)), id);
        EXPECT_EQ(catalog.rule(id), nth(id));
        EXPECT_EQ(catalog.Find(never(id)), RuleCatalog::kNotFound);
        const RuleId ids[] = {0, id};
        catalog.ForEachRule(ids, [&](size_t i, const Rule& rule) {
          EXPECT_EQ(rule, nth(ids[i]));
        });
        ++lookups;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  ASSERT_EQ(catalog.size(), kRules);
  for (ItemId i = 0; i < kRules; ++i) {
    EXPECT_EQ(catalog.Find(nth(i)), i);
    EXPECT_EQ(catalog.Find(never(i)), RuleCatalog::kNotFound);
  }
}

TEST(RuleCatalogDeathTest, RejectsUnknownIds) {
  RuleCatalog catalog;
  catalog.Intern(Rule{{1}, {2}});
  EXPECT_DEATH(catalog.rule(5), "unknown rule id");
}

}  // namespace
}  // namespace tara
