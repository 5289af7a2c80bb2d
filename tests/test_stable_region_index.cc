#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stable_region_index.h"
#include "mining/frequent_itemset.h"

namespace tara {
namespace {

/// Builds a catalog + entries from (antecedent item, consequent item,
/// rule_count, antecedent_count) tuples for single-item rules.
struct Fixture {
  RuleCatalog catalog;
  std::vector<WindowIndex::Entry> entries;

  RuleId AddRule(ItemId a, ItemId c, uint64_t count, uint64_t ant) {
    const RuleId id = catalog.Intern(Rule{{a}, {c}});
    entries.push_back(WindowIndex::Entry{id, count, ant});
    return id;
  }
};

std::vector<RuleId> Sorted(std::vector<RuleId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(WindowIndexTest, CollectsByDominance) {
  Fixture fx;
  // total = 100. Locations: (supp, conf).
  const RuleId r1 = fx.AddRule(1, 2, 18, 36);  // (0.18, 0.50)
  const RuleId r2 = fx.AddRule(2, 1, 18, 45);  // (0.18, 0.40)
  const RuleId r3 = fx.AddRule(1, 3, 18, 36);  // (0.18, 0.50) same location
  const RuleId r4 = fx.AddRule(3, 2, 9, 36);   // (0.09, 0.25)
  WindowIndex index;
  index.Build(fx.entries, 100, false, fx.catalog);

  std::vector<RuleId> out;
  index.CollectRules(0.10, 0.45, &out);
  EXPECT_EQ(Sorted(out), Sorted({r1, r3}));

  out.clear();
  index.CollectRules(0.10, 0.30, &out);
  EXPECT_EQ(Sorted(out), Sorted({r1, r2, r3}));

  out.clear();
  index.CollectRules(0.05, 0.0, &out);
  EXPECT_EQ(Sorted(out), Sorted({r1, r2, r3, r4}));

  out.clear();
  index.CollectRules(0.2, 0.0, &out);
  EXPECT_TRUE(out.empty());

  EXPECT_EQ(index.CountRules(0.10, 0.30), 3u);
  EXPECT_EQ(index.location_count(), 3u);
}

TEST(WindowIndexTest, BoundaryValuesAreInclusive) {
  Fixture fx;
  const RuleId r = fx.AddRule(1, 2, 18, 36);
  WindowIndex index;
  index.Build(fx.entries, 100, false, fx.catalog);
  std::vector<RuleId> out;
  // Exactly at the rule's support and confidence: rule qualifies.
  index.CollectRules(0.18, 0.50, &out);
  EXPECT_EQ(out, std::vector<RuleId>{r});
}

TEST(WindowIndexTest, LocateReturnsEnclosingStableRegion) {
  Fixture fx;
  fx.AddRule(1, 2, 18, 36);  // (0.18, 0.5)
  fx.AddRule(3, 2, 9, 36);   // (0.09, 0.25)
  WindowIndex index;
  index.Build(fx.entries, 100, false, fx.catalog);

  // Query inside (0.09, 0.18] x (0.25, 0.5].
  const RegionInfo region = index.Locate(0.12, 0.3);
  EXPECT_DOUBLE_EQ(region.support_lower, 0.09);
  EXPECT_DOUBLE_EQ(region.support_upper, 0.18);
  EXPECT_DOUBLE_EQ(region.confidence_lower, 0.25);
  EXPECT_DOUBLE_EQ(region.confidence_upper, 0.5);
  EXPECT_EQ(region.result_size, 1u);

  // Above every support value: empty result, open-topped region.
  const RegionInfo top = index.Locate(0.5, 0.3);
  EXPECT_EQ(top.result_size, 0u);
  EXPECT_DOUBLE_EQ(top.support_lower, 0.18);
  EXPECT_DOUBLE_EQ(top.support_upper, 1.0);

  // Below every boundary.
  const RegionInfo bottom = index.Locate(0.01, 0.01);
  EXPECT_DOUBLE_EQ(bottom.support_lower, 0.0);
  EXPECT_DOUBLE_EQ(bottom.support_upper, 0.09);
  EXPECT_EQ(bottom.result_size, 2u);
}

TEST(WindowIndexTest, ResultsConstantInsideRegionChangeAcrossBoundary) {
  Rng rng(42);
  Fixture fx;
  for (int i = 0; i < 60; ++i) {
    const uint64_t count = 5 + rng.NextBounded(50);
    fx.AddRule(static_cast<ItemId>(i), static_cast<ItemId>(100 + i), count,
               count + rng.NextBounded(60));
  }
  WindowIndex index;
  index.Build(fx.entries, 200, false, fx.catalog);

  for (int trial = 0; trial < 50; ++trial) {
    const double s = rng.NextDouble() * 0.3;
    const double c = rng.NextDouble();
    const RegionInfo region = index.Locate(s, c);
    // Any other setting inside the region yields identical results.
    const double s2 = region.support_lower +
                      (region.support_upper - region.support_lower) *
                          (0.5 + 0.49 * rng.NextDouble());
    const double c2 = region.confidence_lower +
                      (region.confidence_upper - region.confidence_lower) *
                          (0.5 + 0.49 * rng.NextDouble());
    std::vector<RuleId> a, b;
    index.CollectRules(s, c, &a);
    index.CollectRules(s2, c2, &b);
    EXPECT_EQ(Sorted(a), Sorted(b))
        << "s=" << s << " c=" << c << " s2=" << s2 << " c2=" << c2;
    EXPECT_EQ(a.size(), region.result_size);
  }
}

TEST(WindowIndexTest, CollectMatchesBruteForceFilter) {
  Rng rng(7);
  Fixture fx;
  const uint64_t total = 500;
  for (int i = 0; i < 200; ++i) {
    const uint64_t count = 1 + rng.NextBounded(200);
    fx.AddRule(static_cast<ItemId>(i), static_cast<ItemId>(1000 + i), count,
               count + rng.NextBounded(300));
  }
  WindowIndex index;
  index.Build(fx.entries, total, false, fx.catalog);

  for (int trial = 0; trial < 100; ++trial) {
    const double s = rng.NextDouble() * 0.5;
    const double c = rng.NextDouble();
    std::vector<RuleId> got;
    index.CollectRules(s, c, &got);

    std::vector<RuleId> want;
    const uint64_t min_count = MinCountForSupport(s, total);
    for (const auto& e : fx.entries) {
      const double conf = static_cast<double>(e.rule_count) /
                          static_cast<double>(e.antecedent_count);
      if (e.rule_count >= min_count && conf + 1e-12 >= c) {
        want.push_back(e.rule);
      }
    }
    EXPECT_EQ(Sorted(got), Sorted(want)) << "s=" << s << " c=" << c;
  }
}

TEST(WindowIndexTest, ContentQueryFiltersByItems) {
  Fixture fx;
  const RuleId r1 = fx.AddRule(1, 2, 20, 40);
  const RuleId r2 = fx.AddRule(1, 3, 20, 40);
  const RuleId r3 = fx.AddRule(4, 5, 10, 40);
  WindowIndex index;
  index.Build(fx.entries, 100, /*build_content_index=*/true, fx.catalog);

  std::vector<RuleId> out;
  index.ContentQuery({1}, 0.0, 0.0, &out);
  EXPECT_EQ(Sorted(out), Sorted({r1, r2}));

  out.clear();
  index.ContentQuery({1, 3}, 0.0, 0.0, &out);
  EXPECT_EQ(out, std::vector<RuleId>{r2});

  out.clear();
  index.ContentQuery({4}, 0.15, 0.0, &out);  // r3 support 0.10 < 0.15
  EXPECT_TRUE(out.empty());

  out.clear();
  index.ContentQuery({99}, 0.0, 0.0, &out);
  EXPECT_TRUE(out.empty());
  (void)r3;
}

/// The content twin of CollectMatchesBruteForceFilter: random rules of
/// two or three items, random item sets (empty, matching, or naming an
/// item no rule holds) and random settings, against a filter over every
/// entry.
TEST(WindowIndexTest, ContentQueryMatchesBruteForceFilter) {
  Rng rng(11);
  RuleCatalog catalog;
  std::vector<WindowIndex::Entry> entries;
  const uint64_t total = 400;
  // Rules use items 0-9; queries also draw items 10 and 11.
  const auto distinct_items = [&rng](size_t size, ItemId universe) {
    Itemset items;
    while (items.size() < size) {
      const ItemId item = static_cast<ItemId>(rng.NextBounded(universe));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    std::sort(items.begin(), items.end());
    return items;
  };
  for (int i = 0; i < 300; ++i) {
    Itemset items = distinct_items(2 + rng.NextBounded(2), 10);
    const size_t split = rng.NextBounded(items.size());
    Rule rule{{}, {items[split]}};
    items.erase(items.begin() + static_cast<ptrdiff_t>(split));
    rule.antecedent = std::move(items);
    const size_t before = catalog.size();
    const RuleId id = catalog.Intern(rule);
    if (catalog.size() == before) continue;  // drew a rule already held
    const uint64_t count = 1 + rng.NextBounded(150);
    entries.push_back(
        WindowIndex::Entry{id, count, count + rng.NextBounded(200)});
  }
  WindowIndex index;
  index.Build(entries, total, /*build_content_index=*/true, catalog);

  size_t matched = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Itemset items = distinct_items(rng.NextBounded(4), 12);
    const double s = rng.NextDouble() * 0.3;
    const double c = rng.NextDouble();
    std::vector<RuleId> got;
    index.ContentQuery(items, s, c, &got);

    std::vector<RuleId> want;
    const uint64_t min_count = MinCountForSupport(s, total);
    for (const auto& e : entries) {
      const Rule& rule = catalog.rule(e.rule);
      Itemset held = rule.antecedent;
      held.insert(held.end(), rule.consequent.begin(), rule.consequent.end());
      std::sort(held.begin(), held.end());
      const double conf = static_cast<double>(e.rule_count) /
                          static_cast<double>(e.antecedent_count);
      if (std::includes(held.begin(), held.end(), items.begin(), items.end()) &&
          e.rule_count >= min_count && conf + 1e-12 >= c) {
        want.push_back(e.rule);
      }
    }
    EXPECT_EQ(Sorted(got), Sorted(want)) << "trial " << trial;
    matched += want.size();
  }
  EXPECT_GT(matched, 0u);
}

TEST(WindowIndexTest, RegionCountReflectsGrid) {
  Fixture fx;
  fx.AddRule(1, 2, 18, 36);  // unique supports {18}, confs {0.5}
  fx.AddRule(2, 3, 9, 36);   // supports {18, 9}, confs {0.5, 0.25}
  WindowIndex index;
  index.Build(fx.entries, 100, false, fx.catalog);
  // (2 support boundaries + 1) * (2 confidence boundaries + 1) = 9 cells.
  EXPECT_EQ(index.region_count(), 9u);
}

}  // namespace
}  // namespace tara
