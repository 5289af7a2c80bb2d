#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/stable_region_index.h"
#include "core/tara_engine.h"
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

// --- The order oracle: every EPS answer pinned to a brute-force filter in
// the order it is served, not just as a set. The wire carries that order,
// so a reordered answer changes bytes even when the set is right.

/// Rules of two or three items drawn from a small universe, so items are
/// shared by many rules, with counts drawn to share support buckets and
/// confidence values. `stride` spaces the item ids apart.
std::vector<PrecomputedRule> OracleRules(Rng& rng, uint64_t total,
                                         ItemId stride) {
  std::vector<uint64_t> pool;  // rule counts, so buckets hold many rules
  for (int i = 0; i < 8; ++i) pool.push_back(1 + rng.NextBounded(total / 3));
  std::vector<PrecomputedRule> rules;
  for (int i = 0; i < 140; ++i) {
    Itemset items;
    const size_t size = 2 + rng.NextBounded(2);
    while (items.size() < size) {
      const ItemId item = static_cast<ItemId>(rng.NextBounded(7)) * stride;
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    std::sort(items.begin(), items.end());
    const size_t split = rng.NextBounded(items.size());
    PrecomputedRule r;
    r.rule.consequent = {items[split]};
    items.erase(items.begin() + static_cast<ptrdiff_t>(split));
    r.rule.antecedent = std::move(items);
    if (std::any_of(rules.begin(), rules.end(), [&r](const auto& held) {
          return held.rule == r.rule;
        })) {
      continue;
    }
    r.rule_count = rng.NextBool(0.7) ? pool[rng.NextBounded(pool.size())]
                                     : 1 + rng.NextBounded(total / 2);
    // Multiples of the count repeat a confidence across buckets.
    const uint64_t multiple = r.rule_count * (1 + rng.NextBounded(4));
    r.antecedent_count =
        rng.NextBool(0.5) && multiple <= total
            ? multiple
            : r.rule_count + rng.NextBounded(total - r.rule_count + 1);
    rules.push_back(std::move(r));
  }
  return rules;
}

double ConfidenceOf(const WindowIndex::Entry& e) {
  return static_cast<double>(e.rule_count) /
         static_cast<double>(e.antecedent_count);
}

bool Admits(const WindowIndex::Entry& e, uint64_t total, double s, double c) {
  return e.rule_count >= MinCountForSupport(s, total) &&
         ConfidenceOf(e) + 1e-12 >= c;
}

/// The admitted entries in serving order: support count descending, then
/// antecedent count ascending (confidence descending), then rule id.
std::vector<RuleId> FilterInServingOrder(
    std::vector<WindowIndex::Entry> entries, uint64_t total, double s,
    double c) {
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.rule_count != b.rule_count) return a.rule_count > b.rule_count;
    if (a.antecedent_count != b.antecedent_count) {
      return a.antecedent_count < b.antecedent_count;
    }
    return a.rule < b.rule;
  });
  std::vector<RuleId> out;
  for (const auto& e : entries) {
    if (Admits(e, total, s, c)) out.push_back(e.rule);
  }
  return out;
}

TEST(WindowIndexTest, AnswersMatchBruteForceInServingOrder) {
  Rng rng(2024);
  TaraEngine::Options options;
  options.min_support_floor = 1e-9;
  options.min_confidence_floor = 0.0;
  options.build_content_index = true;
  TaraEngine engine(options);
  std::vector<uint64_t> totals;
  for (int w = 0; w < 12; ++w) {
    // The last window counts past 2^32, too wide for one 64-bit sort key.
    const uint64_t total = w == 11 ? (uint64_t{1} << 40) + rng.NextBounded(999)
                                   : 40 + rng.NextBounded(600);
    // Every fourth window spreads its items far apart.
    const ItemId stride = w % 4 == 3 ? 1000003 : 1;
    engine.AppendPrecomputedWindow(total, OracleRules(rng, total, stride));
    totals.push_back(total);
  }
  const auto kb = engine.Snapshot();
  size_t collected = 0, content_hits = 0;
  for (WindowId w = 0; w < kb->window_count(); ++w) {
    const uint64_t total = totals[w];
    const WindowIndex& index = kb->window_index(w);
    const std::vector<WindowIndex::Entry>& entries = kb->window_entries(w);
    ASSERT_EQ(index.total_transactions(), total);

    // Settings between boundaries, and exactly on every bucket support k/n
    // and every location confidence a/b, each paired with the other kind.
    std::vector<double> supports, confidences;
    for (const auto& e : entries) {
      supports.push_back(static_cast<double>(e.rule_count) /
                         static_cast<double>(total));
      confidences.push_back(ConfidenceOf(e));
    }
    std::vector<ParameterSetting> settings;
    for (int i = 0; i < 40; ++i) {
      settings.push_back({rng.NextDouble() * 0.5, rng.NextDouble()});
    }
    for (const double s : supports) {
      settings.push_back({s, rng.NextDouble()});
      settings.push_back({s, confidences[rng.NextBounded(confidences.size())]});
    }
    for (const double c : confidences) {
      settings.push_back({rng.NextDouble() * 0.5, c});
    }

    for (const ParameterSetting& setting : settings) {
      const double s = setting.min_support;
      const double c = setting.min_confidence;
      const std::vector<RuleId> want =
          FilterInServingOrder(entries, total, s, c);
      std::vector<RuleId> got;
      index.CollectRules(s, c, &got);
      ASSERT_EQ(got, want) << "window " << w << " s=" << s << " c=" << c;
      ASSERT_EQ(index.CountRules(s, c), want.size());
      collected += want.size();

      // Q5 probes: empty, absent, duplicate and unsorted items.
      const ItemId stride = w % 4 == 3 ? 1000003 : 1;
      const ItemId a = static_cast<ItemId>(rng.NextBounded(7)) * stride;
      const ItemId b = static_cast<ItemId>(rng.NextBounded(7)) * stride;
      const std::vector<Itemset> probes = {
          {}, {a}, {a, a}, {b, a}, {std::max(a, b), std::min(a, b), a},
          {a, 7 * stride}};
      for (const Itemset& probe : probes) {
        std::vector<RuleId> content;
        index.ContentQuery(probe, s, c, &content);
        if (probe.empty()) {
          EXPECT_EQ(content, got) << "an empty probe is a plain collect";
          continue;
        }
        std::vector<RuleId> expected;
        for (const auto& e : entries) {
          const Rule& rule = kb->catalog().rule(e.rule);
          const auto holds = [&rule](ItemId item) {
            return std::count(rule.antecedent.begin(), rule.antecedent.end(),
                              item) +
                       std::count(rule.consequent.begin(),
                                  rule.consequent.end(), item) >
                   0;
          };
          if (Admits(e, total, s, c) &&
              std::all_of(probe.begin(), probe.end(), holds)) {
            expected.push_back(e.rule);
          }
        }
        std::sort(expected.begin(), expected.end());
        ASSERT_EQ(content, expected) << "window " << w << " s=" << s;
        content_hits += expected.size();
      }

      // The merged view, grouped by brute force.
      std::map<ItemId, std::vector<RuleId>> grouped;
      for (const RuleId id : want) {
        const Rule& rule = kb->catalog().rule(id);
        for (const ItemId item : rule.antecedent) grouped[item].push_back(id);
        for (const ItemId item : rule.consequent) grouped[item].push_back(id);
      }
      for (auto& [item, rules] : grouped) std::sort(rules.begin(), rules.end());
      const auto view = kb->ContentView(w, setting);
      ASSERT_TRUE(view.has_value());
      std::map<ItemId, std::vector<RuleId>> served;
      for (size_t i = 0; i < view->items.size(); ++i) {
        const std::span<const RuleId> rules = view->rules_of(i);
        served[view->items[i]].assign(rules.begin(), rules.end());
      }
      ASSERT_EQ(served.size(), view->items.size()) << "an item named twice";
      ASSERT_TRUE(std::is_sorted(view->items.begin(), view->items.end()));
      ASSERT_EQ(served, grouped) << "window " << w << " s=" << s;
    }

    // Q3, strictly between boundaries: the region brackets the setting,
    // and every setting inside it collects the same rules.
    for (int i = 0; i < 40; ++i) {
      const double s = 0.001 + rng.NextDouble() * 0.6;
      const double c = 0.001 + rng.NextDouble() * 0.998;
      const RegionInfo region = index.Locate(s, c);
      ASSERT_LT(region.support_lower, s);
      ASSERT_LE(s, region.support_upper);
      ASSERT_LT(region.confidence_lower, c);
      ASSERT_LE(c, region.confidence_upper);
      std::vector<RuleId> here;
      index.CollectRules(s, c, &here);
      ASSERT_EQ(here.size(), region.result_size);
      for (int j = 0; j < 4; ++j) {
        const double s2 = region.support_lower +
                          (region.support_upper - region.support_lower) *
                              (0.01 + 0.98 * rng.NextDouble());
        const double c2 = region.confidence_lower +
                          (region.confidence_upper - region.confidence_lower) *
                              (0.01 + 0.98 * rng.NextDouble());
        std::vector<RuleId> there;
        index.CollectRules(s2, c2, &there);
        ASSERT_EQ(Sorted(there), Sorted(here))
            << "window " << w << " (" << s << ", " << c << ") vs (" << s2
            << ", " << c2 << ")";
      }
    }
  }
  EXPECT_GT(collected, 1000u);
  EXPECT_GT(content_hits, 100u);
}

// Past 2^53 two antecedent counts can convert to one double: the rules
// then share one confidence, so one location, in rule-id order.
TEST(WindowIndexTest, EqualConfidencesShareOneLocation) {
  Fixture fx;
  const uint64_t base = uint64_t{3} << 55;
  const RuleId low = fx.AddRule(1, 2, uint64_t{1} << 55, base);
  const RuleId high = fx.AddRule(2, 3, uint64_t{1} << 55, base + 1);
  const RuleId other = fx.AddRule(3, 4, uint64_t{1} << 55, base + 4096);
  std::swap(fx.entries[0].rule, fx.entries[1].rule);  // the larger id first
  WindowIndex index;
  index.Build(fx.entries, uint64_t{1} << 60, false, fx.catalog);
  EXPECT_EQ(index.location_count(), 2u);
  std::vector<RuleId> out;
  index.CollectRules(0.01, 0.0, &out);
  EXPECT_EQ(out, (std::vector<RuleId>{low, high, other}));
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
