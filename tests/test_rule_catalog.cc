#include <optional>
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

TEST(RuleCatalogDeathTest, RejectsUnknownIds) {
  RuleCatalog catalog;
  catalog.Intern(Rule{{1}, {2}});
  EXPECT_DEATH(catalog.rule(5), "unknown rule id");
}

}  // namespace
}  // namespace tara
