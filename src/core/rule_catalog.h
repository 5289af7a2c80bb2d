#ifndef TARA_CORE_RULE_CATALOG_H_
#define TARA_CORE_RULE_CATALOG_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_set>

#include "common/logging.h"
#include "txdb/types.h"

namespace tara {

/// Dense identifier of an interned association rule, stable across windows.
using RuleId = uint32_t;

/// An association rule X ⇒ Y (antecedent ⇒ consequent), canonical itemsets.
struct Rule {
  Itemset antecedent;
  Itemset consequent;

  bool operator==(const Rule& other) const {
    return antecedent == other.antecedent && consequent == other.consequent;
  }
};

/// Interns rules into dense RuleIds shared by the archive and all window
/// indexes. A rule that reappears in a later window keeps its id, which is
/// what makes cross-window trajectories cheap to assemble.
///
/// Each rule is stored once, in a deque, so a `const Rule&` obtained from
/// rule() stays valid forever (rules are never removed). The lookup side
/// is a set of ids hashed and compared through the rules they name, so
/// it holds no second copy; because it points into the deque, the catalog
/// can be neither copied nor moved, and it lives behind a shared_ptr.
///
/// Thread-safety: readers (Find / rule / ForEachRule / size / FormatRule)
/// may run concurrently with one Intern-ing writer — a mapped open
/// interns the windows a query needs while other queries build EPS slices
/// that read rule contents. Both the deque and the id set are guarded by
/// a shared_mutex; readers take it shared, once per call.
class RuleCatalog {
 public:
  RuleCatalog();
  RuleCatalog(const RuleCatalog&) = delete;
  RuleCatalog& operator=(const RuleCatalog&) = delete;

  /// Returns the id for `rule`, interning it if new. Single writer at a
  /// time (the build commit stage is serialized).
  RuleId Intern(const Rule& rule);

  /// Interns `rules`, which must all be new, as the next ids
  /// [size(), size() + rules.size()) in order, moving them in. All or
  /// nothing: when one of them is already interned, or two of them are
  /// equal, the catalog and `rules` are left unchanged and the index of
  /// the first offender comes back. Single writer, like Intern.
  std::optional<size_t> InternNew(std::span<Rule> rules);

  /// Returns the id for `rule` or kNotFound if never interned.
  RuleId Find(const Rule& rule) const;

  /// The interned rule. The reference remains valid for the catalog's
  /// lifetime even while later rules are interned.
  const Rule& rule(RuleId id) const;

  /// Calls visit(i, rule(ids[i])) for each i in order, taking the lock
  /// once for the whole span rather than once per rule. `visit` runs
  /// under the shared lock, so it must not call back into the catalog.
  template <typename Visit>
  void ForEachRule(std::span<const RuleId> ids, Visit visit) const {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (size_t i = 0; i < ids.size(); ++i) {
      TARA_CHECK_LT(ids[i], rules_.size()) << "unknown rule id";
      visit(i, rules_[ids[i]]);
    }
  }

  size_t size() const;

  /// Human-readable "a b -> c" form (ids; see FormatRuleNamed for names).
  std::string FormatRule(RuleId id) const;

  static constexpr RuleId kNotFound = static_cast<RuleId>(-1);

 private:
  /// Hash and equality of the id set: an id stands for the rule it names,
  /// and a Rule is accepted directly, so Find looks a rule up without
  /// interning it (transparent lookup).
  struct IdHash {
    using is_transparent = void;
    const std::deque<Rule>* rules;
    size_t operator()(const Rule& rule) const;
    size_t operator()(RuleId id) const { return (*this)((*rules)[id]); }
  };
  struct IdEqual {
    using is_transparent = void;
    const std::deque<Rule>* rules;
    bool operator()(RuleId a, RuleId b) const {
      return (*rules)[a] == (*rules)[b];
    }
    bool operator()(const Rule& a, RuleId b) const { return a == (*rules)[b]; }
    bool operator()(RuleId a, const Rule& b) const { return (*rules)[a] == b; }
  };

  mutable std::shared_mutex mutex_;
  /// Deque, not vector: growth never relocates existing rules, so readers
  /// holding references are safe across concurrent Intern calls.
  std::deque<Rule> rules_;
  std::unordered_set<RuleId, IdHash, IdEqual> ids_;
};

}  // namespace tara

#endif  // TARA_CORE_RULE_CATALOG_H_
