#ifndef TARA_CORE_RULE_CATALOG_H_
#define TARA_CORE_RULE_CATALOG_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

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
/// is one flat open-addressing table of ids with each rule's hash cached
/// by id, so it holds no second copy of a rule and no node per rule; the
/// catalog can be neither copied nor moved, and it lives behind a
/// shared_ptr.
///
/// Thread-safety: readers (Find / rule / ForEachRule / size / FormatRule)
/// may run concurrently with one Intern-ing writer — a mapped open
/// interns the windows a query needs while other queries build EPS slices
/// that read rule contents. The deque and the table are guarded by a
/// shared_mutex; readers take it shared, once per call.
class RuleCatalog {
 public:
  RuleCatalog() = default;
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
  static uint64_t Hash(const Rule& rule);
  /// The slot that holds the id of a rule equal to `rule` (hash `hash`),
  /// or the empty slot where it would go.
  size_t Probe(const Rule& rule, uint64_t hash) const;
  /// Rehashes into enough slots for `rules` ids at most half full.
  void Reserve(size_t rules);

  mutable std::shared_mutex mutex_;
  /// Deque, not vector: growth never relocates existing rules, so readers
  /// holding references are safe across concurrent Intern calls.
  std::deque<Rule> rules_;
  std::vector<uint64_t> hashes_;  ///< Hash(rules_[id]), by id
  /// Power-of-two size; kNotFound marks an empty slot.
  std::vector<RuleId> slots_ = std::vector<RuleId>(16, kNotFound);
};

}  // namespace tara

#endif  // TARA_CORE_RULE_CATALOG_H_
