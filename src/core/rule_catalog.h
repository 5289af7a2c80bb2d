#ifndef TARA_CORE_RULE_CATALOG_H_
#define TARA_CORE_RULE_CATALOG_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>

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
/// Thread-safety: readers (Find / rule / size / FormatRule) may run
/// concurrently with one Intern-ing writer — the parallel offline build
/// interns a window's rules on the commit thread while EPS builds of
/// earlier windows read rule content off-thread. Rules live in a deque so
/// a `const Rule&` obtained from rule() stays valid forever (rules are
/// never removed); the map and deque themselves are guarded by a
/// shared_mutex. After the build finishes the catalog is read-only and the
/// uncontended shared locks cost a few nanoseconds on the query path.
class RuleCatalog {
 public:
  RuleCatalog() = default;

  /// Movable (not thread-safe to move concurrently with any other access;
  /// moves happen only when an engine is returned by value from a loader).
  RuleCatalog(RuleCatalog&& other) noexcept;
  RuleCatalog& operator=(RuleCatalog&& other) noexcept;

  /// Returns the id for `rule`, interning it if new. Single writer at a
  /// time (the build commit stage is serialized).
  RuleId Intern(const Rule& rule);

  /// Interns `rules`, which must all be new, as the next ids
  /// [size(), size() + rules.size()) in order, moving them in. All or
  /// nothing: when one of them is already interned, or two of them are
  /// equal, the catalog is left unchanged and the index of the first
  /// offender comes back. Single writer, like Intern.
  std::optional<size_t> InternNew(std::span<Rule> rules);

  /// Returns the id for `rule` or kNotFound if never interned.
  RuleId Find(const Rule& rule) const;

  /// The interned rule. The reference remains valid for the catalog's
  /// lifetime even while later rules are interned.
  const Rule& rule(RuleId id) const;

  size_t size() const;

  /// Human-readable "a b -> c" form (ids; see FormatRuleNamed for names).
  std::string FormatRule(RuleId id) const;

  static constexpr RuleId kNotFound = static_cast<RuleId>(-1);

 private:
  struct RuleHash {
    size_t operator()(const Rule& r) const;
  };
  mutable std::shared_mutex mutex_;
  std::unordered_map<Rule, RuleId, RuleHash> ids_;
  /// Deque, not vector: growth never relocates existing rules, so readers
  /// holding references are safe across concurrent Intern calls.
  std::deque<Rule> rules_;
};

}  // namespace tara

#endif  // TARA_CORE_RULE_CATALOG_H_
