#include "core/rule_catalog.h"

#include <mutex>
#include <sstream>
#include <utility>

#include "common/hash.h"

namespace tara {

size_t RuleCatalog::IdHash::operator()(const Rule& rule) const {
  return HashCombine(HashSpan(rule.antecedent), HashSpan(rule.consequent));
}

RuleCatalog::RuleCatalog()
    : ids_(0, IdHash{&rules_}, IdEqual{&rules_}) {}

RuleId RuleCatalog::Intern(const Rule& rule) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (const auto it = ids_.find(rule); it != ids_.end()) return *it;
  const auto id = static_cast<RuleId>(rules_.size());
  rules_.push_back(rule);
  ids_.insert(id);
  return id;
}

std::optional<size_t> RuleCatalog::InternNew(std::span<Rule> rules) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  const size_t base = rules_.size();
  for (size_t i = 0; i < rules.size(); ++i) {
    rules_.push_back(std::move(rules[i]));
    if (ids_.insert(static_cast<RuleId>(base + i)).second) continue;
    // Hand every rule back, the offender first, and forget their ids.
    for (size_t j = i + 1; j-- > 0;) {
      if (j < i) ids_.erase(static_cast<RuleId>(base + j));
      rules[j] = std::move(rules_.back());
      rules_.pop_back();
    }
    return i;
  }
  return std::nullopt;
}

RuleId RuleCatalog::Find(const Rule& rule) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = ids_.find(rule);
  return it == ids_.end() ? kNotFound : *it;
}

const Rule& RuleCatalog::rule(RuleId id) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  TARA_CHECK_LT(id, rules_.size()) << "unknown rule id";
  return rules_[id];
}

size_t RuleCatalog::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return rules_.size();
}

std::string RuleCatalog::FormatRule(RuleId id) const {
  const Rule& r = rule(id);
  std::ostringstream out;
  for (size_t i = 0; i < r.antecedent.size(); ++i) {
    if (i) out << ' ';
    out << r.antecedent[i];
  }
  out << " -> ";
  for (size_t i = 0; i < r.consequent.size(); ++i) {
    if (i) out << ' ';
    out << r.consequent[i];
  }
  return out.str();
}

}  // namespace tara
