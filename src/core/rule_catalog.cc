#include "core/rule_catalog.h"

#include <bit>
#include <mutex>
#include <sstream>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace tara {

uint64_t RuleCatalog::Hash(const Rule& rule) {
  return HashCombine(HashSpan(rule.antecedent), HashSpan(rule.consequent));
}

size_t RuleCatalog::Probe(const Rule& rule, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i] != kNotFound &&
         (hashes_[slots_[i]] != hash || rules_[slots_[i]] != rule)) {
    i = (i + 1) & mask;
  }
  return i;
}

void RuleCatalog::Reserve(size_t rules) {
  if (2 * rules <= slots_.size()) return;
  slots_.assign(std::bit_ceil(2 * rules), kNotFound);
  for (RuleId id = 0; id < hashes_.size(); ++id) {
    slots_[Probe(rules_[id], hashes_[id])] = id;
  }
}

RuleId RuleCatalog::Intern(const Rule& rule) {
  const uint64_t hash = Hash(rule);
  std::unique_lock<std::shared_mutex> lock(mutex_);
  Reserve(rules_.size() + 1);
  RuleId& slot = slots_[Probe(rule, hash)];
  if (slot == kNotFound) {
    slot = static_cast<RuleId>(rules_.size());
    rules_.push_back(rule);
    hashes_.push_back(hash);
  }
  return slot;
}

std::optional<size_t> RuleCatalog::InternNew(std::span<Rule> rules) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  Reserve(rules_.size() + rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    const uint64_t hash = Hash(rules[i]);
    RuleId& slot = slots_[Probe(rules[i], hash)];
    if (slot == kNotFound) {
      slot = static_cast<RuleId>(rules_.size());
      rules_.push_back(std::move(rules[i]));
      hashes_.push_back(hash);
      continue;
    }
    // Hand every rule back and empty their slots, newest first: undoing
    // linear-probing inserts in reverse order restores the table exactly.
    for (size_t j = i; j-- > 0;) {
      slots_[Probe(rules_.back(), hashes_.back())] = kNotFound;
      rules[j] = std::move(rules_.back());
      rules_.pop_back();
      hashes_.pop_back();
    }
    return i;
  }
  return std::nullopt;
}

RuleId RuleCatalog::Find(const Rule& rule) const {
  const uint64_t hash = Hash(rule);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return slots_[Probe(rule, hash)];
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
