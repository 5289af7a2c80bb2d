#include "mining/rule_generation.h"

#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"

namespace tara {

size_t ItemsetCountIndex::Hash::operator()(const Itemset& s) const {
  return HashSpan(s);
}

ItemsetCountIndex::ItemsetCountIndex(
    const std::vector<FrequentItemset>& frequent) {
  counts_.reserve(frequent.size() * 2);
  for (const FrequentItemset& f : frequent) counts_[f.items] = f.count;
}

uint64_t ItemsetCountIndex::Count(const Itemset& items) const {
  auto it = counts_.find(items);
  return it == counts_.end() ? 0 : it->second;
}

namespace {

/// Enumerates non-empty proper subsets of `base` as antecedents via a
/// bitmask sweep. Caller guarantees |base| <= 20 (the miners' max_size caps
/// are far below this in practice; guarded by a CHECK).
void EmitRulesForItemset(const Itemset& base, uint64_t base_count,
                         const ItemsetCountIndex& index, double min_confidence,
                         std::vector<MinedRule>* out) {
  const size_t n = base.size();
  TARA_CHECK_LE(n, 20u) << "itemset too large for rule enumeration";
  const uint32_t limit = (1u << n) - 1;  // skip 0 (empty) and limit (full)
  Itemset antecedent;
  Itemset consequent;
  for (uint32_t mask = 1; mask < limit; ++mask) {
    antecedent.clear();
    consequent.clear();
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        antecedent.push_back(base[i]);
      } else {
        consequent.push_back(base[i]);
      }
    }
    const uint64_t antecedent_count = index.Count(antecedent);
    TARA_DCHECK(antecedent_count >= base_count)
        << "downward closure violated";
    if (AdmitsConfidence(base_count, antecedent_count, min_confidence)) {
      out->push_back(
          MinedRule{antecedent, consequent, base_count, antecedent_count});
    }
  }
}

}  // namespace

std::vector<MinedRule> GenerateRules(
    const std::vector<FrequentItemset>& frequent, double min_confidence,
    ThreadPool* pool) {
  ItemsetCountIndex index(frequent);
  if (pool == nullptr || pool->ChunkCountFor(frequent.size()) <= 1 ||
      ThreadPool::InWorkerThread()) {
    std::vector<MinedRule> rules;
    for (const FrequentItemset& f : frequent) {
      if (f.items.size() < 2) continue;
      EmitRulesForItemset(f.items, f.count, index, min_confidence, &rules);
    }
    return rules;
  }

  // Chunked sweep: each chunk fills its own slot; concatenating slots in
  // chunk order reproduces the sequential output exactly.
  std::vector<std::vector<MinedRule>> parts(
      pool->ChunkCountFor(frequent.size()));
  pool->ParallelFor(
      frequent.size(), [&](size_t chunk, size_t begin, size_t end) {
        std::vector<MinedRule>& out = parts[chunk];
        for (size_t i = begin; i < end; ++i) {
          const FrequentItemset& f = frequent[i];
          if (f.items.size() < 2) continue;
          EmitRulesForItemset(f.items, f.count, index, min_confidence, &out);
        }
      });
  std::vector<MinedRule> rules;
  size_t total = 0;
  for (const auto& part : parts) total += part.size();
  rules.reserve(total);
  for (auto& part : parts) {
    rules.insert(rules.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  return rules;
}

}  // namespace tara
