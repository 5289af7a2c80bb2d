#include "mining/frequent_itemset.h"

#include <algorithm>
#include <cmath>

namespace tara {

void SortItemsets(std::vector<FrequentItemset>* itemsets) {
  std::sort(itemsets->begin(), itemsets->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });
}

uint64_t MinCountForSupport(double min_support, size_t n) {
  const double count = std::ceil(min_support * static_cast<double>(n) - 1e-9);
  // Casting a double at or past 2^64 to uint64_t is undefined.
  if (!(count < 0x1p64)) return UINT64_MAX;
  return count < 1.0 ? 1 : static_cast<uint64_t>(count);
}

}  // namespace tara
