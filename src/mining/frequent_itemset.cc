#include "mining/frequent_itemset.h"

#include <algorithm>

namespace tara {

void SortItemsets(std::vector<FrequentItemset>* itemsets) {
  std::sort(itemsets->begin(), itemsets->end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });
}

}  // namespace tara
