#ifndef TARA_MINING_FREQUENT_ITEMSET_H_
#define TARA_MINING_FREQUENT_ITEMSET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "mining/measures.h"
#include "txdb/transaction_database.h"
#include "txdb/types.h"

namespace tara {

/// A frequent itemset together with its occurrence count in the mined range.
struct FrequentItemset {
  Itemset items;
  uint64_t count = 0;
};

/// Abstract frequent-itemset mining algorithm over an index slice
/// [begin, end) of a TransactionDatabase.
///
/// Three implementations are provided — Apriori, FP-Growth, and H-Mine —
/// which must produce identical results; the equivalence is enforced by the
/// parameterized test suite. FP-Growth is the default workhorse; H-Mine
/// doubles as the pregeneration stage of the paper's H-Mine baseline.
class FrequentItemsetMiner {
 public:
  struct Options {
    /// Minimum absolute occurrence count (MinCountForSupport).
    uint64_t min_count = 1;
    /// Maximum itemset cardinality; 0 means unlimited. Benchmark harnesses
    /// cap this to keep dense synthetic workloads tractable.
    uint32_t max_size = 0;
  };

  virtual ~FrequentItemsetMiner() = default;

  /// Mines all itemsets with count >= options.min_count among transactions
  /// [begin, end). Result order is unspecified; itemsets are canonical.
  virtual std::vector<FrequentItemset> Mine(const TransactionDatabase& db,
                                            size_t begin, size_t end,
                                            const Options& options) const = 0;

  /// Algorithm name for reports ("apriori", "fp-growth", "h-mine").
  virtual std::string name() const = 0;
};

/// Sorts itemsets lexicographically — a canonical order for comparing the
/// outputs of different miners.
void SortItemsets(std::vector<FrequentItemset>* itemsets);

}  // namespace tara

#endif  // TARA_MINING_FREQUENT_ITEMSET_H_
