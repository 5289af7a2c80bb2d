#ifndef TARA_CORE_STABLE_REGION_INDEX_H_
#define TARA_CORE_STABLE_REGION_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "core/rule_catalog.h"
#include "txdb/types.h"

namespace tara {

/// The time-aware stable region enclosing a query setting (Definition 11),
/// reported by the Q3 parameter-recommendation operation. Any
/// (minsupp, minconf) inside (support_lower, support_upper] ×
/// (confidence_lower, confidence_upper] yields the same ruleset, whose size
/// is `result_size`. The region's upper corner is its cut location
/// (Definition 12).
struct RegionInfo {
  double support_lower = 0.0;
  double support_upper = 1.0;
  double confidence_lower = 0.0;
  double confidence_upper = 1.0;
  size_t result_size = 0;
};

/// One window's slice of the Evolving Parameter Space: every rule of the
/// window interned at its temporal parametric location (Definition 9,
/// realized as the exact count pair so equal locations compare exactly),
/// with locations organized for dominance collection.
///
/// A query (minsupp, minconf) walks the locations dominating the query
/// point — support-count buckets in descending order, each bucket's
/// locations sorted by descending confidence with early exit — so query
/// cost is proportional to the number of *locations* in the answer, never
/// to the data size. This is the index that makes the online phase
/// milliseconds instead of re-mining.
class WindowIndex {
 public:
  /// One rule observation used to build the index.
  struct Entry {
    RuleId rule = 0;
    uint64_t rule_count = 0;
    uint64_t antecedent_count = 0;
  };

  WindowIndex() = default;

  /// Builds the index for a window with `total_transactions` transactions.
  /// When `build_content_index` is set (the TARA-S variant), a per-item
  /// inverted index over the entries is kept for content-based
  /// exploration.
  /// A non-null `pool` parallelizes the stable-region sweep's dominant
  /// cost — sorting the entries into parametric-location order — via
  /// chunked sorts merged deterministically; the built index is identical
  /// to a sequential build.
  void Build(const std::vector<Entry>& entries, uint64_t total_transactions,
             bool build_content_index, const RuleCatalog& catalog,
             ThreadPool* pool = nullptr);

  uint64_t total_transactions() const { return total_transactions_; }

  /// Appends every rule valid under (min_support, min_confidence).
  void CollectRules(double min_support, double min_confidence,
                    std::vector<RuleId>* out) const;

  /// Number of rules valid under the setting without materializing them.
  size_t CountRules(double min_support, double min_confidence) const;

  /// Q3: the stable region containing the setting.
  RegionInfo Locate(double min_support, double min_confidence) const;

  /// Q5: rules valid under the setting that contain all of `items` in
  /// antecedent ∪ consequent. Requires build_content_index.
  void ContentQuery(const Itemset& items, double min_support,
                    double min_confidence, std::vector<RuleId>* out) const;

  /// Number of distinct temporal parametric locations.
  size_t location_count() const;

  /// Number of stable regions in this window's EPS slice (grid cells
  /// spanned by the unique support and confidence boundaries).
  size_t region_count() const;

  /// Approximate heap footprint of the index structures, for Figure 12.
  size_t ApproximateBytes() const;

 private:
  struct Location {
    uint64_t rule_count = 0;
    double confidence = 0.0;
    std::vector<RuleId> rules;
  };
  /// Locations with the same support count, confidence descending.
  struct Bucket {
    uint64_t rule_count = 0;
    std::vector<Location> locations;
  };

  uint64_t total_transactions_ = 0;
  /// Buckets in descending rule_count order.
  std::vector<Bucket> buckets_;
  /// Unique confidence values ascending (region grid boundaries).
  std::vector<double> confidence_grid_;
  /// item -> the entries of the rules containing it (TARA-S only), each
  /// list sorted by rule id. The postings carry the counts, so
  /// ContentQuery filters without a lookup.
  std::unordered_map<ItemId, std::vector<Entry>> content_index_;
  bool has_content_index_ = false;
};

}  // namespace tara

#endif  // TARA_CORE_STABLE_REGION_INDEX_H_
