#ifndef TARA_CORE_STABLE_REGION_INDEX_H_
#define TARA_CORE_STABLE_REGION_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/rule_catalog.h"
#include "txdb/types.h"

namespace tara {

/// The time-aware stable region enclosing a query setting (Definition 11),
/// reported by the Q3 parameter-recommendation operation. The bounds are
/// the window's support and confidence boundaries on either side of the
/// setting's admission cut (mining/measures.h), so any (minsupp, minconf)
/// inside (support_lower, support_upper] × (confidence_lower,
/// confidence_upper] — up to the admission tests' tolerances — yields the
/// same ruleset, whose size is `result_size`, and two settings given the
/// same bounds get the same ruleset. The region's upper corner is its cut
/// location (Definition 12).
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
///
/// The layout is flat: one rule-id array in location order, cut into
/// locations and the locations into buckets by offset arrays (compressed
/// sparse rows), so a build sorts integers into a handful of arrays
/// however many locations the window holds.
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
  void Build(const std::vector<Entry>& entries, uint64_t total_transactions,
             bool build_content_index, const RuleCatalog& catalog);

  uint64_t total_transactions() const { return total_transactions_; }

  /// Appends every rule valid under (min_support, min_confidence), in
  /// location order: support count descending, then confidence
  /// descending, then rule id.
  void CollectRules(double min_support, double min_confidence,
                    std::vector<RuleId>* out) const;

  /// Number of rules valid under the setting without materializing them.
  size_t CountRules(double min_support, double min_confidence) const;

  /// Q3: the stable region containing the setting.
  RegionInfo Locate(double min_support, double min_confidence) const;

  /// Q5: rules valid under the setting that contain all of `items` in
  /// antecedent ∪ consequent, in rule-id order (location order when
  /// `items` is empty). Requires build_content_index.
  void ContentQuery(const Itemset& items, double min_support,
                    double min_confidence, std::vector<RuleId>* out) const;

  /// Number of distinct temporal parametric locations.
  size_t location_count() const { return location_confidence_.size(); }

  /// Number of stable regions in this window's EPS slice (grid cells
  /// spanned by the unique support and confidence boundaries).
  size_t region_count() const;

  /// Heap footprint of the index arrays, for Figure 12.
  size_t ApproximateBytes() const;

 private:
  /// The number of leading buckets whose rule count reaches the support
  /// threshold (buckets descend, so the admitted ones are a prefix).
  size_t AdmittedBuckets(double min_support) const;
  /// Past-the-end location of bucket `b`'s admitted prefix: its locations
  /// descend in confidence, so collection stops at the first one below.
  uint32_t AdmittedEnd(size_t b, double min_confidence) const;

  uint64_t total_transactions_ = 0;
  /// Rule ids in location order.
  std::vector<RuleId> rules_;
  /// Location l holds rules_[location_begin_[l], location_begin_[l + 1]).
  std::vector<uint32_t> location_begin_;
  /// Each location's confidence, computed once at build.
  std::vector<double> location_confidence_;
  /// Bucket b holds locations [bucket_begin_[b], bucket_begin_[b + 1]),
  /// all with rule count bucket_count_[b]; buckets descend in count.
  std::vector<uint32_t> bucket_begin_;
  std::vector<uint64_t> bucket_count_;
  /// Unique confidence values ascending (region grid boundaries).
  std::vector<double> confidence_grid_;

  // The content index (TARA-S only). Positions number the window's rules
  // in rule-id order; position p is rule by_rule_[p] >> 32 at location
  // by_rule_[p] & 0xffffffff. content_items_ holds the items in ascending
  // order, and item i's postings are the ascending positions
  // postings_[item_begin_[i], item_begin_[i + 1]).
  std::vector<uint64_t> by_rule_;
  std::vector<ItemId> content_items_;
  std::vector<uint32_t> item_begin_;
  std::vector<uint32_t> postings_;
  bool has_content_index_ = false;
};

}  // namespace tara

#endif  // TARA_CORE_STABLE_REGION_INDEX_H_
