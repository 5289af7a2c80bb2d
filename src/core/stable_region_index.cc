#include "core/stable_region_index.h"

#include <algorithm>
#include <bit>
#include <span>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "mining/measures.h"

namespace tara {
namespace {

using Entry = WindowIndex::Entry;

double ConfidenceOf(uint64_t rule_count, uint64_t antecedent_count) {
  return static_cast<double>(rule_count) /
         static_cast<double>(antecedent_count);
}

/// The entries in location order: rule count descending, then antecedent
/// count ascending, then rule id. Within one rule count a larger
/// antecedent count is a lower confidence, so this is descending
/// confidence with no division. Each radix sort is stable, so sorting by
/// the least significant field first orders by all three.
std::vector<Entry> InLocationOrder(const std::vector<Entry>& entries) {
  std::vector<Entry> sorted = entries;
  RadixSort(&sorted, [](const Entry& e) { return e.rule; });
  RadixSort(&sorted, [](const Entry& e) { return e.antecedent_count; });
  RadixSort(&sorted, [](const Entry& e) { return ~e.rule_count; });
  return sorted;
}

}  // namespace

void WindowIndex::Build(const std::vector<Entry>& entries,
                        uint64_t total_transactions, bool build_content_index,
                        const RuleCatalog& catalog) {
  *this = WindowIndex();
  total_transactions_ = total_transactions;
  has_content_index_ = build_content_index;

  TARA_CHECK_LE(entries.size(), UINT32_MAX);
  for (const Entry& e : entries) {
    TARA_CHECK(e.rule_count > 0 && e.antecedent_count >= e.rule_count);
  }

  // A location is a run of one rule count and one confidence; rules share
  // it when both their counts match (Lemma 2). Each confidence is
  // computed once, at the first entry of its count pair.
  const std::vector<Entry> sorted = InLocationOrder(entries);
  const size_t n = sorted.size();
  rules_.resize(n);
  bool merged = false;
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = sorted[i];
    rules_[i] = e.rule;
    const bool new_bucket = i == 0 || e.rule_count != sorted[i - 1].rule_count;
    if (!new_bucket && e.antecedent_count == sorted[i - 1].antecedent_count) {
      continue;
    }
    const double confidence = ConfidenceOf(e.rule_count, e.antecedent_count);
    if (new_bucket) {
      bucket_begin_.push_back(static_cast<uint32_t>(location_begin_.size()));
      bucket_count_.push_back(e.rule_count);
    } else if (confidence == location_confidence_.back()) {
      // Antecedent counts past 2^52 can round to one confidence; the
      // location then takes both, its rules in id order.
      merged = true;
      continue;
    }
    location_begin_.push_back(static_cast<uint32_t>(i));
    location_confidence_.push_back(confidence);
  }
  location_begin_.push_back(static_cast<uint32_t>(n));
  bucket_begin_.push_back(static_cast<uint32_t>(location_confidence_.size()));
  if (merged) {
    for (size_t l = 0; l + 1 < location_begin_.size(); ++l) {
      std::sort(rules_.begin() + location_begin_[l],
                rules_.begin() + location_begin_[l + 1]);
    }
  }

  // Positive doubles order as their bit patterns.
  std::vector<uint64_t> grid(location_confidence_.size());
  for (size_t l = 0; l < grid.size(); ++l) {
    grid[l] = std::bit_cast<uint64_t>(location_confidence_[l]);
  }
  RadixSort(&grid);
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  confidence_grid_.resize(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    confidence_grid_[i] = std::bit_cast<double>(grid[i]);
  }

  if (!build_content_index) return;
  // Positions in rule-id order, each remembering its location.
  by_rule_.resize(n);
  for (uint32_t l = 0; l < location_confidence_.size(); ++l) {
    for (uint32_t i = location_begin_[l]; i < location_begin_[l + 1]; ++i) {
      by_rule_[i] = uint64_t{rules_[i]} << 32 | l;
    }
  }
  RadixSort(&by_rule_, [](uint64_t position) { return position >> 32; });

  // (item, position) pairs in position order, then stably by item.
  std::vector<RuleId> ids(n);
  for (size_t p = 0; p < n; ++p) {
    ids[p] = static_cast<RuleId>(by_rule_[p] >> 32);
  }
  std::vector<uint64_t> pairs;
  pairs.reserve(4 * n);
  catalog.ForEachRule(ids, [&pairs](size_t p, const Rule& rule) {
    for (const Itemset* side : {&rule.antecedent, &rule.consequent}) {
      for (const ItemId item : *side) pairs.push_back(uint64_t{item} << 32 | p);
    }
  });
  TARA_CHECK_LE(pairs.size(), UINT32_MAX);
  RadixSort(&pairs, [](uint64_t pair) { return pair >> 32; });
  postings_.resize(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto item = static_cast<ItemId>(pairs[i] >> 32);
    if (content_items_.empty() || content_items_.back() != item) {
      content_items_.push_back(item);
      item_begin_.push_back(static_cast<uint32_t>(i));
    }
    postings_[i] = static_cast<uint32_t>(pairs[i]);
  }
  item_begin_.push_back(static_cast<uint32_t>(pairs.size()));
}

size_t WindowIndex::AdmittedBuckets(double min_support) const {
  const uint64_t min_count =
      MinCountForSupport(min_support, total_transactions_);
  return static_cast<size_t>(
      std::partition_point(
          bucket_count_.begin(), bucket_count_.end(),
          [min_count](uint64_t count) { return count >= min_count; }) -
      bucket_count_.begin());
}

uint32_t WindowIndex::AdmittedEnd(size_t b, double min_confidence) const {
  const auto first = location_confidence_.begin();
  return static_cast<uint32_t>(
      std::partition_point(first + bucket_begin_[b],
                           first + bucket_begin_[b + 1],
                           [min_confidence](double confidence) {
                             return AdmitsConfidence(confidence,
                                                     min_confidence);
                           }) -
      first);
}

void WindowIndex::CollectRules(double min_support, double min_confidence,
                               std::vector<RuleId>* out) const {
  const size_t buckets = AdmittedBuckets(min_support);
  for (size_t b = 0; b < buckets; ++b) {
    const auto first = rules_.begin() + location_begin_[bucket_begin_[b]];
    const auto last =
        rules_.begin() + location_begin_[AdmittedEnd(b, min_confidence)];
    out->insert(out->end(), first, last);
  }
}

size_t WindowIndex::CountRules(double min_support,
                               double min_confidence) const {
  const size_t buckets = AdmittedBuckets(min_support);
  size_t count = 0;
  for (size_t b = 0; b < buckets; ++b) {
    count += location_begin_[AdmittedEnd(b, min_confidence)] -
             location_begin_[bucket_begin_[b]];
  }
  return count;
}

RegionInfo WindowIndex::Locate(double min_support,
                               double min_confidence) const {
  RegionInfo region;
  region.result_size = CountRules(min_support, min_confidence);

  // The bounds are the boundaries on either side of the admission cut:
  // the last admitted and the first refused support bucket (buckets
  // descend), and the first admitted and the last refused confidence on
  // the ascending grid.
  const size_t buckets = AdmittedBuckets(min_support);
  const auto support = [this](size_t b) {
    return static_cast<double>(bucket_count_[b]) /
           static_cast<double>(total_transactions_);
  };
  region.support_upper = buckets == 0 ? 1.0 : support(buckets - 1);
  region.support_lower =
      buckets == bucket_count_.size() ? 0.0 : support(buckets);
  const auto it = std::partition_point(
      confidence_grid_.begin(), confidence_grid_.end(),
      [min_confidence](double confidence) {
        return !AdmitsConfidence(confidence, min_confidence);
      });
  region.confidence_upper = it == confidence_grid_.end() ? 1.0 : *it;
  region.confidence_lower = it == confidence_grid_.begin() ? 0.0 : *(it - 1);
  return region;
}

void WindowIndex::ContentQuery(const Itemset& items, double min_support,
                               double min_confidence,
                               std::vector<RuleId>* out) const {
  TARA_CHECK(has_content_index_)
      << "ContentQuery requires the TARA-S content index";
  if (items.empty()) {
    CollectRules(min_support, min_confidence, out);
    return;
  }
  // Intersect the per-item postings, smallest first. Positions ascend
  // with rule ids, so the survivors come out in rule-id order.
  std::vector<std::span<const uint32_t>> lists;
  lists.reserve(items.size());
  for (const ItemId item : items) {
    const auto it = std::lower_bound(content_items_.begin(),
                                     content_items_.end(), item);
    if (it == content_items_.end() || *it != item) return;  // never occurs
    const size_t i = static_cast<size_t>(it - content_items_.begin());
    lists.emplace_back(postings_.data() + item_begin_[i],
                       item_begin_[i + 1] - item_begin_[i]);
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  std::span<const uint32_t> current = lists[0];
  std::vector<uint32_t> kept, next;
  for (size_t i = 1; i < lists.size() && !current.empty(); ++i) {
    next.clear();
    std::set_intersection(current.begin(), current.end(), lists[i].begin(),
                          lists[i].end(), std::back_inserter(next));
    kept.swap(next);
    current = kept;
  }

  // A location is admitted iff its bucket is and its confidence passes.
  const uint32_t admitted = bucket_begin_[AdmittedBuckets(min_support)];
  for (const uint32_t p : current) {
    const auto location = static_cast<uint32_t>(by_rule_[p]);
    if (location < admitted &&
        AdmitsConfidence(location_confidence_[location], min_confidence)) {
      out->push_back(static_cast<RuleId>(by_rule_[p] >> 32));
    }
  }
}

size_t WindowIndex::region_count() const {
  // Grid cells spanned by the support boundaries (+1 for the region above
  // the largest value) times confidence boundaries (+1 likewise).
  return (bucket_count_.size() + 1) * (confidence_grid_.size() + 1);
}

size_t WindowIndex::ApproximateBytes() const {
  const auto bytes = [](const auto& array) {
    return array.size() * sizeof(array[0]);
  };
  return sizeof(*this) + bytes(rules_) + bytes(location_begin_) +
         bytes(location_confidence_) + bytes(bucket_begin_) +
         bytes(bucket_count_) + bytes(confidence_grid_) + bytes(by_rule_) +
         bytes(content_items_) + bytes(item_begin_) + bytes(postings_);
}

}  // namespace tara
