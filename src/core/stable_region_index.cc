#include "core/stable_region_index.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "mining/frequent_itemset.h"

namespace tara {
namespace {

double ConfidenceOf(uint64_t rule_count, uint64_t antecedent_count) {
  return antecedent_count == 0
             ? 0.0
             : static_cast<double>(rule_count) /
                   static_cast<double>(antecedent_count);
}

/// Strict total order on entries: descending support count, then
/// descending confidence, then rule id. Total because rule ids are unique
/// within a window, so every sort — chunked or not — yields one sequence.
bool LocationLess(const WindowIndex::Entry& a, const WindowIndex::Entry& b) {
  if (a.rule_count != b.rule_count) return a.rule_count > b.rule_count;
  const double ca = ConfidenceOf(a.rule_count, a.antecedent_count);
  const double cb = ConfidenceOf(b.rule_count, b.antecedent_count);
  if (ca != cb) return ca > cb;
  return a.rule < b.rule;
}

bool RuleLess(const WindowIndex::Entry& a, const WindowIndex::Entry& b) {
  return a.rule < b.rule;
}

/// Sorts `entries` into parametric-location order, chunk-sorting on the
/// pool and merging when one is supplied. Small inputs sort inline — the
/// fan-out overhead would dwarf the work.
void SortByLocation(std::vector<WindowIndex::Entry>* entries,
                    ThreadPool* pool) {
  constexpr size_t kParallelSortMin = 4096;
  const size_t n = entries->size();
  if (pool == nullptr || n < kParallelSortMin ||
      pool->ChunkCountFor(n) <= 1) {
    std::sort(entries->begin(), entries->end(), LocationLess);
    return;
  }
  const size_t chunks = pool->ChunkCountFor(n);
  std::vector<std::pair<size_t, size_t>> ranges(chunks);
  pool->ParallelFor(n, [&](size_t chunk, size_t begin, size_t end) {
    std::sort(entries->begin() + begin, entries->begin() + end, LocationLess);
    ranges[chunk] = {begin, end};
  });
  // Fold the sorted chunks left-to-right; the comparator's total order
  // makes the merged sequence identical to a single full sort.
  size_t merged_end = ranges[0].second;
  for (size_t c = 1; c < chunks; ++c) {
    std::inplace_merge(entries->begin(), entries->begin() + merged_end,
                       entries->begin() + ranges[c].second, LocationLess);
    merged_end = ranges[c].second;
  }
}

}  // namespace

void WindowIndex::Build(const std::vector<Entry>& entries,
                        uint64_t total_transactions, bool build_content_index,
                        const RuleCatalog& catalog, ThreadPool* pool) {
  total_transactions_ = total_transactions;
  has_content_index_ = build_content_index;
  buckets_.clear();
  confidence_grid_.clear();
  content_index_.clear();

  for (const Entry& e : entries) {
    TARA_CHECK(e.rule_count > 0 && e.antecedent_count >= e.rule_count);
  }

  // Group by exact location (rule_count, antecedent_count determines the
  // confidence exactly; two rules share a location iff both counts match —
  // Lemma 2's distinctness guarantee).
  std::vector<Entry> sorted = entries;
  SortByLocation(&sorted, pool);

  for (const Entry& e : sorted) {
    const double conf = ConfidenceOf(e.rule_count, e.antecedent_count);
    if (buckets_.empty() || buckets_.back().rule_count != e.rule_count) {
      buckets_.push_back(Bucket{e.rule_count, {}});
    }
    Bucket& bucket = buckets_.back();
    if (bucket.locations.empty() ||
        bucket.locations.back().confidence != conf) {
      bucket.locations.push_back(Location{e.rule_count, conf, {}});
    }
    bucket.locations.back().rules.push_back(e.rule);
    confidence_grid_.push_back(conf);
  }
  std::sort(confidence_grid_.begin(), confidence_grid_.end());
  confidence_grid_.erase(
      std::unique(confidence_grid_.begin(), confidence_grid_.end()),
      confidence_grid_.end());

  if (build_content_index) {
    for (const Entry& e : entries) {
      const Rule& rule = catalog.rule(e.rule);
      for (ItemId item : rule.antecedent) content_index_[item].push_back(e);
      for (ItemId item : rule.consequent) content_index_[item].push_back(e);
    }
    for (auto& [item, postings] : content_index_) {
      std::sort(postings.begin(), postings.end(), RuleLess);
    }
  }
}

void WindowIndex::CollectRules(double min_support, double min_confidence,
                               std::vector<RuleId>* out) const {
  const uint64_t min_count =
      MinCountForSupport(min_support, total_transactions_);
  for (const Bucket& bucket : buckets_) {
    if (bucket.rule_count < min_count) break;  // buckets descend
    for (const Location& loc : bucket.locations) {
      if (loc.confidence + 1e-12 < min_confidence) break;  // conf descends
      out->insert(out->end(), loc.rules.begin(), loc.rules.end());
    }
  }
}

size_t WindowIndex::CountRules(double min_support,
                               double min_confidence) const {
  const uint64_t min_count =
      MinCountForSupport(min_support, total_transactions_);
  size_t count = 0;
  for (const Bucket& bucket : buckets_) {
    if (bucket.rule_count < min_count) break;
    for (const Location& loc : bucket.locations) {
      if (loc.confidence + 1e-12 < min_confidence) break;
      count += loc.rules.size();
    }
  }
  return count;
}

RegionInfo WindowIndex::Locate(double min_support,
                               double min_confidence) const {
  RegionInfo region;
  region.result_size = CountRules(min_support, min_confidence);

  // Support grid: unique support values descending (from buckets).
  region.support_lower = 0.0;
  region.support_upper = 1.0;
  for (const Bucket& bucket : buckets_) {
    const double support = total_transactions_ == 0
                               ? 0.0
                               : static_cast<double>(bucket.rule_count) /
                                     static_cast<double>(total_transactions_);
    if (support + 1e-12 >= min_support) {
      region.support_upper = support;  // smallest boundary >= query
    } else {
      region.support_lower = support;  // largest boundary < query
      break;
    }
  }

  // Confidence grid: ascending vector; region is (prev, next].
  const auto it = std::lower_bound(confidence_grid_.begin(),
                                   confidence_grid_.end(),
                                   min_confidence - 1e-12);
  region.confidence_upper =
      it == confidence_grid_.end() ? 1.0 : *it;
  region.confidence_lower =
      it == confidence_grid_.begin() ? 0.0 : *(it - 1);
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
  // Intersect the per-item postings by rule id, smallest first.
  std::vector<const std::vector<Entry>*> lists;
  for (ItemId item : items) {
    auto it = content_index_.find(item);
    if (it == content_index_.end()) return;  // some item never occurs
    lists.push_back(&it->second);
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::span<const Entry> current = *lists[0];
  std::vector<Entry> kept, next;
  for (size_t i = 1; i < lists.size() && !current.empty(); ++i) {
    next.clear();
    std::set_intersection(current.begin(), current.end(), lists[i]->begin(),
                          lists[i]->end(), std::back_inserter(next), RuleLess);
    kept.swap(next);
    current = kept;
  }

  const uint64_t min_count =
      MinCountForSupport(min_support, total_transactions_);
  for (const Entry& e : current) {
    if (e.rule_count >= min_count &&
        ConfidenceOf(e.rule_count, e.antecedent_count) + 1e-12 >=
            min_confidence) {
      out->push_back(e.rule);
    }
  }
}

size_t WindowIndex::location_count() const {
  size_t n = 0;
  for (const Bucket& b : buckets_) n += b.locations.size();
  return n;
}

size_t WindowIndex::region_count() const {
  // Grid cells spanned by the support boundaries (+1 for the region above
  // the largest value) times confidence boundaries (+1 likewise).
  return (buckets_.size() + 1) * (confidence_grid_.size() + 1);
}

size_t WindowIndex::ApproximateBytes() const {
  size_t bytes = sizeof(*this);
  for (const Bucket& b : buckets_) {
    bytes += sizeof(Bucket);
    for (const Location& loc : b.locations) {
      bytes += sizeof(Location) + loc.rules.size() * sizeof(RuleId);
    }
  }
  bytes += confidence_grid_.size() * sizeof(double);
  for (const auto& [item, postings] : content_index_) {
    bytes += sizeof(ItemId) + postings.size() * sizeof(Entry) + 16;
  }
  return bytes;
}

}  // namespace tara
