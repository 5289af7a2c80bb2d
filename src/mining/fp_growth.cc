#include "mining/fp_growth.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/logging.h"

namespace tara {
namespace {

constexpr uint32_t kNone = UINT32_MAX;

/// The FP-tree as parallel arrays, node 0 the root: children form a
/// sibling list in creation order, and `link` chains one rank's nodes.
struct FpTree {
  std::vector<uint32_t> rank{kNone}, parent{kNone}, child{kNone},
      sibling{kNone}, link{kNone}, head;
  std::vector<uint64_t> count{0};

  /// Inserts one transaction, its frequent ranks in ascending order.
  void Insert(const std::vector<uint32_t>& ranks) {
    uint32_t node = 0;
    for (const uint32_t r : ranks) {
      uint32_t previous = kNone, next = child[node];
      while (next != kNone && rank[next] != r) next = sibling[previous = next];
      if (next == kNone) {
        next = static_cast<uint32_t>(rank.size());
        (previous == kNone ? child[node] : sibling[previous]) = next;
        rank.push_back(r);
        parent.push_back(node);
        child.push_back(kNone);
        sibling.push_back(kNone);
        link.push_back(std::exchange(head[r], next));
        count.push_back(0);
      }
      ++count[next];
      node = next;
    }
  }
};

/// One recursion depth's scratch, reused by every base mined there. A
/// base is paths of ranks (each descending) with CSR offsets and a count
/// per path. Mining it sums `counts` and `hits` (paths holding the rank)
/// by rank, lists the ranks touched, and groups the frequent ranks'
/// (path << 32 | position) `entries` by rank.
struct Level {
  std::vector<uint32_t> ranks, offsets{0}, hits, touched;
  std::vector<uint64_t> path_counts, counts, entries;
  void Clear() {
    ranks.clear();
    offsets.resize(1);
    path_counts.clear();
  }
  /// Ends the path appended since the last one; an empty one is dropped.
  void EndPath(uint64_t count) {
    if (ranks.size() == offsets.back()) return;
    offsets.push_back(static_cast<uint32_t>(ranks.size()));
    path_counts.push_back(count);
  }
};

/// The recursion over conditional pattern bases: levels[d] holds the base
/// of a d-item suffix, d < max_size and d <= the frequent item count.
struct Growth {
  std::vector<ItemId> item_of_rank;
  FrequentItemsetMiner::Options options;
  std::vector<FrequentItemset>* out;
  std::vector<Level> levels = std::vector<Level>(std::min<size_t>(
      options.max_size == 0 ? SIZE_MAX : options.max_size,
      item_of_rank.size() + 1));
  Itemset suffix{};

  /// Mines levels[depth], the base of `suffix`: emits each frequent
  /// extension, in ascending item id, and then mines below it.
  void Mine(size_t depth) {
    Level& level = levels[depth];
    level.counts.resize(item_of_rank.size());
    level.hits.resize(item_of_rank.size());
    for (size_t p = 0; p < level.path_counts.size(); ++p) {
      for (uint32_t i = level.offsets[p]; i < level.offsets[p + 1]; ++i) {
        const uint32_t r = level.ranks[i];
        if (level.hits[r]++ == 0) level.touched.push_back(r);
        level.counts[r] += level.path_counts[p];
      }
    }
    const auto frequent = [&](uint32_t r) {
      return level.counts[r] >= options.min_count;
    };
    std::vector<uint32_t>& touched = level.touched;
    const auto last = std::partition(touched.begin(), touched.end(), frequent);
    std::sort(touched.begin(), last, [&](uint32_t a, uint32_t b) {
      return item_of_rank[a] < item_of_rank[b];
    });
    // When the bases below are mined, group their entries in that order;
    // hits[r] becomes the end of r's group.
    const bool extend = depth + 1 < levels.size();
    uint32_t entries = 0;
    for (auto it = touched.begin(); extend && it != last; ++it) {
      entries += std::exchange(level.hits[*it], entries);
    }
    level.entries.resize(entries);
    for (size_t p = 0; extend && p < level.path_counts.size(); ++p) {
      for (uint32_t i = level.offsets[p]; i < level.offsets[p + 1]; ++i) {
        const uint32_t r = level.ranks[i];
        if (frequent(r)) level.entries[level.hits[r]++] = uint64_t{p} << 32 | i;
      }
    }
    uint32_t from = 0;
    for (auto it = touched.begin(); it != last; from = level.hits[*it++]) {
      suffix.push_back(item_of_rank[*it]);
      Itemset items = suffix;  // the one allocation per itemset
      std::sort(items.begin(), items.end());
      out->push_back(FrequentItemset{std::move(items), level.counts[*it]});
      if (extend) {
        // Its base: every path holding it, cut after it.
        Level& child = levels[depth + 1];
        child.Clear();
        for (uint32_t e = from; e < level.hits[*it]; ++e) {
          const uint32_t path = static_cast<uint32_t>(level.entries[e] >> 32);
          for (uint32_t i = static_cast<uint32_t>(level.entries[e]) + 1;
               i < level.offsets[path + 1]; ++i) {
            if (frequent(level.ranks[i])) child.ranks.push_back(level.ranks[i]);
          }
          child.EndPath(level.path_counts[path]);
        }
        if (!child.path_counts.empty()) Mine(depth + 1);
      }
      suffix.pop_back();
    }
    for (const uint32_t r : touched) level.counts[r] = level.hits[r] = 0;
    touched.clear();
  }
};

}  // namespace

std::vector<FrequentItemset> FpGrowthMiner::Mine(const TransactionDatabase& db,
                                                 size_t begin, size_t end,
                                                 const Options& options) const {
  TARA_CHECK(begin <= end && end <= db.size());
  std::vector<FrequentItemset> result;

  // Pass 1: count items in an open-addressing table sized by the window's
  // occurrences, never by an item id, noting each occurrence's slot.
  size_t total = 0;
  for (size_t t = begin; t < end; ++t) total += db[t].items.size();
  TARA_CHECK(total < kNone) << total << " occurrences overflow u32 offsets";
  const size_t mask = std::bit_ceil(2 * total + 2) - 1;
  std::vector<uint32_t> slots(mask + 1, kNone), occurrences;
  std::vector<ItemId> items;
  std::vector<uint64_t> counts;
  occurrences.reserve(total);
  for (size_t t = begin; t < end; ++t) {
    for (const ItemId item : db[t].items) {
      size_t s = (item * 0x9e3779b97f4a7c15ULL >> 32) & mask;
      while (slots[s] != kNone && items[slots[s]] != item) s = (s + 1) & mask;
      if (slots[s] == kNone) {
        slots[s] = static_cast<uint32_t>(items.size());
        items.push_back(item);
        counts.push_back(0);
      }
      ++counts[slots[s]];
      occurrences.push_back(slots[s]);
    }
  }
  // Frequent items get dense ranks by descending count, ties by ascending
  // item id; the singletons are emitted in rank order.
  std::vector<uint32_t> order;
  for (uint32_t d = 0; d < items.size(); ++d) {
    if (counts[d] >= options.min_count) order.push_back(d);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return counts[a] != counts[b] ? counts[a] > counts[b] : items[a] < items[b];
  });
  std::vector<uint32_t> rank_of(items.size(), kNone);
  std::vector<ItemId> item_of_rank(order.size());
  for (uint32_t r = 0; r < order.size(); ++r) {
    rank_of[order[r]] = r;
    item_of_rank[r] = items[order[r]];
    result.push_back(FrequentItemset{{item_of_rank[r]}, counts[order[r]]});
  }
  if (order.empty() || options.max_size == 1) return result;

  // Pass 2: the FP-tree, each transaction's frequent ranks ascending.
  FpTree tree{.head = std::vector<uint32_t>(order.size(), kNone)};
  std::vector<uint32_t> path;
  const uint32_t* occurrence = occurrences.data();
  for (size_t t = begin; t < end; ++t) {
    path.clear();
    for (size_t k = 0; k < db[t].items.size(); ++k, ++occurrence) {
      if (rank_of[*occurrence] != kNone) path.push_back(rank_of[*occurrence]);
    }
    std::sort(path.begin(), path.end());
    tree.Insert(path);
  }

  // Each frequent item from the rarest rank up, then depth-first below
  // it: its base is the path above each of its nodes.
  Growth growth{std::move(item_of_rank), options, &result};
  Level& base = growth.levels[1];
  for (uint32_t x = static_cast<uint32_t>(order.size()); x-- > 0;) {
    base.Clear();
    for (uint32_t n = tree.head[x]; n != kNone; n = tree.link[n]) {
      for (uint32_t a = tree.parent[n]; a != 0; a = tree.parent[a]) {
        base.ranks.push_back(tree.rank[a]);
      }
      base.EndPath(tree.count[n]);
    }
    growth.suffix.assign(1, items[order[x]]);
    if (!base.path_counts.empty()) growth.Mine(1);
  }
  return result;
}

}  // namespace tara
