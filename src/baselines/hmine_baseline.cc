#include "baselines/hmine_baseline.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "mining/h_mine.h"

namespace tara {

void HMineBaseline::AppendWindow(const TransactionDatabase& db, size_t begin,
                                 size_t end) {
  HMineMiner miner;
  FrequentItemsetMiner::Options options;
  options.min_count = MinCountForSupport(min_support_floor_, end - begin);
  options.max_size = max_itemset_size_;
  WindowStore store;
  store.itemsets = miner.Mine(db, begin, end, options);
  store.index = std::make_unique<ItemsetCountIndex>(store.itemsets);
  store.total_transactions = end - begin;
  windows_.push_back(std::move(store));
}

HMineBaseline::BuildStats HMineBaseline::Build(const EvolvingDatabase& data) {
  BuildStats stats;
  Stopwatch timer;
  for (WindowId w = 0; w < data.window_count(); ++w) {
    const WindowInfo& info = data.window(w);
    AppendWindow(data.database(), info.begin, info.end);
  }
  stats.itemset_seconds = timer.ElapsedSeconds();
  stats.itemset_count = StoredItemsetCount();
  return stats;
}

std::vector<MinedRule> HMineBaseline::MineWindow(
    WindowId w, const ParameterSetting& setting) const {
  TARA_CHECK_LT(w, windows_.size());
  TARA_CHECK(ClearsFloor(setting.min_support, min_support_floor_))
      << "query support below the pregeneration floor";
  const WindowStore& store = windows_[w];
  const uint64_t min_count =
      MinCountForSupport(setting.min_support, store.total_transactions);
  // Filter stored itemsets to the query support, then derive rules —
  // the query-time task that TARA moves offline.
  std::vector<FrequentItemset> qualifying;
  qualifying.reserve(store.itemsets.size());
  for (const FrequentItemset& f : store.itemsets) {
    if (f.count >= min_count) qualifying.push_back(f);
  }
  return GenerateRules(qualifying, setting.min_confidence);
}

TrajectoryPoint HMineBaseline::EvaluateRule(const Rule& rule,
                                            WindowId w) const {
  TARA_CHECK_LT(w, windows_.size());
  const WindowStore& store = windows_[w];
  const Itemset whole = Union(rule.antecedent, rule.consequent);
  const uint64_t rule_count = store.index->Count(whole);
  const uint64_t antecedent_count = store.index->Count(rule.antecedent);
  TrajectoryPoint point;
  point.window = w;
  point.present = rule_count > 0;
  point.support = store.total_transactions == 0
                      ? 0.0
                      : static_cast<double>(rule_count) /
                            static_cast<double>(store.total_transactions);
  point.confidence = antecedent_count == 0
                         ? 0.0
                         : static_cast<double>(rule_count) /
                               static_cast<double>(antecedent_count);
  return point;
}

std::vector<std::vector<TrajectoryPoint>> HMineBaseline::TrajectoryQuery(
    WindowId anchor, const ParameterSetting& setting,
    const std::vector<WindowId>& horizon) const {
  const std::vector<MinedRule> rules = MineWindow(anchor, setting);
  std::vector<std::vector<TrajectoryPoint>> trajectories;
  trajectories.reserve(rules.size());
  for (const MinedRule& mined : rules) {
    const Rule rule{mined.antecedent, mined.consequent};
    std::vector<TrajectoryPoint> trajectory;
    trajectory.reserve(horizon.size());
    for (WindowId w : horizon) trajectory.push_back(EvaluateRule(rule, w));
    trajectories.push_back(std::move(trajectory));
  }
  return trajectories;
}

std::pair<size_t, size_t> HMineBaseline::CompareSettings(
    const ParameterSetting& first, const ParameterSetting& second,
    const std::vector<WindowId>& windows) const {
  auto rule_less = [](const Rule& a, const Rule& b) {
    if (a.antecedent != b.antecedent) return a.antecedent < b.antecedent;
    return a.consequent < b.consequent;
  };
  auto mine_all = [&](const ParameterSetting& setting) {
    std::vector<Rule> current;
    bool first_window = true;
    for (WindowId w : windows) {
      std::vector<Rule> rules;
      for (const MinedRule& mined : MineWindow(w, setting)) {
        rules.push_back(Rule{mined.antecedent, mined.consequent});
      }
      std::sort(rules.begin(), rules.end(), rule_less);
      if (first_window) {
        current = std::move(rules);
        first_window = false;
      } else {
        std::vector<Rule> merged;
        std::set_intersection(current.begin(), current.end(), rules.begin(),
                              rules.end(), std::back_inserter(merged),
                              rule_less);
        current = std::move(merged);
      }
    }
    return current;
  };

  const std::vector<Rule> a = mine_all(first);
  const std::vector<Rule> b = mine_all(second);
  std::vector<Rule> only_a;
  std::vector<Rule> only_b;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(only_a), rule_less);
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(only_b), rule_less);
  return {only_a.size(), only_b.size()};
}

size_t HMineBaseline::StoredItemsetCount() const {
  size_t n = 0;
  for (const WindowStore& w : windows_) n += w.itemsets.size();
  return n;
}

size_t HMineBaseline::ApproximateBytes() const {
  size_t bytes = 0;
  for (const WindowStore& w : windows_) {
    for (const FrequentItemset& f : w.itemsets) {
      bytes += sizeof(FrequentItemset) + f.items.size() * sizeof(ItemId);
    }
  }
  return bytes;
}

}  // namespace tara
