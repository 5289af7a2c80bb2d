// The admission boundary oracle. Every query kind that takes a setting
// must answer what DCTAR re-mining of the raw transactions answers — the
// paper's ground truth — at the settings where a tolerance decides: on
// supports k/n and confidences a/b that a window holds, and beside each
// by ±1 ulp, ±1e-13 and ±1e-11. A setting below a generation floor, by as
// little as one ulp, is refused with its typed code. Roll-up mining is
// checked against DCTAR over window unions, and each Q3 region against
// the one ruleset it promises.

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/dctar.h"
#include "common/rng.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

constexpr uint32_t kMaxItemsetSize = 3;
constexpr ItemId kItems = 6;

using RuleKey = std::pair<Itemset, Itemset>;
using RuleKeys = std::set<RuleKey>;

/// Counts the checks and failures of each property, and reports the
/// first few failures of each, so a failing run names the properties it
/// broke and how often.
class Violations {
 public:
  void Check(bool ok, const std::string& property, const std::string& where) {
    ++checked_[property];
    if (!ok && failed_[property]++ < 3) {
      ADD_FAILURE() << property << " — " << where;
    }
  }

  ~Violations() {
    for (const auto& [property, failed] : failed_) {
      if (failed > 0) {
        ADD_FAILURE() << property << ": " << failed << " of "
                      << checked_[property] << " checks failed";
      }
    }
  }

 private:
  std::map<std::string, size_t> checked_;
  std::map<std::string, size_t> failed_;
};

/// `value` and its neighbours at the distances a tolerance could decide:
/// one ulp, 1e-13 and 1e-11 either side.
std::vector<double> AroundBoundary(double value) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return {value,         std::nextafter(value, kInf),
          std::nextafter(value, -kInf), value + 1e-13,
          value - 1e-13, value + 1e-11,
          value - 1e-11};
}

/// A floor, one ulp under it and 1e-13 under it.
std::vector<double> AtFloor(double floor) {
  return {floor,
          std::nextafter(floor, -std::numeric_limits<double>::infinity()),
          floor - 1e-13};
}

/// Settings on and beside the given support and confidence boundaries (up
/// to `bases` of each) and the floors. Each value is paired with the
/// other floor, so settings sharing a region meet, and with a random
/// value of the other kind.
std::vector<ParameterSetting> BoundarySettings(const KbOptions& options,
                                               std::vector<double> supports,
                                               std::vector<double> confidences,
                                               size_t bases, Rng& rng) {
  const auto around = [&](std::vector<double> values, double floor) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (size_t i = 0; i < values.size() && i < bases; ++i) {
      std::swap(values[i], values[i + rng.NextBounded(values.size() - i)]);
    }
    values.resize(std::min(values.size(), bases));
    std::vector<double> out = AtFloor(floor);
    for (const double value : values) {
      for (const double v : AroundBoundary(value)) out.push_back(v);
    }
    return out;
  };
  const double s_floor = options.min_support_floor;
  const double c_floor = options.min_confidence_floor;
  const std::vector<double> s_values = around(std::move(supports), s_floor);
  const std::vector<double> c_values = around(std::move(confidences), c_floor);
  std::vector<ParameterSetting> settings;
  for (const double s : s_values) {
    settings.push_back({s, c_floor});
    settings.push_back({s, c_values[rng.NextBounded(c_values.size())]});
  }
  for (const double c : c_values) {
    settings.push_back({s_floor, c});
    settings.push_back({s_values[rng.NextBounded(s_values.size())], c});
  }
  return settings;
}

/// The typed code a setting below a floor must get.
std::optional<QueryError::Code> FloorError(const KbOptions& options,
                                           const ParameterSetting& setting) {
  if (setting.min_support < options.min_support_floor) {
    return QueryError::Code::kSupportBelowFloor;
  }
  if (setting.min_confidence < options.min_confidence_floor) {
    return QueryError::Code::kConfidenceBelowFloor;
  }
  return std::nullopt;
}

std::string Where(uint64_t seed, const std::vector<WindowId>& windows,
                  const ParameterSetting& setting) {
  std::ostringstream out;
  out.precision(17);
  out << "seed " << seed << " windows {";
  for (const WindowId w : windows) out << ' ' << w;
  out << " } setting (" << setting.min_support << ", "
      << setting.min_confidence << ")";
  return out.str();
}

RuleKeys Keys(const KnowledgeBaseSnapshot& kb,
              const std::vector<RuleId>& ids) {
  RuleKeys keys;
  for (const RuleId id : ids) {
    const Rule& rule = kb.catalog().rule(id);
    keys.emplace(rule.antecedent, rule.consequent);
  }
  return keys;
}

RuleKeys Keys(const std::vector<MinedRule>& rules) {
  RuleKeys keys;
  for (const MinedRule& r : rules) keys.emplace(r.antecedent, r.consequent);
  return keys;
}

std::vector<RuleId> Sorted(std::vector<RuleId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Transactions over kItems items. Two planted patterns give rules with
/// repeated counts and confidences; independent noise gives the rest.
std::vector<Transaction> RandomBatch(Rng& rng, size_t size, Timestamp* time) {
  std::vector<Transaction> batch(size);
  for (Transaction& t : batch) {
    t.time = (*time)++;
    if (rng.NextBool(0.3)) t.items = {0, 1};
    if (rng.NextBool(0.2)) t.items.insert(t.items.end(), {2, 3, 4});
    for (ItemId item = 0; item < kItems; ++item) {
      if (rng.NextBool(0.2)) t.items.push_back(item);
    }
  }
  return batch;
}

/// A knowledge base built from random transactions, and the data DCTAR
/// re-mines.
struct Fixture {
  EvolvingDatabase data;
  std::unique_ptr<TaraEngine> engine;
  std::shared_ptr<const KnowledgeBaseSnapshot> kb;
};

/// Seed 1 has a window of 10,007 transactions, where 1e-13 of a support
/// is more than 1e-9 of a count, and a support floor 1.5e-9 of a count
/// above a whole count there. Seed 2's confidence floor is a/b = 1/2.
std::unique_ptr<Fixture> Build(uint64_t seed) {
  Rng rng(seed);
  auto f = std::make_unique<Fixture>();
  Timestamp time = 0;
  const uint32_t windows = 3 + static_cast<uint32_t>(rng.NextBounded(2));
  for (uint32_t w = 0; w < windows; ++w) {
    const size_t size = seed == 1 && w == 1 ? 10007 : 25 + rng.NextBounded(80);
    f->data.AppendBatch(RandomBatch(rng, size, &time));
  }
  TaraEngine::Options options;
  options.min_support_floor = seed == 1 ? (200 + 1.5e-9) / 10007
                                        : 0.02 + 0.04 * rng.NextDouble();
  options.min_confidence_floor = seed == 2 ? 0.5 : 0.4 * rng.NextDouble();
  options.max_itemset_size = kMaxItemsetSize;
  options.build_content_index = true;
  f->engine = std::make_unique<TaraEngine>(options);
  f->engine->BuildAll(f->data);
  f->kb = f->engine->Snapshot();
  return f;
}

/// The answer to `request`, or nullopt after recording that a setting at
/// or above the floors was refused.
template <typename T>
std::optional<T> Answer(const TaraEngine& engine, const QueryRequest& request,
                        Violations& v, const std::string& where) {
  Expected<QueryResult, QueryError> result = engine.Execute(request);
  v.Check(result.has_value(),
          "(a) a setting at or above the floors is accepted", where);
  if (!result.has_value()) return std::nullopt;
  return std::get<T>(std::move(result).value());
}

// (a) every kind agrees with DCTAR on its window, (b) a one-window
// roll-up is mine_window's answer, all certain, and (d) settings that
// Locate maps to one region get one answer of its result_size.
TEST(AdmissionBoundary, EveryKindAgreesWithDctarOnItsWindow) {
  Violations v;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto f = Build(seed);
    const KnowledgeBaseSnapshot& kb = *f->kb;
    const TaraEngine& engine = *f->engine;
    const KbOptions& options = kb.options();
    const ParameterSetting floors{options.min_support_floor,
                                  options.min_confidence_floor};
    const DctarBaseline dctar(&f->data, kMaxItemsetSize);
    Rng rng(seed * 7919);
    for (WindowId w = 0; w < kb.window_count(); ++w) {
      const std::vector<WindowId> one = {w};
      const RuleKeys at_floors = Keys(dctar.MineWindow(w, floors));
      const double n = static_cast<double>(kb.segment(w).total_transactions);
      std::vector<double> supports, confidences;
      for (const WindowIndex::Entry& e : kb.window_entries(w)) {
        supports.push_back(static_cast<double>(e.rule_count) / n);
        confidences.push_back(static_cast<double>(e.rule_count) /
                              static_cast<double>(e.antecedent_count));
      }
      std::map<std::array<double, 4>, std::vector<RuleId>> regions;
      for (const ParameterSetting& setting :
           BoundarySettings(options, supports, confidences, 8, rng)) {
        if (FloorError(options, setting)) continue;
        const std::string where = Where(seed, one, setting);
        const RuleKeys truth = Keys(dctar.MineWindow(w, setting));

        const auto mined = Answer<std::vector<RuleId>>(
            engine, QueryRequest::MineWindow(w, setting), v, where);
        if (!mined) continue;
        v.Check(Keys(kb, *mined) == truth, "(a) mine_window equals DCTAR",
                where);
        for (const MatchMode mode : {MatchMode::kSingle, MatchMode::kExact}) {
          const auto windows = Answer<std::vector<RuleId>>(
              engine, QueryRequest::MineWindows(one, setting, mode), v, where);
          v.Check(windows && Keys(kb, *windows) == truth,
                  "(a) one-window mine_windows equals DCTAR", where);
        }
        const auto trajectory = Answer<TrajectoryQueryResult>(
            engine, QueryRequest::Trajectory(w, setting, one), v, where);
        v.Check(trajectory && Keys(kb, trajectory->rules) == truth,
                "(a) trajectory's rule list equals DCTAR", where);

        const auto item = static_cast<ItemId>(rng.NextBounded(kItems));
        RuleKeys holding;
        for (const RuleKey& key : truth) {
          if (std::count(key.first.begin(), key.first.end(), item) +
                  std::count(key.second.begin(), key.second.end(), item) >
              0) {
            holding.insert(key);
          }
        }
        const auto content = Answer<std::vector<RuleId>>(
            engine, QueryRequest::Content(w, {item}, setting), v, where);
        v.Check(content && Keys(kb, *content) == holding,
                "(a) content equals DCTAR", where);
        const auto view = Answer<ContentViewResult>(
            engine, QueryRequest::ContentView(w, setting), v, where);
        v.Check(view && Keys(kb, view->rules) == truth,
                "(a) content_view's rule set equals DCTAR", where);

        RuleKeys dropped;
        std::set_difference(at_floors.begin(), at_floors.end(), truth.begin(),
                            truth.end(),
                            std::inserter(dropped, dropped.end()));
        const auto diff = Answer<RulesetDiff>(
            engine,
            QueryRequest::Compare(setting, floors, one, MatchMode::kSingle), v,
            where);
        v.Check(diff && diff->only_first.empty() &&
                    Keys(kb, diff->only_second) == dropped,
                "(a) compare against the floors equals DCTAR", where);

        const auto region = Answer<RegionInfo>(
            engine, QueryRequest::Region(w, setting), v, where);
        v.Check(region && region->result_size == truth.size(),
                "(a) region's result_size equals DCTAR", where);

        const auto rolled = Answer<RolledUpRules>(
            engine, QueryRequest::RollUpMine(one, setting), v, where);
        v.Check(rolled && rolled->certain == Sorted(*mined) &&
                    rolled->possible.empty(),
                "(b) a one-window rollup_mine is mine_window's answer, all "
                "certain",
                where);

        if (!region) continue;
        const std::array<double, 4> bounds = {
            region->support_lower, region->support_upper,
            region->confidence_lower, region->confidence_upper};
        const auto it = regions.emplace(bounds, Sorted(*mined)).first;
        v.Check(it->second == Sorted(*mined) &&
                    region->result_size == mined->size(),
                "(d) settings in one region get one answer of its "
                "result_size",
                where);
      }
    }
  }
}

// (c) Over a window union, certain ⊆ DCTAR(union), and every
// DCTAR(union) rule archived in a requested window is certain or
// possible. A rule archived in none of them is out of reach: its counts
// are below a floor in every window, so no roll-up can report it.
TEST(AdmissionBoundary, RollUpBracketsDctarOverWindowUnions) {
  Violations v;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto f = Build(seed);
    const KnowledgeBaseSnapshot& kb = *f->kb;
    const KbOptions& options = kb.options();
    const ParameterSetting floors{options.min_support_floor,
                                  options.min_confidence_floor};
    Rng rng(seed * 104729);
    for (int round = 0; round < 4; ++round) {
      // Two or more windows, contiguous or not.
      std::vector<WindowId> windows;
      while (windows.size() < 2) {
        windows.clear();
        for (WindowId w = 0; w < kb.window_count(); ++w) {
          if (rng.NextBool(0.6)) windows.push_back(w);
        }
      }
      // DCTAR over the union: its transactions as one window.
      std::vector<Transaction> united;
      std::set<RuleId> archived;
      for (const WindowId w : windows) {
        const WindowInfo& info = f->data.window(w);
        for (size_t i = info.begin; i < info.end; ++i) {
          united.push_back(f->data.database()[i]);
        }
        for (const WindowIndex::Entry& e : kb.window_entries(w)) {
          archived.insert(e.rule);
        }
      }
      EvolvingDatabase union_data;
      union_data.AppendBatch(united);
      const DctarBaseline dctar(&union_data, kMaxItemsetSize);

      const double n = static_cast<double>(united.size());
      std::vector<double> supports, confidences;
      for (const MinedRule& r : dctar.MineWindow(0, floors)) {
        supports.push_back(static_cast<double>(r.rule_count) / n);
        confidences.push_back(r.Confidence());
      }
      for (const ParameterSetting& setting :
           BoundarySettings(options, supports, confidences, 5, rng)) {
        if (FloorError(options, setting)) continue;
        const std::string where = Where(seed, windows, setting);
        const RuleKeys truth = Keys(dctar.MineWindow(0, setting));
        const auto rolled = Answer<RolledUpRules>(
            *f->engine, QueryRequest::RollUpMine(windows, setting), v, where);
        if (!rolled) continue;
        const RuleKeys certain = Keys(kb, rolled->certain);
        v.Check(std::includes(truth.begin(), truth.end(), certain.begin(),
                              certain.end()),
                "(c) certain is within DCTAR(union)", where);
        RuleKeys bracketed = Keys(kb, rolled->possible);
        bracketed.insert(certain.begin(), certain.end());
        bool covered = true;
        for (const RuleKey& key : truth) {
          const RuleId id = kb.catalog().Find(Rule{key.first, key.second});
          covered = covered && (id == RuleCatalog::kNotFound ||
                                !archived.contains(id) ||
                                bracketed.contains(key));
        }
        v.Check(covered,
                "(c) every archived DCTAR(union) rule is certain or possible",
                where);
      }
    }
  }
}

// (a) A setting under a floor, by one ulp or by 1e-13, is refused by every
// kind that takes a setting, with its typed code; the floor itself is
// accepted.
TEST(AdmissionBoundary, SettingsBelowAFloorAreRefusedWithTheirCode) {
  Violations v;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto f = Build(seed);
    const KbOptions& options = f->kb->options();
    const ParameterSetting floors{options.min_support_floor,
                                  options.min_confidence_floor};
    const std::vector<WindowId> all = {0, 1};
    for (const double s : AtFloor(options.min_support_floor)) {
      for (const double c : AtFloor(options.min_confidence_floor)) {
        const ParameterSetting setting{s, c};
        const std::optional<QueryError::Code> want =
            FloorError(options, setting);
        const std::string where = Where(seed, all, setting);
        for (const QueryRequest& request :
             {QueryRequest::MineWindow(0, setting),
              QueryRequest::MineWindows(all, setting, MatchMode::kExact),
              QueryRequest::Trajectory(0, setting, all),
              QueryRequest::Compare(setting, floors, all, MatchMode::kSingle),
              QueryRequest::Compare(floors, setting, all, MatchMode::kSingle),
              QueryRequest::Region(0, setting),
              QueryRequest::Content(0, {0}, setting),
              QueryRequest::ContentView(0, setting),
              QueryRequest::RollUpMine(all, setting)}) {
          const auto result = f->engine->Execute(request);
          if (want) {
            v.Check(!result.has_value() && result.error().code == *want,
                    "(a) a setting below a floor is refused with its typed "
                    "code",
                    where);
          } else {
            v.Check(result.has_value(), "(a) the floors are accepted", where);
          }
        }
      }
    }
  }
}

/// One window of `n` transactions: `both` of {1, 2}, `each` more of {1}
/// and of {2}, and {3} for the rest. Its rules are {1}⇒{2} and {2}⇒{1},
/// each with count `both` and antecedent `both + each`.
EvolvingDatabase TwoRuleWindow(size_t n, size_t both, size_t each) {
  std::vector<Transaction> batch(n);
  for (size_t i = 0; i < n; ++i) {
    batch[i].time = static_cast<Timestamp>(i);
    if (i < both) {
      batch[i].items = {1, 2};
    } else if (i < both + each) {
      batch[i].items = {1};
    } else if (i < both + 2 * each) {
      batch[i].items = {2};
    } else {
      batch[i].items = {3};
    }
  }
  EvolvingDatabase data;
  data.AppendBatch(batch);
  return data;
}

std::unique_ptr<TaraEngine> BuildOn(const EvolvingDatabase& data,
                                    double support_floor) {
  TaraEngine::Options options;
  options.min_support_floor = support_floor;
  options.min_confidence_floor = 0.1;
  auto engine = std::make_unique<TaraEngine>(options);
  engine->BuildAll(data);
  return engine;
}

size_t Mined(const TaraEngine& engine, const ParameterSetting& setting) {
  return std::get<std::vector<RuleId>>(
             engine.Execute(QueryRequest::MineWindow(0, setting)).value())
      .size();
}

RolledUpRules RolledUp(const TaraEngine& engine,
                       const ParameterSetting& setting) {
  return std::get<RolledUpRules>(
      engine.Execute(QueryRequest::RollUpMine({0}, setting)).value());
}

// Four settings on a support boundary where a ratio test (1e-12 of a
// ratio) and the count test (1e-9 of a count) disagree: every kind takes
// the count test's side, and the floor check takes no side at all.
TEST(AdmissionBoundary, OneSupportTestAtEveryKind) {
  // Count 10 of 50 at s = 0.2 + 1e-11: the count test admits both rules,
  // so a one-window roll-up must too, and the region holding the setting
  // must be the one whose ruleset has them.
  const EvolvingDatabase small = TwoRuleWindow(50, 10, 10);
  const auto engine = BuildOn(small, 0.1);
  const ParameterSetting near{0.20000000001, 0.5};
  ASSERT_EQ(DctarBaseline(&small, 0).MineWindow(0, near).size(), 2u);
  EXPECT_EQ(Mined(*engine, near), 2u);
  EXPECT_EQ(RolledUp(*engine, near).certain.size(), 2u);
  const auto region = std::get<RegionInfo>(
      engine->Execute(QueryRequest::Region(0, near)).value());
  EXPECT_EQ(region.result_size, 2u);
  EXPECT_DOUBLE_EQ(region.support_upper, 0.2);
  const auto above = std::get<RegionInfo>(
      engine->Execute(QueryRequest::Region(0, {0.5, 0.5})).value());
  EXPECT_EQ(above.result_size, 0u);
  EXPECT_DOUBLE_EQ(above.support_lower, 0.2);

  // Count 400 of 2,000 at s = 0.2 + 6e-13: the count test refuses both
  // rules, so roll-up must not call them certain.
  const EvolvingDatabase large = TwoRuleWindow(2000, 400, 400);
  const auto large_engine = BuildOn(large, 0.1);
  const ParameterSetting past{0.2 + 6e-13, 0.5};
  ASSERT_TRUE(DctarBaseline(&large, 0).MineWindow(0, past).empty());
  EXPECT_EQ(Mined(*large_engine, past), 0u);
  const RolledUpRules rolled = RolledUp(*large_engine, past);
  EXPECT_TRUE(rolled.certain.empty());
  EXPECT_TRUE(rolled.possible.empty());

  // A floor of 0.1000000000015 over 1,000 transactions mines counts of
  // 101 and up. 5e-13 under it DCTAR finds both rules at count 100, which
  // were never mined: the setting is refused, not answered short.
  const EvolvingDatabase floored = TwoRuleWindow(1000, 100, 100);
  const auto floored_engine = BuildOn(floored, 0.1000000000015);
  const ParameterSetting under{0.1000000000015 - 5e-13, 0.5};
  ASSERT_EQ(DctarBaseline(&floored, 0).MineWindow(0, under).size(), 2u);
  const auto refused =
      floored_engine->Execute(QueryRequest::MineWindow(0, under));
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, QueryError::Code::kSupportBelowFloor);
}

}  // namespace
}  // namespace tara
