// Error-path coverage for the crash-free query API: Execute must reject
// invalid input of every Q1-Q5/roll-up kind with the right QueryError
// code and an actionable message — and keep serving afterwards — instead
// of aborting the process. Also pins the metrics contract for rejections:
// they count in tara.query.rejected but record no latency sample.

#include <limits>
#include <sstream>
#include <string_view>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_request.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

constexpr double kFloorSupport = 0.01;
constexpr double kFloorConfidence = 0.1;
const ParameterSetting kOkSetting{0.02, 0.3};
/// Every window of MakeData()'s knowledge base.
const std::vector<WindowId> kAllWindows = {0, 1, 2};

EvolvingDatabase MakeData() {
  QuestGenerator::Params params;
  params.num_transactions = 1500;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = 31;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, 3);
}

class QueryErrorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const EvolvingDatabase data = MakeData();
    TaraEngine::Options options;
    options.min_support_floor = kFloorSupport;
    options.min_confidence_floor = kFloorConfidence;
    options.max_itemset_size = 4;
    engine_ = new TaraEngine(options);
    engine_->BuildAll(data);
  }

  static TaraEngine* engine_;
};

TaraEngine* QueryErrorTest::engine_ = nullptr;

TEST_F(QueryErrorTest, MineWindowRejectsSupportBelowFloor) {
  const auto result = engine_->Execute(
      QueryRequest::MineWindow(0, ParameterSetting{0.001, 0.3}));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, QueryError::Code::kSupportBelowFloor);
  EXPECT_NE(result.error().message.find("floor"), std::string::npos)
      << result.error().message;
}

TEST_F(QueryErrorTest, MineWindowRejectsConfidenceBelowFloor) {
  const auto result = engine_->Execute(
      QueryRequest::MineWindow(0, ParameterSetting{0.02, 0.01}));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, QueryError::Code::kConfidenceBelowFloor);
}

TEST_F(QueryErrorTest, MineWindowRejectsBadWindow) {
  const auto result =
      engine_->Execute(QueryRequest::MineWindow(99, kOkSetting));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, QueryError::Code::kBadWindow);
}

TEST_F(QueryErrorTest, FloorBoundaryIsInclusive) {
  // Exactly the floor is a valid setting; only strictly below rejects.
  EXPECT_TRUE(engine_
                  ->Execute(QueryRequest::MineWindow(
                      0, ParameterSetting{kFloorSupport, kFloorConfidence}))
                  .has_value());
}

TEST_F(QueryErrorTest, MineWindowsRejectsEmptyWindowSet) {
  const auto result = engine_->Execute(
      QueryRequest::MineWindows({}, kOkSetting, MatchMode::kSingle));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, QueryError::Code::kEmptyWindowSet);
}

TEST_F(QueryErrorTest, MineWindowsRejectsForeignWindowSet) {
  // A request naming windows of a bigger engine is rejected, not run.
  const auto result = engine_->Execute(
      QueryRequest::MineWindows({50}, kOkSetting, MatchMode::kExact));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, QueryError::Code::kWindowSetMismatch);
  // Likewise a typed set validated against a bigger engine must not be
  // trusted by this engine's snapshot.
  const WindowSet foreign = WindowSet::Single(50, 100);
  const auto typed =
      engine_->Snapshot()->MineWindows(foreign, kOkSetting, MatchMode::kExact);
  ASSERT_FALSE(typed.has_value());
  EXPECT_EQ(typed.error().code, QueryError::Code::kWindowSetMismatch);
}

TEST_F(QueryErrorTest, TrajectoryQueryRejectsBadAnchorAndBadHorizon) {
  const auto bad_anchor = engine_->Execute(
      QueryRequest::Trajectory(99, kOkSetting, kAllWindows));
  ASSERT_FALSE(bad_anchor.has_value());
  EXPECT_EQ(bad_anchor.error().code, QueryError::Code::kBadWindow);

  const auto bad_horizon =
      engine_->Execute(QueryRequest::Trajectory(0, kOkSetting, {}));
  ASSERT_FALSE(bad_horizon.has_value());
  EXPECT_EQ(bad_horizon.error().code, QueryError::Code::kEmptyWindowSet);
}

TEST_F(QueryErrorTest, CompareSettingsRejectsEitherSettingBelowFloor) {
  const auto first_bad = engine_->Execute(
      QueryRequest::Compare(ParameterSetting{0.001, 0.3}, kOkSetting,
                            kAllWindows, MatchMode::kExact));
  ASSERT_FALSE(first_bad.has_value());
  EXPECT_EQ(first_bad.error().code, QueryError::Code::kSupportBelowFloor);

  const auto second_bad = engine_->Execute(
      QueryRequest::Compare(kOkSetting, ParameterSetting{0.02, 0.001},
                            kAllWindows, MatchMode::kExact));
  ASSERT_FALSE(second_bad.has_value());
  EXPECT_EQ(second_bad.error().code,
            QueryError::Code::kConfidenceBelowFloor);
}

TEST_F(QueryErrorTest, RecommendRegionRejectsBadWindow) {
  const auto result = engine_->Execute(QueryRequest::Region(7, kOkSetting));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, QueryError::Code::kBadWindow);
}

TEST_F(QueryErrorTest, RuleMeasuresRejectsUnknownRule) {
  const RuleId unknown = static_cast<RuleId>(engine_->catalog().size());
  const auto result =
      engine_->Execute(QueryRequest::Measures(unknown, kAllWindows));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, QueryError::Code::kUnknownRule);
}

TEST_F(QueryErrorTest, ContentQueryWithoutContentIndexIsRejected) {
  const auto result =
      engine_->Execute(QueryRequest::Content(0, {1}, kOkSetting));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, QueryError::Code::kNoContentIndex);
  EXPECT_NE(result.error().message.find("build_content_index"),
            std::string::npos)
      << result.error().message;
}

TEST_F(QueryErrorTest, RollUpRejectsUnknownRuleAndEmptySet) {
  const RuleId unknown = static_cast<RuleId>(engine_->catalog().size() + 5);
  const auto bad_rule =
      engine_->Execute(QueryRequest::RollUpRule(unknown, kAllWindows));
  ASSERT_FALSE(bad_rule.has_value());
  EXPECT_EQ(bad_rule.error().code, QueryError::Code::kUnknownRule);

  const auto empty = engine_->Execute(QueryRequest::RollUpMine({}, kOkSetting));
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error().code, QueryError::Code::kEmptyWindowSet);
}

// The wire carries thresholds as raw f64 bits, so a client can send NaN
// or an infinity. No floor comparison rejects those (a NaN compares false,
// +inf passes), so each kind that takes a setting must refuse them up
// front — unchecked, +inf support asked for every rule of a window and a
// NaN for none.
TEST(QueryErrorNonFiniteTest, EveryKindWithASettingRejectsNonFiniteValues) {
  TaraEngine::Options options;
  options.min_support_floor = kFloorSupport;
  options.min_confidence_floor = kFloorConfidence;
  options.max_itemset_size = 4;
  options.build_content_index = true;  // so content kinds reach the check
  TaraEngine engine(options);
  engine.BuildAll(MakeData());
  const auto snapshot = engine.Snapshot();
  const ItemId item = snapshot->catalog().rule(0).antecedent.at(0);

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const ParameterSetting non_finite[] = {
      {inf, 0.5}, {nan, 0.5}, {-inf, 0.5},
      {0.05, nan}, {0.05, inf}, {0.05, -inf},
  };
  bool kinds_seen[kQueryKindCount] = {};
  for (const ParameterSetting& bad : non_finite) {
    const QueryRequest requests[] = {
        QueryRequest::MineWindow(0, bad),
        QueryRequest::MineWindows(kAllWindows, bad, MatchMode::kSingle),
        QueryRequest::Trajectory(0, bad, kAllWindows),
        QueryRequest::Compare(bad, kOkSetting, kAllWindows,
                              MatchMode::kExact),
        QueryRequest::Compare(kOkSetting, bad, kAllWindows,
                              MatchMode::kSingle),
        QueryRequest::Region(1, bad),
        QueryRequest::Content(0, {item}, bad),
        QueryRequest::ContentView(2, bad),
        QueryRequest::RollUpMine(kAllWindows, bad),
    };
    for (const QueryRequest& request : requests) {
      const std::string_view kind = QueryKindName(request.kind);
      kinds_seen[static_cast<int>(request.kind)] = true;
      const auto result = engine.Execute(request);
      ASSERT_FALSE(result.has_value())
          << kind << " answered (" << bad.min_support << ", "
          << bad.min_confidence << ")";
      EXPECT_EQ(result.error().code, QueryError::Code::kNonFiniteSetting)
          << kind << ": " << result.error();
      // The typed snapshot API applies the same check.
      EXPECT_FALSE(ExecuteQuery(*snapshot, request).has_value()) << kind;
    }
  }
  // The two kinds without a setting are the only ones not exercised.
  for (int k = 0; k < kQueryKindCount; ++k) {
    const auto kind = static_cast<QueryKind>(k);
    const bool takes_setting =
        kind != QueryKind::kMeasures && kind != QueryKind::kRollUpRule;
    EXPECT_EQ(kinds_seen[k], takes_setting) << QueryKindName(kind);
  }
  EXPECT_TRUE(
      engine.Execute(QueryRequest::MineWindow(0, kOkSetting)).has_value());
}

// A finite support so large that ceil(support × transactions) passes
// 2^64 has no minimum count to convert to. The count saturates, so every
// kind that takes a setting answers as at any support above 1: no rule.
// Unsaturated, the conversion was undefined; on x86-64 it made the
// minimum count 1, and these requests answered every rule of the floors.
TEST(QueryErrorHugeSupportTest, SupportsPastTheCountRangeAnswerAsAtSupportTwo) {
  TaraEngine::Options options;
  options.min_support_floor = kFloorSupport;
  options.min_confidence_floor = kFloorConfidence;
  options.max_itemset_size = 4;
  options.build_content_index = true;
  TaraEngine engine(options);
  engine.BuildAll(MakeData());
  const ItemId item = engine.Snapshot()->catalog().rule(0).antecedent.at(0);
  const auto requests = [&](const ParameterSetting& setting) {
    return std::vector<QueryRequest>{
        QueryRequest::MineWindow(0, setting),
        QueryRequest::MineWindows(kAllWindows, setting, MatchMode::kSingle),
        QueryRequest::Trajectory(0, setting, kAllWindows),
        QueryRequest::Compare(setting, kOkSetting, kAllWindows,
                              MatchMode::kSingle),
        QueryRequest::Region(1, setting),
        QueryRequest::Content(0, {item}, setting),
        QueryRequest::ContentView(2, setting),
        QueryRequest::RollUpMine(kAllWindows, setting),
    };
  };
  const std::vector<QueryRequest> at_two = requests({2.0, 0.3});
  for (const double support : {1e17, 1e300}) {
    const ParameterSetting huge{support, 0.3};
    const std::vector<QueryRequest> asked = requests(huge);
    for (size_t i = 0; i < asked.size(); ++i) {
      const std::string_view kind = QueryKindName(asked[i].kind);
      const auto expected = engine.Execute(at_two[i]);
      const auto answer = engine.Execute(asked[i]);
      ASSERT_TRUE(expected.has_value()) << kind;
      ASSERT_TRUE(answer.has_value()) << kind << " at support " << support;
      EXPECT_EQ(EncodeQueryResult(asked[i].kind, *answer),
                EncodeQueryResult(at_two[i].kind, *expected))
          << kind << " at support " << support;
    }
    EXPECT_TRUE(std::get<std::vector<RuleId>>(
                    *engine.Execute(QueryRequest::MineWindow(0, huge)))
                    .empty());
    EXPECT_EQ(std::get<RegionInfo>(
                  *engine.Execute(QueryRequest::Region(1, huge)))
                  .result_size,
              0u);
  }
}

TEST_F(QueryErrorTest, EngineKeepsAnsweringAfterRejections) {
  (void)engine_->Execute(QueryRequest::MineWindow(99, kOkSetting));
  (void)engine_->Execute(
      QueryRequest::MineWindow(0, ParameterSetting{0.0001, 0.3}));
  const auto result = engine_->Execute(QueryRequest::MineWindow(0, kOkSetting));
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(std::get<std::vector<RuleId>>(*result).empty());
}

TEST_F(QueryErrorTest, ValueOnAnErrorAborts) {
  // .value() keeps the old CHECK contract for callers that want it.
  EXPECT_DEATH(
      engine_->Execute(QueryRequest::MineWindow(99, kOkSetting)).value(),
      "window");
}

TEST(QueryErrorMetricsTest, RejectionsCountButRecordNoLatency) {
  obs::MetricsRegistry registry;
  const EvolvingDatabase data = MakeData();
  TaraEngine::Options options;
  options.min_support_floor = kFloorSupport;
  options.min_confidence_floor = kFloorConfidence;
  options.max_itemset_size = 4;
  options.metrics = &registry;
  TaraEngine engine(options);
  engine.BuildAll(data);

  obs::Histogram* latency =
      registry.GetHistogram("tara.query.mine_window.latency_ns");
  obs::Counter* ok = registry.GetCounter("tara.query.ok");
  obs::Counter* rejected = registry.GetCounter("tara.query.rejected");

  ASSERT_TRUE(
      engine.Execute(QueryRequest::MineWindow(0, kOkSetting)).has_value());
  EXPECT_EQ(latency->Count(), 1u);
  EXPECT_EQ(ok->Value(), 1u);
  EXPECT_EQ(rejected->Value(), 0u);

  ASSERT_FALSE(
      engine.Execute(QueryRequest::MineWindow(99, kOkSetting)).has_value());
  EXPECT_EQ(latency->Count(), 1u) << "rejected query must not record latency";
  EXPECT_EQ(ok->Value(), 1u);
  EXPECT_EQ(rejected->Value(), 1u);
}

TEST(QueryErrorFormattingTest, CodeNamesAreStable) {
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kSupportBelowFloor),
            "support_below_floor");
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kConfidenceBelowFloor),
            "confidence_below_floor");
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kBadWindow), "bad_window");
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kEmptyWindowSet),
            "empty_window_set");
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kWindowSetMismatch),
            "window_set_mismatch");
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kUnknownRule),
            "unknown_rule");
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kNoContentIndex),
            "no_content_index");
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kCorruptStorage),
            "corrupt_storage");
  EXPECT_EQ(QueryErrorCodeName(QueryError::Code::kNonFiniteSetting),
            "non_finite_setting");
}

TEST(QueryErrorFormattingTest, StreamOperatorShowsCodeAndMessage) {
  std::ostringstream out;
  out << QueryError{QueryError::Code::kBadWindow, "window 9 of 3"};
  EXPECT_EQ(out.str(), "QueryError[bad_window]: window 9 of 3");
}

}  // namespace
}  // namespace tara
