#include <gtest/gtest.h>

#include "archive_feed.h"
#include "core/tar_archive.h"
#include "core/trajectory.h"

namespace tara {
namespace {

Trajectory MakeTrajectory(
    std::initializer_list<std::tuple<bool, double, double>> points) {
  Trajectory t;
  WindowId w = 0;
  for (const auto& [present, support, confidence] : points) {
    TrajectoryPoint p;
    p.window = w++;
    p.present = present;
    p.support = present ? support : 0.0;
    p.confidence = present ? confidence : 0.0;
    t.push_back(p);
  }
  return t;
}

TEST(TrajectoryMeasuresTest, EmptyTrajectoryYieldsZeros) {
  const TrajectoryMeasures m = ComputeMeasures({});
  EXPECT_DOUBLE_EQ(m.coverage, 0.0);
  EXPECT_DOUBLE_EQ(m.stability, 0.0);
}

TEST(TrajectoryMeasuresTest, CoverageCountsPresence) {
  const auto t = MakeTrajectory({{true, 0.1, 0.5},
                                 {false, 0, 0},
                                 {true, 0.1, 0.5},
                                 {true, 0.1, 0.5}});
  EXPECT_DOUBLE_EQ(ComputeMeasures(t).coverage, 0.75);
}

TEST(TrajectoryMeasuresTest, PerfectlyStableRuleScoresOne) {
  const auto t = MakeTrajectory(
      {{true, 0.2, 0.6}, {true, 0.2, 0.6}, {true, 0.2, 0.6}});
  const TrajectoryMeasures m = ComputeMeasures(t);
  EXPECT_DOUBLE_EQ(m.stability, 1.0);
  EXPECT_NEAR(m.support_stddev, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.mean_support, 0.2);
  EXPECT_DOUBLE_EQ(m.mean_confidence, 0.6);
}

TEST(TrajectoryMeasuresTest, VolatileRuleScoresLow) {
  const auto stable = MakeTrajectory(
      {{true, 0.2, 0.5}, {true, 0.21, 0.5}, {true, 0.2, 0.5}});
  const auto volatile_t = MakeTrajectory(
      {{true, 0.4, 0.5}, {false, 0, 0}, {true, 0.4, 0.5}});
  EXPECT_GT(ComputeMeasures(stable).stability,
            ComputeMeasures(volatile_t).stability);
}

TEST(TrajectoryMeasuresTest, StddevMatchesHandComputation) {
  const auto t = MakeTrajectory({{true, 0.1, 0.2}, {true, 0.3, 0.4}});
  const TrajectoryMeasures m = ComputeMeasures(t);
  EXPECT_DOUBLE_EQ(m.mean_support, 0.2);
  EXPECT_NEAR(m.support_stddev, 0.1, 1e-12);
  EXPECT_NEAR(m.confidence_stddev, 0.1, 1e-12);
}

TEST(BuildTrajectoryTest, AssemblesFromArchive) {
  ArchiveFeed feed;
  feed.Window(100, 2);
  feed.Window(200, 2);
  feed.Window(100, 2);
  feed.Add(5, 0, 10, 20);
  feed.Add(5, 2, 25, 50);
  const TarArchive archive = feed.Build();

  const Trajectory t = BuildTrajectory(archive, 5, {0, 1, 2});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_TRUE(t[0].present);
  EXPECT_DOUBLE_EQ(t[0].support, 0.1);
  EXPECT_DOUBLE_EQ(t[0].confidence, 0.5);
  EXPECT_FALSE(t[1].present);
  EXPECT_TRUE(t[2].present);
  EXPECT_DOUBLE_EQ(t[2].support, 0.25);
  EXPECT_DOUBLE_EQ(t[2].confidence, 0.5);
}

TEST(BuildTrajectoryTest, SelectsRequestedWindowsOnly) {
  ArchiveFeed feed;
  for (WindowId w = 0; w < 5; ++w) feed.Window(100, 2);
  for (WindowId w = 0; w < 5; ++w) feed.Add(1, w, 10 + w, 20);
  const TarArchive archive = feed.Build();
  const Trajectory t = BuildTrajectory(archive, 1, {2, 4});
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].window, 2u);
  EXPECT_DOUBLE_EQ(t[0].support, 0.12);
  EXPECT_EQ(t[1].window, 4u);
  EXPECT_DOUBLE_EQ(t[1].support, 0.14);
}

// The walk merges the series with the windows in one ascending pass, so
// a window list out of order or repeated is a caller bug, not a request.
TEST(BuildTrajectoryDeathTest, RefusesWindowsNotStrictlyAscending) {
  ArchiveFeed feed;
  for (WindowId w = 0; w < 5; ++w) feed.Window(100, 2);
  feed.Add(1, 2, 10, 20);
  const TarArchive archive = feed.Build();
  EXPECT_DEATH(BuildTrajectory(archive, 1, {4, 2}), "strictly ascending");
  EXPECT_DEATH(BuildTrajectory(archive, 1, {2, 2}), "strictly ascending");
}

}  // namespace
}  // namespace tara
