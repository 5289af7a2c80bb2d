// Write-ahead-log durability: replay round-trips, checkpoint + log
// truncation, torn-tail tolerance, typed mismatch/gap errors, and the
// crash harness — SIGKILL injected between every durability step of
// live appends and checkpoints, plus timed kill -9 runs, each followed
// by a recovery that must reproduce the last acked state byte-for-byte.

#include "core/wal.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crash_point.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kWindows = 4;

EvolvingDatabase MakeData() {
  QuestGenerator::Params params;
  params.num_transactions = 300 * kWindows;
  params.num_items = 70;
  params.num_patterns = 30;
  params.avg_transaction_len = 8;
  params.seed = 1234;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, kWindows);
}

TaraEngine::Options EngineOptions() {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  return options;
}

std::string Encode(const TaraEngine& engine) {
  return EncodeKnowledgeBase(*engine.Snapshot());
}

/// Checkpoint + WAL recovery through the unified open entry point.
Expected<TaraEngine, LoadError> Recover(const std::string& kb_dir,
                                        const std::string& wal_dir,
                                        obs::MetricsRegistry* metrics = nullptr,
                                        WalReplayStats* stats = nullptr) {
  OpenOptions options;
  options.kb_dir = kb_dir;
  options.wal_dir = wal_dir;
  options.metrics = metrics;
  options.replay_stats = stats;
  return OpenKnowledgeBase(options);
}

class WalTest : public ::testing::Test {
 protected:
  // The pid keeps concurrent suite runs (e.g. plain + sanitized build
  // trees on one machine) from clobbering each other's fixtures.
  WalTest()
      : dir_(fs::path(::testing::TempDir()) /
             ("wal_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())),
        wal_dir_((dir_ / "wal").string()),
        kb_dir_((dir_ / "kb").string()) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~WalTest() override { fs::remove_all(dir_); }

  /// Serialized reference states: refs_[k] is the knowledge base after k
  /// appended windows. The recovery assertions compare against these.
  void BuildReferences(const EvolvingDatabase& data) {
    TaraEngine engine(EngineOptions());
    refs_.push_back(Encode(engine));
    for (uint32_t w = 0; w < data.window_count(); ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
      refs_.push_back(Encode(engine));
    }
  }

  fs::path dir_;
  std::string wal_dir_;
  std::string kb_dir_;
  std::vector<std::string> refs_;
};

TEST_F(WalTest, LoggedWindowsReplayByteIdentically) {
  const EvolvingDatabase data = MakeData();
  BuildReferences(data);
  {
    // Options::wal_dir exercises the construction-time attach.
    TaraEngine::Options options = EngineOptions();
    options.wal_dir = wal_dir_;
    TaraEngine engine(options);
    ASSERT_TRUE(engine.wal_attached());
    for (uint32_t w = 0; w < kWindows; ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
    }
    EXPECT_EQ(Encode(engine), refs_[kWindows]);
  }
  // A fresh engine attaching the same log replays every window.
  TaraEngine replayed(EngineOptions());
  const auto stats = replayed.AttachWal(wal_dir_);
  ASSERT_TRUE(stats.has_value()) << stats.error();
  EXPECT_EQ(stats->records_replayed, kWindows);
  EXPECT_EQ(stats->records_skipped, 0u);
  EXPECT_EQ(stats->truncated_bytes, 0u);
  EXPECT_EQ(Encode(replayed), refs_[kWindows]);
}

// A precomputed window whose counts a loader would refuse (an antecedent
// count above the window's transactions) must be refused before it is
// logged: a logged window that replay rejects would stop the engine from
// reopening. The log keeps exactly the windows the engine accepted.
TEST_F(WalTest, ImpossibleCountsAreRefusedBeforeTheyAreLogged) {
  const Rule rule{{1}, {2}};
  std::string accepted;
  {
    TaraEngine::Options options = EngineOptions();
    options.wal_dir = wal_dir_;
    TaraEngine engine(options);
    engine.AppendPrecomputedWindow(100, {{rule, 30, 60}});
    accepted = Encode(engine);
    EXPECT_DEATH(engine.AppendPrecomputedWindow(100, {{rule, 30, 101}}),
                 "impossible counts");
    EXPECT_EQ(Encode(engine), accepted);
  }
  TaraEngine::Options options = EngineOptions();
  options.wal_dir = wal_dir_;
  TaraEngine reopened(options);
  EXPECT_EQ(Encode(reopened), accepted);
}

TEST_F(WalTest, CheckpointTruncatesAndTailReplaysOnTop) {
  const EvolvingDatabase data = MakeData();
  BuildReferences(data);
  TaraEngine engine(EngineOptions());
  ASSERT_TRUE(engine.AttachWal(wal_dir_).has_value());
  for (uint32_t w = 0; w < 2; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  // Checkpoint: windows 0-1 land durably in the directory, then the log
  // resets to its header.
  ASSERT_FALSE(AppendKnowledgeBaseBlocks(*engine.Snapshot(), kb_dir_));
  ASSERT_FALSE(engine.TruncateWal().has_value());
  {
    const auto contents = ReadWal(wal_dir_);
    ASSERT_TRUE(contents.has_value()) << contents.error();
    EXPECT_TRUE(contents->records.empty());
  }
  for (uint32_t w = 2; w < kWindows; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }

  WalReplayStats stats;
  auto recovered = Recover(kb_dir_, wal_dir_, nullptr, &stats);
  ASSERT_TRUE(recovered.has_value()) << recovered.error();
  EXPECT_EQ(stats.records_replayed, kWindows - 2);
  EXPECT_EQ(recovered->window_count(), kWindows);
  EXPECT_EQ(Encode(*recovered), refs_[kWindows]);
}

TEST_F(WalTest, RecoversFromTheLogAloneBeforeAnyCheckpoint) {
  const EvolvingDatabase data = MakeData();
  BuildReferences(data);
  {
    TaraEngine engine(EngineOptions());
    ASSERT_TRUE(engine.AttachWal(wal_dir_).has_value());
    for (uint32_t w = 0; w < kWindows; ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
    }
  }
  // kb_dir_ was never written: the engine options come from the WAL
  // header, the windows from its records.
  WalReplayStats stats;
  auto recovered = Recover(kb_dir_, wal_dir_, nullptr, &stats);
  ASSERT_TRUE(recovered.has_value()) << recovered.error();
  EXPECT_EQ(stats.records_replayed, kWindows);
  EXPECT_EQ(Encode(*recovered), refs_[kWindows]);
  // And the recovered engine keeps ingesting + logging: its log can be
  // replayed again.
  EXPECT_TRUE(recovered->wal_attached());
}

TEST_F(WalTest, TornTailIsTruncatedAndEarlierRecordsSurvive) {
  const EvolvingDatabase data = MakeData();
  BuildReferences(data);
  {
    TaraEngine engine(EngineOptions());
    ASSERT_TRUE(engine.AttachWal(wal_dir_).has_value());
    for (uint32_t w = 0; w < kWindows; ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
    }
  }
  // Tear the last record: chop off its final bytes, as a crash mid-write
  // would.
  const fs::path wal_file = fs::path(wal_dir_) / "wal.tarawal";
  const uint64_t full_size = fs::file_size(wal_file);
  fs::resize_file(wal_file, full_size - 7);

  const auto contents = ReadWal(wal_dir_);
  ASSERT_TRUE(contents.has_value()) << contents.error();
  EXPECT_EQ(contents->records.size(), kWindows - 1);
  EXPECT_GT(contents->truncated_bytes, 0u);

  WalReplayStats stats;
  auto result = Recover(kb_dir_, wal_dir_, nullptr, &stats);
  ASSERT_TRUE(result.has_value()) << result.error();
  TaraEngine recovered = std::move(result).value();
  EXPECT_EQ(stats.records_replayed, kWindows - 1);
  EXPECT_EQ(stats.truncated_bytes, full_size - 7 - contents->valid_bytes);
  EXPECT_EQ(Encode(recovered), refs_[kWindows - 1]);

  // Re-appending the torn window through the recovered engine converges
  // back onto the reference — the torn tail was dropped cleanly.
  const WindowInfo& info = data.window(kWindows - 1);
  recovered.AppendWindow(data.database(), info.begin, info.end);
  EXPECT_EQ(Encode(recovered), refs_[kWindows]);
}

TEST_F(WalTest, MismatchedOptionsAndGapsAreTypedErrors) {
  const EvolvingDatabase data = MakeData();
  {
    TaraEngine engine(EngineOptions());
    ASSERT_TRUE(engine.AttachWal(wal_dir_).has_value());
    const WindowInfo& info = data.window(0);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  // Different floors -> refuse to attach (and to replay).
  TaraEngine::Options other = EngineOptions();
  other.min_support_floor = 0.02;
  TaraEngine mismatched(other);
  const auto attach = mismatched.AttachWal(wal_dir_);
  ASSERT_FALSE(attach.has_value());
  EXPECT_EQ(attach.error().code, LoadError::Code::kBadManifest);

  // A log whose first record is past the engine's next window is a gap:
  // checkpoint, truncate, append one more — then recover WITHOUT the
  // checkpoint directory.
  {
    auto result = Recover(kb_dir_, wal_dir_);
    ASSERT_TRUE(result.has_value()) << result.error();
    TaraEngine engine = std::move(result).value();
    ASSERT_FALSE(AppendKnowledgeBaseBlocks(*engine.Snapshot(), kb_dir_));
    ASSERT_FALSE(engine.TruncateWal().has_value());
    const WindowInfo& info = data.window(1);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  const auto gap =
      Recover((dir_ / "no_kb").string(), wal_dir_);
  ASSERT_FALSE(gap.has_value());
  EXPECT_EQ(gap.error().code, LoadError::Code::kBadManifest);
  EXPECT_NE(gap.error().message.find("jumps"), std::string::npos)
      << gap.error().message;

  // Missing log altogether: typed IO error.
  const auto missing = ReadWal((dir_ / "no_wal").string());
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, LoadError::Code::kIoError);
}

TEST_F(WalTest, InstrumentsCountRecordsAndReplays) {
  const EvolvingDatabase data = MakeData();
  obs::MetricsRegistry metrics;
  {
    TaraEngine::Options options = EngineOptions();
    options.metrics = &metrics;
    options.wal_dir = wal_dir_;
    TaraEngine engine(options);
    for (uint32_t w = 0; w < 2; ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
    }
  }
  const std::string text = metrics.SnapshotText();
  EXPECT_NE(text.find("tara.wal.records = 2"), std::string::npos) << text;
  EXPECT_NE(text.find("tara.wal.bytes"), std::string::npos);
  EXPECT_NE(text.find("tara.wal.fsyncs"), std::string::npos);

  obs::MetricsRegistry recovery_metrics;
  WalReplayStats stats;
  auto recovered =
      Recover(kb_dir_, wal_dir_, &recovery_metrics, &stats);
  ASSERT_TRUE(recovered.has_value()) << recovered.error();
  EXPECT_EQ(stats.records_replayed, 2u);
  EXPECT_NE(recovery_metrics.SnapshotText().find("tara.wal.replays = 2"),
            std::string::npos)
      << recovery_metrics.SnapshotText();
}

// The log writes ahead: a window is durable before any reader can see it.
// A reader that reads the published window count and then the log must
// never find the log shorter than what it was shown.
TEST_F(WalTest, NoWindowIsPublishedBeforeItIsLogged) {
  constexpr uint32_t kAppends = 12;
  QuestGenerator::Params params;
  params.num_transactions = 300 * kAppends;
  params.num_items = 70;
  params.num_patterns = 30;
  params.avg_transaction_len = 8;
  params.seed = 1234;
  const EvolvingDatabase data = EvolvingDatabase::PartitionIntoBatches(
      QuestGenerator(params).Generate(), kAppends);
  TaraEngine::Options options = EngineOptions();
  options.wal_dir = wal_dir_;
  TaraEngine engine(options);

  std::atomic<bool> done{false};
  uint64_t probes = 0, ahead = 0;
  std::thread reader([&] {
    while (!done.load()) {
      const uint32_t published = engine.Snapshot()->window_count();
      const auto logged = ReadWal(wal_dir_);
      ASSERT_TRUE(logged.has_value()) << logged.error();
      ++probes;
      if (published > logged->records.size()) ++ahead;
    }
  });
  for (uint32_t w = 0; w < kAppends; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  done.store(true);
  reader.join();
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(ahead, 0u) << ahead << " of " << probes
                       << " probes saw a published window the log lacked";
}

/// The crash harness: a forked child ingests live windows with the WAL
/// attached, acking each append durably into an ack file the moment
/// AppendWindow returns, and checkpointing midway. The parent kills it
/// with SIGKILL at an injected crash point (every durability-step
/// boundary in turn), recovers, and requires: no acked window is lost,
/// and the recovered knowledge base is byte-identical to an uncrashed
/// reference at the recovered window count.
class WalCrashTest : public WalTest {
 protected:
  /// Child body; never returns. Exit codes: 0 = ran to completion,
  /// 2 = a step failed (distinguishes bugs from injected kills).
  [[noreturn]] void ChildIngest(const EvolvingDatabase& data,
                                const std::string& ack_path,
                                long crash_at, int delay_us) {
    if (crash_at >= 0) ArmCrashPoint(crash_at);
    const int ack_fd =
        ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (ack_fd < 0) _exit(2);
    TaraEngine engine(EngineOptions());
    if (!engine.AttachWal(wal_dir_).has_value()) _exit(2);
    for (uint32_t w = 0; w < data.window_count(); ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
      // The append returned -> the record is durable -> ack it, also
      // durably, so the parent can trust the ack count after a kill.
      if (::write(ack_fd, "a", 1) != 1 || ::fsync(ack_fd) != 0) _exit(2);
      if (w == 1) {
        // Mid-run checkpoint: directory save + log truncation, both of
        // which have their own injected crash points.
        if (AppendKnowledgeBaseBlocks(*engine.Snapshot(), kb_dir_)) _exit(2);
        if (engine.TruncateWal().has_value()) _exit(2);
      }
      if (delay_us > 0) ::usleep(delay_us);
    }
    _exit(0);
  }

  /// Recovers after the child stopped and checks the acceptance bar.
  void CheckRecovery(uint64_t acked, const std::string& label) {
    WalReplayStats stats;
    auto recovered = Recover(kb_dir_, wal_dir_, nullptr, &stats);
    if (!recovered.has_value()) {
      // A kill that lands before the first append (seen under sanitizers
      // and on loaded machines, where startup is slow) leaves either no
      // WAL file at all or a freshly-attached header-only log, and no
      // checkpoint; nothing was acked, so there is nothing to recover
      // and the typed error is the correct answer.
      ASSERT_EQ(acked, 0u) << label << ": " << recovered.error();
      return;
    }
    const uint32_t count = recovered->window_count();
    // Never lose an acked window; at most one unacked window may have
    // become durable between the WAL fsync and the ack write.
    ASSERT_GE(count, acked) << label;
    ASSERT_LE(count, refs_.size() - 1) << label;
    EXPECT_EQ(Encode(*recovered), refs_[count])
        << label << ": recovered state diverges from the reference at "
        << count << " windows";
  }

  uint64_t AckCount(const std::string& ack_path) {
    std::error_code ec;
    const auto size = fs::file_size(ack_path, ec);
    return ec ? 0 : size;
  }
};

TEST_F(WalCrashTest, KillNineAtEveryDurabilityStepNeverLosesAnAckedWindow) {
  const EvolvingDatabase data = MakeData();
  BuildReferences(data);
  bool completed_cleanly = false;
  for (long crash_at = 0; crash_at < 96 && !completed_cleanly; ++crash_at) {
    fs::remove_all(wal_dir_);
    fs::remove_all(kb_dir_);
    const std::string ack_path =
        (dir_ / ("acks_" + std::to_string(crash_at))).string();
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) ChildIngest(data, ack_path, crash_at, /*delay_us=*/0);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    if (WIFEXITED(status)) {
      ASSERT_EQ(WEXITSTATUS(status), 0) << "child step failed un-injected";
      completed_cleanly = true;
    } else {
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "unexpected termination at crash point " << crash_at;
    }
    const std::string label = "crash point " + std::to_string(crash_at);
    CheckRecovery(AckCount(ack_path), label);
    if (completed_cleanly) {
      // The clean pass must have every window, not just the acked floor.
      auto recovered = Recover(kb_dir_, wal_dir_);
      ASSERT_TRUE(recovered.has_value());
      EXPECT_EQ(recovered->window_count(), data.window_count());
    }
  }
  EXPECT_TRUE(completed_cleanly)
      << "crash-point matrix never exhausted the injection sites";
}

TEST_F(WalCrashTest, TimedKillNineRecoversToTheLastAckedWindow) {
  const EvolvingDatabase data = MakeData();
  BuildReferences(data);
  // Real wall-clock kills at a few offsets — no injection, the signal
  // lands wherever the child happens to be.
  for (const int kill_after_us : {500, 2000, 8000}) {
    fs::remove_all(wal_dir_);
    fs::remove_all(kb_dir_);
    const std::string ack_path =
        (dir_ / ("acks_t" + std::to_string(kill_after_us))).string();
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      ChildIngest(data, ack_path, /*crash_at=*/-1, /*delay_us=*/300);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(kill_after_us));
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    CheckRecovery(AckCount(ack_path),
                  "timed kill at " + std::to_string(kill_after_us) + "us");
  }
}

}  // namespace
}  // namespace tara
