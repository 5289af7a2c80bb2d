// Block-partitioned (TARAKB3) persistence and the zero-copy open path:
// round-trips through both OpenMode's, balanced partitioning, the
// append-only block contract and its refusals, lazy materialization
// observability, a mapped-vs-eager differential oracle over the full
// query surface, a crash matrix over every directory rewrite, and
// corruption fuzz that must always come back as a typed error — at open
// (verify = kHashes), or as QueryError::kCorruptStorage on the first
// lazy decode that hits it — never a crash.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "common/crash_point.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

namespace fs = std::filesystem;

constexpr double kSupportFloor = 0.01;
constexpr double kConfidenceFloor = 0.1;

EvolvingDatabase MakeData(uint32_t windows) {
  QuestGenerator::Params params;
  params.num_transactions = 500 * windows;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = 42;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, windows);
}

TaraEngine BuildEngine(const EvolvingDatabase& data,
                       double support_floor = kSupportFloor) {
  TaraEngine::Options options;
  options.min_support_floor = support_floor;
  options.min_confidence_floor = kConfidenceFloor;
  options.max_itemset_size = 4;
  TaraEngine engine(options);
  engine.BuildAll(data);
  return engine;
}

Expected<TaraEngine, LoadError> Open(const std::string& dir, OpenMode mode,
                                     OpenVerify verify = OpenVerify::kNone,
                                     obs::MetricsRegistry* metrics = nullptr) {
  OpenOptions options;
  options.kb_dir = dir;
  options.mode = mode;
  options.verify = verify;
  options.metrics = metrics;
  return OpenKnowledgeBase(options);
}

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

class KbBlocksTest : public ::testing::Test {
 protected:
  KbBlocksTest()
      : dir_(fs::path(::testing::TempDir()) /
             ("kb_blocks_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()
                  ->current_test_info()
                  ->name())) {
    fs::remove_all(dir_);
  }
  ~KbBlocksTest() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(KbBlocksTest, RoundTripsThroughBothOpenModes) {
  const EvolvingDatabase data = MakeData(4);
  const TaraEngine original = BuildEngine(data);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*original.Snapshot(), dir_.string()).has_value());
  EXPECT_TRUE(fs::exists(dir_ / "blocks.tarakb3"));
  EXPECT_TRUE(KnowledgeBaseBlocksDirExists(dir_.string()));

  const auto original_kb = original.Snapshot();
  for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
    const auto loaded = Open(dir_.string(), mode);
    ASSERT_TRUE(loaded.has_value()) << loaded.error();
    EXPECT_EQ(loaded->window_count(), original.window_count());
    const ParameterSetting setting{0.02, 0.3};
    for (WindowId w = 0; w < original.window_count(); ++w) {
      EXPECT_EQ(std::get<std::vector<RuleId>>(
                    loaded->Execute(QueryRequest::MineWindow(w, setting))
                        .value()),
                original_kb->MineWindow(w, setting).value());
    }
    // Once every window is materialized the loaded engine streams to the
    // exact bytes of the source engine — blocks hold the same segment
    // blobs the stream form does.
    EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
              EncodeKnowledgeBase(*original.Snapshot()));
  }
}

TEST_F(KbBlocksTest, PartitionsIntoBalancedContiguousBlocks) {
  const TaraEngine engine = BuildEngine(MakeData(6));
  // A tiny byte target forces several blocks; every block must still get
  // at least one window and the spans must tile [0, window_count).
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(manifest.has_value()) << manifest.error();
  ASSERT_GT(manifest->blocks.size(), 1u);
  EXPECT_EQ(manifest->window_count(), 6u);

  WindowId next_window = 0;
  for (const KbBlockInfo& block : manifest->blocks) {
    EXPECT_EQ(block.first_window, next_window);
    ASSERT_FALSE(block.rows.empty());
    next_window += static_cast<WindowId>(block.rows.size());
    const fs::path file = dir_ / KnowledgeBaseBlockFileName(block.file_index);
    ASSERT_TRUE(fs::exists(file)) << file;
    EXPECT_EQ(fs::file_size(file), block.file_bytes);
    for (const KbBlockRow& row : block.rows) {
      EXPECT_EQ(row.offset % kBlockSegmentAlignment, 0u);
      EXPECT_LE(row.offset + row.segment_bytes, block.file_bytes);
    }
  }
  EXPECT_EQ(next_window, 6u);

  // The default target comfortably holds this KB in one block.
  const fs::path one = dir_.parent_path() / (dir_.filename().string() + "_one");
  fs::remove_all(one);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), one.string()).has_value());
  const auto single = ReadKnowledgeBaseBlocksManifest(one.string());
  ASSERT_TRUE(single.has_value());
  EXPECT_EQ(single->blocks.size(), 1u);
  fs::remove_all(one);
}

TEST_F(KbBlocksTest, AppendPacksOnlyNewWindowsIntoFreshBlocks) {
  const EvolvingDatabase data = MakeData(4);
  TaraEngine engine = BuildEngine(EvolvingDatabase());
  for (uint32_t w = 0; w < 3; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto before = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(before.has_value());
  std::vector<std::pair<fs::path, std::string>> old_blocks;
  for (const KbBlockInfo& block : before->blocks) {
    const fs::path file = dir_ / KnowledgeBaseBlockFileName(block.file_index);
    old_blocks.emplace_back(file, ReadFileBytes(file));
  }

  const WindowInfo& info = data.window(3);
  engine.AppendWindow(data.database(), info.begin, info.end);
  ASSERT_FALSE(
      AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
          .has_value());

  // Every pre-existing block file is byte-identical; the new window went
  // into one or more fresh-indexed files.
  for (const auto& [file, bytes] : old_blocks) {
    EXPECT_EQ(ReadFileBytes(file), bytes) << file;
  }
  const auto after = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->window_count(), 4u);
  EXPECT_GT(after->blocks.size(), before->blocks.size());

  const auto loaded = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
            EncodeKnowledgeBase(*BuildEngine(data).Snapshot()));
}

TEST_F(KbBlocksTest, AppendIntoEmptyDirectoryDoesAFullSave) {
  const EvolvingDatabase data = MakeData(2);
  const TaraEngine engine = BuildEngine(data);
  ASSERT_FALSE(
      AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string()).has_value());
  const auto loaded = Open(dir_.string(), OpenMode::kEager);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded->window_count(), 2u);
  EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
            EncodeKnowledgeBase(*engine.Snapshot()));
}

TEST_F(KbBlocksTest, AppendRefusesAMismatchedDirectory) {
  const EvolvingDatabase data = MakeData(3);
  const TaraEngine first = BuildEngine(data);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*first.Snapshot(), dir_.string()).has_value());
  const auto refused = [this](const TaraEngine& engine) {
    const auto error =
        AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string());
    EXPECT_TRUE(error.has_value());
    if (error.has_value()) {
      EXPECT_EQ(error->code, LoadError::Code::kBadManifest) << *error;
    }
  };

  // Different construction options.
  TaraEngine::Options options;
  options.min_support_floor = 0.02;
  options.min_confidence_floor = 0.2;
  refused(TaraEngine(options));

  // Same options, but the directory is not a prefix: different data...
  QuestGenerator::Params params;
  params.num_transactions = 1500;
  params.num_items = 80;
  params.num_patterns = 40;
  params.avg_transaction_len = 8;
  params.seed = 4242;
  refused(BuildEngine(EvolvingDatabase::PartitionIntoBatches(
      QuestGenerator(params).Generate(), 3)));
  // ...or fewer windows than the directory already holds.
  TaraEngine shorter = BuildEngine(EvolvingDatabase());
  for (uint32_t w = 0; w < 2; ++w) {
    const WindowInfo& info = data.window(w);
    shorter.AppendWindow(data.database(), info.begin, info.end);
  }
  refused(shorter);

  // Every refusal left the directory as it was.
  const auto loaded = Open(dir_.string(), OpenMode::kEager);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
            EncodeKnowledgeBase(*first.Snapshot()));
}

TEST_F(KbBlocksTest, CleanSavesLeaveNoTempFiles) {
  const EvolvingDatabase data = MakeData(3);
  TaraEngine engine = BuildEngine(EvolvingDatabase());
  for (uint32_t w = 0; w < 2; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const WindowInfo& info = data.window(2);
  engine.AppendWindow(data.database(), info.begin, info.end);
  ASSERT_FALSE(
      AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
          .has_value());
  ASSERT_FALSE(RepartitionKnowledgeBase(dir_.string()).has_value());
  ASSERT_FALSE(TrimKnowledgeBase(dir_.string(), 2).has_value());
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

TEST_F(KbBlocksTest, ZeroLengthManifestIsATypedTornWriteError) {
  // The signature damage of an in-place truncating rewrite: a crash after
  // open(O_TRUNC) but before the write leaves a 0-byte manifest. The
  // open must name the torn write, not crash or claim "wrong format".
  const TaraEngine engine = BuildEngine(MakeData(2));
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string()).has_value());
  WriteFileBytes(dir_ / "blocks.tarakb3", "");
  for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
    const auto loaded = Open(dir_.string(), mode);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_EQ(loaded.error().code, LoadError::Code::kTruncated);
    EXPECT_NE(loaded.error().message.find("zero-length"), std::string::npos)
        << loaded.error().message;
  }
  // Appending over it refuses for the same typed reason, and so does a
  // save, which cannot tell which files the torn manifest named.
  for (const auto& refused :
       {AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string()),
        SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string())}) {
    ASSERT_TRUE(refused.has_value());
    EXPECT_EQ(refused->code, LoadError::Code::kTruncated);
  }
}

// OpenKnowledgeBase's three cases: a blocks manifest opens (and, with a
// wal_dir but no log yet, starts one); no checkpoint plus a wal_dir
// rebuilds from the log alone (test_wal.cc); anything else is typed.
TEST_F(KbBlocksTest, OpenRefusesMissingAndRetiredDirectories) {
  for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
    const auto missing = Open((dir_ / "nowhere").string(), mode);
    ASSERT_FALSE(missing.has_value());
    EXPECT_EQ(missing.error().code, LoadError::Code::kIoError);
  }

  // A directory in the retired one-file-per-window format is refused by
  // name, with or without a WAL to replay on top.
  const fs::path legacy = dir_ / "legacy";
  fs::create_directories(legacy);
  WriteFileBytes(legacy / "manifest.tarakb", "TARAKB2 legacy manifest");
  WriteFileBytes(legacy / "window-000000.seg", "TSEG legacy segment");
  OpenOptions options;
  options.kb_dir = legacy.string();
  for (const std::string& wal : {std::string(), (dir_ / "wal").string()}) {
    options.wal_dir = wal;
    const auto refused = OpenKnowledgeBase(options);
    ASSERT_FALSE(refused.has_value());
    EXPECT_EQ(refused.error().code, LoadError::Code::kBadVersion);
    EXPECT_NE(refused.error().message.find("TARAKB2"), std::string::npos)
        << refused.error().message;
  }
  EXPECT_FALSE(fs::exists(dir_ / "wal"));

  // Recover-on-open over a checkpoint with no log yet creates the log.
  const TaraEngine engine = BuildEngine(MakeData(2));
  const fs::path kb = dir_ / "kb";
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), kb.string()).has_value());
  options.kb_dir = kb.string();
  options.wal_dir = (dir_ / "wal").string();
  const auto recovered = OpenKnowledgeBase(options);
  ASSERT_TRUE(recovered.has_value()) << recovered.error();
  EXPECT_TRUE(recovered->wal_attached());
  EXPECT_EQ(EncodeKnowledgeBase(*recovered->Snapshot()),
            EncodeKnowledgeBase(*engine.Snapshot()));
}

// One gate serves every kind: a mapped open decodes nothing, and one
// Execute of each query kind materializes exactly the window prefix that
// kind needs — never more.
TEST_F(KbBlocksTest, MappedOpenMaterializesNothingUntilQueried) {
  TaraEngine::Options options;
  options.min_support_floor = kSupportFloor;
  options.min_confidence_floor = kConfidenceFloor;
  options.max_itemset_size = 4;
  options.build_content_index = true;  // so every kind, Q5 too, answers
  TaraEngine original(options);
  original.BuildAll(MakeData(5));
  const auto original_kb = original.Snapshot();
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*original_kb, dir_.string(), 4096).has_value());

  // A rule first interned by window 2, and one by window 0.
  const RuleId rule_of_2 = original_kb->segment(1).rule_watermark;
  ASSERT_LT(rule_of_2, original_kb->segment(2).rule_watermark);
  const RuleId rule_of_0 = 0;
  const ParameterSetting setting{0.02, 0.3};
  const ParameterSetting second{0.03, 0.4};
  const ItemId item = original_kb->catalog().rule(rule_of_0).antecedent[0];

  struct Case {
    QueryRequest request;
    uint32_t prefix;  // windows the request needs materialized
    uint64_t slices;  // EPS slices the request builds
  };
  const Case cases[] = {
      // Single-window kinds: through the window, and its slice.
      {QueryRequest::MineWindow(1, setting), 2, 1},
      {QueryRequest::Region(2, setting), 3, 1},
      {QueryRequest::Content(1, {item}, setting), 2, 1},
      {QueryRequest::ContentView(3, setting), 4, 1},
      // Trajectory: through the larger of anchor and horizon; the horizon
      // reads the archive, so only the anchor's slice is built.
      {QueryRequest::Trajectory(1, setting, {0, 3}), 4, 1},
      {QueryRequest::Trajectory(2, setting, {0, 1}), 3, 1},
      // Multi-window kinds: through the largest requested window, with a
      // slice per requested window; roll-up mining reads entries only.
      {QueryRequest::MineWindows({0, 2}, setting, MatchMode::kSingle), 3, 2},
      {QueryRequest::Compare(setting, second, {1, 2}, MatchMode::kExact), 3,
       2},
      {QueryRequest::RollUpMine({0, 1}, setting), 2, 0},
      // Rule kinds: through the rule's first window or the largest
      // requested window, whichever is later; they read the archive.
      {QueryRequest::Measures(rule_of_2, {0}), 3, 0},
      {QueryRequest::Measures(rule_of_0, {3}), 4, 0},
      {QueryRequest::RollUpRule(rule_of_2, {0, 1}), 3, 0},
      {QueryRequest::RollUpRule(rule_of_0, {1}), 2, 0},
  };
  bool kinds_seen[kQueryKindCount] = {};
  for (const Case& c : cases) {
    const std::string_view kind = QueryKindName(c.request.kind);
    kinds_seen[static_cast<int>(c.request.kind)] = true;
    obs::MetricsRegistry registry;
    const auto loaded =
        Open(dir_.string(), OpenMode::kMapped, OpenVerify::kNone, &registry);
    ASSERT_TRUE(loaded.has_value()) << loaded.error();
    // Open itself decoded nothing.
    EXPECT_EQ(loaded->window_count(), 5u);
    EXPECT_EQ(loaded->materialized_window_count(), 0u);
    EXPECT_FALSE(loaded->fully_materialized());

    const auto result = loaded->Execute(c.request);
    ASSERT_TRUE(result.has_value()) << kind << ": " << result.error();
    EXPECT_EQ(loaded->materialized_window_count(), c.prefix) << kind;
    EXPECT_FALSE(loaded->fully_materialized()) << kind;
    EXPECT_EQ(registry.GetHistogram("tara.index.build_ns")->Count(), c.slices)
        << kind;
    // Same answer as the eagerly built engine.
    EXPECT_EQ(EncodeQueryResult(c.request.kind, result.value()),
              EncodeQueryResult(c.request.kind,
                                ExecuteQuery(*original_kb, c.request).value()))
        << kind;
  }
  for (int k = 0; k < kQueryKindCount; ++k) {
    EXPECT_TRUE(kinds_seen[k]) << QueryKindName(static_cast<QueryKind>(k));
  }

  // A later query extends a decoded prefix; touching the last window
  // completes materialization.
  const auto loaded = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  ASSERT_TRUE(
      loaded->Execute(QueryRequest::MineWindow(1, setting)).has_value());
  EXPECT_EQ(loaded->materialized_window_count(), 2u);
  ASSERT_TRUE(
      loaded->Execute(QueryRequest::MineWindow(4, setting)).has_value());
  EXPECT_EQ(loaded->materialized_window_count(), 5u);
  EXPECT_TRUE(loaded->fully_materialized());
}

// Each commit step publishes ONE generation however many windows it
// commits, and the generation advances by the windows committed — so
// every way of building or loading the same knowledge base reports the
// same generation (its window count) and the same stream bytes, while
// `tara.kb.swaps` counts one publication per step.
TEST_F(KbBlocksTest, EveryCommitStepPublishesOnce) {
  const EvolvingDatabase data = MakeData(6);
  TaraEngine::Options options;
  options.min_support_floor = kSupportFloor;
  options.min_confidence_floor = kConfidenceFloor;
  options.max_itemset_size = 4;
  options.build_content_index = true;
  const auto swaps = [](obs::MetricsRegistry& registry) {
    return registry.GetCounter("tara.kb.swaps")->Value();
  };

  // BuildAll, sequential and pooled: one publication for six windows.
  std::string reference;
  for (const uint32_t parallelism : {1u, 4u}) {
    obs::MetricsRegistry registry;
    TaraEngine::Options built = options;
    built.parallelism = parallelism;
    built.metrics = &registry;
    TaraEngine engine(built);
    engine.BuildAll(data);
    EXPECT_EQ(swaps(registry), 1u) << "parallelism " << parallelism;
    EXPECT_EQ(engine.generation(), 6u) << "parallelism " << parallelism;
    if (reference.empty()) {
      reference = EncodeKnowledgeBase(*engine.Snapshot());
      ASSERT_FALSE(
          SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
              .has_value());
    }
    EXPECT_EQ(EncodeKnowledgeBase(*engine.Snapshot()), reference)
        << "parallelism " << parallelism;
  }

  // An eager open commits every window in one batch.
  {
    obs::MetricsRegistry registry;
    OpenOptions open;
    open.kb_dir = dir_.string();
    open.metrics = &registry;
    const auto eager = OpenKnowledgeBase(open);
    ASSERT_TRUE(eager.has_value()) << eager.error();
    EXPECT_EQ(swaps(registry), 1u);
    EXPECT_EQ(eager->generation(), 6u);
    EXPECT_EQ(EncodeKnowledgeBase(*eager.value().Snapshot()), reference);
  }

  // A mapped open: one publication per materializing step, none for a
  // step whose prefix is already decoded.
  {
    obs::MetricsRegistry registry;
    OpenOptions open;
    open.kb_dir = dir_.string();
    open.mode = OpenMode::kMapped;
    open.metrics = &registry;
    const auto mapped = OpenKnowledgeBase(open);
    ASSERT_TRUE(mapped.has_value()) << mapped.error();
    EXPECT_EQ(swaps(registry), 0u);
    const ParameterSetting setting{0.02, 0.3};
    const struct {
      WindowId window;
      uint32_t materialized;
      uint64_t swaps;
    } steps[] = {{1, 2, 1}, {1, 2, 1}, {4, 5, 2}, {5, 6, 3}};
    for (const auto& step : steps) {
      ASSERT_TRUE(mapped->Execute(QueryRequest::MineWindow(step.window,
                                                           setting))
                      .has_value());
      EXPECT_EQ(mapped->materialized_window_count(), step.materialized);
      EXPECT_EQ(mapped->generation(), step.materialized);
      EXPECT_EQ(swaps(registry), step.swaps) << "window " << step.window;
    }
    EXPECT_EQ(EncodeKnowledgeBase(*mapped.value().Snapshot()), reference);
    EXPECT_EQ(swaps(registry), 3u);
  }

  // WAL replay over a checkpoint: the eager open of the checkpoint is
  // one publication and the replayed tail another.
  const fs::path checkpoint = dir_ / "checkpoint";
  const fs::path wal = dir_ / "wal";
  {
    TaraEngine writer(options);
    ASSERT_TRUE(writer.AttachWal(wal.string()).has_value());
    for (uint32_t w = 0; w < 6; ++w) {
      if (w == 2) {
        ASSERT_FALSE(
            AppendKnowledgeBaseBlocks(*writer.Snapshot(), checkpoint.string())
                .has_value());
      }
      const WindowInfo& info = data.window(w);
      writer.AppendWindow(data.database(), info.begin, info.end);
    }
  }
  obs::MetricsRegistry registry;
  WalReplayStats replayed;
  OpenOptions open;
  open.kb_dir = checkpoint.string();
  open.wal_dir = wal.string();
  open.metrics = &registry;
  open.replay_stats = &replayed;
  const auto recovered = OpenKnowledgeBase(open);
  ASSERT_TRUE(recovered.has_value()) << recovered.error();
  EXPECT_EQ(replayed.records_skipped, 2u);
  EXPECT_EQ(replayed.records_replayed, 4u);
  EXPECT_EQ(swaps(registry), 2u);
  EXPECT_EQ(recovered->generation(), 6u);
  EXPECT_EQ(EncodeKnowledgeBase(*recovered.value().Snapshot()), reference);
}

TEST_F(KbBlocksTest, FirstWindowWithRuleFollowsTheWatermarks) {
  const TaraEngine engine = BuildEngine(MakeData(4));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  auto mapped = MappedKb::Open(dir_.string());
  ASSERT_TRUE(mapped.has_value()) << mapped.error();
  const KbBlocksManifest& manifest = mapped->manifest();

  uint64_t watermark = 0;
  WindowId w = 0;
  for (const KbBlockInfo& block : manifest.blocks) {
    for (const KbBlockRow& row : block.rows) {
      if (row.rule_watermark > watermark) {
        // The first and last rule interned by this window map back to it.
        EXPECT_EQ(mapped->FirstWindowWithRule(
                      static_cast<RuleId>(watermark)),
                  std::optional<WindowId>(w));
        EXPECT_EQ(mapped->FirstWindowWithRule(
                      static_cast<RuleId>(row.rule_watermark - 1)),
                  std::optional<WindowId>(w));
      }
      watermark = row.rule_watermark;
      ++w;
    }
  }
  ASSERT_GT(watermark, 0u);
  EXPECT_FALSE(mapped->FirstWindowWithRule(static_cast<RuleId>(watermark))
                   .has_value());
}

/// A random request of any kind, window ids occasionally out of range and
/// settings occasionally below the floors, so the oracle also proves the
/// two modes reject identically.
QueryRequest RandomRequest(Rng* rng, uint32_t window_count) {
  const auto setting = [&]() -> ParameterSetting {
    if (rng->NextBool(0.08)) return {kSupportFloor / 10, kConfidenceFloor};
    return {kSupportFloor + rng->NextDouble() * 0.02,
            kConfidenceFloor + rng->NextDouble() * 0.4};
  };
  const auto window = [&]() -> WindowId {
    return static_cast<WindowId>(
        rng->NextBounded(window_count + (rng->NextBool(0.08) ? 2 : 0)));
  };
  const auto windows = [&]() -> std::vector<WindowId> {
    std::vector<WindowId> ids;
    const uint64_t n = 1 + rng->NextBounded(window_count);
    for (uint64_t i = 0; i < n; ++i) ids.push_back(window());
    return ids;
  };
  const auto rule = [&]() -> RuleId {
    return static_cast<RuleId>(rng->NextBounded(4000));
  };
  const MatchMode mode =
      rng->NextBool(0.5) ? MatchMode::kSingle : MatchMode::kExact;
  switch (static_cast<QueryKind>(rng->NextBounded(kQueryKindCount))) {
    case QueryKind::kMineWindow:
      return QueryRequest::MineWindow(window(), setting());
    case QueryKind::kMineWindows:
      return QueryRequest::MineWindows(windows(), setting(), mode);
    case QueryKind::kTrajectory:
      return QueryRequest::Trajectory(window(), setting(), windows());
    case QueryKind::kCompare:
      return QueryRequest::Compare(setting(), setting(), windows(), mode);
    case QueryKind::kRegion:
      return QueryRequest::Region(window(), setting());
    case QueryKind::kMeasures:
      return QueryRequest::Measures(rule(), windows());
    case QueryKind::kContent: {
      Itemset items;
      const uint64_t n = 1 + rng->NextBounded(2);
      for (uint64_t i = 0; i < n; ++i) {
        items.push_back(static_cast<ItemId>(rng->NextBounded(80)));
      }
      return QueryRequest::Content(window(), std::move(items), setting());
    }
    case QueryKind::kContentView:
      return QueryRequest::ContentView(window(), setting());
    case QueryKind::kRollUpRule:
      return QueryRequest::RollUpRule(rule(), windows());
    case QueryKind::kRollUpMine:
      return QueryRequest::RollUpMine(windows(), setting());
  }
  return QueryRequest::MineWindow(0, setting());
}

::testing::AssertionResult SameAnswer(
    const QueryRequest& request,
    const Expected<QueryResult, QueryError>& eager,
    const Expected<QueryResult, QueryError>& mapped) {
  if (eager.has_value() != mapped.has_value()) {
    return ::testing::AssertionFailure()
           << QueryKindName(request.kind) << ": eager "
           << (eager.has_value() ? "succeeded" : "failed") << ", mapped "
           << (mapped.has_value() ? "succeeded" : "failed");
  }
  if (!eager.has_value()) {
    if (eager.error().code != mapped.error().code) {
      return ::testing::AssertionFailure()
             << QueryKindName(request.kind) << ": error codes differ";
    }
    return ::testing::AssertionSuccess();
  }
  const std::string eager_bytes = EncodeQueryResult(request.kind, eager.value());
  const std::string mapped_bytes =
      EncodeQueryResult(request.kind, mapped.value());
  if (eager_bytes != mapped_bytes) {
    return ::testing::AssertionFailure()
           << QueryKindName(request.kind) << ": serialized results differ ("
           << eager_bytes.size() << " vs " << mapped_bytes.size() << " bytes)";
  }
  return ::testing::AssertionSuccess();
}

// The mode-equivalence oracle: one KB opened eagerly and zero-copy, fed
// the same randomized Q1-Q5 / roll-up stream — byte-identical serialized
// answers (or identical error codes) throughout, including after live
// windows are appended to both opens.
TEST_F(KbBlocksTest, MappedAnswersAreByteIdenticalToEager) {
  const EvolvingDatabase data = MakeData(6);
  {
    TaraEngine base(BuildEngine(EvolvingDatabase()));
    for (uint32_t w = 0; w < 4; ++w) {
      const WindowInfo& info = data.window(w);
      base.AppendWindow(data.database(), info.begin, info.end);
    }
    ASSERT_FALSE(SaveKnowledgeBaseBlocks(*base.Snapshot(), dir_.string(), 4096)
                     .has_value());
  }
  auto eager = Open(dir_.string(), OpenMode::kEager);
  auto mapped = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(eager.has_value()) << eager.error();
  ASSERT_TRUE(mapped.has_value()) << mapped.error();
  TaraEngine& eager_engine = eager.value();
  TaraEngine& mapped_engine = mapped.value();

  Rng rng(20260808);
  uint32_t appended = 4;
  constexpr int kSteps = 300;
  for (int step = 0; step < kSteps; ++step) {
    // Two live appends land mid-stream, on both engines.
    if (step > 0 && step % 120 == 0 && appended < data.window_count()) {
      const WindowInfo& info = data.window(appended);
      eager_engine.AppendWindow(data.database(), info.begin, info.end);
      mapped_engine.AppendWindow(data.database(), info.begin, info.end);
      ++appended;
    }
    const QueryRequest request = RandomRequest(&rng, appended);
    EXPECT_TRUE(SameAnswer(request, eager_engine.Execute(request),
                           mapped_engine.Execute(request)))
        << "step " << step;
  }
  EXPECT_EQ(appended, data.window_count());
  EXPECT_EQ(EncodeKnowledgeBase(*eager_engine.Snapshot()),
            EncodeKnowledgeBase(*mapped_engine.Snapshot()));
}

// TSan target: racing queries must materialize each window exactly once
// and never tear the lazy bookkeeping.
TEST_F(KbBlocksTest, ConcurrentQueriesMaterializeLazilyWithoutRacing) {
  const EvolvingDatabase data = MakeData(6);
  const TaraEngine original = BuildEngine(data);
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*original.Snapshot(), dir_.string(),
                                       4096)
                   .has_value());
  // Pooled: materialization parses on the query pool, and each window's
  // first reader builds its EPS slice while other readers query.
  OpenOptions open;
  open.kb_dir = dir_.string();
  open.mode = OpenMode::kMapped;
  open.parallelism = 4;
  const auto loaded = OpenKnowledgeBase(open);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  const TaraEngine& engine = *loaded;
  ASSERT_EQ(engine.materialized_window_count(), 0u);

  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, &failures, t] {
      Rng rng(0x5eed0000 + static_cast<uint64_t>(t));
      const ParameterSetting setting{0.02, 0.3};
      for (int i = 0; i < 40; ++i) {
        const WindowId w =
            static_cast<WindowId>(rng.NextBounded(engine.window_count()));
        if (!engine.Execute(QueryRequest::MineWindow(w, setting))
                 .has_value()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(engine.fully_materialized());
  EXPECT_EQ(EncodeKnowledgeBase(*engine.Snapshot()),
            EncodeKnowledgeBase(*original.Snapshot()));
}

// TSan target: eight first readers released at once on one window whose
// entries are materialized but whose EPS slice is not built yet. Half ask
// one request at a time, half as a batch that the query pool's workers
// execute; all wait for one build and answer as the eager engine does.
TEST_F(KbBlocksTest, RacingFirstReadersBuildTheSliceOnce) {
  TaraEngine::Options options;
  options.min_support_floor = kSupportFloor;
  options.min_confidence_floor = kConfidenceFloor;
  options.max_itemset_size = 4;
  options.build_content_index = true;
  TaraEngine original(options);
  original.BuildAll(MakeData(5));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*original.Snapshot(), dir_.string(),
                                       4096)
                   .has_value());
  const auto eager = Open(dir_.string(), OpenMode::kEager);
  ASSERT_TRUE(eager.has_value()) << eager.error();
  obs::MetricsRegistry registry;
  OpenOptions open;
  open.kb_dir = dir_.string();
  open.mode = OpenMode::kMapped;
  open.parallelism = 4;
  open.metrics = &registry;
  const auto mapped = OpenKnowledgeBase(open);
  ASSERT_TRUE(mapped.has_value()) << mapped.error();
  const obs::Histogram& slices = *registry.GetHistogram("tara.index.build_ns");

  // Roll-up mining materializes windows 0-3 and reads entries only.
  constexpr WindowId kWindow = 3;
  const ParameterSetting setting{0.02, 0.3};
  ASSERT_TRUE(
      mapped->Execute(QueryRequest::RollUpMine({kWindow}, setting))
          .has_value());
  ASSERT_EQ(mapped->materialized_window_count(), kWindow + 1);
  ASSERT_EQ(slices.Count(), 0u);

  const auto kb = original.Snapshot();
  const ItemId item =
      kb->catalog().rule(kb->window_entries(kWindow)[0].rule).antecedent[0];
  const std::vector<QueryRequest> requests = {
      QueryRequest::MineWindow(kWindow, setting),
      QueryRequest::Region(kWindow, setting),
      QueryRequest::Content(kWindow, {item}, setting),
      QueryRequest::ContentView(kWindow, setting),
      QueryRequest::Trajectory(kWindow, setting, {0, kWindow}),
      QueryRequest::MineWindows({kWindow}, setting, MatchMode::kSingle),
      QueryRequest::Compare(setting, ParameterSetting{0.03, 0.4}, {kWindow},
                            MatchMode::kExact),
  };
  std::vector<std::string> expected;
  for (const QueryRequest& request : requests) {
    const auto answer = eager->Execute(request);
    ASSERT_TRUE(answer.has_value()) << answer.error();
    expected.push_back(EncodeQueryResult(request.kind, *answer));
  }

  constexpr int kThreads = 8;
  std::latch start(kThreads);
  std::vector<std::vector<std::string>> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::string>& mine = answers[t];
      start.arrive_and_wait();
      if (t % 2 == 0) {
        for (const QueryRequest& request : requests) {
          const auto answer = mapped->Execute(request);
          mine.push_back(answer.has_value()
                             ? EncodeQueryResult(request.kind, *answer)
                             : "error");
        }
      } else {
        const auto batch = mapped->ExecuteBatch(requests);
        for (size_t i = 0; i < batch.size(); ++i) {
          mine.push_back(batch[i].has_value()
                             ? EncodeQueryResult(requests[i].kind, *batch[i])
                             : "error");
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(slices.Count(), 1u);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(answers[t], expected) << "thread " << t;
  }
}

TEST_F(KbBlocksTest, VerifyHashesCatchesEveryInjectedBlockCorruption) {
  const TaraEngine engine = BuildEngine(MakeData(4));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(manifest.has_value());

  // Flip one byte inside every window's segment in turn; both the plain
  // and the pooled verifier must refuse each time, and a mapped open
  // without verification must still succeed (it reads no payload).
  for (const KbBlockInfo& block : manifest->blocks) {
    const fs::path file = dir_ / KnowledgeBaseBlockFileName(block.file_index);
    const std::string valid = ReadFileBytes(file);
    for (const KbBlockRow& row : block.rows) {
      std::string mutated = valid;
      mutated[row.offset + row.segment_bytes / 2] ^= 0x5a;
      WriteFileBytes(file, mutated);

      auto mapped = MappedKb::Open(dir_.string());
      ASSERT_TRUE(mapped.has_value()) << mapped.error();
      EXPECT_TRUE(mapped->VerifyHashes().has_value());
      ThreadPool pool(2);
      EXPECT_TRUE(mapped->VerifyHashes(&pool).has_value());

      // The unified entrypoint surfaces it as a typed open failure.
      const auto checked =
          Open(dir_.string(), OpenMode::kMapped, OpenVerify::kHashes);
      ASSERT_FALSE(checked.has_value());
      EXPECT_EQ(checked.error().code, LoadError::Code::kCorruptSegment);
    }
    WriteFileBytes(file, valid);
  }
  EXPECT_FALSE(MappedKb::Open(dir_.string())->VerifyHashes().has_value());
}

TEST_F(KbBlocksTest, LazyDecodeOfCorruptStorageIsATypedQueryError) {
  const TaraEngine engine = BuildEngine(MakeData(4));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(manifest.has_value());

  // Corrupt the LAST window's segment: the mapped open and every query
  // on earlier windows still work, and the first query that needs the
  // damaged window is rejected — sticky, typed, no crash.
  const KbBlockInfo& last_block = manifest->blocks.back();
  const KbBlockRow& last_row = last_block.rows.back();
  const fs::path victim =
      dir_ / KnowledgeBaseBlockFileName(last_block.file_index);
  std::string bytes = ReadFileBytes(victim);
  bytes[last_row.offset + last_row.segment_bytes / 2] ^= 0x5a;
  WriteFileBytes(victim, bytes);

  const auto loaded = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  const ParameterSetting setting{0.02, 0.3};
  const QueryRequest first = QueryRequest::MineWindow(0, setting);
  const QueryRequest last = QueryRequest::MineWindow(3, setting);
  EXPECT_TRUE(loaded->Execute(first).has_value());

  const auto rejected = loaded->Execute(last);
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, QueryError::Code::kCorruptStorage);

  // Sticky: the tail stays unavailable, decoded windows keep serving.
  EXPECT_FALSE(loaded->Execute(last).has_value());
  EXPECT_TRUE(loaded->Execute(first).has_value());
  EXPECT_FALSE(loaded->fully_materialized());

  // The eager open refuses outright with the load-side error, naming
  // the damaged window.
  const auto eager = Open(dir_.string(), OpenMode::kEager);
  ASSERT_FALSE(eager.has_value());
  EXPECT_EQ(eager.error().code, LoadError::Code::kCorruptSegment);
  EXPECT_NE(eager.error().message.find("window 3"), std::string::npos)
      << eager.error().message;
}

TEST_F(KbBlocksTest, CorruptSegmentMidBatchFailsTheWholeMaterialization) {
  // A first answer on window 12 materializes 13 windows in one batch,
  // hashed in one interleaved pass. With windows 5 and 9 corrupt, the
  // error names window 5, the first of them, with the checksum message,
  // and stays sticky; nothing of the batch is published.
  const TaraEngine engine = BuildEngine(MakeData(13));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(manifest.has_value());
  for (const KbBlockInfo& block : manifest->blocks) {
    const fs::path file = dir_ / KnowledgeBaseBlockFileName(block.file_index);
    std::string bytes = ReadFileBytes(file);
    for (size_t i = 0; i < block.rows.size(); ++i) {
      const WindowId w = block.first_window + static_cast<WindowId>(i);
      if (w != 5 && w != 9) continue;
      bytes[block.rows[i].offset + block.rows[i].segment_bytes / 2] ^= 0x5a;
    }
    WriteFileBytes(file, bytes);
  }

  const auto loaded = Open(dir_.string(), OpenMode::kMapped);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  const ParameterSetting setting{0.02, 0.3};
  const std::string expected =
      "segment of window 5 is corrupt: checksum does not match the manifest";
  for (const WindowId w : {12u, 12u, 2u}) {
    const auto rejected = loaded->Execute(QueryRequest::MineWindow(w, setting));
    ASSERT_FALSE(rejected.has_value());
    EXPECT_EQ(rejected.error().code, QueryError::Code::kCorruptStorage);
    EXPECT_EQ(rejected.error().message, expected);
  }
  EXPECT_FALSE(loaded->fully_materialized());
}

// Corruption fuzz over the blocks manifest: seeded single-byte flips and
// truncations. Every mutation must produce a loaded engine or a typed
// LoadError — never a crash — and the vast majority must be detected.
TEST_F(KbBlocksTest, ManifestByteFlipsNeverCrashEitherOpenMode) {
  const TaraEngine engine = BuildEngine(MakeData(3));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const fs::path manifest = dir_ / "blocks.tarakb3";
  const std::string valid = ReadFileBytes(manifest);

  Rng rng(0xB10C5);
  int rejected = 0;
  constexpr int kFlips = 60;
  for (int i = 0; i < kFlips; ++i) {
    std::string mutated = valid;
    const size_t pos = rng.NextBounded(mutated.size());
    mutated[pos] ^= static_cast<char>(1 + rng.NextBounded(255));
    WriteFileBytes(manifest, mutated);
    const auto mapped = Open(dir_.string(), OpenMode::kMapped);
    if (!mapped.has_value()) {
      EXPECT_FALSE(mapped.error().message.empty());
    }
    // The eager opener must survive the same mutation, and may reject
    // strictly more than the mapped open: a flipped stored hash passes
    // the structural checks (all a mapped open runs) but fails the
    // decode-time verification.
    const auto eager = Open(dir_.string(), OpenMode::kEager);
    if (eager.has_value()) {
      EXPECT_TRUE(mapped.has_value());
    } else {
      ++rejected;
      EXPECT_FALSE(eager.error().message.empty());
    }
  }
  EXPECT_GT(rejected, kFlips / 2);

  WriteFileBytes(manifest, valid);
  EXPECT_TRUE(Open(dir_.string(), OpenMode::kMapped).has_value());
}

TEST_F(KbBlocksTest, ManifestTruncationsAreTypedErrors) {
  const TaraEngine engine = BuildEngine(MakeData(3));
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(), 4096)
                   .has_value());
  const fs::path manifest = dir_ / "blocks.tarakb3";
  const std::string valid = ReadFileBytes(manifest);

  Rng rng(0x7au);
  for (int i = 0; i < 25; ++i) {
    WriteFileBytes(manifest,
                   valid.substr(0, rng.NextBounded(valid.size())));
    const auto loaded = Open(dir_.string(), OpenMode::kMapped);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_FALSE(loaded.error().message.empty());
  }
  WriteFileBytes(manifest, valid.substr(0, valid.size() - 5));
  EXPECT_EQ(Open(dir_.string(), OpenMode::kMapped).error().code,
            LoadError::Code::kTruncated);
  WriteFileBytes(manifest, "junk that is surely not a manifest");
  EXPECT_EQ(Open(dir_.string(), OpenMode::kMapped).error().code,
            LoadError::Code::kBadMagic);
  WriteFileBytes(manifest, valid + "x");
  EXPECT_EQ(Open(dir_.string(), OpenMode::kMapped).error().code,
            LoadError::Code::kTrailingBytes);

  // A manifest that names a missing or short block file is refused by
  // the open (fstat size check), not by a later fault.
  WriteFileBytes(manifest, valid);
  const auto parsed = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(parsed.has_value());
  const fs::path block =
      dir_ / KnowledgeBaseBlockFileName(parsed->blocks.front().file_index);
  const std::string block_bytes = ReadFileBytes(block);
  WriteFileBytes(block, block_bytes.substr(0, block_bytes.size() - 1));
  EXPECT_FALSE(Open(dir_.string(), OpenMode::kMapped).has_value());
  fs::remove(block);
  EXPECT_EQ(Open(dir_.string(), OpenMode::kMapped).error().code,
            LoadError::Code::kIoError);
}

TEST_F(KbBlocksTest, RepartitionTrimAndRemoveRoundTrip) {
  const EvolvingDatabase data = MakeData(4);
  const TaraEngine original = BuildEngine(data);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*original.Snapshot(), dir_.string()).has_value());

  // Splitting into small blocks is a byte-level move: same windows, same
  // stream bytes, fresh file indices, the old block file gone.
  ASSERT_FALSE(RepartitionKnowledgeBase(dir_.string(), 4096).has_value());
  const auto split = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(split.has_value());
  EXPECT_GT(split->blocks.size(), 1u);
  EXPECT_GT(split->blocks.front().file_index, 0u);
  EXPECT_FALSE(fs::exists(dir_ / KnowledgeBaseBlockFileName(0)));
  {
    const auto loaded = Open(dir_.string(), OpenMode::kMapped);
    ASSERT_TRUE(loaded.has_value()) << loaded.error();
    EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
              EncodeKnowledgeBase(*original.Snapshot()));
  }

  // Rebalance into one big block: fresh file indices, same bytes.
  ASSERT_FALSE(RepartitionKnowledgeBase(dir_.string()).has_value());
  const auto rebalanced = ReadKnowledgeBaseBlocksManifest(dir_.string());
  ASSERT_TRUE(rebalanced.has_value());
  EXPECT_EQ(rebalanced->blocks.size(), 1u);

  // Trim to a 2-window prefix; it must equal a direct 2-window build's
  // persisted form when loaded.
  ASSERT_FALSE(TrimKnowledgeBase(dir_.string(), 2).has_value());
  {
    const auto loaded = Open(dir_.string(), OpenMode::kEager);
    ASSERT_TRUE(loaded.has_value()) << loaded.error();
    EXPECT_EQ(loaded->window_count(), 2u);
    TaraEngine prefix = BuildEngine(EvolvingDatabase());
    for (uint32_t w = 0; w < 2; ++w) {
      const WindowInfo& info = data.window(w);
      prefix.AppendWindow(data.database(), info.begin, info.end);
    }
    EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
              EncodeKnowledgeBase(*prefix.Snapshot()));
  }
  // Over-trim is a typed refusal.
  EXPECT_TRUE(TrimKnowledgeBase(dir_.string(), 7).has_value());

  // rm deletes exactly the manifest-named files; strangers survive.
  WriteFileBytes(dir_ / "bystander.txt", "not part of the kb");
  ASSERT_FALSE(RemoveKnowledgeBase(dir_.string()).has_value());
  EXPECT_FALSE(KnowledgeBaseBlocksDirExists(dir_.string()));
  std::vector<std::string> leftovers;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    leftovers.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(leftovers, std::vector<std::string>{"bystander.txt"});
}

TEST_F(KbBlocksTest, SaveOverAKnowledgeBaseLeavesNoOrphans) {
  const EvolvingDatabase data = MakeData(4);
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*BuildEngine(data).Snapshot(),
                                       dir_.string(), 4096)
                   .has_value());
  ASSERT_EQ(ReadKnowledgeBaseBlocksManifest(dir_.string())->blocks.size(), 4u);

  // A one-window save replaces the four blocks: it opens as itself, and
  // `db rm` then leaves nothing of either knowledge base behind.
  TaraEngine one = BuildEngine(EvolvingDatabase());
  const WindowInfo& info = data.window(0);
  one.AppendWindow(data.database(), info.begin, info.end);
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*one.Snapshot(), dir_.string()).has_value());
  const auto loaded = Open(dir_.string(), OpenMode::kEager);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(EncodeKnowledgeBase(*loaded->Snapshot()),
            EncodeKnowledgeBase(*one.Snapshot()));
  ASSERT_FALSE(RemoveKnowledgeBase(dir_.string()).has_value());
  std::vector<std::string> leftovers;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    leftovers.push_back(entry.path().filename().string());
  }
  EXPECT_TRUE(leftovers.empty()) << leftovers.size() << " files left, e.g. "
                                 << leftovers.front();
}

TEST_F(KbBlocksTest, RemoveClearsAKnowledgeBaseWhoseManifestIsTorn) {
  const auto files = [&] {
    std::vector<std::string> names;
    for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const EvolvingDatabase data = MakeData(4);
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(*BuildEngine(data).Snapshot(),
                                       dir_.string(), 4096)
                   .has_value());
  ASSERT_EQ(ReadKnowledgeBaseBlocksManifest(dir_.string())->blocks.size(), 4u);
  const fs::path manifest = dir_ / KnowledgeBaseBlocksManifestFileName();
  const std::vector<std::string> saved = files();

  // A manifest that fails any way but ending early is still refused, and
  // nothing is removed.
  WriteFileBytes(manifest, "not a manifest");
  EXPECT_TRUE(RemoveKnowledgeBase(dir_.string()).has_value());
  EXPECT_EQ(files(), saved);

  // A torn save: the manifest is cut to 0 bytes. The block files and the
  // manifest go; a stranger, and a name only like a block's, stay.
  fs::resize_file(manifest, 0);
  WriteFileBytes(dir_ / "bystander.txt", "not part of the kb");
  WriteFileBytes(dir_ / "block-12x456.blk", "not a block either");
  ASSERT_EQ(ReadKnowledgeBaseBlocksManifest(dir_.string()).error().code,
            LoadError::Code::kTruncated);
  ASSERT_FALSE(RemoveKnowledgeBase(dir_.string()).has_value());
  EXPECT_EQ(files(),
            (std::vector<std::string>{"block-12x456.blk", "bystander.txt"}));

  // No manifest at all: refused.
  EXPECT_TRUE(RemoveKnowledgeBase(dir_.string()).has_value());
  EXPECT_EQ(files().size(), 2u);
}

TEST_F(KbBlocksTest, WalRecoveryOverBlocksReproducesAckedState) {
  const EvolvingDatabase data = MakeData(4);
  const fs::path wal_dir = dir_ / "wal";

  // Checkpoint the first two windows as blocks, then append two more
  // through an attached WAL without re-checkpointing.
  std::string reference;
  {
    TaraEngine engine = BuildEngine(EvolvingDatabase());
    for (uint32_t w = 0; w < 2; ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
    }
    ASSERT_FALSE(SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir_.string(),
                                         4096)
                     .has_value());
    const auto attach = engine.AttachWal(wal_dir.string());
    ASSERT_TRUE(attach.has_value()) << attach.error();
    for (uint32_t w = 2; w < 4; ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
    }
    reference = EncodeKnowledgeBase(*engine.Snapshot());
  }

  // Recover-on-open: mapped checkpoint + WAL tail. Replay forces full
  // materialization, so the recovered engine is immediately appendable.
  OpenOptions options;
  options.kb_dir = dir_.string();
  options.mode = OpenMode::kMapped;
  options.wal_dir = wal_dir.string();
  WalReplayStats stats;
  options.replay_stats = &stats;
  const auto recovered = OpenKnowledgeBase(options);
  ASSERT_TRUE(recovered.has_value()) << recovered.error();
  EXPECT_TRUE(recovered->wal_attached());
  EXPECT_TRUE(recovered->fully_materialized());
  EXPECT_EQ(recovered->window_count(), 4u);
  EXPECT_EQ(stats.records_replayed, 2u);
  EXPECT_EQ(EncodeKnowledgeBase(*recovered->Snapshot()), reference);
}

/// The crash matrix every TARAKB3 rewrite must pass. `rewrite` first runs
/// uncrashed on a copy of `seed` to fix the after-state. Then, for
/// crash_at = 0, 1, ..., a forked child arms the injector and runs it on
/// a fresh copy: the armed crossing SIGKILLs the child (no destructors —
/// the user-space stand-in for a power cut) between two storage.*
/// durability steps. Killed or not, the copy must hold exactly the
/// before or the after manifest, open eager and mapped to that state's
/// stream bytes, and pass VerifyHashes. The walk ends once a child runs
/// out of crossings and completes, so every step is hit.
/// A coarser floor for the crash matrices: each of their dozen trials
/// decodes the knowledge base twice, and fewer rules keep that cheap
/// under the sanitizers.
constexpr double kCrashSupportFloor = 0.05;

template <typename Rewrite>
void ExpectEveryCrashLeavesBeforeOrAfter(const fs::path& seed,
                                         const std::string& before,
                                         const std::string& after,
                                         const Rewrite& rewrite) {
  const fs::path reference = seed.string() + "_reference";
  fs::remove_all(reference);
  fs::copy(seed, reference);
  ASSERT_FALSE(rewrite(reference.string()).has_value());
  const std::string before_manifest = ReadFileBytes(seed / "blocks.tarakb3");
  const std::string after_manifest =
      ReadFileBytes(reference / "blocks.tarakb3");

  bool completed_cleanly = false;
  long kills = 0;
  for (long crash_at = 0; crash_at < 64 && !completed_cleanly; ++crash_at) {
    const fs::path trial = seed.string() + "_trial" + std::to_string(crash_at);
    fs::remove_all(trial);
    fs::copy(seed, trial);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // Forked child: report a clean pass via the exit code; _exit skips
      // gtest and atexit teardown.
      ArmCrashPoint(crash_at);
      _exit(rewrite(trial.string()).has_value() ? 2 : 0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    if (WIFEXITED(status)) {
      ASSERT_EQ(WEXITSTATUS(status), 0) << "rewrite failed in the child";
      completed_cleanly = true;  // the injector ran out of crossings
    } else {
      ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
          << "unexpected child termination, status " << status;
      ++kills;
    }

    const std::string manifest = ReadFileBytes(trial / "blocks.tarakb3");
    ASSERT_TRUE(manifest == before_manifest || manifest == after_manifest)
        << "crash point " << crash_at << " left a third manifest";
    const bool landed = manifest == after_manifest;
    if (completed_cleanly) {
      EXPECT_TRUE(landed) << "a clean run must land";
    }
    auto mapped = MappedKb::Open(trial.string());
    ASSERT_TRUE(mapped.has_value())
        << "crash point " << crash_at << ": " << mapped.error();
    EXPECT_FALSE(mapped->VerifyHashes().has_value())
        << "crash point " << crash_at;
    for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
      const auto opened = Open(trial.string(), mode);
      ASSERT_TRUE(opened.has_value())
          << "crash point " << crash_at << ": " << opened.error();
      EXPECT_EQ(EncodeKnowledgeBase(*opened->Snapshot()),
                landed ? after : before)
          << "crash point " << crash_at;
    }
    fs::remove_all(trial);
  }
  EXPECT_TRUE(completed_cleanly)
      << "crash-point matrix never exhausted the injection sites";
  EXPECT_GT(kills, 0);
}

TEST_F(KbBlocksTest, AppendSurvivesACrashAtEveryDurabilityStep) {
  const EvolvingDatabase data = MakeData(4);
  TaraEngine engine = BuildEngine(EvolvingDatabase(), kCrashSupportFloor);
  for (uint32_t w = 0; w < 3; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }
  const fs::path seed = dir_ / "seed";
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), seed.string(), 4096)
          .has_value());
  const std::string before = EncodeKnowledgeBase(*engine.Snapshot());
  const WindowInfo& info = data.window(3);
  engine.AppendWindow(data.database(), info.begin, info.end);
  const std::string after =
      EncodeKnowledgeBase(*BuildEngine(data, kCrashSupportFloor).Snapshot());
  ASSERT_EQ(EncodeKnowledgeBase(*engine.Snapshot()), after);
  ExpectEveryCrashLeavesBeforeOrAfter(
      seed, before, after, [&engine](const std::string& dir) {
        return AppendKnowledgeBaseBlocks(*engine.Snapshot(), dir, 4096);
      });
}

TEST_F(KbBlocksTest, RepartitionSurvivesACrashAtEveryDurabilityStep) {
  const TaraEngine engine = BuildEngine(MakeData(4), kCrashSupportFloor);
  const fs::path seed = dir_ / "seed";
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), seed.string(), 4096)
          .has_value());
  ASSERT_GT(ReadKnowledgeBaseBlocksManifest(seed.string())->blocks.size(), 1u);
  // Merging into one block moves bytes, never the knowledge base.
  const std::string reference = EncodeKnowledgeBase(*engine.Snapshot());
  ExpectEveryCrashLeavesBeforeOrAfter(
      seed, reference, reference, [](const std::string& dir) {
        return RepartitionKnowledgeBase(dir);
      });
}

TEST_F(KbBlocksTest, SaveSurvivesACrashAtEveryDurabilityStep) {
  const EvolvingDatabase data = MakeData(4);
  TaraEngine prefix = BuildEngine(EvolvingDatabase(), kCrashSupportFloor);
  for (uint32_t w = 0; w < 3; ++w) {
    const WindowInfo& info = data.window(w);
    prefix.AppendWindow(data.database(), info.begin, info.end);
  }
  const fs::path seed = dir_ / "seed";
  // One block: a save that numbered its files from 0 would overwrite the
  // file the live manifest names.
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*prefix.Snapshot(), seed.string()).has_value());
  ASSERT_EQ(ReadKnowledgeBaseBlocksManifest(seed.string())->blocks.size(), 1u);
  const TaraEngine engine = BuildEngine(data, kCrashSupportFloor);
  ExpectEveryCrashLeavesBeforeOrAfter(
      seed, EncodeKnowledgeBase(*prefix.Snapshot()),
      EncodeKnowledgeBase(*engine.Snapshot()),
      [&engine](const std::string& dir) {
        return SaveKnowledgeBaseBlocks(*engine.Snapshot(), dir);
      });
}

TEST_F(KbBlocksTest, TrimSurvivesACrashAtEveryDurabilityStep) {
  const EvolvingDatabase data = MakeData(4);
  const TaraEngine engine = BuildEngine(data, kCrashSupportFloor);
  const fs::path seed = dir_ / "seed";
  // One block: the trim must byte-copy a kept prefix into a fresh file.
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*engine.Snapshot(), seed.string()).has_value());
  TaraEngine prefix = BuildEngine(EvolvingDatabase(), kCrashSupportFloor);
  for (uint32_t w = 0; w < 2; ++w) {
    const WindowInfo& info = data.window(w);
    prefix.AppendWindow(data.database(), info.begin, info.end);
  }
  ExpectEveryCrashLeavesBeforeOrAfter(
      seed, EncodeKnowledgeBase(*engine.Snapshot()),
      EncodeKnowledgeBase(*prefix.Snapshot()),
      [](const std::string& dir) { return TrimKnowledgeBase(dir, 2); });
}

}  // namespace
}  // namespace tara
