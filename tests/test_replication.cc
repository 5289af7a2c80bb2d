// Hot-standby replication tests: the follower-divergence differential
// oracle (a seeded randomized Q1-Q5/roll-up stream must be
// byte-identical between primary and replica at equal window counts,
// across interleaved live appends), stream replay racing concurrent
// replica reads (run under TSan in CI), the read-only append rejection,
// in-process reconnect with exponential backoff, and the kill -9 fault
// matrix — primary killed mid-stream and replica killed mid-replay,
// both required to resume to the last durably-acked window with no
// divergence and no torn tail propagated. Also: well-formed segments with
// impossible contents are typed errors on every path that loads segments.

#include "server/replica.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/byte_codec.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "core/wire_format.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"
#include "server/serving_bootstrap.h"
#include "server/tara_client.h"
#include "server/tara_server.h"
#include "txdb/evolving_database.h"

// The kill -9 matrix forks children that start server/replica threads
// while the parent's own threads are live; TSan refuses to start
// threads after a multi-threaded fork, so those two tests are skipped
// under TSan (the replay-vs-readers race test still runs there; the
// fault matrix runs in the plain and ASan jobs).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TARA_UNDER_TSAN 1
#endif
#endif
#if !defined(TARA_UNDER_TSAN) && defined(__SANITIZE_THREAD__)
#define TARA_UNDER_TSAN 1
#endif

namespace tara::server {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr uint32_t kWindows = 8;
/// Generous per-wait ceiling: sanitizer builds are slow, and every wait
/// here is condition-based (it returns the moment the state lands).
constexpr auto kWait = 60s;

EvolvingDatabase MakeData(uint32_t windows = kWindows) {
  QuestGenerator::Params params;
  params.num_transactions = 250 * windows;
  params.num_items = 60;
  params.num_patterns = 25;
  params.avg_transaction_len = 8;
  params.seed = 4242;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  return EvolvingDatabase::PartitionIntoBatches(db, windows);
}

TaraEngine::Options EngineOptions() {
  TaraEngine::Options options;
  options.min_support_floor = 0.01;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  options.build_content_index = true;
  return options;
}

std::string Encode(const TaraEngine& engine) {
  return EncodeKnowledgeBase(*engine.Snapshot());
}

/// A seeded request stream over every online operation, valid for an
/// engine with `windows` windows and `rules` interned rules. The same
/// (seed, windows, rules) triple yields the same stream — the oracle
/// replays one stream against both engines.
std::vector<QueryRequest> OracleRequests(uint64_t seed, uint32_t windows,
                                         uint64_t rules, size_t count) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> support(0.01, 0.08);
  std::uniform_real_distribution<double> confidence(0.1, 0.6);
  std::vector<QueryRequest> requests;
  requests.reserve(count);
  const auto window = [&]() -> WindowId {
    return static_cast<WindowId>(rng() % windows);
  };
  const auto window_set = [&]() {
    std::vector<WindowId> ids;
    for (WindowId w = 0; w < windows; ++w) {
      if (rng() % 2 == 0) ids.push_back(w);
    }
    if (ids.empty()) ids.push_back(window());
    return ids;
  };
  const auto rule = [&]() -> RuleId {
    return rules == 0 ? 0 : static_cast<RuleId>(rng() % rules);
  };
  for (size_t i = 0; i < count; ++i) {
    const ParameterSetting setting{support(rng), confidence(rng)};
    switch (rng() % 9) {
      case 0:
        requests.push_back(QueryRequest::MineWindow(window(), setting));
        break;
      case 1:
        requests.push_back(QueryRequest::MineWindows(
            window_set(), setting,
            rng() % 2 == 0 ? MatchMode::kExact : MatchMode::kSingle));
        break;
      case 2:
        requests.push_back(
            QueryRequest::Trajectory(window(), setting, window_set()));
        break;
      case 3:
        requests.push_back(QueryRequest::Compare(
            setting, ParameterSetting{support(rng), confidence(rng)},
            window_set(), MatchMode::kExact));
        break;
      case 4:
        requests.push_back(QueryRequest::Region(window(), setting));
        break;
      case 5:
        requests.push_back(QueryRequest::Measures(rule(), window_set()));
        break;
      case 6:
        requests.push_back(QueryRequest::Content(
            window(),
            {static_cast<ItemId>(rng() % 60), static_cast<ItemId>(rng() % 60)},
            setting));
        break;
      case 7:
        requests.push_back(QueryRequest::RollUpRule(rule(), window_set()));
        break;
      default:
        requests.push_back(QueryRequest::RollUpMine(window_set(), setting));
        break;
    }
  }
  return requests;
}

/// Executes `request` and folds the outcome to comparable bytes: the
/// canonical result serialization on success, the error code name on a
/// typed rejection. Divergence in either direction is a failure.
std::string ExecuteToBytes(const TaraEngine& engine,
                           const QueryRequest& request) {
  const auto result = engine.Execute(request);
  if (!result.has_value()) {
    return std::string("error:") +
           std::string(QueryErrorCodeName(result.error().code));
  }
  return EncodeQueryResult(request.kind, *result);
}

/// In-process fixture: a primary engine + TaraServer on an ephemeral
/// port, and a ReplicaEngine subscribed to it.
class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tara_repl_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    if (replica_ != nullptr) replica_->Stop();
    if (server_ != nullptr) server_->Stop();
    fs::remove_all(dir_);
  }

  void StartPrimary(uint32_t base_windows, bool with_wal,
                    uint16_t port = 0) {
    data_ = MakeData();
    primary_ = std::make_unique<TaraEngine>(EngineOptions());
    if (with_wal) {
      const auto replay = primary_->AttachWal((dir_ / "wal").string());
      ASSERT_TRUE(replay.has_value()) << replay.error();
    }
    for (uint32_t w = 0; w < base_windows; ++w) {
      AppendPrimaryWindow(w);
    }
    ServerOptions options;
    options.port = port;
    options.metrics = &primary_metrics_;
    server_ = std::make_unique<TaraServer>(primary_.get(), options);
    const auto problem = server_->Start();
    ASSERT_FALSE(problem.has_value()) << *problem;
  }

  void AppendPrimaryWindow(uint32_t w) {
    const WindowInfo& info = data_.window(w);
    primary_->AppendWindow(data_.database(), info.begin, info.end);
  }

  void StartReplica() {
    ReplicaOptions options;
    options.primary_port = server_->port();
    options.metrics = &replica_metrics_;
    replica_ = std::make_unique<ReplicaEngine>(options);
    const auto problem = replica_->Start();
    ASSERT_FALSE(problem.has_value()) << *problem;
  }

  /// Waits until the replica holds the primary's windows (the primary
  /// must be quiesced) and asserts byte-identical knowledge bases.
  void AwaitConverged() {
    const uint32_t want = primary_->window_count();
    ASSERT_EQ(replica_->WaitForWindows(
                  want, std::chrono::duration_cast<std::chrono::milliseconds>(
                            kWait)),
              want)
        << "replica never caught up; last error: "
        << replica_->GetStatus().last_error;
    ASSERT_EQ(Encode(*replica_->engine()), Encode(*primary_))
        << "replica diverged from the primary at " << want << " windows";
  }

  fs::path dir_;
  EvolvingDatabase data_;
  obs::MetricsRegistry primary_metrics_;
  obs::MetricsRegistry replica_metrics_;
  std::unique_ptr<TaraEngine> primary_;
  std::unique_ptr<TaraServer> server_;
  std::unique_ptr<ReplicaEngine> replica_;
};

// The tentpole oracle: the same seeded request stream, executed against
// the primary and the replica at equal window counts, must fold to
// byte-identical results — before, between, and after live appends.
TEST_F(ReplicationTest, DifferentialOracleAcrossLiveAppends) {
  StartPrimary(/*base_windows=*/3, /*with_wal=*/true);
  StartReplica();
  uint64_t seed = 20260808;
  for (uint32_t next = 3; next <= data_.window_count(); ++next) {
    AwaitConverged();
    const uint32_t windows = primary_->window_count();
    const uint64_t rules = primary_->Snapshot()->rule_count();
    const auto requests = OracleRequests(seed++, windows, rules, 40);
    for (const QueryRequest& request : requests) {
      ASSERT_EQ(ExecuteToBytes(*replica_->engine(), request),
                ExecuteToBytes(*primary_, request))
          << QueryKindName(request.kind) << " diverged at " << windows
          << " windows";
    }
    if (next < data_.window_count()) AppendPrimaryWindow(next);
  }
  // No checkpoint: the replica bootstrapped from window 0, so every
  // window arrived off the stream.
  EXPECT_EQ(replica_->GetStatus().records_applied, data_.window_count());
}

// Replay racing reads: readers hammer the replica engine while the
// stream applies new windows. TSan (CI) proves the RCU hand-off; the
// final byte-compare proves the races never corrupted anything.
TEST_F(ReplicationTest, StreamReplayRacesConcurrentReplicaReads) {
  StartPrimary(/*base_windows=*/2, /*with_wal=*/false);
  StartReplica();
  AwaitConverged();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      const TaraEngine* engine = replica_->engine();
      while (!stop.load(std::memory_order_relaxed)) {
        // Window ids may be momentarily stale against a racing apply;
        // the engine answers from its pinned snapshot either way.
        const uint32_t windows = engine->window_count();
        const auto requests = OracleRequests(rng(), windows, 0, 4);
        for (const QueryRequest& request : requests) {
          (void)engine->Execute(request);
          reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (uint32_t w = 2; w < data_.window_count(); ++w) {
    AppendPrimaryWindow(w);
  }
  AwaitConverged();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(reads.load(), 0u);
}

// The typed read-only contract: appends against a replica-role server
// come back as kReadOnlyReplica (wire code 105), and the replica's
// knowledge base is untouched.
TEST_F(ReplicationTest, ReadOnlyReplicaRejectsAppendsWithTypedCode) {
  StartPrimary(/*base_windows=*/2, /*with_wal=*/false);
  StartReplica();
  AwaitConverged();

  ServerOptions options;
  options.read_only = true;
  options.metrics = &replica_metrics_;
  TaraServer replica_server(replica_->engine(), options);
  ASSERT_FALSE(replica_server.Start().has_value());
  auto connected = TaraClient::Connect("127.0.0.1", replica_server.port());
  ASSERT_TRUE(connected.has_value());
  TaraClient client = std::move(connected.value());

  const uint32_t windows_before = replica_->engine()->window_count();
  const auto append = client.AppendWindow(data_.database(), 0, 50);
  ASSERT_FALSE(append.has_value());
  EXPECT_EQ(append.error().code,
            static_cast<uint32_t>(ServerWireError::kReadOnlyReplica));
  EXPECT_EQ(replica_->engine()->window_count(), windows_before);

  // Queries keep working on the same connection.
  const auto result = client.Execute(
      QueryRequest::MineWindow(0, ParameterSetting{0.02, 0.2}));
  EXPECT_TRUE(result.has_value());
  replica_server.Stop();
}

// Reconnect-and-resume without processes: stop the primary's server,
// append while the replica is cut off, restart on the same port — the
// replica must reconnect with backoff, resume from its own window
// count, and converge. The reconnect shows up in the metrics.
TEST_F(ReplicationTest, ReconnectsAndResumesAfterPrimaryServerRestart) {
  StartPrimary(/*base_windows=*/3, /*with_wal=*/true);
  const uint16_t port = server_->port();
  StartReplica();
  AwaitConverged();

  server_->Stop();
  server_.reset();
  for (uint32_t w = 3; w < 6; ++w) AppendPrimaryWindow(w);

  ServerOptions options;
  options.port = port;
  options.metrics = &primary_metrics_;
  server_ = std::make_unique<TaraServer>(primary_.get(), options);
  const auto problem = server_->Start();
  ASSERT_FALSE(problem.has_value()) << *problem;

  AwaitConverged();
  EXPECT_GE(replica_->GetStatus().reconnects, 1u);
  const std::string text = replica_metrics_.SnapshotText();
  EXPECT_NE(text.find("tara.replica.records_applied"), std::string::npos)
      << text;
  EXPECT_NE(text.find("tara.replica.reconnects"), std::string::npos) << text;
}

// A primary whose floors differ from the subscriber's engine must be
// refused at the handshake — replaying a foreign stream is divergence
// by construction.
TEST_F(ReplicationTest, HandshakeRefusesMismatchedFloors) {
  StartPrimary(/*base_windows=*/2, /*with_wal=*/false);
  // Seed a checkpoint at DIFFERENT floors for the replica to load.
  TaraEngine::Options other = EngineOptions();
  other.min_support_floor = 0.02;
  TaraEngine foreign(other);
  foreign.AppendWindow(data_.database(), 0, 100);
  const std::string ckpt = (dir_ / "foreign_ckpt").string();
  ASSERT_FALSE(
      AppendKnowledgeBaseBlocks(*foreign.Snapshot(), ckpt).has_value());

  ReplicaOptions options;
  options.primary_port = server_->port();
  options.kb_dir = ckpt;
  ReplicaEngine replica(options);
  const auto problem = replica.Start();
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("different options"), std::string::npos)
      << *problem;
}

/// --- Hostile segments ------------------------------------------------------
/// TSEG segments that are well-formed blobs yet describe an impossible
/// next window. Every path that loads segments must turn each into a
/// typed error — the stream form, an eager and a mapped open of a
/// TARAKB3 directory whose manifest row and block hash match the segment
/// (so hash verification passes), WAL replay, and a replica fed the
/// segment by a primary — and nothing of the window may be published.

constexpr uint64_t kHostileTransactions = 250;

struct SegmentEntry {
  uint64_t rule = 0;
  uint64_t rule_count = 0;
  uint64_t antecedent_delta = 0;
};

/// One next-window segment plus what its manifest row must claim.
struct CraftedSegment {
  std::string name;
  std::vector<uint8_t> bytes;
  uint64_t total_transactions = kHostileTransactions;
  uint64_t rule_watermark = 0;
  uint64_t entry_count = 0;
};

/// The TSEG layout of kb_storage.cc, written by hand.
CraftedSegment Craft(std::string name, const KnowledgeBaseSnapshot& base,
                     const std::vector<Rule>& new_rules,
                     const std::vector<SegmentEntry>& entries) {
  codec::ByteWriter w;
  w.Magic("TSEG", 4);
  w.U64(base.window_count());
  w.U64(base.rule_count());
  w.U64(new_rules.size());
  for (const Rule& rule : new_rules) {
    w.Items(rule.antecedent);
    w.Items(rule.consequent);
  }
  w.U64(entries.size());
  for (const SegmentEntry& e : entries) {
    w.U64(e.rule);
    w.U64(e.rule_count);
    w.U64(e.antecedent_delta);
  }
  CraftedSegment segment;
  segment.name = std::move(name);
  segment.bytes = w.bytes();
  segment.rule_watermark = base.rule_count() + new_rules.size();
  segment.entry_count = entries.size();
  return segment;
}

std::vector<CraftedSegment> HostileSegments(const KnowledgeBaseSnapshot& base) {
  const uint64_t next_id = base.rule_count();
  const Rule fresh{{100001}, {100002}};  // contents no window holds
  return {
      Craft("zero rule count", base, {}, {{0, 0, 3}}),
      Craft("antecedent count overflow", base, {},
            {{0, 5, UINT64_MAX - 2}}),
      Craft("antecedent count past the window's transactions", base, {},
            {{0, 3, kHostileTransactions - 2}}),
      Craft("rule id past the watermark", base, {fresh},
            {{next_id, 3, 1}, {next_id + 1, 3, 1}}),
      Craft("one rule twice in the window", base, {}, {{0, 3, 1}, {0, 4, 2}}),
      Craft("new rule the catalog already holds", base,
            {base.catalog().rule(0)}, {{next_id, 3, 1}}),
  };
}

void WriteBytes(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The stream form (TARAKB2) of `base` plus `extra` as one more window.
std::string StreamWith(const KnowledgeBaseSnapshot& base,
                       const CraftedSegment& extra) {
  const KbOptions& options = base.options();
  codec::ByteWriter w;
  w.Magic("TARAKB2", 7);
  w.F64(options.min_support_floor);
  w.F64(options.min_confidence_floor);
  w.U64(options.max_itemset_size);
  w.U64(options.build_content_index ? 1 : 0);
  w.U64(base.window_count() + 1);
  std::vector<std::vector<uint8_t>> segments;
  const auto row = [&w](uint64_t transactions, uint64_t watermark,
                        uint64_t entries, const std::vector<uint8_t>& bytes) {
    w.U64(transactions);
    w.U64(watermark);
    w.U64(entries);
    w.U64(bytes.size());
    w.Raw64(HashBytes(bytes.data(), bytes.size()));
  };
  for (WindowId window = 0; window < base.window_count(); ++window) {
    segments.push_back(EncodeWindowSegment(base, window));
    const WindowSegment& segment = base.segment(window);
    row(segment.total_transactions, segment.rule_watermark,
        segment.entries.size(), segments.back());
  }
  segments.push_back(extra.bytes);
  row(extra.total_transactions, extra.rule_watermark, extra.entry_count,
      extra.bytes);
  std::string stream(w.bytes().begin(), w.bytes().end());
  for (const std::vector<uint8_t>& bytes : segments) {
    stream.append(bytes.begin(), bytes.end());
  }
  return stream;
}

/// The TARAKB3 manifest layout of kb_blocks.cc, written by hand.
std::vector<uint8_t> EncodeBlocksManifest(const KbBlocksManifest& manifest) {
  codec::ByteWriter w;
  w.Magic("TARAKB3", 7);
  w.F64(manifest.min_support_floor);
  w.F64(manifest.min_confidence_floor);
  w.U64(manifest.max_itemset_size);
  w.U64(manifest.build_content_index ? 1 : 0);
  w.U64(manifest.blocks.size());
  for (const KbBlockInfo& block : manifest.blocks) {
    w.U64(block.file_index);
    w.U64(block.first_window);
    w.U64(block.rows.size());
    w.U64(block.file_bytes);
    w.Raw64(block.file_hash);
    for (const KbBlockRow& row : block.rows) {
      w.U64(row.total_transactions);
      w.U64(row.rule_watermark);
      w.U64(row.entry_count);
      w.U64(row.offset);
      w.U64(row.segment_bytes);
      w.Raw64(row.segment_hash);
    }
  }
  return w.bytes();
}

/// `base` as a TARAKB3 directory with `extra` as one more window in a
/// block of its own; the new manifest row and block hash match `extra`.
void WriteBlocksWith(const KnowledgeBaseSnapshot& base,
                     const CraftedSegment& extra, const fs::path& dir) {
  fs::remove_all(dir);
  ASSERT_FALSE(SaveKnowledgeBaseBlocks(base, dir.string()).has_value());
  auto manifest = ReadKnowledgeBaseBlocksManifest(dir.string());
  ASSERT_TRUE(manifest.has_value()) << manifest.error();
  const uint64_t hash = HashBytes(extra.bytes.data(), extra.bytes.size());
  KbBlockInfo block;
  block.file_index = manifest->blocks.back().file_index + 1;
  block.first_window = base.window_count();
  block.file_bytes = extra.bytes.size();
  block.file_hash = hash;
  KbBlockRow row;
  row.total_transactions = extra.total_transactions;
  row.rule_watermark = extra.rule_watermark;
  row.entry_count = extra.entry_count;
  row.segment_bytes = extra.bytes.size();
  row.segment_hash = hash;
  block.rows.push_back(row);
  KbBlocksManifest edited = manifest.value();
  edited.blocks.push_back(block);
  WriteBytes(dir / KnowledgeBaseBlockFileName(block.file_index), extra.bytes);
  WriteBytes(dir / KnowledgeBaseBlocksManifestFileName(),
             EncodeBlocksManifest(edited));
}

/// A primary stand-in: answers every subscription with the checkpoint
/// handshake for `options`/`windows` and then one record frame carrying
/// `segment` as window `windows - 1`, and holds the stream open.
class FakePrimary {
 public:
  FakePrimary(const KbOptions& options, uint32_t windows,
              const CraftedSegment& segment) {
    auto listener = ListenTcp("127.0.0.1", 0, 8, &port_);
    EXPECT_TRUE(listener.has_value());
    if (!listener.has_value()) return;
    listener_ = std::move(listener).value();
    ReplicaCheckpoint checkpoint;
    checkpoint.min_support_floor = options.min_support_floor;
    checkpoint.min_confidence_floor = options.min_confidence_floor;
    checkpoint.max_itemset_size = options.max_itemset_size;
    checkpoint.build_content_index = options.build_content_index;
    checkpoint.window_count = windows;
    checkpoint.generation = windows;
    const std::string bytes(segment.bytes.begin(), segment.bytes.end());
    const std::string reply =
        EncodeReplicaCheckpointFrame(checkpoint) +
        EncodeReplicaRecordFrame(windows - 1, segment.total_transactions,
                                 windows, bytes);
    thread_ = std::thread([this, reply] { Serve(reply); });
  }
  ~FakePrimary() {
    stopping_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  uint16_t port() const { return port_; }
  int subscriptions() const { return subscriptions_.load(); }

 private:
  void Serve(const std::string& reply) {
    std::vector<Socket> streams;
    while (!stopping_.load()) {
      pollfd ready{listener_.fd(), POLLIN, 0};
      if (::poll(&ready, 1, 20) <= 0) continue;
      Socket stream(::accept(listener_.fd(), nullptr, nullptr));
      if (!stream.valid()) continue;
      const FrameRead subscribe = ReadFrame(stream.fd(), kWireMaxPayloadBytes);
      if (subscribe.status != FrameRead::Status::kOk ||
          subscribe.header.type != FrameType::kReplicaSubscribe) {
        continue;
      }
      std::string error;
      if (WriteAll(stream.fd(), reply, &error)) subscriptions_.fetch_add(1);
      streams.push_back(std::move(stream));
    }
  }

  Socket listener_;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<int> subscriptions_{0};
  std::thread thread_;
};

class HostileSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tara_hostile_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    const EvolvingDatabase data = MakeData(4);
    base_ = std::make_unique<TaraEngine>(EngineOptions());
    full_ = std::make_unique<TaraEngine>(EngineOptions());
    for (uint32_t w = 0; w < 4; ++w) {
      const WindowInfo& info = data.window(w);
      if (w < 3) base_->AppendWindow(data.database(), info.begin, info.end);
      full_->AppendWindow(data.database(), info.begin, info.end);
    }
    base_bytes_ = Encode(*base_);
    // The honest fourth window: every crafted path must accept it, which
    // shows the hand-written layouts are right.
    const auto full = full_->Snapshot();
    honest_.name = "honest window";
    honest_.bytes = EncodeWindowSegment(*full, 3);
    honest_.total_transactions = full->segment(3).total_transactions;
    honest_.rule_watermark = full->segment(3).rule_watermark;
    honest_.entry_count = full->segment(3).entries.size();
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::unique_ptr<TaraEngine> base_;
  std::unique_ptr<TaraEngine> full_;
  std::string base_bytes_;
  CraftedSegment honest_;
};

TEST_F(HostileSegmentTest, StreamFormRefusesEachWithATypedError) {
  const auto honest = DecodeKnowledgeBase(StreamWith(*base_->Snapshot(),
                                                     honest_));
  ASSERT_TRUE(honest.has_value()) << honest.error();
  EXPECT_EQ(Encode(honest.value()), Encode(*full_));
  for (const CraftedSegment& hostile : HostileSegments(*base_->Snapshot())) {
    const auto loaded =
        DecodeKnowledgeBase(StreamWith(*base_->Snapshot(), hostile));
    ASSERT_FALSE(loaded.has_value()) << hostile.name;
    EXPECT_EQ(loaded.error().code, LoadError::Code::kCorruptSegment)
        << hostile.name << ": " << loaded.error();
  }
}

TEST_F(HostileSegmentTest, EagerAndMappedOpensRefuseEachWithATypedError) {
  const fs::path kb = dir_ / "kb";
  WriteBlocksWith(*base_->Snapshot(), honest_, kb);
  for (const OpenMode mode : {OpenMode::kEager, OpenMode::kMapped}) {
    OpenOptions open;
    open.kb_dir = kb.string();
    open.mode = mode;
    auto honest = OpenKnowledgeBase(open);
    ASSERT_TRUE(honest.has_value()) << honest.error();
    EXPECT_EQ(Encode(honest.value()), Encode(*full_));
  }
  const ParameterSetting setting{0.02, 0.3};
  for (const CraftedSegment& hostile : HostileSegments(*base_->Snapshot())) {
    WriteBlocksWith(*base_->Snapshot(), hostile, kb);
    auto mapped = MappedKb::Open(kb.string());
    ASSERT_TRUE(mapped.has_value()) << hostile.name << ": " << mapped.error();
    EXPECT_FALSE(mapped->VerifyHashes().has_value())
        << hostile.name << ": the row must match the segment";

    OpenOptions open;
    open.kb_dir = kb.string();
    open.mode = OpenMode::kEager;
    const auto eager = OpenKnowledgeBase(open);
    ASSERT_FALSE(eager.has_value()) << hostile.name;
    EXPECT_EQ(eager.error().code, LoadError::Code::kCorruptSegment)
        << hostile.name << ": " << eager.error();

    // Lazily: the window is refused, stickily; the windows before it
    // were never part of the failed batch's publication.
    open.mode = OpenMode::kMapped;
    auto lazy = OpenKnowledgeBase(open);
    ASSERT_TRUE(lazy.has_value()) << hostile.name << ": " << lazy.error();
    for (int attempt = 0; attempt < 2; ++attempt) {
      const auto refused = lazy->Execute(QueryRequest::MineWindow(3, setting));
      ASSERT_FALSE(refused.has_value()) << hostile.name;
      EXPECT_EQ(refused.error().code, QueryError::Code::kCorruptStorage)
          << hostile.name << ": " << refused.error();
    }
    EXPECT_EQ(lazy->generation(), lazy->materialized_window_count());
    EXPECT_FALSE(lazy->fully_materialized());
    EXPECT_LT(lazy->materialized_window_count(), 4u);
  }
}

TEST_F(HostileSegmentTest, WalReplayRefusesEachWithATypedError) {
  const fs::path kb = dir_ / "kb";
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*base_->Snapshot(), kb.string()).has_value());
  std::vector<CraftedSegment> cases = HostileSegments(*base_->Snapshot());
  cases.insert(cases.begin(), honest_);
  for (size_t i = 0; i < cases.size(); ++i) {
    const CraftedSegment& segment = cases[i];
    const fs::path wal = dir_ / ("wal" + std::to_string(i));
    {
      auto writer =
          WalWriter::Open(wal.string(), base_->options(), 0, nullptr);
      ASSERT_TRUE(writer.has_value()) << writer.error();
      ASSERT_FALSE(writer.value()
                       .Append(segment.total_transactions, segment.bytes)
                       .has_value());
    }
    OpenOptions open;
    open.kb_dir = kb.string();
    auto engine = OpenKnowledgeBase(open);
    ASSERT_TRUE(engine.has_value()) << engine.error();
    const auto attached = engine.value().AttachWal(wal.string());
    if (i == 0) {
      ASSERT_TRUE(attached.has_value()) << attached.error();
      EXPECT_EQ(Encode(engine.value()), Encode(*full_));
      continue;
    }
    ASSERT_FALSE(attached.has_value()) << segment.name;
    EXPECT_EQ(attached.error().code, LoadError::Code::kCorruptSegment)
        << segment.name << ": " << attached.error();
    // Nothing of the record was committed, and no log got attached.
    EXPECT_EQ(Encode(engine.value()), base_bytes_) << segment.name;
    EXPECT_EQ(engine->generation(), 3u) << segment.name;
    EXPECT_FALSE(engine->wal_attached()) << segment.name;
  }
}

/// Polls until the replica reports an error (the tail loop records it
/// before reconnecting); "" on timeout.
std::string AwaitReplicaError(const ReplicaEngine& replica) {
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string error = replica.GetStatus().last_error;
    if (!error.empty()) return error;
    std::this_thread::sleep_for(5ms);
  }
  return "";
}

TEST_F(HostileSegmentTest, ReplicaRefusesEachAndKeepsServing) {
  const fs::path kb = dir_ / "kb";
  ASSERT_FALSE(
      SaveKnowledgeBaseBlocks(*base_->Snapshot(), kb.string()).has_value());
  ReplicaOptions options;
  options.kb_dir = kb.string();
  options.backoff_initial_ms = 20;
  {
    FakePrimary primary(base_->options(), 4, honest_);
    options.primary_port = primary.port();
    ReplicaEngine replica(options);
    const auto problem = replica.Start();
    ASSERT_FALSE(problem.has_value()) << *problem;
    ASSERT_EQ(replica.WaitForWindows(
                  4, std::chrono::duration_cast<std::chrono::milliseconds>(
                         kWait)),
              4u)
        << replica.GetStatus().last_error;
    EXPECT_EQ(Encode(*replica.engine()), Encode(*full_));
  }

  const ParameterSetting setting{0.02, 0.3};
  const auto answer = base_->Execute(QueryRequest::MineWindow(2, setting));
  ASSERT_TRUE(answer.has_value());
  for (const CraftedSegment& hostile : HostileSegments(*base_->Snapshot())) {
    FakePrimary primary(base_->options(), 4, hostile);
    options.primary_port = primary.port();
    ReplicaEngine replica(options);
    const auto problem = replica.Start();
    ASSERT_FALSE(problem.has_value()) << hostile.name << ": " << *problem;
    const std::string error = AwaitReplicaError(replica);
    EXPECT_NE(error.find("corrupt"), std::string::npos)
        << hostile.name << ": " << error;
    EXPECT_GE(primary.subscriptions(), 1) << hostile.name;
    const ReplicaEngine::Status status = replica.GetStatus();
    EXPECT_EQ(status.window_count, 3u) << hostile.name;
    EXPECT_EQ(status.generation, 3u) << hostile.name;
    EXPECT_EQ(status.records_applied, 0u) << hostile.name;
    // Still serving, from the knowledge base it had.
    EXPECT_EQ(Encode(*replica.engine()), base_bytes_) << hostile.name;
    const auto served =
        replica.engine()->Execute(QueryRequest::MineWindow(2, setting));
    ASSERT_TRUE(served.has_value()) << hostile.name;
    EXPECT_EQ(EncodeQueryResult(QueryKind::kMineWindow, served.value()),
              EncodeQueryResult(QueryKind::kMineWindow, answer.value()));
  }
}

/// --- kill -9 fault matrix -------------------------------------------------
/// Child processes carry one role each; the parent drives the kills.
/// Exit codes: 0 = ran to completion, 2 = an un-injected step failed.

/// Primary child: WAL-backed engine + server on `port` (0 = ephemeral,
/// reported via `port_path`), appends windows [window_count, total)
/// with a pacing delay, then serves until killed. On restart the WAL
/// replay resumes the engine exactly at the durably-acked windows.
[[noreturn]] void PrimaryChild(const EvolvingDatabase& data, uint16_t port,
                               const std::string& wal_dir,
                               const std::string& port_path, int delay_us) {
  TaraEngine engine(EngineOptions());
  if (!engine.AttachWal(wal_dir).has_value()) _exit(2);
  ServerOptions options;
  options.port = port;
  TaraServer server(&engine, options);
  if (server.Start().has_value()) _exit(2);
  if (!WritePortFile(port_path + ".tmp", server.port())) _exit(2);
  if (::rename((port_path + ".tmp").c_str(), port_path.c_str()) != 0) {
    _exit(2);
  }
  for (uint32_t w = engine.window_count(); w < data.window_count(); ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
    if (delay_us > 0) ::usleep(delay_us);
  }
  for (;;) ::pause();
}

uint16_t WaitForPortFile(const std::string& path) {
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return static_cast<uint16_t>(port);
    std::this_thread::sleep_for(5ms);
  }
  return 0;
}

class ReplicationCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("tara_repl_crash_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// References: the deterministic knowledge base at every window count
  /// (same data, same floors — the bytes any honest follower must hold).
  void BuildReferences(const EvolvingDatabase& data) {
    TaraEngine engine(EngineOptions());
    refs_.push_back(Encode(engine));
    for (uint32_t w = 0; w < data.window_count(); ++w) {
      const WindowInfo& info = data.window(w);
      engine.AppendWindow(data.database(), info.begin, info.end);
      refs_.push_back(Encode(engine));
    }
  }

  void KillAndReap(pid_t child) {
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  }

  fs::path dir_;
  std::vector<std::string> refs_;
};

// kill -9 the primary mid-stream: the replica must hold only durable
// windows (never a torn tail), reconnect to the restarted primary —
// which recovered from its WAL — resume from its own position, and
// converge byte-for-byte with the full reference.
TEST_F(ReplicationCrashTest, PrimaryKilledMidStreamFollowerNeverDiverges) {
#ifdef TARA_UNDER_TSAN
  GTEST_SKIP() << "forked children start threads; unsupported under TSan";
#endif
  const EvolvingDatabase data = MakeData();
  BuildReferences(data);
  const std::string wal_dir = (dir_ / "wal").string();
  const std::string port_path = (dir_ / "port").string();

  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    PrimaryChild(data, 0, wal_dir, port_path, /*delay_us=*/20000);
  }
  const uint16_t port = WaitForPortFile(port_path);
  ASSERT_NE(port, 0) << "primary child never reported a port";

  ReplicaOptions options;
  options.primary_port = port;
  options.backoff_initial_ms = 10;
  ReplicaEngine replica(options);
  ASSERT_FALSE(replica.Start().has_value());

  // Let a few windows stream, then kill the primary mid-append.
  replica.WaitForWindows(
      2, std::chrono::duration_cast<std::chrono::milliseconds>(kWait));
  KillAndReap(child);

  // Whatever the replica holds right now must be a durably-acked prefix
  // — never a torn or unacked window.
  {
    const uint32_t held = replica.engine()->window_count();
    ASSERT_LE(held, data.window_count());
    EXPECT_EQ(Encode(*replica.engine()), refs_[held])
        << "replica holds a state no honest primary ever acked";
  }

  // Restart the primary on the SAME port: WAL recovery resumes it at
  // the durable windows, the append loop finishes the remainder, and
  // the replica reconnects and catches up.
  fs::remove(port_path);
  child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    PrimaryChild(data, port, wal_dir, port_path, /*delay_us=*/0);
  }
  ASSERT_NE(WaitForPortFile(port_path), 0)
      << "restarted primary never came up";
  const uint32_t want = data.window_count();
  ASSERT_EQ(
      replica.WaitForWindows(
          want, std::chrono::duration_cast<std::chrono::milliseconds>(kWait)),
      want)
      << "replica never converged after the primary restart; last error: "
      << replica.GetStatus().last_error;
  EXPECT_EQ(Encode(*replica.engine()), refs_[want]);
  EXPECT_GE(replica.GetStatus().reconnects, 1u);
  replica.Stop();
  KillAndReap(child);
}

/// Replica child: subscribes to the parent's in-process primary,
/// checkpoints every applied window to `ckpt_dir` (fsync/rename
/// discipline), acks each window durably into `ack_path`, and — once it
/// holds `target` windows — writes its encoded knowledge base to
/// `out_path` and exits 0. A restarted child bootstraps from the
/// checkpoint and resumes mid-stream instead of starting over.
[[noreturn]] void ReplicaChild(uint16_t port, const std::string& ckpt_dir,
                               const std::string& ack_path,
                               const std::string& out_path, uint32_t target) {
  const int ack_fd =
      ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (ack_fd < 0) _exit(2);
  ReplicaOptions options;
  options.primary_port = port;
  options.backoff_initial_ms = 10;
  if (KnowledgeBaseBlocksDirExists(ckpt_dir)) options.kb_dir = ckpt_dir;
  ReplicaEngine replica(options);
  if (replica.Start().has_value()) _exit(2);
  uint32_t have = replica.engine()->window_count();
  while (have < target) {
    const uint32_t now = replica.WaitForWindows(
        have + 1, std::chrono::duration_cast<std::chrono::milliseconds>(kWait));
    if (now <= have) _exit(2);
    have = now;
    if (AppendKnowledgeBaseBlocks(*replica.engine()->Snapshot(), ckpt_dir)
            .has_value()) {
      _exit(2);
    }
    if (::write(ack_fd, "a", 1) != 1 || ::fsync(ack_fd) != 0) _exit(2);
  }
  const std::string bytes = Encode(*replica.engine());
  const std::string tmp = out_path + ".tmp";
  std::ofstream out(tmp, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  if (!out || ::rename(tmp.c_str(), out_path.c_str()) != 0) _exit(2);
  replica.Stop();
  _exit(0);
}

// kill -9 the replica mid-replay: a restarted replica must bootstrap
// from its (fsync/rename-disciplined) checkpoint, resume the stream
// from its own window count, and finish byte-identical to the
// reference. The torn kill never leaves a checkpoint the restart
// cannot continue from.
TEST_F(ReplicationCrashTest, ReplicaKilledMidReplayResumesFromCheckpoint) {
#ifdef TARA_UNDER_TSAN
  GTEST_SKIP() << "forked children start threads; unsupported under TSan";
#endif
  const EvolvingDatabase data = MakeData();
  BuildReferences(data);
  const std::string ckpt_dir = (dir_ / "ckpt").string();
  const std::string ack_path = (dir_ / "acks").string();
  const std::string out_path = (dir_ / "final_kb").string();

  TaraEngine primary(EngineOptions());
  const WindowInfo& w0 = data.window(0);
  primary.AppendWindow(data.database(), w0.begin, w0.end);
  ServerOptions server_options;
  TaraServer server(&primary, server_options);
  ASSERT_FALSE(server.Start().has_value());

  pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ReplicaChild(server.port(), ckpt_dir, ack_path, out_path,
                 data.window_count());
  }

  // Feed a few windows, wait for the child to durably ack at least two
  // applied windows, then kill it mid-replay.
  for (uint32_t w = 1; w < 4; ++w) {
    const WindowInfo& info = data.window(w);
    primary.AppendWindow(data.database(), info.begin, info.end);
  }
  const auto deadline = std::chrono::steady_clock::now() + kWait;
  uint64_t acked = 0;
  while (acked < 2 && std::chrono::steady_clock::now() < deadline) {
    std::error_code ec;
    const auto size = fs::file_size(ack_path, ec);
    acked = ec ? 0 : size;
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GE(acked, 2u) << "replica child never acked two windows";
  KillAndReap(child);
  ASSERT_FALSE(fs::exists(out_path));

  // The torn checkpoint must still be a loadable, honest prefix.
  {
    OpenOptions open;
    open.kb_dir = ckpt_dir;
    auto recovered = OpenKnowledgeBase(open);
    ASSERT_TRUE(recovered.has_value()) << recovered.error().message;
    const uint32_t held = recovered->window_count();
    ASSERT_GE(held, 1u);
    EXPECT_EQ(Encode(*recovered), refs_[held]);
  }

  // Finish the stream and restart the child: it must resume from the
  // checkpoint (not from zero) and converge.
  for (uint32_t w = 4; w < data.window_count(); ++w) {
    const WindowInfo& info = data.window(w);
    primary.AppendWindow(data.database(), info.begin, info.end);
  }
  child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ReplicaChild(server.port(), ckpt_dir, ack_path, out_path,
                 data.window_count());
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "restarted replica child failed";
  std::ifstream in(out_path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string final_bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(final_bytes, refs_[data.window_count()])
      << "restarted replica diverged from the reference";
  server.Stop();
}

}  // namespace
}  // namespace tara::server
