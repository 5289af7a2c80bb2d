// Serving-layer integration tests: a real TaraServer on an ephemeral
// port, driven by real TaraClient connections. Covers result
// byte-identity with local execution, typed error passthrough,
// concurrent clients with live wire ingestion, the deterministic shed
// and deadline admission paths, malformed-frame survival, and the
// metrics/info endpoints (including info on a lazily mapped, corrupt
// knowledge base), every client frame against a corrupt mapped tail, and
// answers served as cached frames (byte-equal to the snapshot's answer,
// and a hit is the cached bytes themselves). Runs under TSan in CI.

#include "server/tara_server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/query_request.h"
#include "core/wire_format.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"
#include "server/net_io.h"
#include "server/tara_client.h"
#include "txdb/evolving_database.h"

namespace tara::server {
namespace {

TransactionDatabase MakeData(uint32_t transactions, uint64_t seed) {
  QuestGenerator::Params params;
  params.num_transactions = transactions;
  params.num_items = 60;
  params.num_patterns = 25;
  params.avg_transaction_len = 8;
  params.seed = seed;
  return QuestGenerator(params).Generate();
}

/// A small engine + server, freshly built per fixture.
class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}, size_t cache_bytes = 0) {
    TaraEngine::Options engine_options;
    engine_options.min_support_floor = 0.02;
    engine_options.min_confidence_floor = 0.2;
    engine_options.max_itemset_size = 4;
    engine_options.build_content_index = true;
    engine_options.query_cache_bytes = cache_bytes;
    engine_options.metrics = &metrics_;
    engine_ = std::make_unique<TaraEngine>(engine_options);
    engine_->BuildAll(
        EvolvingDatabase::PartitionIntoBatches(MakeData(1200, 7), 3));
    options.metrics = &metrics_;
    server_ = std::make_unique<TaraServer>(engine_.get(), options);
    const auto problem = server_->Start();
    ASSERT_FALSE(problem.has_value()) << *problem;
    ASSERT_NE(server_->port(), 0);
  }

  TaraClient Connect() {
    auto client = TaraClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.has_value());
    return std::move(client.value());
  }

  obs::MetricsRegistry metrics_;
  std::unique_ptr<TaraEngine> engine_;
  std::unique_ptr<TaraServer> server_;
};

TEST_F(ServerTest, RemoteResultsMatchLocalByteForByte) {
  StartServer();
  TaraClient client = Connect();
  const ParameterSetting setting{0.03, 0.3};
  std::vector<QueryRequest> requests;
  requests.push_back(QueryRequest::MineWindow(1, setting));
  requests.push_back(QueryRequest::Region(2, setting));
  requests.push_back(QueryRequest::Trajectory(2, setting, {0, 1, 2}));
  requests.push_back(QueryRequest::Compare(
      setting, ParameterSetting{0.05, 0.4}, {0, 1, 2}, MatchMode::kExact));
  requests.push_back(QueryRequest::ContentView(0, setting));
  requests.push_back(QueryRequest::RollUpMine({0, 1, 2}, setting));
  for (const QueryRequest& request : requests) {
    const auto local = engine_->Execute(request);
    ASSERT_TRUE(local.has_value());
    const auto remote = client.Execute(request);
    ASSERT_TRUE(remote.has_value())
        << QueryKindName(request.kind) << ": " << remote.error();
    EXPECT_EQ(EncodeQueryResult(request.kind, *remote),
              EncodeQueryResult(request.kind, *local))
        << QueryKindName(request.kind);
  }
}

TEST_F(ServerTest, QueryErrorsArriveWithFrozenCodes) {
  StartServer();
  TaraClient client = Connect();
  // Window 9 does not exist -> kBadWindow, wire code 3.
  const auto bad_window = client.Execute(
      QueryRequest::MineWindow(9, ParameterSetting{0.03, 0.3}));
  ASSERT_FALSE(bad_window.has_value());
  EXPECT_EQ(bad_window.error().code,
            QueryErrorWireCode(QueryError::Code::kBadWindow));
  // Support below the 0.02 floor -> wire code 1.
  const auto below_floor = client.Execute(
      QueryRequest::MineWindow(0, ParameterSetting{0.001, 0.3}));
  ASSERT_FALSE(below_floor.has_value());
  EXPECT_EQ(below_floor.error().code,
            QueryErrorWireCode(QueryError::Code::kSupportBelowFloor));
  // The connection survives typed errors.
  EXPECT_TRUE(client.Ping().has_value());
}

// Thresholds travel as raw f64 bits, so a client can send a NaN or an
// infinity the CLI grammar would refuse. The server must answer each with
// the typed non_finite_setting error (wire code 9), not run it, and keep
// the connection.
TEST_F(ServerTest, NonFiniteSettingBitsGetATypedReply) {
  StartServer();
  auto raw = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.has_value());
  std::string error;
  for (const uint64_t bits :
       {uint64_t{0x7ff8000000000000}, uint64_t{0x7ff0000000000001},
        uint64_t{0xfff8dead00000000}, uint64_t{0x7ff0000000000000}}) {
    const double value = std::bit_cast<double>(bits);
    for (const ParameterSetting setting :
         {ParameterSetting{value, 0.3}, ParameterSetting{0.03, value}}) {
      ASSERT_TRUE(WriteAll(
          raw.value().fd(),
          EncodeExecuteFrame(QueryRequest::MineWindow(0, setting), 1000),
          &error))
          << error;
      const FrameRead reply =
          ReadFrame(raw.value().fd(), kWireMaxPayloadBytes);
      ASSERT_EQ(reply.status, FrameRead::Status::kOk);
      ASSERT_EQ(reply.header.type, FrameType::kError) << std::hex << bits;
      const auto wire_error = DecodeErrorPayload(reply.payload);
      ASSERT_TRUE(wire_error.has_value());
      EXPECT_EQ(wire_error->code,
                QueryErrorWireCode(QueryError::Code::kNonFiniteSetting))
          << std::hex << bits;
    }
  }
  ASSERT_TRUE(
      WriteAll(raw.value().fd(), EncodeFrame(FrameType::kPing, {}), &error));
  const FrameRead pong = ReadFrame(raw.value().fd(), kWireMaxPayloadBytes);
  ASSERT_EQ(pong.status, FrameRead::Status::kOk);
  EXPECT_EQ(pong.header.type, FrameType::kPong);
}

TEST_F(ServerTest, BatchMixesResultsAndErrors) {
  StartServer();
  TaraClient client = Connect();
  const ParameterSetting setting{0.03, 0.3};
  std::vector<QueryRequest> requests;
  requests.push_back(QueryRequest::MineWindow(0, setting));
  requests.push_back(QueryRequest::MineWindow(9, setting));  // bad window
  requests.push_back(QueryRequest::Region(1, setting));
  const auto batch = client.ExecuteBatch(requests);
  ASSERT_TRUE(batch.has_value()) << batch.error();
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_TRUE((*batch)[0].has_value());
  ASSERT_FALSE((*batch)[1].has_value());
  EXPECT_EQ((*batch)[1].error().code, 3u);
  EXPECT_TRUE((*batch)[2].has_value());
  // Byte-identity against the local batch path.
  const auto local = engine_->ExecuteBatch(requests);
  EXPECT_EQ(EncodeQueryResult(requests[0].kind, (*batch)[0].value()),
            EncodeQueryResult(requests[0].kind, local[0].value()));
}

TEST_F(ServerTest, BatchPastTheCapGetsATypedErrorAndTheConnectionServes) {
  StartServer();
  TaraClient client = Connect();
  const ParameterSetting setting{0.03, 0.3};
  std::vector<QueryRequest> requests(kWireMaxBatchRequests,
                                     QueryRequest::Region(1, setting));
  const auto at_cap = client.ExecuteBatch(requests);
  ASSERT_TRUE(at_cap.has_value()) << at_cap.error();
  EXPECT_EQ(at_cap->size(), kWireMaxBatchRequests);

  requests.push_back(requests.front());
  const auto over_cap = client.ExecuteBatch(requests);
  ASSERT_FALSE(over_cap.has_value());
  EXPECT_EQ(over_cap.error().code,
            static_cast<uint32_t>(ParseError::Code::kBadRequestBody));
  // The same connection keeps serving.
  EXPECT_TRUE(client.Execute(requests.front()).has_value());
}

TEST_F(ServerTest, LiveIngestionDuringConcurrentQueries) {
  StartServer();
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 25;
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &ok, &failed] {
      auto connect = TaraClient::Connect("127.0.0.1", server_->port());
      ASSERT_TRUE(connect.has_value());
      TaraClient client = std::move(connect.value());
      const ParameterSetting setting{0.03, 0.25 + 0.01 * c};
      for (int i = 0; i < kQueriesPerClient; ++i) {
        // Window 0 always exists no matter how many appends landed.
        const auto result = client.Execute(
            i % 2 == 0 ? QueryRequest::MineWindow(0, setting)
                       : QueryRequest::Trajectory(0, setting, {0}));
        if (result.has_value()) {
          ok.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  // Meanwhile: live appends over the wire from a separate connection.
  TaraClient appender = Connect();
  const TransactionDatabase extra = MakeData(300, 99);
  uint32_t appended = 0;
  for (int i = 0; i < 3; ++i) {
    const auto ack = appender.AppendWindow(extra);
    ASSERT_TRUE(ack.has_value()) << ack.error();
    ++appended;
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kQueriesPerClient);
  EXPECT_EQ(failed.load(), 0);
  // All appends became windows: 3 built + 3 live.
  const auto info = appender.Info();
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->window_count, 3u + appended);
}

TEST_F(ServerTest, SaturatedPoolShedsWithOverloaded) {
  // One worker, zero queue slots: while the first request executes, any
  // other request must be shed immediately with kOverloaded.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> executing{0};
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 0;
  options.pre_execute_hook = [&] {
    executing.fetch_add(1);
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  };
  StartServer(options);

  const QueryRequest request =
      QueryRequest::MineWindow(0, ParameterSetting{0.03, 0.3});
  std::thread holder([this, &request] {
    TaraClient client = Connect();
    const auto result = client.Execute(request);
    EXPECT_TRUE(result.has_value());
  });
  while (executing.load() == 0) std::this_thread::yield();

  TaraClient shed_client = Connect();
  const auto shed = shed_client.Execute(request);
  ASSERT_FALSE(shed.has_value());
  EXPECT_TRUE(IsOverloaded(shed.error())) << shed.error();
  EXPECT_EQ(shed.error().code, 100u);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  holder.join();
  // The shed was counted.
  EXPECT_EQ(metrics_.SnapshotText().find("tara.server.shed = 0"),
            std::string::npos);
}

TEST_F(ServerTest, QueuedRequestHonorsDeadline) {
  // One worker with queue room: a queued request whose deadline expires
  // before a slot frees must fail kDeadlineExceeded, not execute.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> executing{0};
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 4;
  options.pre_execute_hook = [&] {
    const int n = executing.fetch_add(1);
    if (n == 0) {
      // Only the first request blocks; later ones run normally.
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return release; });
    }
  };
  StartServer(options);

  const QueryRequest request =
      QueryRequest::MineWindow(0, ParameterSetting{0.03, 0.3});
  std::thread holder([this, &request] {
    TaraClient client = Connect();
    const auto result = client.Execute(request);
    EXPECT_TRUE(result.has_value());
  });
  while (executing.load() == 0) std::this_thread::yield();

  TaraClient queued_client = Connect();
  const auto start = std::chrono::steady_clock::now();
  const auto queued = queued_client.Execute(request, /*deadline_ms=*/100);
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(queued.has_value());
  EXPECT_TRUE(IsDeadlineExceeded(queued.error())) << queued.error();
  EXPECT_EQ(queued.error().code, 101u);
  // The rejection must arrive promptly after the deadline, not stall.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            5000);

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  holder.join();
}

TEST_F(ServerTest, HostnamesResolveForConnectAndFailuresAreTyped) {
  StartServer();
  // A hostname (not a dotted quad) goes through the system resolver.
  auto named = TaraClient::Connect("localhost", server_->port());
  ASSERT_TRUE(named.has_value()) << named.error();
  TaraClient named_client = std::move(named).value();
  EXPECT_TRUE(named_client.Ping().has_value());
  // An unresolvable name fails with a typed resolution message (RFC 2606
  // reserves .invalid, so no resolver can answer it).
  auto bogus = TaraClient::Connect("no-such-host.invalid", 1);
  ASSERT_FALSE(bogus.has_value());
  EXPECT_EQ(bogus.error().code, kClientTransportError);
  EXPECT_NE(bogus.error().message.find("cannot resolve host"),
            std::string::npos)
      << bogus.error().message;
}

TEST_F(ServerTest, StalledResponseTripsTheClientDeadlineBackstop) {
  // The hook stalls the client's OWN request mid-execution: the server
  // admitted it (so no server-side deadline shed will ever come) and
  // cannot respond until released. The client's local socket deadline —
  // the backstop for a hung server — must fire with the 303 pseudo-code
  // and close the now-desynchronized connection.
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.pre_execute_hook = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  };
  StartServer(options);

  TaraClient client = Connect();
  const QueryRequest request =
      QueryRequest::MineWindow(0, ParameterSetting{0.03, 0.3});
  const auto start = std::chrono::steady_clock::now();
  const auto result = client.Execute(request, /*deadline_ms=*/100);
  const auto waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_FALSE(result.has_value());
  EXPECT_TRUE(IsClientTimeout(result.error())) << result.error();
  EXPECT_EQ(result.error().code, 303u);
  // Fired no earlier than the deadline, and promptly rather than hanging.
  EXPECT_GE(waited_ms, 100);
  EXPECT_LT(waited_ms, 10000);
  // A late response must never be read as the answer to the next
  // request: the connection is gone and further calls fail locally.
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.Execute(request).has_value());

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  // Join the released handler before the hook's mutex and condition
  // variable go out of scope; it may still be inside cv.wait.
  server_->Stop();
}

// The client re-arms its socket deadline only when a request's deadline
// differs from the armed one, so no deadline must disarm it: a request
// without one, stalled past the previous request's 1,100 ms socket
// deadline, still succeeds, and the next request with a deadline re-arms
// it and times out.
TEST_F(ServerTest, SocketDeadlinesFollowEachRequestsDeadline) {
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> executed{0};
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.pre_execute_hook = [&] {
    const int n = executed.fetch_add(1);
    if (n == 1) std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    if (n == 2) {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return release; });
    }
  };
  StartServer(options);

  TaraClient client = Connect();
  const QueryRequest request =
      QueryRequest::MineWindow(0, ParameterSetting{0.03, 0.3});
  const auto armed = client.Execute(request, /*deadline_ms=*/100);
  ASSERT_TRUE(armed.has_value()) << armed.error();

  const auto start = std::chrono::steady_clock::now();
  const auto unbounded = client.Execute(request);
  const auto waited_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_TRUE(unbounded.has_value()) << unbounded.error();
  EXPECT_GE(waited_ms, 1100);

  const auto rearmed = client.Execute(request, /*deadline_ms=*/100);
  ASSERT_FALSE(rearmed.has_value());
  EXPECT_TRUE(IsClientTimeout(rearmed.error())) << rearmed.error();
  EXPECT_FALSE(client.connected());

  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  server_->Stop();
}

TEST_F(ServerTest, MalformedFramesGetTypedErrorsAndServerSurvives) {
  StartServer();
  // Raw socket: send garbage that is not even a TARA header.
  {
    auto raw = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(raw.has_value());
    std::string error;
    ASSERT_TRUE(WriteAll(raw.value().fd(), "this is not a TARA frame....",
                         &error));
    const FrameRead reply = ReadFrame(raw.value().fd(), kWireMaxPayloadBytes);
    ASSERT_EQ(reply.status, FrameRead::Status::kOk);
    ASSERT_EQ(reply.header.type, FrameType::kError);
    const auto wire_error = DecodeErrorPayload(reply.payload);
    ASSERT_TRUE(wire_error.has_value());
    EXPECT_EQ(wire_error->code,
              static_cast<uint32_t>(ParseError::Code::kBadMagic));
    // Framing is lost -> the server closes this connection.
    const FrameRead next = ReadFrame(raw.value().fd(), kWireMaxPayloadBytes);
    EXPECT_EQ(next.status, FrameRead::Status::kEof);
  }
  // A version from the future is rejected the same way.
  {
    auto raw = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(raw.has_value());
    std::string frame = EncodeFrame(FrameType::kPing, {});
    frame[2] = static_cast<char>(kWireProtocolVersion + 1);
    std::string error;
    ASSERT_TRUE(WriteAll(raw.value().fd(), frame, &error));
    const FrameRead reply = ReadFrame(raw.value().fd(), kWireMaxPayloadBytes);
    ASSERT_EQ(reply.status, FrameRead::Status::kOk);
    const auto wire_error = DecodeErrorPayload(reply.payload);
    ASSERT_TRUE(wire_error.has_value());
    EXPECT_EQ(wire_error->code,
              static_cast<uint32_t>(ParseError::Code::kUnsupportedVersion));
  }
  // A well-framed Execute with a corrupt body is a payload-level error:
  // typed reply, connection survives.
  {
    auto raw = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(raw.has_value());
    const std::string frame =
        EncodeFrame(FrameType::kExecute, std::string("\x00\xff", 2));
    std::string error;
    ASSERT_TRUE(WriteAll(raw.value().fd(), frame, &error));
    const FrameRead reply = ReadFrame(raw.value().fd(), kWireMaxPayloadBytes);
    ASSERT_EQ(reply.status, FrameRead::Status::kOk);
    ASSERT_EQ(reply.header.type, FrameType::kError);
    // Same connection keeps working.
    ASSERT_TRUE(WriteAll(raw.value().fd(), EncodeFrame(FrameType::kPing, {}),
                         &error));
    const FrameRead pong = ReadFrame(raw.value().fd(), kWireMaxPayloadBytes);
    ASSERT_EQ(pong.status, FrameRead::Status::kOk);
    EXPECT_EQ(pong.header.type, FrameType::kPong);
  }
  // A frame type that is valid but not a request -> kUnexpectedFrame,
  // connection survives.
  {
    TaraClient client = Connect();
    EXPECT_TRUE(client.Ping().has_value());
  }
  // And the server still answers normal queries.
  TaraClient client = Connect();
  const auto result = client.Execute(
      QueryRequest::MineWindow(0, ParameterSetting{0.03, 0.3}));
  EXPECT_TRUE(result.has_value());
}

TEST_F(ServerTest, MetricsEndpointExposesServerSeries) {
  StartServer();
  TaraClient client = Connect();
  (void)client.Execute(
      QueryRequest::MineWindow(0, ParameterSetting{0.03, 0.3}));
  const auto text = client.Metrics(/*json=*/false);
  ASSERT_TRUE(text.has_value()) << text.error();
  EXPECT_NE(text->find("tara.server.requests"), std::string::npos);
  EXPECT_NE(text->find("tara.server.connections"), std::string::npos);
  const auto json = client.Metrics(/*json=*/true);
  ASSERT_TRUE(json.has_value());
  EXPECT_NE(json->find("tara.server.requests"), std::string::npos);
}

TEST_F(ServerTest, InfoReportsKnowledgeBaseShape) {
  StartServer();
  TaraClient client = Connect();
  const auto info = client.Info();
  ASSERT_TRUE(info.has_value()) << info.error();
  EXPECT_EQ(info->window_count, 3u);
  EXPECT_EQ(info->generation, engine_->generation());
  EXPECT_EQ(info->rule_count, engine_->Snapshot()->catalog().size());
}

/// ServerTest with the query cache on: answers cross the wire as the
/// cached frames themselves.
class CachedServerTest : public ServerTest {
 protected:
  void SetUp() override { StartServer({}, 4u << 20); }

  /// One request of every kind, answerable over the fixture's windows.
  std::vector<QueryRequest> AllKinds() {
    const ParameterSetting setting{0.03, 0.3};
    const auto mined = ExecuteQuery(*engine_->Snapshot(),
                                    QueryRequest::MineWindow(0, setting));
    EXPECT_TRUE(mined.has_value());
    const auto& rules = std::get<std::vector<RuleId>>(mined.value());
    EXPECT_FALSE(rules.empty());
    const RuleId rule = rules.empty() ? 0 : rules.front();
    return {
        QueryRequest::MineWindow(1, setting),
        QueryRequest::MineWindows({0, 1, 2}, setting, MatchMode::kSingle),
        QueryRequest::Trajectory(2, setting, {0, 1, 2}),
        QueryRequest::Compare(setting, ParameterSetting{0.05, 0.4},
                              {0, 1, 2}, MatchMode::kExact),
        QueryRequest::Region(2, setting),
        QueryRequest::Measures(rule, {0, 1, 2}),
        QueryRequest::Content(0, {1, 2}, setting),
        QueryRequest::ContentView(0, setting),
        QueryRequest::RollUpRule(rule, {0, 1, 2}),
        QueryRequest::RollUpMine({0, 1, 2}, setting),
    };
  }

  /// Sends `frame` on a raw connection and returns the reply frame's
  /// bytes as they arrived.
  static std::string RawRoundTrip(const Socket& socket,
                                  const std::string& frame) {
    std::string error;
    EXPECT_TRUE(WriteAll(socket.fd(), frame, &error)) << error;
    const FrameRead reply = ReadFrame(socket.fd(), kWireMaxPayloadBytes);
    EXPECT_EQ(reply.status, FrameRead::Status::kOk);
    return EncodeFrame(reply.header.type, reply.payload);
  }
};

TEST_F(CachedServerTest, EveryKindArrivesAsTheSnapshotAnswersFrame) {
  const std::vector<QueryRequest> requests = AllKinds();
  ASSERT_EQ(requests.size(), static_cast<size_t>(kQueryKindCount));
  const auto snapshot = engine_->Snapshot();
  auto raw = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.has_value());
  for (const QueryRequest& request : requests) {
    const auto answer = ExecuteQuery(*snapshot, request);
    ASSERT_TRUE(answer.has_value()) << QueryKindName(request.kind);
    const std::string expected = EncodeResultFrame(request.kind, *answer);
    // Two misses (the second offer is cached), then a hit: all the same
    // bytes.
    for (int send = 0; send < 3; ++send) {
      EXPECT_EQ(RawRoundTrip(raw.value(), EncodeExecuteFrame(request)),
                expected)
          << QueryKindName(request.kind) << " send " << send;
    }
  }
  const QueryCache::Stats stats = engine_->query_cache()->stats();
  EXPECT_EQ(stats.misses, 2 * requests.size());
  EXPECT_EQ(stats.hits, requests.size());
}

TEST_F(CachedServerTest, BatchReplyCopiesTheCachedFrames) {
  const std::vector<QueryRequest> kinds = AllKinds();
  const QueryRequest& warm = kinds[2];   // a trajectory, cached below
  const QueryRequest& fresh = kinds[9];  // a roll-up, sent twice
  // Offered twice: the second offer is cached.
  ASSERT_TRUE(engine_->Execute(warm).has_value());
  ASSERT_TRUE(engine_->Execute(warm).has_value());
  const std::vector<QueryRequest> batch = {
      fresh, warm, fresh,
      QueryRequest::MineWindow(0, ParameterSetting{0.001, 0.3})};
  const auto snapshot = engine_->Snapshot();
  std::vector<QueryKind> batch_kinds;
  std::vector<Expected<QueryResult, QueryError>> answers;
  for (const QueryRequest& request : batch) {
    batch_kinds.push_back(request.kind);
    answers.push_back(ExecuteQuery(*snapshot, request));
  }
  ASSERT_FALSE(answers.back().has_value());
  EXPECT_EQ(answers.back().error().code,
            QueryError::Code::kSupportBelowFloor);

  const QueryCache::Stats before = engine_->query_cache()->stats();
  auto raw = ConnectTcp("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.has_value());
  EXPECT_EQ(RawRoundTrip(raw.value(), EncodeBatchExecuteFrame(batch)),
            EncodeBatchResultFrame(batch_kinds, answers));
  // Three distinct requests probe once each: the warm one hits.
  const QueryCache::Stats after = engine_->query_cache()->stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses + 2);
}

TEST_F(CachedServerTest, AHitIsTheCachedFrameNotACopy) {
  const QueryRequest request =
      QueryRequest::Trajectory(2, ParameterSetting{0.03, 0.3}, {0, 1, 2});
  // The first offer is declined; the second is cached.
  ASSERT_TRUE(engine_->ExecuteFrame(request).has_value());
  const auto miss = engine_->ExecuteFrame(request);
  const auto hit = engine_->ExecuteFrame(request);
  ASSERT_TRUE(miss.has_value());
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(miss->get(), hit->get());
  const auto answer = ExecuteQuery(*engine_->Snapshot(), request);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(**hit, EncodeResultFrame(request.kind, *answer));
  // Encoded once into an exact-size buffer: the cache holds no slack.
  EXPECT_EQ((*hit)->capacity(), (*hit)->size());
}

/// A server over a lazily mapped knowledge base whose last window's
/// segment is corrupt (one flipped byte), next to the eager engine the
/// directory was saved from.
class MappedServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    namespace fs = std::filesystem;
    TaraEngine::Options options;
    options.min_support_floor = 0.02;
    options.min_confidence_floor = 0.2;
    options.max_itemset_size = 4;
    options.build_content_index = true;
    eager_ = std::make_unique<TaraEngine>(options);
    eager_->BuildAll(
        EvolvingDatabase::PartitionIntoBatches(MakeData(1200, 7), 4));
    dir_ = fs::path(::testing::TempDir()) /
           ("server_mapped_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    ASSERT_FALSE(
        SaveKnowledgeBaseBlocks(*eager_->Snapshot(), dir_.string(), 4096)
            .has_value());

    // Flip a byte inside the last window's segment.
    const auto manifest = ReadKnowledgeBaseBlocksManifest(dir_.string());
    ASSERT_TRUE(manifest.has_value()) << manifest.error();
    const KbBlockInfo& block = manifest->blocks.back();
    const KbBlockRow& row = block.rows.back();
    const fs::path victim =
        dir_ / KnowledgeBaseBlockFileName(block.file_index);
    std::fstream file(victim, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(row.offset + row.segment_bytes / 2));
    const char byte = static_cast<char>(file.get() ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(row.offset + row.segment_bytes / 2));
    file.put(byte);
    file.close();

    OpenOptions open;
    open.kb_dir = dir_.string();
    open.mode = OpenMode::kMapped;
    auto opened = OpenKnowledgeBase(open);
    ASSERT_TRUE(opened.has_value()) << opened.error();
    engine_ = std::make_unique<TaraEngine>(std::move(opened).value());
    ASSERT_LT(engine_->materialized_window_count(), engine_->window_count());

    server_ = std::make_unique<TaraServer>(engine_.get(), ServerOptions{});
    ASSERT_FALSE(server_->Start().has_value());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    std::filesystem::remove_all(dir_);
  }

  TaraClient Connect() {
    auto client = TaraClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.has_value()) << client.error();
    return std::move(client.value());
  }

  std::unique_ptr<TaraEngine> eager_;
  std::filesystem::path dir_;
  std::unique_ptr<TaraEngine> engine_;
  std::unique_ptr<TaraServer> server_;
};

constexpr uint32_t kCorruptStorageWireCode =
    QueryErrorWireCode(QueryError::Code::kCorruptStorage);

// `info` must not materialize a lazily mapped knowledge base: it answers
// from the manifest, so a corrupt block can neither abort the server nor
// force a full decode.
TEST_F(MappedServerTest, InfoOnACorruptMappedKbNeitherDecodesNorAborts) {
  const uint32_t materialized = engine_->materialized_window_count();
  TaraClient client = Connect();
  const auto info = client.Info();
  ASSERT_TRUE(info.has_value()) << info.error();
  EXPECT_EQ(info->window_count, eager_->window_count());
  EXPECT_EQ(info->rule_count, eager_->catalog().size());
  EXPECT_EQ(engine_->materialized_window_count(), materialized);
  // Still serving: the process is alive and the connection usable.
  EXPECT_TRUE(client.Ping().has_value());
}

// Every frame a client can send gets a typed reply from a server whose
// unmaterialized tail is corrupt; the ones that need the whole knowledge
// base (append, replica subscribe) are refused with kCorruptStorage
// instead of aborting the process.
TEST_F(MappedServerTest, EveryClientFrameOnACorruptTailGetsATypedReply) {
  const WindowId tail = engine_->window_count() - 1;
  const ParameterSetting setting{0.03, 0.3};
  TaraClient client = Connect();

  const auto executed = client.Execute(QueryRequest::MineWindow(tail, setting));
  ASSERT_FALSE(executed.has_value());
  EXPECT_EQ(executed.error().code, kCorruptStorageWireCode);

  const auto batch = client.ExecuteBatch(
      {QueryRequest::MineWindow(tail, setting),
       QueryRequest::RollUpMine({0, tail}, setting)});
  ASSERT_TRUE(batch.has_value()) << batch.error().message;
  ASSERT_EQ(batch->size(), 2u);
  for (const auto& result : *batch) {
    ASSERT_FALSE(result.has_value());
    EXPECT_EQ(result.error().code, kCorruptStorageWireCode);
  }

  const auto appended = client.AppendWindow(MakeData(300, 11));
  ASSERT_FALSE(appended.has_value());
  EXPECT_EQ(appended.error().code, kCorruptStorageWireCode);
  EXPECT_EQ(engine_->window_count(), eager_->window_count());

  {
    // Replica subscribe has no client call; speak the frame directly.
    auto raw = ConnectTcp("127.0.0.1", server_->port());
    ASSERT_TRUE(raw.has_value());
    std::string error;
    ASSERT_TRUE(
        WriteAll(raw.value().fd(), EncodeReplicaSubscribeFrame(0), &error));
    const FrameRead reply = ReadFrame(raw.value().fd(), kWireMaxPayloadBytes);
    ASSERT_EQ(reply.status, FrameRead::Status::kOk);
    ASSERT_EQ(reply.header.type, FrameType::kError);
    const auto wire_error = DecodeErrorPayload(reply.payload);
    ASSERT_TRUE(wire_error.has_value());
    EXPECT_EQ(wire_error->code, kCorruptStorageWireCode);
  }

  const auto info = client.Info();
  ASSERT_TRUE(info.has_value()) << info.error();
  EXPECT_EQ(info->window_count, eager_->window_count());
  EXPECT_TRUE(client.Metrics(/*json=*/false).has_value());
  EXPECT_TRUE(client.Metrics(/*json=*/true).has_value());
  // The process survived all of it and still answers.
  EXPECT_TRUE(client.Ping().has_value());
}

TEST_F(ServerTest, StopDrainsCleanly) {
  StartServer();
  TaraClient client = Connect();
  EXPECT_TRUE(client.Ping().has_value());
  server_->Stop();
  // After Stop, the connection is gone and new connects fail.
  const auto after = client.Ping();
  EXPECT_FALSE(after.has_value());
  auto reconnect = TaraClient::Connect("127.0.0.1", server_->port());
  EXPECT_FALSE(reconnect.has_value());
  // Stop is idempotent.
  server_->Stop();
}

}  // namespace
}  // namespace tara::server
