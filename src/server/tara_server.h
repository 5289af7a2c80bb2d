#ifndef TARA_SERVER_TARA_SERVER_H_
#define TARA_SERVER_TARA_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/tara_engine.h"
#include "core/wire_format.h"
#include "obs/metrics.h"
#include "server/net_io.h"

namespace tara::server {

/// Listen backlog passed to listen(2).
inline constexpr int kListenBacklog = 64;
/// Cadence of kReplicaHeartbeat frames on a caught-up replication
/// stream. Also bounds how long a stream thread can sit waiting for the
/// next published window before noticing Stop().
inline constexpr uint32_t kReplicationHeartbeatMs = 250;

/// Serving configuration. The defaults suit tests and small deployments;
/// a production process sizes the pool and queue to its hardware.
struct ServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (the bound port is reported by TaraServer::port()).
  uint16_t port = 0;
  /// Concurrent query executions (the "query pool"). 0 = hardware
  /// concurrency.
  int max_concurrent_queries = 0;
  /// Requests allowed to wait for a pool slot beyond the concurrent
  /// limit. The (max_concurrent_queries + max_queued_queries + 1)-th
  /// simultaneous request is shed with kOverloaded.
  int max_queued_queries = 64;
  /// Instrument destination for the tara.server.* series and the
  /// kMetricsRequest endpoint; nullptr = no metrics, empty endpoint.
  obs::MetricsRegistry* metrics = nullptr;
  /// Hot-standby role: reject kAppendWindow with kReadOnlyReplica
  /// instead of mutating the engine. Queries, info, metrics, and
  /// (chained) replication subscriptions all keep working.
  bool read_only = false;
  /// Test seam: runs on the worker after admission, immediately before
  /// engine execution. Lets tests hold the pool occupied deterministically
  /// to drive the shed and deadline paths. Never set in production.
  std::function<void()> pre_execute_hook;
};

/// A multi-threaded TCP server exposing the TARA wire protocol
/// (core/wire_format.h) over a TaraEngine: Execute / ExecuteBatch with
/// per-request deadlines and admission control, live AppendWindow
/// ingestion, a metrics endpoint, and info/ping.
///
/// Answers leave as the engine's bytes: a kResult reply is the frame
/// TaraEngine::ExecuteFrame returns — on a cache hit the cached frame
/// itself — and a batch reply copies each ok item's frame past its
/// header. The server neither decodes nor re-encodes an answer.
///
/// ## Threading model
///
/// One accept thread plus one handler thread per connection. Each
/// connection is request-response lockstep (the protocol is synchronous
/// per connection; open more connections for parallelism). Query
/// execution passes through an admission gate bounding the number of
/// concurrently executing queries to max_concurrent_queries with at most
/// max_queued_queries waiters:
///
/// - pool free           -> execute immediately
/// - pool busy, queue ok -> wait (bounded by the request deadline)
/// - queue full          -> shed NOW with kOverloaded (never stalls)
/// - deadline expires while queued -> kDeadlineExceeded, never executed
///
/// Deadlines gate admission, not execution: a query that starts is run
/// to completion (queries are not preemptible), so the deadline bounds
/// queueing delay — the quantity admission control can actually control.
///
/// Ingestion (kAppendWindow) bypasses the query gate and serializes on
/// the engine's internal commit mutex; queries keep answering from
/// pinned snapshots while an append runs (the PR-4 RCU design, now
/// end-to-end over a socket).
///
/// ## Error behavior
///
/// Every failure is a typed kError frame (wire codes of wire_format.h).
/// A payload-level parse error is recoverable (the connection survives);
/// a header-level parse error (bad magic/version/length) means framing
/// integrity is lost, so the server replies and closes that connection.
/// The engine's QueryErrors pass through with their frozen codes. The
/// server process itself never aborts on anything a client sends.
///
/// ## Metrics
///
/// With ServerOptions::metrics set, the server registers
///   tara.server.connections          total accepted (counter)
///   tara.server.active_connections   currently open (gauge)
///   tara.server.requests             execute + batch frames (counter)
///   tara.server.shed                 admission rejections (counter)
///   tara.server.deadline_exceeded    queued past deadline (counter)
///   tara.server.appends              windows ingested over the wire
///   tara.server.parse_errors         malformed frames/payloads
///   tara.server.request_latency_ns   admission + execution (histogram)
class TaraServer {
 public:
  /// `engine` must outlive the server. The engine may concurrently serve
  /// local callers and other servers; all synchronization is the
  /// engine's snapshot design.
  TaraServer(TaraEngine* engine, ServerOptions options);
  ~TaraServer();

  TaraServer(const TaraServer&) = delete;
  TaraServer& operator=(const TaraServer&) = delete;

  /// Binds, listens, and starts the accept loop. Returns an error
  /// message on failure (port in use, bad host, ...), nullopt on
  /// success. Call at most once.
  std::optional<std::string> Start();

  /// Drains: closes the listener, wakes queued requests, shuts every
  /// connection, joins all threads. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (resolves ephemeral port 0). Valid after Start().
  uint16_t port() const { return bound_port_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// Bounded concurrency gate for query execution (see class comment).
  class AdmissionGate {
   public:
    enum class Outcome { kAdmitted, kShed, kDeadline, kShutdown };

    AdmissionGate(int max_active, int max_waiting)
        : max_active_(max_active), max_waiting_(max_waiting) {}

    Outcome Enter(
        std::optional<std::chrono::steady_clock::time_point> deadline);
    void Leave();
    void Shutdown();

   private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int active_ = 0;
    int waiting_ = 0;
    bool stopping_ = false;
    const int max_active_;
    const int max_waiting_;
  };

  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  struct ServerMetrics {
    obs::Counter* connections = nullptr;
    obs::Gauge* active_connections = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* appends = nullptr;
    obs::Counter* parse_errors = nullptr;
    obs::Histogram* request_latency = nullptr;
    obs::Counter* replica_streams = nullptr;
    obs::Counter* replica_records = nullptr;
  };

  void AcceptLoop();
  void HandleConnection(Connection* connection);
  /// Dispatches one frame; returns false when the connection must close
  /// (header-level corruption or write failure).
  bool HandleFrame(Connection* connection, const FrameHeader& header,
                   const std::string& payload);
  /// Passes the admission gate. Returns nullopt when admitted (caller
  /// owes a gate_.Leave()); otherwise the encoded typed-error frame to
  /// send instead, with the shed/deadline counters already bumped.
  std::optional<std::string> TryAdmit(
      std::optional<std::chrono::steady_clock::time_point> deadline);
  bool HandleExecute(Connection* connection, const std::string& payload);
  bool HandleBatchExecute(Connection* connection, const std::string& payload);
  bool HandleAppendWindow(Connection* connection, const std::string& payload);
  /// Switches the connection from lockstep to server-push streaming:
  /// checkpoint handshake, then durably-acked records as they land, with
  /// heartbeats while caught up. Returns only when the peer goes away or
  /// the server stops — always false (the connection closes with the
  /// stream).
  bool HandleReplicaSubscribe(Connection* connection,
                              const std::string& payload);
  bool Reply(Connection* connection, const std::string& frame);
  /// Joins and discards connections whose handler has finished.
  void ReapFinishedConnections();

  TaraEngine* engine_;
  ServerOptions options_;
  ServerMetrics metrics_;
  AdmissionGate gate_;
  Socket listener_;
  /// eventfd the accept loop polls alongside the listener; Stop() writes
  /// it to wake the loop deterministically (shutdown() on a *listening*
  /// socket does not reliably wake poll/accept on all kernels).
  int wake_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace tara::server

#endif  // TARA_SERVER_TARA_SERVER_H_
