#include "server/tara_server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/kb_storage.h"

namespace tara::server {

using Clock = std::chrono::steady_clock;

TaraServer::AdmissionGate::Outcome TaraServer::AdmissionGate::Enter(
    std::optional<Clock::time_point> deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) return Outcome::kShutdown;
  if (active_ < max_active_) {
    ++active_;
    return Outcome::kAdmitted;
  }
  if (waiting_ >= max_waiting_) return Outcome::kShed;
  ++waiting_;
  const auto slot_free = [this] { return active_ < max_active_ || stopping_; };
  bool got_slot = true;
  if (deadline.has_value()) {
    got_slot = cv_.wait_until(lock, *deadline, slot_free);
  } else {
    cv_.wait(lock, slot_free);
  }
  --waiting_;
  if (stopping_) return Outcome::kShutdown;
  if (!got_slot) return Outcome::kDeadline;
  ++active_;
  return Outcome::kAdmitted;
}

void TaraServer::AdmissionGate::Leave() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
  }
  cv_.notify_one();
}

void TaraServer::AdmissionGate::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
}

TaraServer::TaraServer(TaraEngine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      gate_(options_.max_concurrent_queries > 0
                ? options_.max_concurrent_queries
                : std::max(1u, std::thread::hardware_concurrency()),
            std::max(0, options_.max_queued_queries)) {
  if (options_.metrics != nullptr) {
    obs::MetricsRegistry* registry = options_.metrics;
    metrics_.connections = registry->GetCounter("tara.server.connections");
    metrics_.active_connections =
        registry->GetGauge("tara.server.active_connections");
    metrics_.requests = registry->GetCounter("tara.server.requests");
    metrics_.shed = registry->GetCounter("tara.server.shed");
    metrics_.deadline_exceeded =
        registry->GetCounter("tara.server.deadline_exceeded");
    metrics_.appends = registry->GetCounter("tara.server.appends");
    metrics_.parse_errors = registry->GetCounter("tara.server.parse_errors");
    metrics_.request_latency =
        registry->GetHistogram("tara.server.request_latency_ns");
    metrics_.replica_streams =
        registry->GetCounter("tara.server.replica_streams");
    metrics_.replica_records =
        registry->GetCounter("tara.server.replica_records");
  }
}

TaraServer::~TaraServer() { Stop(); }

std::optional<std::string> TaraServer::Start() {
  if (started_) return std::string("Start() called twice");
  auto listener =
      ListenTcp(options_.host, options_.port, kListenBacklog, &bound_port_);
  if (!listener.has_value()) return listener.error();
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return std::string("eventfd: ") + std::strerror(errno);
  }
  listener_ = std::move(listener.value());
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return std::nullopt;
}

void TaraServer::Stop() {
  if (!started_ || stopping_.exchange(true)) {
    // Not started, or another Stop already ran the shutdown sequence.
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  gate_.Shutdown();
  // Knock on the accept loop's eventfd: poll wakes immediately, the loop
  // sees stopping_ and exits — no polling interval, no reliance on
  // shutdown() waking a blocked accept on a *listening* socket (which
  // POSIX does not promise). Shutdown (a read of fd_) may race-freely
  // overlap the accept loop's own fd() reads; Close() writes fd_ = -1,
  // so it must wait until the accept thread has been joined.
  listener_.ShutdownBoth();
  const uint64_t knock = 1;
  [[maybe_unused]] const ssize_t wrote =
      ::write(wake_fd_, &knock, sizeof(knock));
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  ::close(wake_fd_);
  wake_fd_ = -1;
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    connection->socket.ShutdownBoth();
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void TaraServer::ReapFinishedConnections() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void TaraServer::AcceptLoop() {
  // Poll the listener alongside the Stop() eventfd with no timeout: the
  // loop sleeps until a connection arrives or Stop() knocks, so shutdown
  // is immediate and idle servers burn no wakeups. (The previous 100 ms
  // timed poll made every Stop() — and therefore every server test — up
  // to one interval slower, a fixed-sleep flake in disguise.)
  while (!stopping_.load(std::memory_order_relaxed)) {
    struct pollfd pfds[2] = {{listener_.fd(), POLLIN, 0},
                             {wake_fd_, POLLIN, 0}};
    const int ready = ::poll(pfds, 2, /*timeout_ms=*/-1);
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (ready <= 0) continue;  // EINTR
    if (pfds[1].revents != 0) break;  // Stop() knocked
    if ((pfds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      continue;  // aborted handshake between poll and accept
    }
    ReapFinishedConnections();
    auto connection = std::make_unique<Connection>();
    connection->socket = Socket(fd);
    if (metrics_.connections != nullptr) metrics_.connections->Increment();
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { HandleConnection(raw); });
  }
}

void TaraServer::HandleConnection(Connection* connection) {
  if (metrics_.active_connections != nullptr) {
    metrics_.active_connections->Add(1);
  }
  while (!stopping_.load(std::memory_order_relaxed)) {
    FrameRead frame = ReadFrame(connection->socket.fd(), kWireMaxPayloadBytes);
    if (frame.status == FrameRead::Status::kEof ||
        frame.status == FrameRead::Status::kIoError ||
        frame.status == FrameRead::Status::kTimeout) {
      break;
    }
    if (frame.status == FrameRead::Status::kParseError) {
      // Header-level corruption: framing integrity is gone, so reply
      // with the typed parse error and drop the connection.
      if (metrics_.parse_errors != nullptr) metrics_.parse_errors->Increment();
      Reply(connection, EncodeErrorFrame(frame.parse_error));
      break;
    }
    if (!HandleFrame(connection, frame.header, frame.payload)) break;
  }
  connection->socket.ShutdownBoth();
  if (metrics_.active_connections != nullptr) {
    metrics_.active_connections->Add(-1);
  }
  connection->done.store(true, std::memory_order_release);
}

bool TaraServer::HandleFrame(Connection* connection,
                             const FrameHeader& header,
                             const std::string& payload) {
  switch (header.type) {
    case FrameType::kExecute:
      return HandleExecute(connection, payload);
    case FrameType::kBatchExecute:
      return HandleBatchExecute(connection, payload);
    case FrameType::kAppendWindow:
      return HandleAppendWindow(connection, payload);
    case FrameType::kReplicaSubscribe:
      return HandleReplicaSubscribe(connection, payload);
    case FrameType::kMetricsRequest: {
      const bool json = !payload.empty() && payload[0] == 1;
      const std::string snapshot =
          options_.metrics == nullptr
              ? std::string()
              : (json ? options_.metrics->SnapshotJson()
                      : options_.metrics->SnapshotText());
      return Reply(connection,
                   EncodeFrame(FrameType::kMetricsResponse, snapshot));
    }
    case FrameType::kInfoRequest: {
      // Counts, never Snapshot(): on a lazily mapped engine a snapshot
      // decodes every window, and aborts on a corrupt block.
      ServerInfo info;
      info.window_count = engine_->window_count();
      info.generation = engine_->generation();
      info.rule_count = engine_->rule_count();
      return Reply(connection, EncodeInfoResponseFrame(info));
    }
    case FrameType::kPing:
      return Reply(connection, EncodeFrame(FrameType::kPong, {}));
    default: {
      // Valid frame, wrong direction (kResult at the server, ...): the
      // framing is intact, so answer typed and keep the connection.
      if (metrics_.parse_errors != nullptr) metrics_.parse_errors->Increment();
      std::string message = "frame type ";
      message += std::to_string(static_cast<unsigned>(header.type));
      message += " is not a client request";
      return Reply(connection,
                   EncodeErrorFrame(
                       ParseError{ParseError::Code::kUnexpectedFrame,
                                  std::move(message)}));
    }
  }
}

std::optional<std::string> TaraServer::TryAdmit(
    std::optional<Clock::time_point> deadline) {
  switch (gate_.Enter(deadline)) {
    case AdmissionGate::Outcome::kAdmitted:
      return std::nullopt;
    case AdmissionGate::Outcome::kShed:
      if (metrics_.shed != nullptr) metrics_.shed->Increment();
      return EncodeErrorFrame(ServerWireError::kOverloaded,
                              "query pool and wait queue are full; retry "
                              "with backoff");
    case AdmissionGate::Outcome::kDeadline:
      if (metrics_.deadline_exceeded != nullptr) {
        metrics_.deadline_exceeded->Increment();
      }
      return EncodeErrorFrame(ServerWireError::kDeadlineExceeded,
                              "deadline expired before a pool slot freed up");
    case AdmissionGate::Outcome::kShutdown:
      return EncodeErrorFrame(ServerWireError::kShuttingDown,
                              "server is draining");
  }
  return EncodeErrorFrame(ServerWireError::kInternal, "unreachable");
}

bool TaraServer::HandleExecute(Connection* connection,
                               const std::string& payload) {
  const Clock::time_point received = Clock::now();
  if (metrics_.requests != nullptr) metrics_.requests->Increment();
  auto command = DecodeExecutePayload(payload);
  if (!command.has_value()) {
    if (metrics_.parse_errors != nullptr) metrics_.parse_errors->Increment();
    return Reply(connection, EncodeErrorFrame(command.error()));
  }
  std::optional<Clock::time_point> deadline;
  if (command->deadline_ms > 0) {
    deadline = received + std::chrono::milliseconds(command->deadline_ms);
  }
  if (auto rejection = TryAdmit(deadline)) {
    return Reply(connection, *rejection);
  }
  if (options_.pre_execute_hook) options_.pre_execute_hook();
  // The engine's bytes go out as they are: a hit is the cached frame,
  // a miss the one encode that also filled the cache.
  const auto frame = engine_->ExecuteFrame(command->request);
  gate_.Leave();
  if (metrics_.request_latency != nullptr) {
    metrics_.request_latency->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             received)
            .count()));
  }
  if (!frame.has_value()) {
    return Reply(connection, EncodeErrorFrame(frame.error()));
  }
  return Reply(connection, **frame);
}

bool TaraServer::HandleBatchExecute(Connection* connection,
                                    const std::string& payload) {
  const Clock::time_point received = Clock::now();
  if (metrics_.requests != nullptr) metrics_.requests->Increment();
  auto command = DecodeBatchExecutePayload(payload);
  if (!command.has_value()) {
    if (metrics_.parse_errors != nullptr) metrics_.parse_errors->Increment();
    return Reply(connection, EncodeErrorFrame(command.error()));
  }
  std::optional<Clock::time_point> deadline;
  if (command->deadline_ms > 0) {
    deadline = received + std::chrono::milliseconds(command->deadline_ms);
  }
  // A batch occupies one pool slot; its requests fan out over the
  // engine's own query pool (ExecuteBatch), so admission cost is
  // per-batch, not per-contained-request.
  if (auto rejection = TryAdmit(deadline)) {
    return Reply(connection, *rejection);
  }
  if (options_.pre_execute_hook) options_.pre_execute_hook();
  const auto frames = engine_->ExecuteBatchFrames(command->requests);
  gate_.Leave();
  if (metrics_.request_latency != nullptr) {
    metrics_.request_latency->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             received)
            .count()));
  }
  return Reply(connection, EncodeBatchResultFrame(frames));
}

bool TaraServer::HandleAppendWindow(Connection* connection,
                                    const std::string& payload) {
  auto db = DecodeAppendWindowPayload(payload);
  if (!db.has_value()) {
    if (metrics_.parse_errors != nullptr) metrics_.parse_errors->Increment();
    return Reply(connection, EncodeErrorFrame(db.error()));
  }
  if (options_.read_only) {
    return Reply(connection,
                 EncodeErrorFrame(ServerWireError::kReadOnlyReplica,
                                  "this server is a read-only replica; "
                                  "send appends to the primary"));
  }
  if (db->empty()) {
    return Reply(connection,
                 EncodeErrorFrame(ServerWireError::kBadRequest,
                                  "AppendWindow with zero transactions"));
  }
  if (auto error = engine_->MaterializeAll()) {
    return Reply(connection, EncodeErrorFrame(*error));
  }
  const WindowId window = engine_->AppendWindow(*db, 0, db->size());
  if (metrics_.appends != nullptr) metrics_.appends->Increment();
  return Reply(connection,
               EncodeAppendAckFrame(window, engine_->generation()));
}

bool TaraServer::HandleReplicaSubscribe(Connection* connection,
                                        const std::string& payload) {
  auto subscribe = DecodeReplicaSubscribePayload(payload);
  if (!subscribe.has_value()) {
    if (metrics_.parse_errors != nullptr) metrics_.parse_errors->Increment();
    Reply(connection, EncodeErrorFrame(subscribe.error()));
    return true;  // lockstep framing is intact; the connection survives
  }
  // The stream serves whole snapshots: decode everything now, or refuse
  // with the storage error instead of aborting in Snapshot().
  if (auto error = engine_->MaterializeAll()) {
    return Reply(connection, EncodeErrorFrame(*error));
  }
  // Publication is the replication contract: a window is logged and
  // fdatasync'd before it is published, so every published window is
  // durable and safe to stream.
  uint32_t next = subscribe->from_window;
  {
    const auto snapshot = engine_->Snapshot();
    if (next > snapshot->window_count()) {
      // A follower ahead of this primary holds windows we never
      // published — it is replicating the wrong knowledge base (or the
      // wrong incarnation of it). Refuse rather than stream a diverging
      // tail.
      std::string message = "subscription starts at window ";
      message += std::to_string(next);
      message += " but the primary has ";
      message += std::to_string(snapshot->window_count());
      message += " durable windows";
      return Reply(connection, EncodeErrorFrame(ServerWireError::kBadRequest,
                                                std::move(message)));
    }
    if (metrics_.replica_streams != nullptr) {
      metrics_.replica_streams->Increment();
    }
    // Handshake: announce this engine's option fingerprint and position
    // so the follower can refuse a stream mined at other floors (the same
    // compatibility gate AttachWal applies to a foreign log).
    const KbOptions& engine_options = snapshot->options();
    ReplicaCheckpoint checkpoint;
    checkpoint.min_support_floor = engine_options.min_support_floor;
    checkpoint.min_confidence_floor = engine_options.min_confidence_floor;
    checkpoint.max_itemset_size = engine_options.max_itemset_size;
    checkpoint.build_content_index = engine_options.build_content_index;
    checkpoint.window_count = snapshot->window_count();
    checkpoint.generation = snapshot->generation();
    if (!Reply(connection, EncodeReplicaCheckpointFrame(checkpoint))) {
      return false;
    }
  }
  const auto heartbeat_wait =
      std::chrono::milliseconds(kReplicationHeartbeatMs);
  while (!stopping_.load(std::memory_order_relaxed)) {
    const uint32_t published =
        engine_->WaitForWindows(next + 1, heartbeat_wait);
    if (stopping_.load(std::memory_order_relaxed)) break;
    if (published <= next) {
      // Still caught up: heartbeat, which doubles as peer-liveness
      // detection (a vanished follower fails the write).
      if (!Reply(connection, EncodeReplicaHeartbeatFrame(
                                 published, engine_->generation()))) {
        return false;
      }
      continue;
    }
    const auto snapshot = engine_->Snapshot();
    for (; next < snapshot->window_count(); ++next) {
      const std::vector<uint8_t> segment = EncodeWindowSegment(*snapshot, next);
      const std::string frame = EncodeReplicaRecordFrame(
          next, snapshot->segment(next).total_transactions,
          snapshot->generation(),
          std::string_view(reinterpret_cast<const char*>(segment.data()),
                           segment.size()));
      if (!Reply(connection, frame)) return false;
      if (metrics_.replica_records != nullptr) {
        metrics_.replica_records->Increment();
      }
    }
  }
  return false;  // server draining: close the stream
}

bool TaraServer::Reply(Connection* connection, const std::string& frame) {
  std::string error;
  return WriteAll(connection->socket.fd(), frame, &error);
}

}  // namespace tara::server
