#include "server/replica.h"

#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/wire_format.h"
#include "server/tara_server.h"

namespace tara::server {

// A caught-up primary sends a heartbeat every kReplicationHeartbeatMs; a
// healthy idle stream must never read as a dead peer, even when a few
// heartbeats run late.
static_assert(kReplicaIoTimeoutMs > 4 * kReplicationHeartbeatMs);

namespace {

std::string DescribeFrameFailure(const FrameRead& read) {
  switch (read.status) {
    case FrameRead::Status::kEof:
      return "the primary closed the stream";
    case FrameRead::Status::kTimeout:
      return "the stream went silent past the io timeout";
    case FrameRead::Status::kParseError:
      return "hostile frame header from the primary: " +
             read.parse_error.message;
    case FrameRead::Status::kIoError:
    default:
      return "stream read failed: " + read.io_message;
  }
}

}  // namespace

ReplicaEngine::ReplicaEngine(ReplicaOptions options)
    : options_(std::move(options)) {
  if (options_.metrics != nullptr) {
    generation_gauge_ = options_.metrics->GetGauge("tara.replica.generation");
    lag_gauge_ = options_.metrics->GetGauge("tara.replica.lag_windows");
    reconnects_counter_ =
        options_.metrics->GetCounter("tara.replica.reconnects");
    records_counter_ =
        options_.metrics->GetCounter("tara.replica.records_applied");
  }
}

ReplicaEngine::~ReplicaEngine() { Stop(); }

std::optional<std::string> ReplicaEngine::Start() {
  if (started_) return "ReplicaEngine::Start called twice";
  if (!options_.kb_dir.empty()) {
    OpenOptions open;
    open.kb_dir = options_.kb_dir;
    open.mode = OpenMode::kEager;
    open.metrics = options_.metrics;
    open.parallelism = options_.parallelism;
    open.query_cache_bytes = options_.query_cache_bytes;
    auto opened = OpenKnowledgeBase(open);
    if (!opened.has_value()) {
      return "replica checkpoint " + options_.kb_dir +
             " failed to open: " + opened.error().message;
    }
    engine_ = std::make_unique<TaraEngine>(std::move(opened).value());
  }
  // First subscribe runs synchronously so a bad endpoint, a floor
  // mismatch, or a hostile handshake is a returned error the operator
  // sees immediately — not a silent retry loop.
  Socket first;
  if (auto error = OpenStream(&first)) return error;
  started_ = true;
  tail_thread_ = std::thread(
      [this, socket = std::make_shared<Socket>(std::move(first))]() mutable {
        Socket live = std::move(*socket);
        socket.reset();
        uint32_t backoff_ms = options_.backoff_initial_ms;
        bool have_stream = true;
        while (!stopping_.load(std::memory_order_relaxed)) {
          if (!have_stream) {
            if (auto error = OpenStream(&live)) {
              NoteError(*error);
              if (!SleepBackoff(&backoff_ms)) break;
              continue;
            }
            reconnects_.fetch_add(1, std::memory_order_relaxed);
            if (reconnects_counter_ != nullptr) {
              reconnects_counter_->Increment();
            }
          }
          have_stream = false;
          backoff_ms = options_.backoff_initial_ms;
          const std::string error = RunSession(&live);
          {
            std::lock_guard<std::mutex> lock(socket_mutex_);
            live_fd_ = -1;
          }
          live.Close();
          {
            std::lock_guard<std::mutex> lock(state_mutex_);
            connected_ = false;
          }
          state_cv_.notify_all();
          if (stopping_.load(std::memory_order_relaxed)) break;
          NoteError(error);
          if (!SleepBackoff(&backoff_ms)) break;
        }
      });
  return std::nullopt;
}

void ReplicaEngine::Stop() {
  stopping_.store(true, std::memory_order_relaxed);
  state_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(socket_mutex_);
    if (live_fd_ >= 0) ::shutdown(live_fd_, SHUT_RDWR);
  }
  if (tail_thread_.joinable()) tail_thread_.join();
}

std::optional<std::string> ReplicaEngine::OpenStream(Socket* socket) {
  const std::string endpoint =
      options_.primary_host + ":" + std::to_string(options_.primary_port);
  auto connected = ConnectTcp(options_.primary_host, options_.primary_port);
  if (!connected.has_value()) {
    return "connect to primary " + endpoint + " failed: " + connected.error();
  }
  Socket stream = std::move(connected).value();
  std::string io_error;
  if (!SetSocketTimeouts(stream.fd(), kReplicaIoTimeoutMs, &io_error)) {
    return io_error;
  }
  const uint32_t from = engine_ != nullptr ? engine_->window_count() : 0;
  if (!WriteAll(stream.fd(), EncodeReplicaSubscribeFrame(from), &io_error)) {
    return "subscribe to " + endpoint + " failed: " + io_error;
  }
  FrameRead read = ReadFrame(stream.fd(), kWireMaxPayloadBytes);
  if (read.status != FrameRead::Status::kOk) {
    return "handshake with " + endpoint + ": " + DescribeFrameFailure(read);
  }
  if (read.header.type == FrameType::kError) {
    auto wire_error = DecodeErrorPayload(read.payload);
    if (wire_error.has_value()) {
      return "primary refused the subscription (code " +
             std::to_string(wire_error->code) + "): " + wire_error->message;
    }
    return "primary refused the subscription with a malformed error frame";
  }
  if (read.header.type != FrameType::kReplicaCheckpoint) {
    return "expected a checkpoint handshake, got frame type " +
           std::to_string(static_cast<int>(read.header.type));
  }
  auto checkpoint = DecodeReplicaCheckpointPayload(read.payload);
  if (!checkpoint.has_value()) {
    return "checkpoint handshake does not decode: " +
           checkpoint.error().message;
  }
  if (engine_ == nullptr) {
    // Stream bootstrap: the handshake's option fingerprint becomes the
    // local engine's construction options. The payload decoder already
    // validated it, so constructing cannot abort.
    KbOptions kb;
    kb.min_support_floor = checkpoint->min_support_floor;
    kb.min_confidence_floor = checkpoint->min_confidence_floor;
    kb.max_itemset_size = checkpoint->max_itemset_size;
    kb.build_content_index = checkpoint->build_content_index;
    kb.metrics = options_.metrics;
    kb.parallelism = options_.parallelism;
    kb.query_cache_bytes = options_.query_cache_bytes;
    engine_ = std::make_unique<TaraEngine>(kb);
  } else {
    // Same compatibility gate AttachWal applies to a foreign log: a
    // stream mined at other floors must never be replayed here.
    if (!SameOptionsFingerprint(engine_->options(), *checkpoint)) {
      return "primary " + endpoint +
             " was built with different options than the local checkpoint "
             "(floors/itemset cap/content index mismatch); refusing to "
             "replay a foreign stream";
    }
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    connected_ = true;
    primary_windows_ = std::max(primary_windows_, checkpoint->window_count);
    last_error_.clear();
  }
  state_cv_.notify_all();
  UpdateLagMetrics();
  {
    std::lock_guard<std::mutex> lock(socket_mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      return "replica is stopping";
    }
    live_fd_ = stream.fd();
  }
  *socket = std::move(stream);
  return std::nullopt;
}

std::string ReplicaEngine::RunSession(Socket* socket) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    FrameRead read = ReadFrame(socket->fd(), kWireMaxPayloadBytes);
    if (read.status != FrameRead::Status::kOk) {
      return DescribeFrameFailure(read);
    }
    switch (read.header.type) {
      case FrameType::kReplicaRecord: {
        if (auto error = ApplyRecord(read.payload)) return *error;
        break;
      }
      case FrameType::kReplicaHeartbeat: {
        auto heartbeat = DecodeReplicaHeartbeatPayload(read.payload);
        if (!heartbeat.has_value()) {
          return "heartbeat does not decode: " + heartbeat.error().message;
        }
        {
          std::lock_guard<std::mutex> lock(state_mutex_);
          primary_windows_ =
              std::max(primary_windows_, heartbeat->window_count);
        }
        UpdateLagMetrics();
        break;
      }
      case FrameType::kError: {
        auto wire_error = DecodeErrorPayload(read.payload);
        if (wire_error.has_value()) {
          return "primary reported error " +
                 std::to_string(wire_error->code) + ": " +
                 wire_error->message;
        }
        return "primary sent a malformed error frame";
      }
      default:
        return "unexpected frame type " +
               std::to_string(static_cast<int>(read.header.type)) +
               " on the replication stream";
    }
  }
  return "replica is stopping";
}

std::optional<std::string> ReplicaEngine::ApplyRecord(
    const std::string& payload) {
  auto record = DecodeReplicaRecordPayload(payload);
  if (!record.has_value()) {
    return "record frame does not decode: " + record.error().message;
  }
  const uint32_t next = engine_->window_count();
  if (record->window < next) {
    // Duplicate of a window already applied (the primary streamed from
    // an older position than we asked for) — identical bytes by the
    // determinism contract, so skipping is safe. Mirrors WAL replay.
    return std::nullopt;
  }
  if (record->window > next) {
    return "stream gap: got window " + std::to_string(record->window) +
           " but the next expected window is " + std::to_string(next);
  }
  const auto* data = reinterpret_cast<const uint8_t*>(record->segment.data());
  auto parsed = ParseWindowSegment(data, record->segment.size());
  if (!parsed.has_value()) {
    return "window " + std::to_string(record->window) +
           " segment does not parse: " + parsed.error().message;
  }
  if (parsed->window != record->window) {
    return "record header says window " + std::to_string(record->window) +
           " but the segment blob says " + std::to_string(parsed->window);
  }
  parsed.value().total_transactions = record->total_transactions;
  std::vector<PersistedWindow> batch;
  batch.push_back(std::move(parsed).value());
  if (auto error = engine_->CommitPersistedWindows(std::move(batch))) {
    return "window " + std::to_string(record->window) +
           " does not continue this knowledge base: " + error->message;
  }
  if (records_counter_ != nullptr) records_counter_->Increment();
  records_applied_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    primary_windows_ = std::max(primary_windows_, record->window + 1);
  }
  state_cv_.notify_all();
  UpdateLagMetrics();
  return std::nullopt;
}

bool ReplicaEngine::SleepBackoff(uint32_t* backoff_ms) {
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait_for(lock, std::chrono::milliseconds(*backoff_ms), [&] {
    return stopping_.load(std::memory_order_relaxed);
  });
  *backoff_ms = std::min(*backoff_ms * 2, kReplicaBackoffMaxMs);
  return !stopping_.load(std::memory_order_relaxed);
}

void ReplicaEngine::NoteError(const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    last_error_ = message;
  }
  state_cv_.notify_all();
}

void ReplicaEngine::UpdateLagMetrics() {
  if (engine_ == nullptr) return;
  const uint32_t local = engine_->window_count();
  if (generation_gauge_ != nullptr) {
    generation_gauge_->Set(static_cast<double>(engine_->generation()));
  }
  if (lag_gauge_ != nullptr) {
    uint32_t primary = 0;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      primary = primary_windows_;
    }
    lag_gauge_->Set(primary > local ? static_cast<double>(primary - local)
                                    : 0.0);
  }
}

ReplicaEngine::Status ReplicaEngine::GetStatus() const {
  Status status;
  std::lock_guard<std::mutex> lock(state_mutex_);
  status.connected = connected_;
  if (engine_ != nullptr) {
    status.window_count = engine_->window_count();
    status.generation = engine_->generation();
  }
  status.primary_windows = primary_windows_;
  status.lag_windows = status.primary_windows > status.window_count
                           ? status.primary_windows - status.window_count
                           : 0;
  status.records_applied = records_applied_.load(std::memory_order_relaxed);
  status.reconnects = reconnects_.load(std::memory_order_relaxed);
  status.last_error = last_error_;
  return status;
}

uint32_t ReplicaEngine::WaitForWindows(
    uint32_t windows, std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(state_mutex_);
  state_cv_.wait_for(lock, timeout, [&] {
    return stopping_.load(std::memory_order_relaxed) ||
           (engine_ != nullptr && engine_->window_count() >= windows);
  });
  return engine_ != nullptr ? engine_->window_count() : 0;
}

}  // namespace tara::server
