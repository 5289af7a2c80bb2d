#ifndef TARA_SERVER_TARA_CLIENT_H_
#define TARA_SERVER_TARA_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/expected.h"
#include "core/query_request.h"
#include "core/wire_format.h"
#include "server/net_io.h"
#include "txdb/transaction_database.h"

namespace tara::server {

/// Client-side pseudo-codes (range 300-399). These are NEVER sent on the
/// wire; TaraClient uses them to report local failures through the same
/// numeric space remote errors arrive in, so callers branch on one code.
/// Append-only like every other wire-code range.
inline constexpr uint32_t kClientTransportError = 300;  ///< socket I/O failed
inline constexpr uint32_t kClientProtocolError = 301;   ///< peer broke protocol
inline constexpr uint32_t kClientConnectionClosed = 302;  ///< orderly EOF
/// The caller's deadline expired at this end — the request may or may
/// not have reached (or been executed by) the server. The connection is
/// closed: a late response would desynchronize the lockstep stream.
inline constexpr uint32_t kClientTimedOut = 303;

/// A blocking client for the TARA wire protocol: one TCP connection in
/// request-response lockstep (the protocol is synchronous per
/// connection — open one client per concurrent in-flight request).
///
/// Every method returns Expected<_, WireError>. The error's `code` is a
/// frozen wire code: 1-99 query validation (the server's QueryError,
/// round-tripped), 100-199 serving-layer (overloaded, deadline
/// exceeded), 200-299 protocol/parse, 300-399 local transport. Helpers
/// below name the interesting ones.
class TaraClient {
 public:
  /// Opens a connection. `host` is anything the resolver understands:
  /// a hostname, an IPv4 dotted quad, or an IPv6 literal.
  static Expected<TaraClient, WireError> Connect(const std::string& host,
                                                 uint16_t port);

  TaraClient(TaraClient&&) = default;
  TaraClient& operator=(TaraClient&&) = default;

  /// Executes one query. deadline_ms > 0 bounds BOTH the server-side
  /// queueing delay (the server sheds with kDeadlineExceeded) and, as a
  /// backstop for a hung or unreachable server, the local socket waits
  /// (armed at deadline_ms plus a short grace so the server's own
  /// rejection wins when it is alive; expiry is kClientTimedOut and
  /// closes the connection). 0 means no deadline anywhere.
  Expected<QueryResult, WireError> Execute(const QueryRequest& request,
                                           uint32_t deadline_ms = 0);

  /// Executes a batch against one server-pinned snapshot. The outer
  /// Expected is the transport/admission fate of the whole batch; inner
  /// entries are positionally aligned per-request outcomes.
  Expected<std::vector<Expected<QueryResult, WireError>>, WireError>
  ExecuteBatch(const std::vector<QueryRequest>& requests,
               uint32_t deadline_ms = 0);

  /// Live-appends transactions [begin, end) of `db` as one new window.
  Expected<AppendAck, WireError> AppendWindow(const TransactionDatabase& db,
                                              size_t begin, size_t end);
  Expected<AppendAck, WireError> AppendWindow(const TransactionDatabase& db) {
    return AppendWindow(db, 0, db.size());
  }

  /// The server's metrics-registry snapshot (the /metrics endpoint).
  Expected<std::string, WireError> Metrics(bool json = false);

  /// Knowledge-base shape: window count, generation, rule count.
  Expected<ServerInfo, WireError> Info();

  /// Liveness probe. true on pong.
  Expected<bool, WireError> Ping();

  bool connected() const { return socket_.valid(); }

 private:
  explicit TaraClient(Socket socket) : socket_(std::move(socket)) {}

  /// Sends `frame` and reads exactly one response frame, turning
  /// transport failures and kError responses into WireError.
  /// deadline_ms > 0 arms the socket's send/receive deadlines for this
  /// round trip, 0 disarms them; the socket is touched only when that
  /// changes what is armed. Expiry maps to kClientTimedOut and closes the
  /// socket.
  Expected<DecodedFrame, WireError> RoundTrip(const std::string& frame,
                                              uint32_t deadline_ms = 0);

  Socket socket_;
  /// The send/receive timeout the socket carries, in ms (0 = none, as a
  /// new socket starts).
  uint32_t armed_socket_ms_ = 0;
  /// The response payload of the last RoundTrip (DecodedFrame::payload
  /// points into it).
  std::string response_payload_;
};

/// true when `error` is the server's admission-control shed signal.
inline bool IsOverloaded(const WireError& error) {
  return error.code == static_cast<uint32_t>(ServerWireError::kOverloaded);
}

/// true when the request's deadline expired while queued at the server.
inline bool IsDeadlineExceeded(const WireError& error) {
  return error.code ==
         static_cast<uint32_t>(ServerWireError::kDeadlineExceeded);
}

/// true when the deadline expired client-side (no response in time).
inline bool IsClientTimeout(const WireError& error) {
  return error.code == kClientTimedOut;
}

}  // namespace tara::server

#endif  // TARA_SERVER_TARA_CLIENT_H_
