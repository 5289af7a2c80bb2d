#include "server/tara_client.h"

namespace tara::server {
namespace {

WireError Transport(std::string message) {
  return WireError{kClientTransportError, std::move(message)};
}

WireError Protocol(std::string message) {
  return WireError{kClientProtocolError, std::move(message)};
}

WireError Closed() {
  return WireError{kClientConnectionClosed,
                   "server closed the connection before responding"};
}

WireError TimedOut(uint32_t deadline_ms, std::string_view when) {
  return WireError{kClientTimedOut,
                   "deadline of " + std::to_string(deadline_ms) +
                       "ms expired " + std::string(when) +
                       " (connection closed)"};
}

/// Local socket deadline backing a request deadline: the server enforces
/// `deadline_ms` itself and its rejection frame must win the race when
/// it is alive, so the local guard fires a grace period later — it is
/// the backstop for a hung or unreachable server, not the primary timer.
constexpr uint32_t kLocalDeadlineGraceMs = 1000;

uint32_t SocketDeadlineMs(uint32_t deadline_ms) {
  return deadline_ms == 0 ? 0 : deadline_ms + kLocalDeadlineGraceMs;
}

/// Folds a ParseError from decoding the *server's* bytes into the
/// client-protocol pseudo-code (the numeric parse code is preserved in
/// the message; it describes the peer's malformed output, not ours).
WireError PeerParse(const ParseError& error) {
  std::string message = "malformed server response (";
  message += ParseErrorCodeName(error.code);
  message += "): ";
  message += error.message;
  return Protocol(std::move(message));
}

}  // namespace

Expected<TaraClient, WireError> TaraClient::Connect(const std::string& host,
                                                    uint16_t port) {
  auto socket = ConnectTcp(host, port);
  if (!socket.has_value()) return Transport(socket.error());
  return TaraClient(std::move(socket.value()));
}

Expected<DecodedFrame, WireError> TaraClient::RoundTrip(
    const std::string& frame, uint32_t deadline_ms) {
  std::string error;
  const uint32_t socket_ms = SocketDeadlineMs(deadline_ms);
  if (socket_ms != armed_socket_ms_) {
    if (!SetSocketTimeouts(socket_.fd(), socket_ms, &error)) {
      return Transport(std::move(error));
    }
    armed_socket_ms_ = socket_ms;
  }
  bool send_timed_out = false;
  if (!WriteAll(socket_.fd(), frame, &error, &send_timed_out)) {
    if (send_timed_out) {
      socket_.Close();
      return TimedOut(deadline_ms, "sending the request");
    }
    return Transport(std::move(error));
  }
  FrameRead response = ReadFrame(socket_.fd(), kWireMaxPayloadBytes);
  switch (response.status) {
    case FrameRead::Status::kEof:
      return Closed();
    case FrameRead::Status::kIoError:
      return Transport(std::move(response.io_message));
    case FrameRead::Status::kTimeout:
      // The response may still arrive later; reading it as the answer
      // to the NEXT request would desynchronize the lockstep stream, so
      // the connection is unusable from here on.
      socket_.Close();
      return TimedOut(deadline_ms, "waiting for the response");
    case FrameRead::Status::kParseError:
      return PeerParse(response.parse_error);
    case FrameRead::Status::kOk:
      break;
  }
  response_payload_ = std::move(response.payload);
  if (response.header.type == FrameType::kError) {
    auto wire_error = DecodeErrorPayload(response_payload_);
    if (!wire_error.has_value()) return PeerParse(wire_error.error());
    return *std::move(wire_error);
  }
  DecodedFrame decoded;
  decoded.header = response.header;
  decoded.payload = response_payload_;
  return decoded;
}

Expected<QueryResult, WireError> TaraClient::Execute(
    const QueryRequest& request, uint32_t deadline_ms) {
  auto response = RoundTrip(EncodeExecuteFrame(request, deadline_ms),
                            deadline_ms);
  if (!response.has_value()) return response.error();
  if (response->header.type != FrameType::kResult) {
    return Protocol("expected a kResult frame, got type " +
                    std::to_string(
                        static_cast<unsigned>(response->header.type)));
  }
  auto result = DecodeResultPayload(response->payload);
  if (!result.has_value()) return PeerParse(result.error());
  if (result->first != request.kind) {
    return Protocol("server answered with a different query kind");
  }
  return std::move(result).value().second;
}

Expected<std::vector<Expected<QueryResult, WireError>>, WireError>
TaraClient::ExecuteBatch(const std::vector<QueryRequest>& requests,
                         uint32_t deadline_ms) {
  auto response = RoundTrip(EncodeBatchExecuteFrame(requests, deadline_ms),
                            deadline_ms);
  if (!response.has_value()) return response.error();
  if (response->header.type != FrameType::kBatchResult) {
    return Protocol("expected a kBatchResult frame, got type " +
                    std::to_string(
                        static_cast<unsigned>(response->header.type)));
  }
  auto results = DecodeBatchResultPayload(response->payload);
  if (!results.has_value()) return PeerParse(results.error());
  if (results->size() != requests.size()) {
    return Protocol("server answered " + std::to_string(results->size()) +
                    " results for " + std::to_string(requests.size()) +
                    " requests");
  }
  return *std::move(results);
}

Expected<AppendAck, WireError> TaraClient::AppendWindow(
    const TransactionDatabase& db, size_t begin, size_t end) {
  auto response = RoundTrip(EncodeAppendWindowFrame(db, begin, end));
  if (!response.has_value()) return response.error();
  if (response->header.type != FrameType::kAppendAck) {
    return Protocol("expected a kAppendAck frame");
  }
  auto ack = DecodeAppendAckPayload(response->payload);
  if (!ack.has_value()) return PeerParse(ack.error());
  return *ack;
}

Expected<std::string, WireError> TaraClient::Metrics(bool json) {
  std::string payload(1, json ? char(1) : char(0));
  auto response =
      RoundTrip(EncodeFrame(FrameType::kMetricsRequest, payload));
  if (!response.has_value()) return response.error();
  if (response->header.type != FrameType::kMetricsResponse) {
    return Protocol("expected a kMetricsResponse frame");
  }
  return std::string(response->payload);
}

Expected<ServerInfo, WireError> TaraClient::Info() {
  auto response = RoundTrip(EncodeFrame(FrameType::kInfoRequest, {}));
  if (!response.has_value()) return response.error();
  if (response->header.type != FrameType::kInfoResponse) {
    return Protocol("expected a kInfoResponse frame");
  }
  auto info = DecodeInfoResponsePayload(response->payload);
  if (!info.has_value()) return PeerParse(info.error());
  return *info;
}

Expected<bool, WireError> TaraClient::Ping() {
  auto response = RoundTrip(EncodeFrame(FrameType::kPing, {}));
  if (!response.has_value()) return response.error();
  if (response->header.type != FrameType::kPong) {
    return Protocol("expected a kPong frame");
  }
  return true;
}

}  // namespace tara::server
