#include "core/wire_format.h"

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/byte_codec.h"

namespace tara {
namespace {

using codec::ByteReader;
using codec::StringWriter;

ParseError Truncated(std::string_view what) {
  return ParseError{ParseError::Code::kTruncatedPayload,
                    "payload ended inside " + std::string(what)};
}

ParseError BadBody(std::string_view what) {
  return ParseError{ParseError::Code::kBadRequestBody, std::string(what)};
}

/// A batch count past kWireMaxBatchRequests, as `code`.
ParseError OverBatchCap(ParseError::Code code, uint64_t count) {
  std::ostringstream message;
  message << "batch counts " << count << " items; a frame may carry at most "
          << kWireMaxBatchRequests;
  return ParseError{code, message.str()};
}

ParseError Trailing(size_t extra) {
  std::ostringstream message;
  message << extra << " unexpected bytes after a well-formed structure";
  return ParseError{ParseError::Code::kTrailingBytes, message.str()};
}

/// An id too wide for its 32-bit type: narrowing it would name another.
ParseError TooWide(std::string_view what) {
  return BadBody(std::string(what) + " holds an id past 32 bits");
}

/// Reads one id of `what`: a short field is truncated, an id past its
/// type a bad body.
template <typename Id>
std::optional<ParseError> ReadId(ByteReader* in, std::string_view what,
                                 Id* out) {
  ByteReader probe = *in;
  if (in->Id(out)) return std::nullopt;
  uint64_t wide = 0;
  return probe.U64(&wide) ? TooWide(what) : Truncated(what);
}

/// ReadId for a list of ids.
template <typename Id>
std::optional<ParseError> ReadIds(ByteReader* in, std::string_view what,
                                  std::vector<Id>* out) {
  ByteReader probe = *in;
  if (in->IdList(out)) return std::nullopt;
  std::vector<uint64_t> wide;
  return probe.IdList(&wide) ? TooWide(what) : Truncated(what);
}

bool ReadSetting(ByteReader* in, ParameterSetting* out) {
  return in->F64(&out->min_support) && in->F64(&out->min_confidence);
}

/// MatchMode arrives as one byte; only the two defined values are legal.
bool ReadMode(ByteReader* in, MatchMode* out) {
  uint8_t mode = 0;
  if (!in->Byte(&mode) || mode > 1) return false;
  *out = static_cast<MatchMode>(mode);
  return true;
}

/// Writes the 8-byte header at `out`, which has room for it.
void WriteFrameHeader(FrameType type, size_t payload_size, char* out) {
  out[0] = static_cast<char>(kWireMagic0);
  out[1] = static_cast<char>(kWireMagic1);
  out[2] = static_cast<char>(kWireProtocolVersion);
  out[3] = static_cast<char>(type);
  codec::WriteFixed(static_cast<uint32_t>(payload_size), out + 4);
}

}  // namespace

std::string_view ParseErrorCodeName(ParseError::Code code) {
  switch (code) {
    case ParseError::Code::kTruncatedHeader:
      return "truncated_header";
    case ParseError::Code::kBadMagic:
      return "bad_magic";
    case ParseError::Code::kUnsupportedVersion:
      return "unsupported_version";
    case ParseError::Code::kUnknownFrameType:
      return "unknown_frame_type";
    case ParseError::Code::kFrameTooLarge:
      return "frame_too_large";
    case ParseError::Code::kTruncatedPayload:
      return "truncated_payload";
    case ParseError::Code::kUnknownQueryKind:
      return "unknown_query_kind";
    case ParseError::Code::kBadRequestBody:
      return "bad_request_body";
    case ParseError::Code::kBadResultBody:
      return "bad_result_body";
    case ParseError::Code::kBadErrorBody:
      return "bad_error_body";
    case ParseError::Code::kTrailingBytes:
      return "trailing_bytes";
    case ParseError::Code::kUnexpectedFrame:
      return "unexpected_frame";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& out, const ParseError& error) {
  return out << "ParseError[" << ParseErrorCodeName(error.code)
             << "]: " << error.message;
}

std::string_view WireErrorCodeName(uint32_t code) {
  if (const auto query = QueryErrorFromWireCode(code)) {
    return QueryErrorCodeName(*query);
  }
  switch (static_cast<ServerWireError>(code)) {
    case ServerWireError::kOverloaded:
      return "overloaded";
    case ServerWireError::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServerWireError::kShuttingDown:
      return "shutting_down";
    case ServerWireError::kBadRequest:
      return "bad_request";
    case ServerWireError::kInternal:
      return "internal";
    case ServerWireError::kReadOnlyReplica:
      return "read_only_replica";
    default:
      break;
  }
  if (code >= 200 && code <= 211) {
    return ParseErrorCodeName(static_cast<ParseError::Code>(code));
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& out, const WireError& error) {
  return out << "WireError[" << error.code << " "
             << WireErrorCodeName(error.code) << "]: " << error.message;
}

void AppendFrameHeader(FrameType type, size_t payload_size,
                       std::string* out) {
  const size_t at = out->size();
  out->resize(at + kWireHeaderBytes);
  WriteFrameHeader(type, payload_size, out->data() + at);
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kWireHeaderBytes + payload.size());
  AppendFrameHeader(type, payload.size(), &out);
  out.append(payload);
  return out;
}

Expected<FrameHeader, ParseError> DecodeFrameHeader(std::string_view bytes,
                                                    uint32_t max_payload) {
  if (bytes.size() < kWireHeaderBytes) {
    std::ostringstream message;
    message << "frame header needs " << kWireHeaderBytes << " bytes, got "
            << bytes.size();
    return ParseError{ParseError::Code::kTruncatedHeader, message.str()};
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  if (data[0] != kWireMagic0 || data[1] != kWireMagic1) {
    return ParseError{ParseError::Code::kBadMagic,
                      "bytes do not start with the TARA wire magic 'TW'"};
  }
  if (data[2] != kWireProtocolVersion) {
    std::ostringstream message;
    message << "frame speaks protocol version "
            << static_cast<unsigned>(data[2]) << "; this build speaks "
            << static_cast<unsigned>(kWireProtocolVersion);
    return ParseError{ParseError::Code::kUnsupportedVersion, message.str()};
  }
  const uint8_t type = data[3];
  if (type < static_cast<uint8_t>(FrameType::kExecute) ||
      type > static_cast<uint8_t>(FrameType::kReplicaHeartbeat)) {
    std::ostringstream message;
    message << "unknown frame type " << static_cast<unsigned>(type);
    return ParseError{ParseError::Code::kUnknownFrameType, message.str()};
  }
  const uint32_t size = codec::GetFixed<uint32_t>(data + 4);
  if (size > max_payload || size > kWireMaxPayloadBytes) {
    std::ostringstream message;
    message << "declared payload of " << size << " bytes exceeds the limit "
            << std::min(max_payload, kWireMaxPayloadBytes);
    return ParseError{ParseError::Code::kFrameTooLarge, message.str()};
  }
  FrameHeader header;
  header.version = data[2];
  header.type = static_cast<FrameType>(type);
  header.payload_size = size;
  return header;
}

Expected<DecodedFrame, ParseError> DecodeFrame(std::string_view bytes,
                                               uint32_t max_payload) {
  auto header = DecodeFrameHeader(bytes, max_payload);
  if (!header.has_value()) return header.error();
  const size_t total = kWireHeaderBytes + header->payload_size;
  if (bytes.size() < total) {
    std::ostringstream message;
    message << "header declares a " << header->payload_size
            << "-byte payload but only " << bytes.size() - kWireHeaderBytes
            << " bytes follow";
    return ParseError{ParseError::Code::kTruncatedPayload, message.str()};
  }
  if (bytes.size() > total) return Trailing(bytes.size() - total);
  DecodedFrame frame;
  frame.header = *header;
  frame.payload = bytes.substr(kWireHeaderBytes, header->payload_size);
  return frame;
}

Expected<QueryRequest, ParseError> DecodeQueryRequest(
    std::string_view bytes) {
  ByteReader in(bytes);
  uint8_t kind_byte = 0;
  if (!in.Byte(&kind_byte)) return Truncated("the kind byte");
  if (kind_byte >= kQueryKindCount) {
    std::ostringstream message;
    message << "kind byte " << static_cast<unsigned>(kind_byte)
            << " names no QueryKind (this build knows 0-"
            << kQueryKindCount - 1 << ")";
    return ParseError{ParseError::Code::kUnknownQueryKind, message.str()};
  }
  QueryRequest request;
  request.kind = static_cast<QueryKind>(kind_byte);
  switch (request.kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kRegion:
    case QueryKind::kContentView:
      if (auto error = ReadId(&in, "the window id", &request.window)) {
        return *error;
      }
      if (!ReadSetting(&in, &request.setting)) {
        return Truncated("the parameter setting");
      }
      break;
    case QueryKind::kMineWindows:
      if (!ReadMode(&in, &request.mode)) {
        return BadBody("missing or out-of-range match-mode byte");
      }
      if (!ReadSetting(&in, &request.setting)) {
        return Truncated("the parameter setting");
      }
      if (auto error = ReadIds(&in, "the window id list", &request.windows)) {
        return *error;
      }
      break;
    case QueryKind::kTrajectory:
      if (auto error = ReadId(&in, "the anchor window id", &request.window)) {
        return *error;
      }
      if (!ReadSetting(&in, &request.setting)) {
        return Truncated("the parameter setting");
      }
      if (auto error =
              ReadIds(&in, "the horizon window list", &request.windows)) {
        return *error;
      }
      break;
    case QueryKind::kCompare:
      if (!ReadMode(&in, &request.mode)) {
        return BadBody("missing or out-of-range match-mode byte");
      }
      if (!ReadSetting(&in, &request.setting) ||
          !ReadSetting(&in, &request.second)) {
        return Truncated("a parameter setting");
      }
      if (auto error = ReadIds(&in, "the window id list", &request.windows)) {
        return *error;
      }
      break;
    case QueryKind::kMeasures:
    case QueryKind::kRollUpRule:
      if (auto error = ReadId(&in, "the rule id", &request.rule)) return *error;
      if (auto error = ReadIds(&in, "the window id list", &request.windows)) {
        return *error;
      }
      break;
    case QueryKind::kContent:
      if (auto error = ReadId(&in, "the window id", &request.window)) {
        return *error;
      }
      if (!ReadSetting(&in, &request.setting)) {
        return Truncated("the parameter setting");
      }
      if (auto error = ReadIds(&in, "the item list", &request.items)) {
        return *error;
      }
      break;
    case QueryKind::kRollUpMine:
      if (!ReadSetting(&in, &request.setting)) {
        return Truncated("the parameter setting");
      }
      if (auto error = ReadIds(&in, "the window id list", &request.windows)) {
        return *error;
      }
      break;
  }
  if (!in.AtEnd()) return Trailing(in.remaining());
  return request;
}

std::string EncodeExecuteFrame(const QueryRequest& request,
                               uint32_t deadline_ms) {
  StringWriter payload;
  payload.U64(deadline_ms);
  payload.Append(EncodeQueryRequest(request));
  return EncodeFrame(FrameType::kExecute, payload.bytes());
}

Expected<ExecuteCommand, ParseError> DecodeExecutePayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t deadline = 0;
  if (!in.U64(&deadline) || deadline > UINT32_MAX) {
    return Truncated("the deadline varint");
  }
  auto request = DecodeQueryRequest(in.Rest());
  if (!request.has_value()) return request.error();
  ExecuteCommand command;
  command.deadline_ms = static_cast<uint32_t>(deadline);
  command.request = *std::move(request);
  return command;
}

std::string EncodeResultFrame(QueryKind kind, const QueryResult& result) {
  std::string frame = EncodeQueryResult(kind, result, kResultFramePrefixBytes);
  WriteFrameHeader(FrameType::kResult, frame.size() - kWireHeaderBytes,
                   frame.data());
  frame[kWireHeaderBytes] = static_cast<char>(kind);
  return frame;
}

Expected<std::pair<QueryKind, QueryResult>, ParseError> DecodeResultPayload(
    std::string_view payload) {
  if (payload.empty()) return Truncated("the result kind byte");
  const uint8_t kind_byte = static_cast<uint8_t>(payload[0]);
  if (kind_byte >= kQueryKindCount) {
    std::ostringstream message;
    message << "result kind byte " << static_cast<unsigned>(kind_byte)
            << " names no QueryKind";
    return ParseError{ParseError::Code::kUnknownQueryKind, message.str()};
  }
  const QueryKind kind = static_cast<QueryKind>(kind_byte);
  auto result = DecodeQueryResult(kind, payload.substr(1));
  if (!result.has_value()) {
    std::ostringstream message;
    message << "bytes do not decode as a " << QueryKindName(kind)
            << " result";
    return ParseError{ParseError::Code::kBadResultBody, message.str()};
  }
  return std::make_pair(kind, *std::move(result));
}

std::string EncodeErrorFrame(uint32_t code, std::string_view message) {
  StringWriter payload;
  payload.U64(code);
  payload.Append(message);
  return EncodeFrame(FrameType::kError, payload.bytes());
}

std::string EncodeErrorFrame(const QueryError& error) {
  return EncodeErrorFrame(QueryErrorWireCode(error.code), error.message);
}

std::string EncodeErrorFrame(ServerWireError code, std::string_view message) {
  return EncodeErrorFrame(static_cast<uint32_t>(code), message);
}

std::string EncodeErrorFrame(const ParseError& error) {
  return EncodeErrorFrame(static_cast<uint32_t>(error.code), error.message);
}

Expected<WireError, ParseError> DecodeErrorPayload(std::string_view payload) {
  ByteReader in(payload);
  uint64_t code = 0;
  if (!in.U64(&code) || code == 0 || code > UINT32_MAX) {
    return ParseError{ParseError::Code::kBadErrorBody,
                      "error payload lacks a valid nonzero code varint"};
  }
  WireError error;
  error.code = static_cast<uint32_t>(code);
  error.message = std::string(in.Rest());
  return error;
}

std::string EncodeBatchExecuteFrame(const std::vector<QueryRequest>& requests,
                                    uint32_t deadline_ms) {
  StringWriter payload;
  payload.U64(deadline_ms);
  payload.U64(requests.size());
  for (const QueryRequest& request : requests) {
    const std::string bytes = EncodeQueryRequest(request);
    payload.U64(bytes.size());
    payload.Append(bytes);
  }
  return EncodeFrame(FrameType::kBatchExecute, payload.bytes());
}

Expected<BatchExecuteCommand, ParseError> DecodeBatchExecutePayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t deadline = 0, count = 0;
  if (!in.U64(&deadline) || deadline > UINT32_MAX) {
    return Truncated("the deadline varint");
  }
  if (!in.Count(&count)) return Truncated("the request count");
  if (count > kWireMaxBatchRequests) {
    return OverBatchCap(ParseError::Code::kBadRequestBody, count);
  }
  BatchExecuteCommand command;
  command.deadline_ms = static_cast<uint32_t>(deadline);
  // Requests grow as they decode: a count is only as good as the bytes
  // behind it, and a request takes far more memory than its encoding.
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t length = 0;
    std::string_view bytes;
    if (!in.U64(&length) || !in.Slice(length, &bytes)) {
      return Truncated("a request length prefix");
    }
    auto request = DecodeQueryRequest(bytes);
    if (!request.has_value()) return request.error();
    command.requests.push_back(*std::move(request));
  }
  if (!in.AtEnd()) return Trailing(in.remaining());
  return command;
}

std::string EncodeBatchResultFrame(
    const std::vector<Expected<ResultFrame, QueryError>>& items) {
  StringWriter payload;
  payload.U64(items.size());
  for (const Expected<ResultFrame, QueryError>& item : items) {
    if (item.has_value()) {
      const std::string_view body =
          std::string_view(**item).substr(kWireHeaderBytes);
      payload.Byte(0);
      payload.U64(body.size());
      payload.Append(body);
    } else {
      const uint32_t code = QueryErrorWireCode(item.error().code);
      const std::string& message = item.error().message;
      payload.Byte(1);
      payload.U64(codec::VarintLength(code) + message.size());
      payload.U64(code);
      payload.Append(message);
    }
  }
  return EncodeFrame(FrameType::kBatchResult, payload.bytes());
}

std::string EncodeBatchResultFrame(
    const std::vector<QueryKind>& kinds,
    const std::vector<Expected<QueryResult, QueryError>>& results) {
  std::vector<Expected<ResultFrame, QueryError>> items;
  items.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].has_value()) {
      items.emplace_back(std::make_shared<const std::string>(
          EncodeResultFrame(kinds[i], *results[i])));
    } else {
      items.emplace_back(results[i].error());
    }
  }
  return EncodeBatchResultFrame(items);
}

Expected<std::vector<Expected<QueryResult, WireError>>, ParseError>
DecodeBatchResultPayload(std::string_view payload) {
  ByteReader in(payload);
  uint64_t count = 0;
  if (!in.Count(&count)) return Truncated("the result count");
  if (count > kWireMaxBatchRequests) {
    return OverBatchCap(ParseError::Code::kBadResultBody, count);
  }
  std::vector<Expected<QueryResult, WireError>> results;
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t status = 0;
    uint64_t length = 0;
    std::string_view body;
    if (!in.Byte(&status) || status > 1) {
      return BadBody("missing or out-of-range batch item status byte");
    }
    if (!in.U64(&length) || !in.Slice(length, &body)) {
      return Truncated("a batch item length prefix");
    }
    if (status == 0) {
      auto result = DecodeResultPayload(body);
      if (!result.has_value()) return result.error();
      results.emplace_back(std::move(result).value().second);
    } else {
      auto error = DecodeErrorPayload(body);
      if (!error.has_value()) return error.error();
      results.emplace_back(*std::move(error));
    }
  }
  if (!in.AtEnd()) return Trailing(in.remaining());
  return results;
}

std::string EncodeAppendWindowFrame(const TransactionDatabase& db,
                                    size_t begin, size_t end) {
  StringWriter payload;
  payload.U64(end - begin);
  for (size_t i = begin; i < end; ++i) {
    const Transaction& tx = db[i];
    payload.U64(codec::ZigzagEncode(tx.time));
    payload.IdList(tx.items);
  }
  return EncodeFrame(FrameType::kAppendWindow, payload.bytes());
}

Expected<TransactionDatabase, ParseError> DecodeAppendWindowPayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t count = 0;
  if (!in.Count(&count)) return Truncated("the transaction count");
  TransactionDatabase db;
  Timestamp last_time = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t time_bits = 0;
    Itemset items;
    if (!in.U64(&time_bits)) return Truncated("a timestamp");
    if (auto error = ReadIds(&in, "a transaction item list", &items)) {
      return *error;
    }
    const Timestamp time = codec::ZigzagDecode(time_bits);
    if (i > 0 && time < last_time) {
      return BadBody("transaction timestamps decrease; the database "
                     "requires non-decreasing order");
    }
    last_time = time;
    db.Append(time, std::move(items));
  }
  if (!in.AtEnd()) return Trailing(in.remaining());
  return db;
}

std::string EncodeAppendAckFrame(WindowId window, uint64_t generation) {
  StringWriter payload;
  payload.U64(window);
  payload.U64(generation);
  return EncodeFrame(FrameType::kAppendAck, payload.bytes());
}

Expected<AppendAck, ParseError> DecodeAppendAckPayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t window = 0, generation = 0;
  if (!in.U64(&window) || !in.U64(&generation)) {
    return Truncated("the append acknowledgement");
  }
  if (!in.AtEnd()) return Trailing(in.remaining());
  if (window > UINT32_MAX) {
    return ParseError{ParseError::Code::kBadResultBody,
                      "append acknowledgement names window " +
                          std::to_string(window) + ", past 32 bits"};
  }
  AppendAck ack;
  ack.window = static_cast<WindowId>(window);
  ack.generation = generation;
  return ack;
}

std::string EncodeInfoResponseFrame(const ServerInfo& info) {
  StringWriter payload;
  payload.U64(info.window_count);
  payload.U64(info.generation);
  payload.U64(info.rule_count);
  return EncodeFrame(FrameType::kInfoResponse, payload.bytes());
}

Expected<ServerInfo, ParseError> DecodeInfoResponsePayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t windows = 0, generation = 0, rules = 0;
  if (!in.U64(&windows) || !in.U64(&generation) ||
      !in.U64(&rules)) {
    return Truncated("the server info");
  }
  if (!in.AtEnd()) return Trailing(in.remaining());
  if (windows > UINT32_MAX) {
    return ParseError{ParseError::Code::kBadResultBody,
                      "server info counts " + std::to_string(windows) +
                          " windows, past 32 bits"};
  }
  ServerInfo info;
  info.window_count = static_cast<uint32_t>(windows);
  info.generation = generation;
  info.rule_count = rules;
  return info;
}

std::string EncodeReplicaSubscribeFrame(uint32_t from_window) {
  StringWriter payload;
  payload.U64(from_window);
  return EncodeFrame(FrameType::kReplicaSubscribe, payload.bytes());
}

Expected<ReplicaSubscribe, ParseError> DecodeReplicaSubscribePayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t from = 0;
  if (!in.U64(&from) || from > UINT32_MAX) {
    return Truncated("the subscription start window");
  }
  if (!in.AtEnd()) return Trailing(in.remaining());
  ReplicaSubscribe subscribe;
  subscribe.from_window = static_cast<uint32_t>(from);
  return subscribe;
}

std::string EncodeReplicaCheckpointFrame(const ReplicaCheckpoint& checkpoint) {
  StringWriter payload;
  WriteOptionsFingerprint(checkpoint, &payload);
  payload.U64(checkpoint.window_count);
  payload.U64(checkpoint.generation);
  return EncodeFrame(FrameType::kReplicaCheckpoint, payload.bytes());
}

Expected<ReplicaCheckpoint, ParseError> DecodeReplicaCheckpointPayload(
    std::string_view payload) {
  ByteReader in(payload);
  ReplicaCheckpoint checkpoint;
  if (auto error = ReadOptionsFingerprint(&in, &checkpoint)) {
    if (error->truncated) return Truncated("the options fingerprint");
    return BadBody("checkpoint " + error->message);
  }
  uint64_t windows = 0;
  if (!in.U64(&windows) || windows > UINT32_MAX) {
    return Truncated("the window count");
  }
  if (!in.U64(&checkpoint.generation)) return Truncated("the generation");
  if (!in.AtEnd()) return Trailing(in.remaining());
  checkpoint.window_count = static_cast<uint32_t>(windows);
  return checkpoint;
}

std::string EncodeReplicaRecordFrame(WindowId window,
                                     uint64_t total_transactions,
                                     uint64_t generation,
                                     std::string_view segment) {
  StringWriter payload;
  payload.U64(window);
  payload.U64(total_transactions);
  payload.U64(generation);
  payload.Append(segment);
  return EncodeFrame(FrameType::kReplicaRecord, payload.bytes());
}

Expected<ReplicaRecord, ParseError> DecodeReplicaRecordPayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t window = 0;
  ReplicaRecord record;
  if (!in.U64(&window) || window > UINT32_MAX) {
    return Truncated("the record window id");
  }
  if (!in.U64(&record.total_transactions)) {
    return Truncated("the transaction total");
  }
  if (!in.U64(&record.generation)) {
    return Truncated("the generation");
  }
  if (in.AtEnd()) return Truncated("the segment blob");
  record.window = static_cast<WindowId>(window);
  record.segment = std::string(in.Rest());
  return record;
}

std::string EncodeReplicaHeartbeatFrame(uint32_t window_count,
                                        uint64_t generation) {
  StringWriter payload;
  payload.U64(window_count);
  payload.U64(generation);
  return EncodeFrame(FrameType::kReplicaHeartbeat, payload.bytes());
}

Expected<ReplicaHeartbeat, ParseError> DecodeReplicaHeartbeatPayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t windows = 0;
  ReplicaHeartbeat heartbeat;
  if (!in.U64(&windows) || windows > UINT32_MAX ||
      !in.U64(&heartbeat.generation)) {
    return Truncated("the heartbeat");
  }
  if (!in.AtEnd()) return Trailing(in.remaining());
  heartbeat.window_count = static_cast<uint32_t>(windows);
  return heartbeat;
}

}  // namespace tara
