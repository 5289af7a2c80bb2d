#ifndef TARA_CORE_WIRE_FORMAT_H_
#define TARA_CORE_WIRE_FORMAT_H_

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/expected.h"
#include "core/query_error.h"
#include "core/query_request.h"
#include "txdb/transaction_database.h"

/// \file
/// The TARA wire protocol: a length-prefixed, versioned binary framing of
/// the canonical QueryRequest/QueryResult bytes (query_request.h), plus
/// the stable numeric error-code space shared by local and remote
/// execution. This is the boundary between trusted engine code and
/// untrusted bytes: every Decode* function here treats its input as
/// hostile and returns Expected<_, ParseError> — truncation, unknown
/// versions, unknown kinds, and trailing garbage are typed errors, never
/// aborts (the same contract LoadError gives the knowledge-base loaders).
///
/// ## Frame layout (version 1)
///
///   offset 0  u8   magic 'T' (0x54)
///   offset 1  u8   magic 'W' (0x57)
///   offset 2  u8   protocol version (kWireProtocolVersion)
///   offset 3  u8   frame type (FrameType)
///   offset 4  u32  payload length, little-endian
///   offset 8  ...  payload (length bytes)
///
/// ## Versioning rules
///
/// - The header layout itself (8 bytes, magic/version/type/length) is
///   frozen forever; only payload grammars may evolve.
/// - A payload grammar change bumps kWireProtocolVersion. Peers reject
///   versions they do not speak with kUnsupportedVersion — there is no
///   silent downgrade.
/// - FrameType values and wire error codes are append-only: new numbers
///   may be added, existing numbers are NEVER reused or renumbered.
///
/// ## Wire error-code space (append-only, never reused)
///
///   0        reserved / invalid
///   1-99     query validation errors — QueryError::Code values verbatim
///            (see query_error.h: 1 support_below_floor ... 7
///            no_content_index)
///   100-199  serving-layer errors (ServerWireError below)
///   200-299  protocol/parse errors (ParseError::Code below)

namespace tara {

inline constexpr uint8_t kWireMagic0 = 0x54;  // 'T'
inline constexpr uint8_t kWireMagic1 = 0x57;  // 'W'
inline constexpr uint8_t kWireProtocolVersion = 1;
inline constexpr size_t kWireHeaderBytes = 8;
/// Receiver limits. A frame past either one is a typed error; neither
/// changes a frame's bytes.
///
/// The largest payload a peer may declare for one frame, checked at the
/// header before the payload is read.
inline constexpr uint32_t kWireMaxPayloadBytes = 64u << 20;
/// The most requests one kBatchExecute frame and the most items one
/// kBatchResult frame may count, checked before any of them decodes. A
/// decoded request takes about 25 times its smallest encoding, so a count
/// bounded only by the payload would let one full-size frame claim about
/// 1.6 GB before admission control sees it.
inline constexpr uint32_t kWireMaxBatchRequests = 1024;

/// What a frame carries. Append-only; never reuse or renumber.
enum class FrameType : uint8_t {
  /// Client -> server: execute one query.
  /// Payload: varint deadline_ms (0 = none) + canonical request bytes.
  kExecute = 1,
  /// Server -> client: a successful result.
  /// Payload: kind byte + canonical result bytes.
  kResult = 2,
  /// Server -> client: a typed failure.
  /// Payload: varint wire error code + message bytes (rest of payload).
  kError = 3,
  /// Client -> server: live-append one window of transactions.
  /// Payload: varint transaction count, then per transaction:
  /// zigzag-varint timestamp + varint item count + varint items.
  kAppendWindow = 4,
  /// Server -> client: append acknowledgement.
  /// Payload: varint window id + varint new generation.
  kAppendAck = 5,
  /// Client -> server: metrics snapshot request.
  /// Payload: one format byte (0 = text, 1 = JSON).
  kMetricsRequest = 6,
  /// Server -> client: metrics snapshot. Payload: UTF-8 text.
  kMetricsResponse = 7,
  /// Client -> server: execute a batch against one pinned snapshot.
  /// Payload: varint deadline_ms + varint request count, then per
  /// request: varint byte length + canonical request bytes.
  kBatchExecute = 8,
  /// Server -> client: positionally aligned batch results.
  /// Payload: varint count, then per item: one status byte (0 = ok,
  /// 1 = error) + varint byte length + body (ok: kind byte + result
  /// bytes; error: varint wire code + message bytes).
  kBatchResult = 9,
  /// Liveness probe; empty payloads.
  kPing = 10,
  kPong = 11,
  /// Client -> server: knowledge-base shape request. Empty payload.
  kInfoRequest = 12,
  /// Server -> client: varint window count + varint generation +
  /// varint interned rule count.
  kInfoResponse = 13,
  /// Replica -> primary: subscribe to the published window stream.
  /// Payload: varint first window wanted (the replica's window count).
  /// The connection then leaves request-response lockstep: the primary
  /// answers with one kReplicaCheckpoint and pushes kReplicaRecord /
  /// kReplicaHeartbeat frames until either side closes.
  kReplicaSubscribe = 14,
  /// Primary -> replica: the stream handshake. Payload: the primary's
  /// construction-option fingerprint (f64 support floor + f64 confidence
  /// floor + varint itemset cap + content-index byte — the same fields
  /// the TARAWAL1 header freezes) + varint published window count +
  /// varint generation. A replica must refuse to replay a stream mined at other
  /// floors, exactly as AttachWal refuses a foreign log.
  kReplicaCheckpoint = 15,
  /// Primary -> replica: one published window. Payload: varint
  /// window id + varint total transactions + varint primary generation +
  /// the window's TSEG segment blob (rest of payload) — byte-for-byte
  /// what the write-ahead log record for that window carries.
  kReplicaRecord = 16,
  /// Primary -> replica: liveness + lag probe sent when the stream is
  /// caught up. Payload: varint published window count + varint
  /// generation.
  kReplicaHeartbeat = 17,
};

/// Serving-layer wire error codes (range 100-199). Append-only.
enum class ServerWireError : uint32_t {
  /// Admission control shed this request: the query pool and its
  /// bounded wait queue are saturated. Retry with backoff.
  kOverloaded = 100,
  /// The request's deadline expired before a worker could start it.
  kDeadlineExceeded = 101,
  /// The server is draining connections for shutdown.
  kShuttingDown = 102,
  /// Structurally valid frame whose content the server rejects (e.g. an
  /// AppendWindow with zero transactions).
  kBadRequest = 103,
  /// The server failed internally; the connection stays usable.
  kInternal = 104,
  /// This server is a hot-standby replica: it serves queries only.
  /// Appends must go to the primary it replicates from.
  kReadOnlyReplica = 105,
};

/// Why untrusted wire bytes could not be parsed. The enum values ARE the
/// wire codes (range 200-299) so a server can echo a typed parse failure
/// back to the offending client. Append-only; never reuse or renumber.
struct ParseError {
  enum class Code : uint32_t {
    /// Fewer than kWireHeaderBytes bytes where a header must start.
    kTruncatedHeader = 200,
    /// The first two bytes are not 'T','W'.
    kBadMagic = 201,
    /// A TARA frame speaking a protocol version this build does not.
    kUnsupportedVersion = 202,
    /// A frame type byte this build does not know.
    kUnknownFrameType = 203,
    /// The declared payload length exceeds the receiver's limit.
    kFrameTooLarge = 204,
    /// The payload ended mid-structure (short field, truncated varint,
    /// fewer bytes than the header promised).
    kTruncatedPayload = 205,
    /// A request payload whose kind byte names no QueryKind.
    kUnknownQueryKind = 206,
    /// A request payload that is malformed past the kind byte (bad mode
    /// byte, impossible counts, ...).
    kBadRequestBody = 207,
    /// A result payload the declared kind cannot decode.
    kBadResultBody = 208,
    /// An error payload without a valid code varint.
    kBadErrorBody = 209,
    /// A well-formed structure followed by unexpected extra bytes.
    kTrailingBytes = 210,
    /// A frame type that is valid but not legal at this point of the
    /// conversation (e.g. a kResult arriving at the server).
    kUnexpectedFrame = 211,
  };

  Code code = Code::kTruncatedHeader;
  /// Actionable description naming the offending field/offset.
  std::string message;
};

/// Stable identifier string of a parse code ("bad_magic", ...).
std::string_view ParseErrorCodeName(ParseError::Code code);

/// gtest-friendly printing.
std::ostream& operator<<(std::ostream& out, const ParseError& error);

/// Human label of any wire error code, across all three ranges
/// ("bad_window", "overloaded", "unsupported_version", ...); "unknown"
/// for numbers this build has never heard of.
std::string_view WireErrorCodeName(uint32_t code);

/// A typed failure as it travels the wire: the frozen numeric code plus
/// the peer's human-readable message. This is what remote clients see in
/// place of a local QueryError.
struct WireError {
  uint32_t code = 0;
  std::string message;
};

std::ostream& operator<<(std::ostream& out, const WireError& error);

/// Parsed frame header (the fixed 8 bytes, validated).
struct FrameHeader {
  uint8_t version = kWireProtocolVersion;
  FrameType type = FrameType::kPing;
  uint32_t payload_size = 0;
};

/// Appends the 8-byte header for a `payload_size`-byte payload of `type`.
void AppendFrameHeader(FrameType type, size_t payload_size, std::string* out);

/// One complete frame: header + payload.
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Validates the fixed header at the start of `bytes`. `max_payload`
/// lets a receiver enforce an operational limit below the protocol's
/// hard cap. Does NOT require the payload itself to be present — this is
/// the streaming entrypoint (read 8 bytes, learn how many follow).
Expected<FrameHeader, ParseError> DecodeFrameHeader(
    std::string_view bytes, uint32_t max_payload = kWireMaxPayloadBytes);

/// A whole frame held in memory, decoded: header + payload view into
/// `bytes`. Rejects trailing bytes after the payload.
struct DecodedFrame {
  FrameHeader header;
  std::string_view payload;
};
Expected<DecodedFrame, ParseError> DecodeFrame(
    std::string_view bytes, uint32_t max_payload = kWireMaxPayloadBytes);

/// --- Request framing -------------------------------------------------

/// The inverse of EncodeQueryRequest (query_request.h) over untrusted
/// bytes: returns the request, or a typed ParseError on an unknown kind
/// byte, malformed body, or trailing bytes. Round-trip guarantee: for
/// any request R, DecodeQueryRequest(EncodeQueryRequest(R)) succeeds and
/// re-encodes to the identical canonical bytes.
Expected<QueryRequest, ParseError> DecodeQueryRequest(std::string_view bytes);

/// A complete kExecute frame for `request` (deadline 0 = none).
std::string EncodeExecuteFrame(const QueryRequest& request,
                               uint32_t deadline_ms = 0);

/// Decoded kExecute payload: the request plus its deadline.
struct ExecuteCommand {
  QueryRequest request;
  uint32_t deadline_ms = 0;
};
Expected<ExecuteCommand, ParseError> DecodeExecutePayload(
    std::string_view payload);

/// --- Result framing --------------------------------------------------

/// Bytes in front of a kResult frame's canonical result: the header and
/// the kind byte.
inline constexpr size_t kResultFramePrefixBytes = kWireHeaderBytes + 1;

/// A finished kResult frame, shared: what the query cache holds, what
/// TaraEngine::ExecuteFrame answers and what the server writes as it is.
using ResultFrame = std::shared_ptr<const std::string>;

/// A complete kResult frame: kind byte + canonical result bytes, encoded
/// once into an exact-size buffer (EncodeQueryResult's writer).
std::string EncodeResultFrame(QueryKind kind, const QueryResult& result);

/// Decoded kResult payload. The kind rides in the payload so the bytes
/// are self-describing (a batch item uses the same grammar).
Expected<std::pair<QueryKind, QueryResult>, ParseError> DecodeResultPayload(
    std::string_view payload);

/// --- Error framing ---------------------------------------------------

/// A complete kError frame carrying a wire code + message.
std::string EncodeErrorFrame(uint32_t code, std::string_view message);
std::string EncodeErrorFrame(const QueryError& error);
std::string EncodeErrorFrame(ServerWireError code, std::string_view message);
std::string EncodeErrorFrame(const ParseError& error);

Expected<WireError, ParseError> DecodeErrorPayload(std::string_view payload);

/// --- Batch framing ---------------------------------------------------

std::string EncodeBatchExecuteFrame(
    const std::vector<QueryRequest>& requests, uint32_t deadline_ms = 0);

struct BatchExecuteCommand {
  std::vector<QueryRequest> requests;
  uint32_t deadline_ms = 0;
};
/// A count past kWireMaxBatchRequests is kBadRequestBody.
Expected<BatchExecuteCommand, ParseError> DecodeBatchExecutePayload(
    std::string_view payload);

/// Encodes positionally aligned batch answers in frame form. An ok item's
/// body is its kResult frame minus the 8-byte header (kind byte + result
/// bytes), copied as it is: no answer is decoded or re-encoded.
std::string EncodeBatchResultFrame(
    const std::vector<Expected<ResultFrame, QueryError>>& items);

/// Encodes positionally aligned batch results. `kinds[i]` must be the
/// kind of `results[i]`'s request (the result variant alone does not
/// determine it).
std::string EncodeBatchResultFrame(
    const std::vector<QueryKind>& kinds,
    const std::vector<Expected<QueryResult, QueryError>>& results);

/// A count past kWireMaxBatchRequests is kBadResultBody.
Expected<std::vector<Expected<QueryResult, WireError>>, ParseError>
DecodeBatchResultPayload(std::string_view payload);

/// --- Ingestion framing -----------------------------------------------

/// A complete kAppendWindow frame carrying transactions [begin, end) of
/// `db`.
std::string EncodeAppendWindowFrame(const TransactionDatabase& db,
                                    size_t begin, size_t end);

Expected<TransactionDatabase, ParseError> DecodeAppendWindowPayload(
    std::string_view payload);

std::string EncodeAppendAckFrame(WindowId window, uint64_t generation);

struct AppendAck {
  WindowId window = 0;
  uint64_t generation = 0;
};
Expected<AppendAck, ParseError> DecodeAppendAckPayload(
    std::string_view payload);

/// --- Info framing ----------------------------------------------------

struct ServerInfo {
  uint32_t window_count = 0;
  uint64_t generation = 0;
  uint64_t rule_count = 0;
};

std::string EncodeInfoResponseFrame(const ServerInfo& info);
Expected<ServerInfo, ParseError> DecodeInfoResponsePayload(
    std::string_view payload);

/// --- Replication framing ---------------------------------------------

struct ReplicaSubscribe {
  /// First window the replica wants (== its current window count).
  uint32_t from_window = 0;
};

std::string EncodeReplicaSubscribeFrame(uint32_t from_window);
Expected<ReplicaSubscribe, ParseError> DecodeReplicaSubscribePayload(
    std::string_view payload);

/// The stream handshake: the primary's construction-option fingerprint
/// plus its published position. The option fields mirror what the
/// TARAWAL1 header freezes — a stream, like a log, must only be replayed
/// into an engine built with the same floors.
struct ReplicaCheckpoint {
  double min_support_floor = 0;
  double min_confidence_floor = 0;
  uint32_t max_itemset_size = 0;
  bool build_content_index = false;
  /// Windows the primary has published. A primary logs (and
  /// fdatasyncs) each window before publishing it, so every one of them
  /// is durable.
  uint32_t window_count = 0;
  uint64_t generation = 0;
};

std::string EncodeReplicaCheckpointFrame(const ReplicaCheckpoint& checkpoint);
Expected<ReplicaCheckpoint, ParseError> DecodeReplicaCheckpointPayload(
    std::string_view payload);

/// One streamed window: the same TSEG segment blob the primary's
/// write-ahead log record carries, ready for the replica's replay path.
struct ReplicaRecord {
  WindowId window = 0;
  uint64_t total_transactions = 0;
  /// The primary's generation when the record was encoded (monotone, so
  /// the replica can expose primary-side progress without a probe).
  uint64_t generation = 0;
  /// Owned copy of the segment blob (the payload view does not outlive
  /// the frame buffer).
  std::string segment;
};

std::string EncodeReplicaRecordFrame(WindowId window,
                                     uint64_t total_transactions,
                                     uint64_t generation,
                                     std::string_view segment);
Expected<ReplicaRecord, ParseError> DecodeReplicaRecordPayload(
    std::string_view payload);

/// The caught-up probe: how many windows the primary has published.
/// lag = heartbeat.window_count - replica's window count.
struct ReplicaHeartbeat {
  uint32_t window_count = 0;
  uint64_t generation = 0;
};

std::string EncodeReplicaHeartbeatFrame(uint32_t window_count,
                                        uint64_t generation);
Expected<ReplicaHeartbeat, ParseError> DecodeReplicaHeartbeatPayload(
    std::string_view payload);

}  // namespace tara

#endif  // TARA_CORE_WIRE_FORMAT_H_
