// Wire-format tests: request/frame round-trips for every query kind,
// pinned numeric codes, typed rejection of malformed headers and
// payloads, and a seeded corruption fuzz pass — untrusted bytes must
// yield Expected errors, never aborts.

#include "core/wire_format.h"

#include <sys/resource.h>

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/rng.h"
#include "core/query_request.h"

namespace tara {
namespace {

std::vector<QueryRequest> AllKindsOfRequests() {
  const ParameterSetting setting{0.02, 0.4};
  const ParameterSetting other{0.05, 0.5};
  std::vector<QueryRequest> requests;
  requests.push_back(QueryRequest::MineWindow(3, setting));
  requests.push_back(
      QueryRequest::MineWindows({0, 2, 5}, setting, MatchMode::kExact));
  requests.push_back(
      QueryRequest::MineWindows({1, 4}, setting, MatchMode::kSingle));
  requests.push_back(QueryRequest::Trajectory(4, setting, {0, 1, 2, 3, 4}));
  requests.push_back(
      QueryRequest::Compare(setting, other, {0, 1, 2}, MatchMode::kExact));
  requests.push_back(QueryRequest::Region(1, setting));
  requests.push_back(QueryRequest::Measures(42, {0, 1, 2, 3}));
  requests.push_back(QueryRequest::Content(2, {7, 11, 13}, setting));
  requests.push_back(QueryRequest::ContentView(0, setting));
  requests.push_back(QueryRequest::RollUpRule(99, {1, 3}));
  requests.push_back(QueryRequest::RollUpMine({0, 1, 2, 3, 4, 5}, setting));
  return requests;
}

TEST(WireFormat, RequestRoundTripAllKinds) {
  for (const QueryRequest& request : AllKindsOfRequests()) {
    const std::string bytes = EncodeQueryRequest(request);
    const auto decoded = DecodeQueryRequest(bytes);
    ASSERT_TRUE(decoded.has_value())
        << QueryKindName(request.kind) << ": " << decoded.error();
    // Canonical-bytes identity is the strongest equality we can assert
    // (and the property the query cache keys on).
    EXPECT_EQ(EncodeQueryRequest(*decoded), bytes)
        << QueryKindName(request.kind);
    EXPECT_EQ(decoded->kind, request.kind);
  }
}

TEST(WireFormat, FrameRoundTrip) {
  const std::string frame = EncodeFrame(FrameType::kPing, "abc");
  ASSERT_EQ(frame.size(), kWireHeaderBytes + 3);
  EXPECT_EQ(static_cast<uint8_t>(frame[0]), kWireMagic0);
  EXPECT_EQ(static_cast<uint8_t>(frame[1]), kWireMagic1);
  EXPECT_EQ(static_cast<uint8_t>(frame[2]), kWireProtocolVersion);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded->header.type, FrameType::kPing);
  EXPECT_EQ(decoded->payload, "abc");
}

TEST(WireFormat, HeaderRejectsBadMagic) {
  std::string frame = EncodeFrame(FrameType::kPing, "");
  frame[0] = 'X';
  const auto decoded = DecodeFrameHeader(frame);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, ParseError::Code::kBadMagic);
}

TEST(WireFormat, HeaderRejectsFutureVersion) {
  std::string frame = EncodeFrame(FrameType::kExecute, "");
  frame[2] = static_cast<char>(kWireProtocolVersion + 1);
  const auto decoded = DecodeFrameHeader(frame);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, ParseError::Code::kUnsupportedVersion);
}

TEST(WireFormat, HeaderRejectsUnknownType) {
  std::string frame = EncodeFrame(FrameType::kPing, "");
  frame[3] = static_cast<char>(200);
  const auto decoded = DecodeFrameHeader(frame);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, ParseError::Code::kUnknownFrameType);
}

TEST(WireFormat, HeaderRejectsOversizedPayload) {
  std::string frame = EncodeFrame(FrameType::kExecute, "xxxx");
  const auto decoded = DecodeFrameHeader(frame, /*max_payload=*/2);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, ParseError::Code::kFrameTooLarge);
}

TEST(WireFormat, HeaderRejectsTruncation) {
  const std::string frame = EncodeFrame(FrameType::kPing, "");
  for (size_t n = 0; n < kWireHeaderBytes; ++n) {
    const auto decoded = DecodeFrameHeader(frame.substr(0, n));
    ASSERT_FALSE(decoded.has_value()) << "prefix length " << n;
    EXPECT_EQ(decoded.error().code, ParseError::Code::kTruncatedHeader);
  }
}

TEST(WireFormat, RequestRejectsUnknownKind) {
  std::string bytes = EncodeQueryRequest(
      QueryRequest::MineWindow(0, ParameterSetting{0.02, 0.4}));
  bytes[0] = static_cast<char>(kQueryKindCount);
  const auto decoded = DecodeQueryRequest(bytes);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, ParseError::Code::kUnknownQueryKind);
}

TEST(WireFormat, RequestRejectsTrailingBytes) {
  std::string bytes = EncodeQueryRequest(
      QueryRequest::Region(1, ParameterSetting{0.02, 0.4}));
  bytes += '\0';
  const auto decoded = DecodeQueryRequest(bytes);
  ASSERT_FALSE(decoded.has_value());
  EXPECT_EQ(decoded.error().code, ParseError::Code::kTrailingBytes);
}

TEST(WireFormat, RequestRejectsTruncationAtEveryLength) {
  for (const QueryRequest& request : AllKindsOfRequests()) {
    const std::string bytes = EncodeQueryRequest(request);
    for (size_t n = 0; n < bytes.size(); ++n) {
      const auto decoded = DecodeQueryRequest(bytes.substr(0, n));
      // A proper prefix of a canonical encoding never parses: every
      // grammar ends exactly at the last field.
      EXPECT_FALSE(decoded.has_value())
          << QueryKindName(request.kind) << " prefix " << n;
    }
  }
}

TEST(WireFormat, ExecuteFrameCarriesDeadline) {
  const QueryRequest request =
      QueryRequest::MineWindow(2, ParameterSetting{0.02, 0.4});
  const std::string frame = EncodeExecuteFrame(request, 1500);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  ASSERT_EQ(decoded->header.type, FrameType::kExecute);
  const auto command = DecodeExecutePayload(decoded->payload);
  ASSERT_TRUE(command.has_value()) << command.error();
  EXPECT_EQ(command->deadline_ms, 1500u);
  EXPECT_EQ(EncodeQueryRequest(command->request),
            EncodeQueryRequest(request));
}

TEST(WireFormat, ResultRoundTrip) {
  const QueryResult result = std::vector<RuleId>{3, 1, 4, 1, 5};
  const std::string frame = EncodeResultFrame(QueryKind::kMineWindow, result);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  const auto payload = DecodeResultPayload(decoded->payload);
  ASSERT_TRUE(payload.has_value()) << payload.error();
  EXPECT_EQ(payload->first, QueryKind::kMineWindow);
  EXPECT_EQ(std::get<std::vector<RuleId>>(payload->second),
            (std::vector<RuleId>{3, 1, 4, 1, 5}));
}

// A content view's items ascend strictly on the wire. Bytes naming an item
// twice, or items out of order, would decode to a view that re-encodes to
// other bytes, so they are malformed.
TEST(WireFormat, ContentViewDecodesOnlyInCanonicalOrder) {
  const auto decode = [](std::vector<uint8_t> bytes) {
    return DecodeQueryResult(
        QueryKind::kContentView,
        std::string_view(reinterpret_cast<const char*>(bytes.data()),
                         bytes.size()));
  };
  const auto canonical = decode({2, 2, 1, 9, 4, 2, 1, 2});
  ASSERT_TRUE(canonical.has_value());
  EXPECT_EQ(std::get<ContentViewResult>(*canonical),
            (ContentViewResult{
                .items = {2, 4}, .offsets = {0, 1, 3}, .rules = {9, 1, 2}}));
  EXPECT_EQ(EncodeQueryResult(QueryKind::kContentView, *canonical),
            std::string("\x02\x02\x01\x09\x04\x02\x01\x02", 8));

  EXPECT_FALSE(decode({2, 4, 1, 1, 4, 1, 2}).has_value())
      << "an item named twice";
  EXPECT_FALSE(decode({2, 4, 1, 1, 2, 1, 9}).has_value())
      << "items in descending order";
}

// Ids are 32 bits. An id varint past that is refused with a typed error,
// never narrowed: narrowed, window 2^32 + 3 would be window 3.
TEST(WireFormat, IdsPastThirtyTwoBitsAreTypedErrors) {
  constexpr uint64_t kPast = uint64_t{1} << 32;
  const auto request = [](QueryKind kind, auto write) {
    codec::StringWriter out;
    out.Byte(static_cast<uint8_t>(kind));
    write(&out);
    return DecodeQueryRequest(out.bytes());
  };
  const auto window_request = [&](uint64_t window) {
    return request(QueryKind::kMineWindow, [window](auto* out) {
      out->U64(window);
      out->F64(0.02);
      out->F64(0.4);
    });
  };
  ASSERT_TRUE(window_request(3).has_value());
  const auto wide_window = window_request(kPast + 3);
  ASSERT_FALSE(wide_window.has_value());
  EXPECT_EQ(wide_window.error().code, ParseError::Code::kBadRequestBody)
      << wide_window.error();

  // A list holding one such id, a rule id, and an item id.
  const auto wide_list = request(QueryKind::kRollUpMine, [&](auto* out) {
    out->F64(0.02);
    out->F64(0.4);
    out->IdList(std::vector<uint64_t>{0, kPast + 1});
  });
  ASSERT_FALSE(wide_list.has_value());
  EXPECT_EQ(wide_list.error().code, ParseError::Code::kBadRequestBody);
  const auto wide_rule = request(QueryKind::kMeasures, [&](auto* out) {
    out->U64(kPast);
    out->IdList(std::vector<uint64_t>{0});
  });
  ASSERT_FALSE(wide_rule.has_value());
  EXPECT_EQ(wide_rule.error().code, ParseError::Code::kBadRequestBody);
  const auto wide_item = request(QueryKind::kContent, [&](auto* out) {
    out->U64(1);
    out->F64(0.02);
    out->F64(0.4);
    out->IdList(std::vector<uint64_t>{7, kPast + 7});
  });
  ASSERT_FALSE(wide_item.has_value());
  EXPECT_EQ(wide_item.error().code, ParseError::Code::kBadRequestBody);
  // A list that ends early is still truncated, not too wide.
  const auto short_list = request(QueryKind::kRollUpMine, [](auto* out) {
    out->F64(0.02);
    out->F64(0.4);
    out->U64(2);
    out->U64(0);
  });
  ASSERT_FALSE(short_list.has_value());
  EXPECT_EQ(short_list.error().code, ParseError::Code::kTruncatedPayload);

  // A result {1, 2^32 + 5} is no result: narrowed, it would name rule 5.
  codec::StringWriter result;
  result.IdList(std::vector<uint64_t>{kPast + 5});
  EXPECT_FALSE(
      DecodeQueryResult(QueryKind::kMineWindow, result.bytes()).has_value());
  codec::StringWriter narrow;
  narrow.IdList(std::vector<uint64_t>{5});
  EXPECT_TRUE(
      DecodeQueryResult(QueryKind::kMineWindow, narrow.bytes()).has_value());

  codec::StringWriter ack;
  ack.U64(kPast + 1);
  ack.U64(9);
  const auto wide_ack = DecodeAppendAckPayload(ack.bytes());
  ASSERT_FALSE(wide_ack.has_value());
  EXPECT_EQ(wide_ack.error().code, ParseError::Code::kBadResultBody);

  // Counts past 32 bits too: a roll-up bound's missing windows, and the
  // window count of a server info frame.
  const auto rollup_bound = [](uint64_t missing) {
    codec::StringWriter out;
    for (const double bound : {0.1, 0.2, 0.3, 0.4}) out.F64(bound);
    out.U64(missing);
    return DecodeQueryResult(QueryKind::kRollUpRule, out.bytes());
  };
  EXPECT_TRUE(rollup_bound(1).has_value());
  EXPECT_FALSE(rollup_bound(kPast + 1).has_value());
  const auto info = [](uint64_t windows) {
    codec::StringWriter out;
    out.U64(windows);
    out.U64(3);
    out.U64(40);
    return DecodeInfoResponsePayload(out.bytes());
  };
  ASSERT_TRUE(info(7).has_value());
  const auto wide_info = info(kPast + 7);
  ASSERT_FALSE(wide_info.has_value());
  EXPECT_EQ(wide_info.error().code, ParseError::Code::kBadResultBody);

  // A one-point trajectory answer whose window is past 32 bits, or whose
  // present byte is neither 0 nor 1: narrowed, it would read as window 3
  // or as present.
  const auto trajectory = [](uint64_t window, uint8_t present) {
    codec::StringWriter out;
    out.IdList(std::vector<uint64_t>{4});
    out.U64(1);  // one trajectory
    out.U64(1);  // of one point
    out.U64(window);
    out.Byte(present);
    out.F64(0.25);
    out.F64(0.5);
    return DecodeQueryResult(QueryKind::kTrajectory, out.bytes());
  };
  ASSERT_TRUE(trajectory(3, 0).has_value());
  const auto point = trajectory(3, 1);
  ASSERT_TRUE(point.has_value());
  const auto& decoded_point =
      std::get<TrajectoryQueryResult>(*point).trajectory(0)[0];
  EXPECT_EQ(decoded_point.window, 3u);
  EXPECT_TRUE(decoded_point.present);
  EXPECT_FALSE(trajectory(kPast + 3, 1).has_value());
  EXPECT_FALSE(trajectory(3, 2).has_value());

  // Item gaps add up past 32 bits.
  codec::StringWriter items;
  items.U64(2);
  items.U64(UINT32_MAX);
  items.U64(1);
  std::vector<ItemId> decoded;
  EXPECT_FALSE(codec::ByteReader(items.bytes()).Items(&decoded));
}

TEST(WireFormat, ErrorRoundTripPreservesCode) {
  const std::string frame =
      EncodeErrorFrame(ServerWireError::kOverloaded, "try later");
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  ASSERT_EQ(decoded->header.type, FrameType::kError);
  const auto error = DecodeErrorPayload(decoded->payload);
  ASSERT_TRUE(error.has_value()) << error.error();
  EXPECT_EQ(error->code, 100u);
  EXPECT_EQ(error->message, "try later");
}

TEST(WireFormat, QueryErrorTravelsVerbatim) {
  QueryError query_error;
  query_error.code = QueryError::Code::kBadWindow;
  query_error.message = "window 7 of 3";
  const std::string frame = EncodeErrorFrame(query_error);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value());
  const auto error = DecodeErrorPayload(decoded->payload);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, QueryErrorWireCode(QueryError::Code::kBadWindow));
  EXPECT_EQ(QueryErrorFromWireCode(error->code), QueryError::Code::kBadWindow);
}

// The numeric code space is a wire contract: these values must never
// change. A failure here means an incompatible protocol change.
TEST(WireFormat, NumericCodesArePinned) {
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kSupportBelowFloor), 1u);
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kConfidenceBelowFloor), 2u);
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kBadWindow), 3u);
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kEmptyWindowSet), 4u);
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kWindowSetMismatch), 5u);
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kUnknownRule), 6u);
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kNoContentIndex), 7u);
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kCorruptStorage), 8u);
  EXPECT_EQ(QueryErrorWireCode(QueryError::Code::kNonFiniteSetting), 9u);

  EXPECT_EQ(static_cast<uint32_t>(ServerWireError::kOverloaded), 100u);
  EXPECT_EQ(static_cast<uint32_t>(ServerWireError::kDeadlineExceeded), 101u);
  EXPECT_EQ(static_cast<uint32_t>(ServerWireError::kShuttingDown), 102u);
  EXPECT_EQ(static_cast<uint32_t>(ServerWireError::kBadRequest), 103u);
  EXPECT_EQ(static_cast<uint32_t>(ServerWireError::kInternal), 104u);

  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kTruncatedHeader), 200u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kBadMagic), 201u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kUnsupportedVersion),
            202u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kUnknownFrameType), 203u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kFrameTooLarge), 204u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kTruncatedPayload), 205u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kUnknownQueryKind), 206u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kBadRequestBody), 207u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kBadResultBody), 208u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kBadErrorBody), 209u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kTrailingBytes), 210u);
  EXPECT_EQ(static_cast<uint32_t>(ParseError::Code::kUnexpectedFrame), 211u);

  EXPECT_EQ(WireErrorCodeName(3), "bad_window");
  EXPECT_EQ(WireErrorCodeName(100), "overloaded");
  EXPECT_EQ(WireErrorCodeName(202), "unsupported_version");
  EXPECT_EQ(WireErrorCodeName(9999), "unknown");
}

TEST(WireFormat, UnknownWireCodeMapsToNothing) {
  EXPECT_FALSE(QueryErrorFromWireCode(0).has_value());
  EXPECT_FALSE(QueryErrorFromWireCode(99).has_value());
  // Code 8 became kCorruptStorage and must stay assigned.
  ASSERT_TRUE(QueryErrorFromWireCode(8).has_value());
  EXPECT_EQ(*QueryErrorFromWireCode(8), QueryError::Code::kCorruptStorage);
  EXPECT_EQ(WireErrorCodeName(8), "corrupt_storage");
  // Code 9 became kNonFiniteSetting and must stay assigned.
  ASSERT_TRUE(QueryErrorFromWireCode(9).has_value());
  EXPECT_EQ(*QueryErrorFromWireCode(9), QueryError::Code::kNonFiniteSetting);
  EXPECT_EQ(WireErrorCodeName(9), "non_finite_setting");
  EXPECT_FALSE(QueryErrorFromWireCode(10).has_value());
  EXPECT_FALSE(QueryErrorFromWireCode(100).has_value());
}

TEST(WireFormat, BatchExecuteRoundTrip) {
  const std::vector<QueryRequest> requests = AllKindsOfRequests();
  const std::string frame = EncodeBatchExecuteFrame(requests, 250);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  ASSERT_EQ(decoded->header.type, FrameType::kBatchExecute);
  const auto batch = DecodeBatchExecutePayload(decoded->payload);
  ASSERT_TRUE(batch.has_value()) << batch.error();
  EXPECT_EQ(batch->deadline_ms, 250u);
  ASSERT_EQ(batch->requests.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(EncodeQueryRequest(batch->requests[i]),
              EncodeQueryRequest(requests[i]));
  }
}

TEST(WireFormat, BatchResultMixesOkAndError) {
  std::vector<QueryKind> kinds = {QueryKind::kMineWindow,
                                  QueryKind::kRegion};
  std::vector<Expected<QueryResult, QueryError>> results;
  results.emplace_back(QueryResult(std::vector<RuleId>{1, 2, 3}));
  QueryError error;
  error.code = QueryError::Code::kSupportBelowFloor;
  error.message = "0.001 < floor 0.01";
  results.emplace_back(error);
  const std::string frame = EncodeBatchResultFrame(kinds, results);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  const auto batch = DecodeBatchResultPayload(decoded->payload);
  ASSERT_TRUE(batch.has_value()) << batch.error();
  ASSERT_EQ(batch->size(), 2u);
  ASSERT_TRUE((*batch)[0].has_value());
  EXPECT_EQ(std::get<std::vector<RuleId>>((*batch)[0].value()),
            (std::vector<RuleId>{1, 2, 3}));
  ASSERT_FALSE((*batch)[1].has_value());
  EXPECT_EQ((*batch)[1].error().code, 1u);
  EXPECT_EQ((*batch)[1].error().message, "0.001 < floor 0.01");
}

/// The least a request encodes to: Measures(0, {}), three bytes.
QueryRequest MinimalRequest() { return QueryRequest::Measures(0, {}); }

TEST(WireFormat, BatchCountsPastTheCapAreTypedErrors) {
  // A view of the payload of `frame`, which must outlive it.
  const auto payload = [](const std::string& frame) {
    return std::string_view(frame).substr(kWireHeaderBytes);
  };
  std::vector<QueryRequest> requests(kWireMaxBatchRequests, MinimalRequest());
  const std::string at_cap = EncodeBatchExecuteFrame(requests);
  const auto decoded = DecodeBatchExecutePayload(payload(at_cap));
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded->requests.size(), kWireMaxBatchRequests);

  requests.push_back(MinimalRequest());
  const std::string over_cap = EncodeBatchExecuteFrame(requests);
  const auto rejected = DecodeBatchExecutePayload(payload(over_cap));
  ASSERT_FALSE(rejected.has_value());
  EXPECT_EQ(rejected.error().code, ParseError::Code::kBadRequestBody);

  std::vector<QueryKind> kinds(kWireMaxBatchRequests, QueryKind::kMineWindow);
  std::vector<Expected<QueryResult, QueryError>> results;
  for (size_t i = 0; i < kinds.size(); ++i) {
    results.emplace_back(QueryResult(std::vector<RuleId>{}));
  }
  const std::string items_at_cap = EncodeBatchResultFrame(kinds, results);
  const auto items = DecodeBatchResultPayload(payload(items_at_cap));
  ASSERT_TRUE(items.has_value()) << items.error();
  EXPECT_EQ(items->size(), kWireMaxBatchRequests);

  kinds.push_back(QueryKind::kMineWindow);
  results.emplace_back(QueryResult(std::vector<RuleId>{}));
  const std::string items_over_cap = EncodeBatchResultFrame(kinds, results);
  const auto too_many = DecodeBatchResultPayload(payload(items_over_cap));
  ASSERT_FALSE(too_many.has_value());
  EXPECT_EQ(too_many.error().code, ParseError::Code::kBadResultBody);
}

TEST(WireFormat, AppendWindowRoundTrip) {
  TransactionDatabase db;
  db.Append(100, {3, 1, 2});
  db.Append(101, {2, 5});
  db.Append(105, {9});
  const std::string frame = EncodeAppendWindowFrame(db, 0, db.size());
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  ASSERT_EQ(decoded->header.type, FrameType::kAppendWindow);
  const auto copy = DecodeAppendWindowPayload(decoded->payload);
  ASSERT_TRUE(copy.has_value()) << copy.error();
  ASSERT_EQ(copy->size(), 3u);
  EXPECT_EQ((*copy)[0].time, 100);
  EXPECT_EQ((*copy)[2].time, 105);
  EXPECT_EQ((*copy)[1].items, (Itemset{2, 5}));
}

TEST(WireFormat, AppendWindowRejectsDecreasingTimestamps) {
  // Hand-build a payload whose second timestamp goes backwards; the
  // decoder must reject it instead of letting TransactionDatabase abort.
  TransactionDatabase db;
  db.Append(100, {1});
  db.Append(100, {2});
  std::string frame = EncodeAppendWindowFrame(db, 0, db.size());
  // Patch the second zigzag timestamp varint (200 -> smaller value).
  // Safer: decode-and-check over a corpus is covered below; here just
  // corrupt the byte where the second timestamp starts and require a
  // typed outcome either way.
  bool saw_typed_error = false;
  for (size_t i = kWireHeaderBytes; i < frame.size(); ++i) {
    std::string corrupt = frame;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x7f);
    const auto decoded = DecodeFrame(corrupt);
    if (!decoded.has_value()) continue;
    const auto payload = DecodeAppendWindowPayload(decoded->payload);
    if (!payload.has_value()) saw_typed_error = true;
  }
  EXPECT_TRUE(saw_typed_error);
}

TEST(WireFormat, AppendAckAndInfoRoundTrip) {
  // The decoded payload is a view into the frame bytes, so the encoded
  // string must outlive it.
  const std::string ack_bytes = EncodeAppendAckFrame(7, 123);
  const auto ack_frame = DecodeFrame(ack_bytes);
  ASSERT_TRUE(ack_frame.has_value());
  const auto ack = DecodeAppendAckPayload(ack_frame->payload);
  ASSERT_TRUE(ack.has_value()) << ack.error();
  EXPECT_EQ(ack->window, 7u);
  EXPECT_EQ(ack->generation, 123u);

  ServerInfo info;
  info.window_count = 12;
  info.generation = 99;
  info.rule_count = 1u << 20;
  const std::string info_bytes = EncodeInfoResponseFrame(info);
  const auto info_frame = DecodeFrame(info_bytes);
  ASSERT_TRUE(info_frame.has_value());
  const auto round = DecodeInfoResponsePayload(info_frame->payload);
  ASSERT_TRUE(round.has_value()) << round.error();
  EXPECT_EQ(round->window_count, 12u);
  EXPECT_EQ(round->generation, 99u);
  EXPECT_EQ(round->rule_count, 1u << 20);
}

TEST(WireFormat, ReplicaSubscribeRoundTrip) {
  const std::string frame = EncodeReplicaSubscribeFrame(7);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->header.type, FrameType::kReplicaSubscribe);
  const auto subscribe = DecodeReplicaSubscribePayload(decoded->payload);
  ASSERT_TRUE(subscribe.has_value()) << subscribe.error();
  EXPECT_EQ(subscribe->from_window, 7u);
}

TEST(WireFormat, ReplicaCheckpointRoundTrip) {
  ReplicaCheckpoint checkpoint;
  checkpoint.min_support_floor = 0.015;
  checkpoint.min_confidence_floor = 0.25;
  checkpoint.max_itemset_size = 5;
  checkpoint.build_content_index = true;
  checkpoint.window_count = 12;
  checkpoint.generation = 37;
  const std::string frame = EncodeReplicaCheckpointFrame(checkpoint);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->header.type, FrameType::kReplicaCheckpoint);
  const auto round = DecodeReplicaCheckpointPayload(decoded->payload);
  ASSERT_TRUE(round.has_value()) << round.error();
  // Floors travel as raw f64 bits, so equality is exact.
  EXPECT_EQ(round->min_support_floor, checkpoint.min_support_floor);
  EXPECT_EQ(round->min_confidence_floor, checkpoint.min_confidence_floor);
  EXPECT_EQ(round->max_itemset_size, 5u);
  EXPECT_TRUE(round->build_content_index);
  EXPECT_EQ(round->window_count, 12u);
  EXPECT_EQ(round->generation, 37u);
}

TEST(WireFormat, ReplicaRecordRoundTrip) {
  const std::string segment = "\x01\x02segment-bytes\xff";
  const std::string frame =
      EncodeReplicaRecordFrame(4, 2000, 9, segment);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->header.type, FrameType::kReplicaRecord);
  const auto record = DecodeReplicaRecordPayload(decoded->payload);
  ASSERT_TRUE(record.has_value()) << record.error();
  EXPECT_EQ(record->window, 4u);
  EXPECT_EQ(record->total_transactions, 2000u);
  EXPECT_EQ(record->generation, 9u);
  EXPECT_EQ(record->segment, segment);
}

TEST(WireFormat, ReplicaRecordRejectsEmptySegment) {
  const std::string frame = EncodeReplicaRecordFrame(4, 2000, 9, "");
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value());
  const auto record = DecodeReplicaRecordPayload(decoded->payload);
  ASSERT_FALSE(record.has_value());
  EXPECT_EQ(record.error().code, ParseError::Code::kTruncatedPayload);
}

TEST(WireFormat, ReplicaHeartbeatRoundTrip) {
  const std::string frame = EncodeReplicaHeartbeatFrame(19, 23);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->header.type, FrameType::kReplicaHeartbeat);
  const auto heartbeat = DecodeReplicaHeartbeatPayload(decoded->payload);
  ASSERT_TRUE(heartbeat.has_value()) << heartbeat.error();
  EXPECT_EQ(heartbeat->window_count, 19u);
  EXPECT_EQ(heartbeat->generation, 23u);
}

TEST(WireFormat, ReplicaHeartbeatRejectsTrailingBytes) {
  std::string frame = EncodeReplicaHeartbeatFrame(19, 23);
  frame.push_back('\x00');
  // Patch the header's length to cover the extra byte so the payload
  // decoder (not the framing layer) sees it.
  frame[4] = static_cast<char>(frame.size() - kWireHeaderBytes);
  const auto decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.has_value());
  const auto heartbeat = DecodeReplicaHeartbeatPayload(decoded->payload);
  ASSERT_FALSE(heartbeat.has_value());
  EXPECT_EQ(heartbeat.error().code, ParseError::Code::kTrailingBytes);
}

// Replication frame types and the read-only rejection code are wire
// contracts like every other number here: frozen forever.
TEST(WireFormat, ReplicationCodesArePinned) {
  EXPECT_EQ(static_cast<uint8_t>(FrameType::kReplicaSubscribe), 14u);
  EXPECT_EQ(static_cast<uint8_t>(FrameType::kReplicaCheckpoint), 15u);
  EXPECT_EQ(static_cast<uint8_t>(FrameType::kReplicaRecord), 16u);
  EXPECT_EQ(static_cast<uint8_t>(FrameType::kReplicaHeartbeat), 17u);
  EXPECT_EQ(static_cast<uint32_t>(ServerWireError::kReadOnlyReplica), 105u);
  EXPECT_EQ(WireErrorCodeName(105), "read_only_replica");
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<uint8_t>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

/// One small result of each kind, with multi-byte varints and non-trivial
/// doubles so every encoding path shows up in the bytes.
std::vector<std::pair<QueryKind, QueryResult>> OneResultOfEachKind() {
  std::vector<std::pair<QueryKind, QueryResult>> results;
  results.emplace_back(QueryKind::kMineWindow,
                       std::vector<RuleId>{3, 1, 400});
  results.emplace_back(QueryKind::kMineWindows, std::vector<RuleId>{0, 200});
  // Two trajectories of two points and one: rows need not be equal.
  const TrajectoryQueryResult trajectory{
      .rules = {5, 9},
      .offsets = {0, 2, 3},
      .points = {
          {0, true, 0.25, 0.5}, {1, false, 0, 0}, {2, true, 0.125, 1.0}}};
  results.emplace_back(QueryKind::kTrajectory, trajectory);
  results.emplace_back(QueryKind::kCompare, RulesetDiff{{1, 2}, {300}});
  results.emplace_back(QueryKind::kRegion,
                       RegionInfo{0.01, 0.02, 0.3, 0.4, 17});
  results.emplace_back(QueryKind::kMeasures,
                       TrajectoryMeasures{0.5, 0.75, 0.1, 0.2, 0.3, 0.6});
  results.emplace_back(QueryKind::kContent, std::vector<RuleId>{7});
  results.emplace_back(QueryKind::kContentView,
                       ContentViewResult{.items = {2, 4},
                                         .offsets = {0, 1, 3},
                                         .rules = {9, 1, 2}});
  results.emplace_back(QueryKind::kRollUpRule,
                       RollUpBound{0.1, 0.2, 0.3, 0.4, 2});
  results.emplace_back(QueryKind::kRollUpMine, RolledUpRules{{1, 5}, {130}});
  return results;
}

// Golden bytes. The constants were captured from the encoders as they
// stood before the byte codec was shared by every format; round trips
// only prove self-consistency, these prove that no byte on the wire
// moved. Never edit a constant to make this pass.
TEST(WireFormatGolden, RequestBytesArePinned) {
  const std::vector<std::string> expected = {
      "00037b14ae47e17a943f9a9999999999d93f",
      "01017b14ae47e17a943f9a9999999999d93f03000205",
      "01007b14ae47e17a943f9a9999999999d93f020104",
      "02047b14ae47e17a943f9a9999999999d93f050001020304",
      "03017b14ae47e17a943f9a9999999999d93f9a9999999999a93f000000000000"
      "e03f03000102",
      "04017b14ae47e17a943f9a9999999999d93f",
      "052a0400010203",
      "06027b14ae47e17a943f9a9999999999d93f03070b0d",
      "07007b14ae47e17a943f9a9999999999d93f",
      "0863020103",
      "097b14ae47e17a943f9a9999999999d93f06000102030405",
  };
  const std::vector<QueryRequest> requests = AllKindsOfRequests();
  ASSERT_EQ(requests.size(), expected.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(Hex(EncodeQueryRequest(requests[i])), expected[i])
        << "request " << i << " (" << QueryKindName(requests[i].kind) << ")";
  }
}

TEST(WireFormatGolden, ResultBytesArePinned) {
  const std::vector<std::string> expected = {
      "0303019003",
      "0200c801",
      "02050902020001000000000000d03f000000000000e03f010000000000000000"
      "000000000000000000010201000000000000c03f000000000000f03f",
      "02010201ac02",
      "7b14ae47e17a843f7b14ae47e17a943f333333333333d33f9a9999999999d93f"
      "11",
      "000000000000e03f000000000000e83f9a9999999999b93f9a9999999999c93f"
      "333333333333d33f333333333333e33f",
      "0107",
      "0202010904020102",
      "9a9999999999b93f9a9999999999c93f333333333333d33f9a9999999999d93f"
      "02",
      "020105018201",
  };
  const auto results = OneResultOfEachKind();
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& [kind, result] = results[i];
    const std::string bytes = EncodeQueryResult(kind, result);
    EXPECT_EQ(Hex(bytes), expected[i]) << QueryKindName(kind);
    const auto decoded = DecodeQueryResult(kind, bytes);
    ASSERT_TRUE(decoded.has_value()) << QueryKindName(kind);
    EXPECT_EQ(EncodeQueryResult(kind, *decoded), bytes) << QueryKindName(kind);
  }
}

TEST(WireFormatGolden, FrameBytesArePinned) {
  const ParameterSetting setting{0.02, 0.4};
  std::vector<std::pair<std::string, std::string>> frames;
  frames.emplace_back(
      "execute",
      EncodeExecuteFrame(QueryRequest::Trajectory(4, setting, {0, 1, 2, 3, 4}),
                         250));
  frames.emplace_back(
      "batch_execute",
      EncodeBatchExecuteFrame({QueryRequest::MineWindow(3, setting),
                               QueryRequest::RollUpRule(199, {1, 3})},
                              300));
  frames.emplace_back("result",
                      EncodeResultFrame(QueryKind::kMineWindow,
                                        std::vector<RuleId>{3, 1, 400}));
  QueryError error;
  error.code = QueryError::Code::kSupportBelowFloor;
  error.message = "below";
  std::vector<Expected<QueryResult, QueryError>> batch_results;
  batch_results.emplace_back(QueryResult(std::vector<RuleId>{1, 2, 300}));
  batch_results.emplace_back(error);
  frames.emplace_back(
      "batch_result",
      EncodeBatchResultFrame({QueryKind::kMineWindow, QueryKind::kRegion},
                             batch_results));
  frames.emplace_back(
      "error", EncodeErrorFrame(ServerWireError::kOverloaded, "try later"));
  TransactionDatabase db;
  db.Append(100, {3, 1, 200});
  db.Append(101, {2, 5});
  db.Append(1000, {9});
  frames.emplace_back("append_window",
                      EncodeAppendWindowFrame(db, 0, db.size()));
  frames.emplace_back("append_ack", EncodeAppendAckFrame(7, 300));
  frames.emplace_back("info", EncodeInfoResponseFrame(ServerInfo{3, 400, 5}));
  frames.emplace_back("replica_subscribe", EncodeReplicaSubscribeFrame(130));
  ReplicaCheckpoint checkpoint;
  checkpoint.min_support_floor = 0.015;
  checkpoint.min_confidence_floor = 0.25;
  checkpoint.max_itemset_size = 5;
  checkpoint.build_content_index = true;
  checkpoint.window_count = 12;
  checkpoint.generation = 370;
  frames.emplace_back("replica_checkpoint",
                      EncodeReplicaCheckpointFrame(checkpoint));
  frames.emplace_back("replica_record",
                      EncodeReplicaRecordFrame(4, 2000, 9, "segment"));
  frames.emplace_back("replica_heartbeat",
                      EncodeReplicaHeartbeatFrame(5, 300));
  const std::vector<std::string> expected = {
      "545701011a000000fa0102047b14ae47e17a943f9a9999999999d93f05000102"
      "0304",
      "545701081d000000ac02021200037b14ae47e17a943f9a9999999999d93f0608"
      "c701020103",
      "5457010206000000000303019003",
      "545701091100000002000600030102ac0201060162656c6f77",
      "545701030a00000064747279206c61746572",
      "545701041100000003c801030103c801ca01020205d00f0109",
      "545701050300000007ac02",
      "5457010d0400000003900305",
      "5457010e020000008201",
      "5457010f15000000b81e85eb51b88e3f000000000000d03f05010cf202",
      "545701100b00000004d00f097365676d656e74",
      "545701110300000005ac02",
  };
  ASSERT_EQ(frames.size(), expected.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(Hex(frames[i].second), expected[i]) << frames[i].first;
  }
}

/// A frame whose payload starts with `prefix` and is padded to
/// `payload_size` with 0xff bytes — each an unterminated varint, so the
/// first record after a claimed count fails to decode.
std::string HostileFrame(FrameType type, const std::string& prefix,
                         size_t payload_size) {
  std::string frame;
  AppendFrameHeader(type, payload_size, &frame);
  frame += prefix;
  frame.resize(kWireHeaderBytes + payload_size, '\xff');
  return frame;
}

/// Payload prefixes that claim 60M records: a batch of requests (after a
/// zero deadline), a batch of results, and a trajectory result (after its
/// kind byte and an empty rule list).
std::string ClaimsSixtyMillion(FrameType type) {
  std::string prefix;
  if (type == FrameType::kBatchExecute) prefix.push_back(0);
  if (type == FrameType::kResult) {
    prefix.push_back(static_cast<char>(QueryKind::kTrajectory));
    prefix.push_back(0);
  }
  prefix += "\x80\x8e\xce\x1c";  // varint 60,000,000
  return prefix;
}

/// The most trajectory points the rest of a full-size ClaimsPoints
/// payload can hold at 18 bytes a point, the least a point encodes to.
constexpr uint64_t kPointsThatFit = (kWireMaxPayloadBytes - 3 - 4) / 18;

/// A trajectory result prefix — kind byte, no rules, one trajectory —
/// claiming `points` points in a 4-byte count.
std::string ClaimsPoints(uint64_t points) {
  std::string prefix;
  prefix.push_back(static_cast<char>(QueryKind::kTrajectory));
  prefix.push_back(0);  // no rules
  prefix.push_back(1);  // one trajectory
  if (codec::VarintLength(points) != 4) std::abort();
  codec::PutVarint(points, &prefix);
  return prefix;
}

/// A kBatchExecute frame of as many minimal requests, each behind a
/// one-byte length, as a full-size payload holds: about 16.7M requests,
/// 1.6 GB once decoded.
std::string FullSizeMinimalBatch() {
  const std::string request = EncodeQueryRequest(MinimalRequest());
  const uint64_t count = (kWireMaxPayloadBytes - 5) / (1 + request.size());
  std::string payload;
  payload.reserve(kWireMaxPayloadBytes);
  payload.push_back(0);  // no deadline
  if (codec::VarintLength(count) != 4) std::abort();
  codec::PutVarint(count, &payload);
  for (uint64_t i = 0; i < count; ++i) {
    payload.push_back(static_cast<char>(request.size()));
    payload += request;
  }
  return EncodeFrame(FrameType::kBatchExecute, payload);
}

bool DecodesToTypedError(const std::string& frame) {
  const auto decoded = DecodeFrame(frame);
  if (!decoded.has_value()) return false;
  switch (decoded->header.type) {
    case FrameType::kBatchExecute:
      return !DecodeBatchExecutePayload(decoded->payload).has_value();
    case FrameType::kBatchResult:
      return !DecodeBatchResultPayload(decoded->payload).has_value();
    case FrameType::kResult:
      return !DecodeResultPayload(decoded->payload).has_value();
    default:
      return false;
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

// A decoder may size an allocation only from bytes it has: a count the
// payload cannot back is a typed error, and records that take more memory
// than their encoding grow as they decode — or, like trajectory points,
// are sized from a count checked against their least encoded size. In a
// child capped at 512 MiB of address space, 64 MiB frames claiming 60M
// records must come back as typed errors; sizing from the count (5.8 GB
// of requests, 1.4 GB of trajectories) would die of std::bad_alloc
// instead. A batch also counts at most kWireMaxBatchRequests items, so a
// full-size frame of well-formed minimal requests (1.6 GB decoded) is a
// typed error too.
TEST(WireFormatDeathTest, HostileCountsNeverSizeAnAllocation) {
  if (kSanitized) {
    GTEST_SKIP() << "sanitizers reserve shadow memory past any RLIMIT_AS cap";
  }
  const auto decode_capped = [] {
    const rlimit cap{512ull << 20, 512ull << 20};
    if (setrlimit(RLIMIT_AS, &cap) != 0) std::_Exit(2);
    for (const FrameType type : {FrameType::kBatchExecute,
                                 FrameType::kBatchResult, FrameType::kResult}) {
      const std::string frame =
          HostileFrame(type, ClaimsSixtyMillion(type), kWireMaxPayloadBytes);
      if (!DecodesToTypedError(frame)) std::_Exit(3);
    }
    // Points are sized from their count: one point past what the bytes
    // can hold, and 60M (1.4 GB of points), are rejected; exactly what
    // they can hold sizes the points (at most 24/18 of the payload), and
    // the junk behind the count is then a typed error.
    for (const uint64_t points :
         {kPointsThatFit + 1, uint64_t{60'000'000}, kPointsThatFit}) {
      const std::string frame = HostileFrame(
          FrameType::kResult, ClaimsPoints(points), kWireMaxPayloadBytes);
      if (!DecodesToTypedError(frame)) std::_Exit(4);
    }
    // Well-formed minimal requests filling a full-size frame: only the
    // batch cap stops them before they decode.
    if (!DecodesToTypedError(FullSizeMinimalBatch())) std::_Exit(5);
    std::_Exit(0);
  };
  EXPECT_EXIT(decode_capped(), ::testing::ExitedWithCode(0), "");
}

/// Decodes `bytes` through every payload decoder its header names. The
/// fuzz invariant: typed error or benign success, never a crash/abort.
void DecodeEverything(const std::string& bytes) {
  const auto frame = DecodeFrame(bytes);
  if (!frame.has_value()) return;
  switch (frame->header.type) {
    case FrameType::kExecute:
      (void)DecodeExecutePayload(frame->payload);
      break;
    case FrameType::kResult:
      (void)DecodeResultPayload(frame->payload);
      break;
    case FrameType::kError:
      (void)DecodeErrorPayload(frame->payload);
      break;
    case FrameType::kAppendWindow:
      (void)DecodeAppendWindowPayload(frame->payload);
      break;
    case FrameType::kAppendAck:
      (void)DecodeAppendAckPayload(frame->payload);
      break;
    case FrameType::kBatchExecute:
      (void)DecodeBatchExecutePayload(frame->payload);
      break;
    case FrameType::kBatchResult:
      (void)DecodeBatchResultPayload(frame->payload);
      break;
    case FrameType::kInfoResponse:
      (void)DecodeInfoResponsePayload(frame->payload);
      break;
    case FrameType::kReplicaSubscribe:
      (void)DecodeReplicaSubscribePayload(frame->payload);
      break;
    case FrameType::kReplicaCheckpoint:
      (void)DecodeReplicaCheckpointPayload(frame->payload);
      break;
    case FrameType::kReplicaRecord:
      (void)DecodeReplicaRecordPayload(frame->payload);
      break;
    case FrameType::kReplicaHeartbeat:
      (void)DecodeReplicaHeartbeatPayload(frame->payload);
      break;
    default:
      break;
  }
}

TEST(WireFormatFuzz, CorruptedFramesNeverCrash) {
  // Seed corpus: one frame of every interesting type.
  std::vector<std::string> corpus;
  for (const QueryRequest& request : AllKindsOfRequests()) {
    corpus.push_back(EncodeExecuteFrame(request, 100));
  }
  corpus.push_back(EncodeBatchExecuteFrame(AllKindsOfRequests(), 50));
  // Thresholds are raw f64 bits: an execute frame carrying a NaN.
  corpus.push_back(EncodeExecuteFrame(
      QueryRequest::MineWindow(
          0, ParameterSetting{
                 std::bit_cast<double>(uint64_t{0x7ff8dead0000beef}), 0.3}),
      100));
  // A result frame of every kind, and a batch of them, so every result
  // decoder (the flat trajectory and content-view ones included) meets
  // truncated, flipped and corrupted bytes.
  std::vector<QueryKind> kinds;
  std::vector<Expected<QueryResult, QueryError>> results;
  for (const auto& [kind, result] : OneResultOfEachKind()) {
    corpus.push_back(EncodeResultFrame(kind, result));
    kinds.push_back(kind);
    results.emplace_back(result);
  }
  corpus.push_back(EncodeBatchResultFrame(kinds, results));
  corpus.push_back(EncodeErrorFrame(ServerWireError::kOverloaded, "x"));
  TransactionDatabase db;
  db.Append(10, {1, 2});
  db.Append(11, {3});
  corpus.push_back(EncodeAppendWindowFrame(db, 0, db.size()));
  corpus.push_back(EncodeAppendAckFrame(1, 2));
  corpus.push_back(EncodeInfoResponseFrame(ServerInfo{3, 4, 5}));
  corpus.push_back(EncodeReplicaSubscribeFrame(6));
  ReplicaCheckpoint checkpoint;
  checkpoint.min_support_floor = 0.01;
  checkpoint.min_confidence_floor = 0.2;
  checkpoint.max_itemset_size = 4;
  checkpoint.build_content_index = true;
  checkpoint.window_count = 8;
  checkpoint.generation = 21;
  corpus.push_back(EncodeReplicaCheckpointFrame(checkpoint));
  corpus.push_back(EncodeReplicaRecordFrame(3, 1500, 7, "fuzzable segment"));
  corpus.push_back(EncodeReplicaHeartbeatFrame(5, 9));
  // Counts the bytes behind them cannot back.
  for (const FrameType type : {FrameType::kBatchExecute,
                               FrameType::kBatchResult, FrameType::kResult}) {
    corpus.push_back(HostileFrame(type, ClaimsSixtyMillion(type), 24));
  }

  Rng rng(20240807);
  for (const std::string& seed : corpus) {
    // Every truncation point.
    for (size_t n = 0; n <= seed.size(); ++n) {
      DecodeEverything(seed.substr(0, n));
    }
    // Single-byte flips at every offset.
    for (size_t i = 0; i < seed.size(); ++i) {
      for (const uint8_t flip : {uint8_t{1}, uint8_t{0x80}, uint8_t{0xff}}) {
        std::string corrupt = seed;
        corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
        DecodeEverything(corrupt);
      }
    }
    // Random multi-byte corruption.
    for (int round = 0; round < 200; ++round) {
      std::string corrupt = seed;
      const int edits = 1 + static_cast<int>(rng.Next() % 8);
      for (int e = 0; e < edits; ++e) {
        const size_t at = rng.Next() % corrupt.size();
        corrupt[at] = static_cast<char>(rng.Next());
      }
      DecodeEverything(corrupt);
    }
  }
  // Pure garbage, including sizes around the header boundary.
  for (int round = 0; round < 500; ++round) {
    const size_t size = rng.Next() % 64;
    std::string garbage(size, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.Next());
    DecodeEverything(garbage);
  }
  SUCCEED();
}

}  // namespace
}  // namespace tara
