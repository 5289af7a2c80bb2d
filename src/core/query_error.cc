#include "core/query_error.h"

namespace tara {

std::string_view QueryErrorCodeName(QueryError::Code code) {
  switch (code) {
    case QueryError::Code::kSupportBelowFloor:
      return "support_below_floor";
    case QueryError::Code::kConfidenceBelowFloor:
      return "confidence_below_floor";
    case QueryError::Code::kBadWindow:
      return "bad_window";
    case QueryError::Code::kEmptyWindowSet:
      return "empty_window_set";
    case QueryError::Code::kWindowSetMismatch:
      return "window_set_mismatch";
    case QueryError::Code::kUnknownRule:
      return "unknown_rule";
    case QueryError::Code::kNoContentIndex:
      return "no_content_index";
    case QueryError::Code::kCorruptStorage:
      return "corrupt_storage";
    case QueryError::Code::kNonFiniteSetting:
      return "non_finite_setting";
  }
  return "unknown";
}

std::optional<QueryError::Code> QueryErrorFromWireCode(uint32_t code) {
  switch (code) {
    case 1:
      return QueryError::Code::kSupportBelowFloor;
    case 2:
      return QueryError::Code::kConfidenceBelowFloor;
    case 3:
      return QueryError::Code::kBadWindow;
    case 4:
      return QueryError::Code::kEmptyWindowSet;
    case 5:
      return QueryError::Code::kWindowSetMismatch;
    case 6:
      return QueryError::Code::kUnknownRule;
    case 7:
      return QueryError::Code::kNoContentIndex;
    case 8:
      return QueryError::Code::kCorruptStorage;
    case 9:
      return QueryError::Code::kNonFiniteSetting;
    default:
      return std::nullopt;
  }
}

std::ostream& operator<<(std::ostream& out, const QueryError& error) {
  return out << "QueryError[" << QueryErrorCodeName(error.code) << "]: "
             << error.message;
}

}  // namespace tara
