#ifndef TARA_COMMON_BYTE_CODEC_H_
#define TARA_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

/// The one byte codec of every TARA format: TSEG segments, the stream and
/// TARAKB3 manifests, the WAL, wire frames and payloads, query-cache keys
/// and the TAR Archive's rule streams. Three encodings cover them all:
///
/// - integers are LEB128 varints (seven bits a byte, low group first);
///   signed deltas are zigzagged first, so small magnitudes stay short;
/// - checksums, lengths and doubles (their IEEE-754 bits) are
///   little-endian fixed-width words;
/// - itemsets are a varint count, then the gaps between the sorted ids.
///
/// Each encoding is written once: WriteVarint and WriteFixed are the only
/// encoders, templates over the output they write through. PutVarint,
/// PutFixed and ByteWriter append to a std::string (wire, cache) or
/// std::vector<uint8_t> (persistence) through a back_inserter; query
/// answers, the hottest encode, run their grammar over a ByteCount to size
/// the answer, then write it through a raw char* cursor into one
/// exact-size buffer. Untrusted bytes are read only through GetVarint and
/// ByteReader, which report a short or malformed input instead of
/// aborting.
namespace tara::codec {

/// Outcome of decoding one varint.
enum class VarintStatus : uint8_t {
  kOk = 0,
  /// The bytes end inside the varint.
  kTruncated,
  /// The varint continues past 64 bits (ten bytes).
  kOverlong,
};

/// Bytes the LEB128 encoding of `value` takes. A loop of comparisons, not
/// countl_zero: the ids and counts sized here are mostly one or two bytes.
inline size_t VarintLength(uint64_t value) {
  size_t length = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++length;
  }
  return length;
}

/// The one varint encoder: writes the LEB128 encoding of `value` through
/// the output iterator `out` and returns it advanced. A raw char* cursor
/// needs room for VarintLength(value) bytes; exact-size writers keep it in
/// a local variable, since a cursor held in memory is reloaded after every
/// byte store (a char store may alias it).
template <typename Out>
inline Out WriteVarint(uint64_t value, Out out) {
  while (value >= 0x80) {
    *out++ = static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  *out++ = static_cast<char>(value);
  return out;
}

/// The one fixed-width encoder: writes `value` as sizeof(UInt)
/// little-endian bytes through `out` and returns it advanced. A char*
/// cursor on a little-endian host takes one store, where a byte loop is
/// not always merged.
template <typename UInt, typename Out>
inline Out WriteFixed(UInt value, Out out) {
  if constexpr (std::is_same_v<Out, char*> &&
                std::endian::native == std::endian::little) {
    std::memcpy(out, &value, sizeof(UInt));
    return out + sizeof(UInt);
  } else {
    for (size_t i = 0; i < sizeof(UInt); ++i) {
      *out++ = static_cast<char>(value >> (8 * i));
    }
    return out;
  }
}

template <typename Out>
inline Out WriteByte(uint8_t value, Out out) {
  *out++ = static_cast<char>(value);
  return out;
}

/// Exact-size writers run one grammar twice: over a ByteCount, which only
/// adds up what each step would write, then over a raw char* cursor into
/// a buffer of that size. Every step takes its output by value and
/// returns it, so the writing pass keeps its cursor in a register.
struct ByteCount {
  size_t bytes = 0;
};

inline ByteCount WriteVarint(uint64_t value, ByteCount out) {
  return {out.bytes + VarintLength(value)};
}
template <typename UInt>
inline ByteCount WriteFixed(UInt, ByteCount out) {
  return {out.bytes + sizeof(UInt)};
}
inline ByteCount WriteByte(uint8_t, ByteCount out) { return {out.bytes + 1}; }

/// A count, then each id as a varint; `ids` is a vector or a span.
template <typename Ids, typename Out>
inline Out WriteIdList(const Ids& ids, Out out) {
  out = WriteVarint(ids.size(), out);
  for (const auto id : ids) out = WriteVarint(id, out);
  return out;
}

/// Appends the LEB128 encoding of `value` to a std::string or byte vector.
template <typename Bytes>
inline void PutVarint(uint64_t value, Bytes* out) {
  WriteVarint(value, std::back_inserter(*out));
}

/// Appends `value` as sizeof(UInt) little-endian bytes.
template <typename UInt, typename Bytes>
inline void PutFixed(UInt value, Bytes* out) {
  WriteFixed(value, std::back_inserter(*out));
}

/// Decodes the varint at `data[*pos]`. On kOk stores the value and
/// advances `*pos` past it; otherwise `*pos` and `*out` are unspecified.
/// Inline: the archive's decode kernels run it per value.
inline VarintStatus GetVarint(const uint8_t* data, size_t size, size_t* pos,
                              uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (*pos >= size) return VarintStatus::kTruncated;
    const uint8_t byte = data[(*pos)++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) return VarintStatus::kOverlong;
  }
  *out = value;
  return VarintStatus::kOk;
}

/// Zigzag maps signed values to unsigned so small-magnitude negatives stay
/// short: 0→0, -1→1, 1→2, -2→3, ...
inline uint64_t ZigzagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

/// Inverse of ZigzagEncode.
inline int64_t ZigzagDecode(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

/// Reads sizeof(UInt) little-endian bytes at `data`, which the caller has
/// checked are there.
template <typename UInt>
inline UInt GetFixed(const uint8_t* data) {
  UInt value = 0;
  for (size_t i = 0; i < sizeof(UInt); ++i) {
    value |= static_cast<UInt>(data[i]) << (8 * i);
  }
  return value;
}

/// Builds one encoded value in a std::vector<uint8_t> (persistence) or a
/// std::string (wire, cache).
template <typename Bytes = std::vector<uint8_t>>
class ByteWriter {
 public:
  void Byte(uint8_t byte) {
    bytes_.push_back(static_cast<typename Bytes::value_type>(byte));
  }
  /// Byte by byte: GCC 12 reports a false -Wstringop-overflow for a range
  /// insert into a still-empty vector once this writer is inlined.
  void Magic(const char* magic, size_t len) {
    for (size_t i = 0; i < len; ++i) Byte(static_cast<uint8_t>(magic[i]));
  }
  /// Appends raw bytes: a string, string_view or byte vector.
  template <typename Range>
  void Append(const Range& bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  }
  void U64(uint64_t value) { PutVarint(value, &bytes_); }
  void Raw32(uint32_t bits) { PutFixed(bits, &bytes_); }
  void Raw64(uint64_t bits) { PutFixed(bits, &bytes_); }
  void F64(double value) { Raw64(std::bit_cast<uint64_t>(value)); }
  /// A count, then each id as a varint.
  template <typename Int>
  void IdList(const std::vector<Int>& ids) {
    WriteIdList(ids, std::back_inserter(bytes_));
  }
  /// A count, then the gaps between the sorted item ids.
  template <typename Int>
  void Items(const std::vector<Int>& items) {
    U64(items.size());
    Int previous = 0;
    for (const Int item : items) {
      U64(item - previous);
      previous = item;
    }
  }
  void Reserve(size_t size) { bytes_.reserve(size); }

  const Bytes& bytes() const& { return bytes_; }
  Bytes bytes() && { return std::move(bytes_); }

 private:
  Bytes bytes_;
};

using StringWriter = ByteWriter<std::string>;

/// Abort-free cursor over untrusted bytes: every getter returns false on
/// a short or malformed input instead of failing a check.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(std::string_view bytes)
      : ByteReader(reinterpret_cast<const uint8_t*>(bytes.data()),
                   bytes.size()) {}

  bool Magic(const char* magic, size_t len) {
    if (remaining() < len || std::memcmp(data_ + pos_, magic, len) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }
  bool Byte(uint8_t* out) {
    if (pos_ >= size_) return false;
    *out = data_[pos_++];
    return true;
  }
  bool U64(uint64_t* out) {
    return GetVarint(data_, size_, &pos_, out) == VarintStatus::kOk;
  }
  /// An element count, rejected when the remaining bytes cannot hold that
  /// many elements of at least one byte each — so a decoder may size a
  /// buffer of small elements from it. Records larger than their encoding
  /// must still grow as they decode.
  bool Count(uint64_t* out) { return U64(out) && *out <= remaining(); }
  bool Raw64(uint64_t* out) {
    if (remaining() < sizeof(uint64_t)) return false;
    *out = GetFixed<uint64_t>(data_ + pos_);
    pos_ += sizeof(uint64_t);
    return true;
  }
  bool F64(double* out) {
    uint64_t bits = 0;
    if (!Raw64(&bits)) return false;
    *out = std::bit_cast<double>(bits);
    return true;
  }
  /// A varint id, rejected (like a short one) when it does not fit `Int`:
  /// narrowing it would name another id.
  template <typename Int>
  bool Id(Int* out) {
    uint64_t id = 0;
    if (!U64(&id) || id > std::numeric_limits<Int>::max()) return false;
    *out = static_cast<Int>(id);
    return true;
  }
  /// Inverse of ByteWriter::IdList; every id must fit `Int`.
  template <typename Int>
  bool IdList(std::vector<Int>* out) {
    uint64_t count = 0;
    if (!Count(&count)) return false;
    out->clear();
    out->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      Int id = 0;
      if (!Id(&id)) return false;
      out->push_back(id);
    }
    return true;
  }
  /// Inverse of ByteWriter::Items; every item must fit `Int`.
  template <typename Int>
  bool Items(std::vector<Int>* out) {
    uint64_t count = 0;
    if (!Count(&count)) return false;
    out->clear();
    out->reserve(count);
    uint64_t previous = 0;
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t delta = 0;
      if (!U64(&delta) ||
          delta > uint64_t{std::numeric_limits<Int>::max()} - previous) {
        return false;
      }
      previous += delta;
      out->push_back(static_cast<Int>(previous));
    }
    return true;
  }
  /// The next `length` bytes, skipped over.
  bool Slice(uint64_t length, std::string_view* out) {
    if (length > remaining()) return false;
    *out = std::string_view(reinterpret_cast<const char*>(data_ + pos_),
                            length);
    pos_ += length;
    return true;
  }
  /// Everything not yet read (the cursor does not move).
  std::string_view Rest() const {
    return std::string_view(reinterpret_cast<const char*>(data_ + pos_),
                            remaining());
  }
  bool AtEnd() const { return pos_ == size_; }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tara::codec

#endif  // TARA_COMMON_BYTE_CODEC_H_
