#ifndef TARA_CORE_DECODE_KERNELS_H_
#define TARA_CORE_DECODE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/arena.h"
#include "common/byte_codec.h"
#include "common/cpu_features.h"
#include "core/tar_archive.h"

namespace tara::decode {

/// Typed outcome of decoding one TAR Archive rule stream. Kernels never
/// crash on malformed bytes; every way a stream can be wrong maps to a
/// status, and all kernels are required to agree on it (the differential
/// tests pin this).
enum class Status : uint8_t {
  kOk = static_cast<uint8_t>(codec::VarintStatus::kOk),
  /// Stream ends in the middle of a varint.
  kTruncated = static_cast<uint8_t>(codec::VarintStatus::kTruncated),
  /// A varint continues past the 10-byte / 64-bit limit.
  kOverlong = static_cast<uint8_t>(codec::VarintStatus::kOverlong),
  /// Stream ends cleanly between varints but the value count is not a
  /// multiple of 3 (window, rule delta, antecedent delta).
  kDanglingValues,
  /// Caller-provided output or scratch span too small; cannot happen when
  /// sized with MaxEntriesForStream / MaxValuesForStream.
  kCapacityExceeded,
};

const char* StatusName(Status status);

struct DecodeResult {
  Status status = Status::kOk;
  /// Entries fully reconstructed before the stream ended or went bad.
  size_t entries = 0;
};

/// Upper bound on entries a well-formed stream of `stream_bytes` can hold:
/// every entry is three varints of at least one byte each.
inline size_t MaxEntriesForStream(size_t stream_bytes) {
  return stream_bytes / 3;
}

/// Upper bound on individual varint values in the stream (one per byte);
/// sizes the u64 scratch the two-phase SSE4 kernel splits into.
inline size_t MaxValuesForStream(size_t stream_bytes) {
  return stream_bytes;
}

/// One decode implementation. `decode` parses `size` bytes of a rule
/// stream into `out` (capacity `out_capacity` entries). Kernels with
/// `needs_scratch` split varints into `scratch` (capacity
/// `scratch_capacity` u64s) before reconstructing; pass
/// MaxValuesForStream-sized scratch, or any span for scalar.
struct DecodeKernel {
  const char* name;
  bool needs_scratch;
  DecodeResult (*decode)(const uint8_t* data, size_t size, ArchiveEntry* out,
                         size_t out_capacity, uint64_t* scratch,
                         size_t scratch_capacity);
};

/// The portable byte-at-a-time reference every SIMD variant must match
/// byte-for-byte. Always available.
const DecodeKernel& ScalarDecodeKernel();

/// Every kernel runnable on this host (scalar first), regardless of what
/// dispatch would pick — the differential oracle iterates this.
std::span<const DecodeKernel> SupportedDecodeKernels();

/// Pure dispatch: picks the widest kernel the given features allow, or
/// scalar when `force_scalar` is set. Exposed so tests can exercise every
/// dispatch decision in-process.
const DecodeKernel& DispatchDecodeKernel(const CpuFeatures& features,
                                         bool force_scalar);

/// Cached process-wide dispatch over the real CPUID probe and the
/// TARA_FORCE_SCALAR override.
const DecodeKernel& ActiveDecodeKernel();

/// Checked decode of an untrusted byte stream (fuzz inputs, on-disk bytes)
/// with the active kernel. Entries live in `arena` until its next Reset().
/// On error, `entries` still holds the valid prefix decoded before the
/// stream went bad.
struct CheckedDecode {
  Status status = Status::kOk;
  std::span<const ArchiveEntry> entries;
};
CheckedDecode DecodeStreamChecked(std::span<const uint8_t> bytes,
                                  DecodeArena& arena);
/// Same, with an explicit kernel (the fuzz oracle runs every supported
/// kernel and asserts agreement).
CheckedDecode DecodeStreamCheckedWith(const DecodeKernel& kernel,
                                      std::span<const uint8_t> bytes,
                                      DecodeArena& arena);

}  // namespace tara::decode

#endif  // TARA_CORE_DECODE_KERNELS_H_
