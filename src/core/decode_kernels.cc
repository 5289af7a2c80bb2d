#include "core/decode_kernels.h"

#include <vector>

#include "common/byte_codec.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TARA_X86 1
#endif

namespace tara::decode {
namespace {

/// The shared varint decoder; its three outcomes are the first three
/// Status values, so every kernel classifies a bad varint alike.
inline Status NextVarint(const uint8_t* data, size_t size, size_t* pos,
                         uint64_t* out) {
  return static_cast<Status>(codec::GetVarint(data, size, pos, out));
}

/// Phase B of the two-phase SSE4 kernel: turns the flat varint value
/// array into entries with exactly the arithmetic of TarArchive's scalar
/// VisitEntries scan — uint32 wrap on window gaps, uint64 wrap on zigzag
/// count deltas.
DecodeResult ReconstructEntries(const uint64_t* values, size_t value_count,
                                Status tail_status, ArchiveEntry* out,
                                size_t out_capacity) {
  const size_t triples = value_count / 3;
  if (triples > out_capacity) return {Status::kCapacityExceeded, 0};
  ArchiveEntry entry;
  for (size_t t = 0; t < triples; ++t) {
    const uint64_t* v = values + t * 3;
    if (t == 0) {
      entry.window = static_cast<WindowId>(v[0]);
      entry.rule_count = v[1];
      entry.antecedent_count = v[2];
    } else {
      entry.window += static_cast<WindowId>(v[0]);
      entry.rule_count += static_cast<uint64_t>(codec::ZigzagDecode(v[1]));
      entry.antecedent_count +=
          static_cast<uint64_t>(codec::ZigzagDecode(v[2]));
    }
    out[t] = entry;
  }
  if (tail_status != Status::kOk) return {tail_status, triples};
  if (value_count % 3 != 0) return {Status::kDanglingValues, triples};
  return {Status::kOk, triples};
}

// ---------------------------------------------------------------------------
// Scalar reference: single pass, no scratch.
// ---------------------------------------------------------------------------

DecodeResult ScalarDecode(const uint8_t* data, size_t size, ArchiveEntry* out,
                          size_t out_capacity, uint64_t* /*scratch*/,
                          size_t /*scratch_capacity*/) {
  size_t pos = 0;
  size_t n = 0;
  ArchiveEntry entry;
  while (pos < size) {
    uint64_t v[3];
    for (int i = 0; i < 3; ++i) {
      // A clean end between varints mid-triple means the value count is
      // off, not that a varint was cut short.
      if (i > 0 && pos >= size) return {Status::kDanglingValues, n};
      const Status st = NextVarint(data, size, &pos, &v[i]);
      if (st != Status::kOk) return {st, n};
    }
    if (n == out_capacity) return {Status::kCapacityExceeded, n};
    if (n == 0) {
      entry.window = static_cast<WindowId>(v[0]);
      entry.rule_count = v[1];
      entry.antecedent_count = v[2];
    } else {
      entry.window += static_cast<WindowId>(v[0]);
      entry.rule_count += static_cast<uint64_t>(codec::ZigzagDecode(v[1]));
      entry.antecedent_count +=
          static_cast<uint64_t>(codec::ZigzagDecode(v[2]));
    }
    out[n++] = entry;
  }
  return {Status::kOk, n};
}

// ---------------------------------------------------------------------------
// The two-phase SIMD kernel. Phase A splits the byte stream into u64
// varint values, using a movemask over continuation bits to fast-path
// chunks that are all single-byte varints (the dominant case: stable rules
// delta-encode to 1-byte gaps and deltas). Phase B is the reconstruction
// above.
// ---------------------------------------------------------------------------

#ifdef TARA_X86

__attribute__((target("sse4.1"))) DecodeResult Sse4Decode(
    const uint8_t* data, size_t size, ArchiveEntry* out, size_t out_capacity,
    uint64_t* scratch, size_t scratch_capacity) {
  if (scratch_capacity < MaxValuesForStream(size)) {
    return {Status::kCapacityExceeded, 0};
  }
  size_t pos = 0;
  size_t vc = 0;
  Status tail = Status::kOk;
  while (pos + 16 <= size) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + pos));
    const int cont_mask = _mm_movemask_epi8(chunk);
    if (cont_mask == 0) {
      // Sixteen complete one-byte varints; widen directly.
      for (int i = 0; i < 16; ++i) {
        scratch[vc + i] = data[pos + i];
      }
      vc += 16;
      pos += 16;
      continue;
    }
    // Mixed widths: decode varints one by one until we clear this chunk,
    // so the next iteration re-enters at a varint boundary.
    const size_t chunk_end = pos + 16;
    while (pos < chunk_end) {
      const Status st = NextVarint(data, size, &pos, &scratch[vc]);
      if (st != Status::kOk) {
        return ReconstructEntries(scratch, vc, st, out, out_capacity);
      }
      ++vc;
    }
  }
  while (pos < size) {
    const Status st = NextVarint(data, size, &pos, &scratch[vc]);
    if (st != Status::kOk) {
      tail = st;
      break;
    }
    ++vc;
  }
  return ReconstructEntries(scratch, vc, tail, out, out_capacity);
}

#endif  // TARA_X86

constexpr DecodeKernel kScalarKernel = {"scalar", /*needs_scratch=*/false,
                                        ScalarDecode};
#ifdef TARA_X86
constexpr DecodeKernel kSse4Kernel = {"sse4", /*needs_scratch=*/true,
                                      Sse4Decode};
#endif

std::vector<DecodeKernel> BuildSupportedKernels() {
  std::vector<DecodeKernel> kernels;
  kernels.push_back(kScalarKernel);
#ifdef TARA_X86
  const CpuFeatures& features = GetCpuFeatures();
  if (features.sse41) kernels.push_back(kSse4Kernel);
#endif
  return kernels;
}

}  // namespace

const char* StatusName(Status status) {
  switch (status) {
    case Status::kOk:
      return "ok";
    case Status::kTruncated:
      return "truncated";
    case Status::kOverlong:
      return "overlong";
    case Status::kDanglingValues:
      return "dangling-values";
    case Status::kCapacityExceeded:
      return "capacity-exceeded";
  }
  return "unknown";
}

const DecodeKernel& ScalarDecodeKernel() { return kScalarKernel; }

std::span<const DecodeKernel> SupportedDecodeKernels() {
  static const std::vector<DecodeKernel> kernels = BuildSupportedKernels();
  return kernels;
}

const DecodeKernel& DispatchDecodeKernel(const CpuFeatures& features,
                                         bool force_scalar) {
  if (force_scalar) return kScalarKernel;
#ifdef TARA_X86
  if (features.sse41) return kSse4Kernel;
#else
  (void)features;
#endif
  return kScalarKernel;
}

const DecodeKernel& ActiveDecodeKernel() {
  static const DecodeKernel& kernel =
      DispatchDecodeKernel(GetCpuFeatures(), ScalarDecodeForced());
  return kernel;
}

CheckedDecode DecodeStreamCheckedWith(const DecodeKernel& kernel,
                                      std::span<const uint8_t> bytes,
                                      DecodeArena& arena) {
  const size_t max_entries = MaxEntriesForStream(bytes.size());
  std::span<ArchiveEntry> out = arena.AllocSpan<ArchiveEntry>(max_entries);
  std::span<uint64_t> scratch;
  if (kernel.needs_scratch) {
    scratch = arena.AllocSpan<uint64_t>(MaxValuesForStream(bytes.size()));
  }
  const DecodeResult result =
      kernel.decode(bytes.data(), bytes.size(), out.data(), out.size(),
                    scratch.data(), scratch.size());
  return {result.status, out.subspan(0, result.entries)};
}

CheckedDecode DecodeStreamChecked(std::span<const uint8_t> bytes,
                                  DecodeArena& arena) {
  return DecodeStreamCheckedWith(ActiveDecodeKernel(), bytes, arena);
}

}  // namespace tara::decode
