#ifndef TARA_COMMON_HASH_H_
#define TARA_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tara {

/// 64-bit mix used to combine hash values (based on MurmurHash3 finalizer).
inline uint64_t HashMix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// Combines a value into a running hash seed.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return HashMix(seed ^ (value + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                         (seed >> 2)));
}

/// Order-sensitive hash of an integer sequence (itemsets are kept sorted, so
/// this doubles as a set hash for canonical itemsets).
template <typename Int>
uint64_t HashSpan(const std::vector<Int>& values) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (const Int v : values) h = HashCombine(h, static_cast<uint64_t>(v));
  return h;
}

/// The same mixing over raw bytes; the checksum used by the persisted
/// segment formats and the write-ahead log.
inline uint64_t HashBytes(const uint8_t* data, size_t size) {
  uint64_t h = 0x2545f4914f6cdd1dULL;
  for (size_t i = 0; i < size; ++i) h = HashCombine(h, data[i]);
  return h;
}

}  // namespace tara

#endif  // TARA_COMMON_HASH_H_
