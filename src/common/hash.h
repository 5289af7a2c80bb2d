#ifndef TARA_COMMON_HASH_H_
#define TARA_COMMON_HASH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
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

/// out[i] = HashBytes(inputs[i]) for every input. One HashBytes chain
/// waits on its previous byte's multiplies, so this advances eight chains
/// in one loop, each for as many bytes as the shortest busy lane has
/// left; a finished lane takes the next input, and an idle lane hashes a
/// busy lane's bytes and is discarded.
inline void HashBytesMany(std::span<const std::span<const uint8_t>> inputs,
                          uint64_t* out) {
  constexpr size_t kLanes = 8;
  std::span<const uint8_t> lane[kLanes];  // a busy lane's unread bytes
  uint64_t* dest[kLanes] = {};            // where its hash goes
  uint64_t h[kLanes] = {};
  for (size_t next = 0;;) {
    size_t step = SIZE_MAX, busy = kLanes;
    for (size_t j = 0; j < kLanes; ++j) {
      for (; lane[j].empty() && next < inputs.size(); ++next) {
        *(dest[j] = out + next) = h[j] = HashBytes(nullptr, 0);
        lane[j] = inputs[next];
      }
      if (lane[j].empty()) continue;
      step = std::min(step, lane[j].size());
      busy = j;
    }
    if (busy == kLanes) return;
    const uint8_t* at[kLanes];
    for (size_t j = 0; j < kLanes; ++j) {
      at[j] = (lane[j].empty() ? lane[busy] : lane[j]).data();
    }
    for (size_t i = 0; i < step; ++i) {
      for (size_t j = 0; j < kLanes; ++j) h[j] = HashCombine(h[j], at[j][i]);
    }
    for (size_t j = 0; j < kLanes; ++j) {
      if (lane[j].empty()) continue;
      lane[j] = lane[j].subspan(step);
      *dest[j] = h[j];
    }
  }
}

}  // namespace tara

#endif  // TARA_COMMON_HASH_H_
