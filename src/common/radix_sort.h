#ifndef TARA_COMMON_RADIX_SORT_H_
#define TARA_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace tara {

/// Sorts `values` ascending by the uint64_t `key(value)` with a stable
/// least-significant-digit radix sort. It sorts only on the bits in which
/// some key differs from the first, in as few counting passes as digits of
/// at most 11 bits allow: keys that differ only within 11 adjacent bits
/// take one pass, a counting sort. Being stable, sorting by the least
/// significant of several fields first orders by all of them.
template <typename T, typename Key = std::identity>
void RadixSort(std::vector<T>* values, Key key = {}) {
  if (values->empty()) return;
  const uint64_t first = key(values->front());
  uint64_t varying = 0;
  for (const T& value : *values) varying |= key(value) ^ first;
  if (varying == 0) return;
  const int low = std::countr_zero(varying);
  const int span = std::bit_width(varying) - low;
  const int passes = (span + 10) / 11;
  const int width = (span + passes - 1) / passes;
  const uint64_t mask = (uint64_t{1} << width) - 1;
  std::vector<size_t> count(size_t{1} << width);
  std::vector<T> buffer(values->size());
  for (int shift = low; shift < low + span; shift += width) {
    std::fill(count.begin(), count.end(), 0);
    for (const T& value : *values) ++count[key(value) >> shift & mask];
    size_t sum = 0;
    for (size_t& c : count) sum += std::exchange(c, sum);
    for (const T& value : *values) {
      buffer[count[key(value) >> shift & mask]++] = value;
    }
    values->swap(buffer);
  }
}

}  // namespace tara

#endif  // TARA_COMMON_RADIX_SORT_H_
