#ifndef TARA_COMMON_ARENA_H_
#define TARA_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace tara {

/// Bump allocator for per-query decode scratch: the TAR Archive's
/// DecodeInto and BuildTrajectoryInto carve their transient output out of
/// one of these instead of materializing a fresh std::vector per call.
///
/// ## Lifetime contract
///
/// - Every span handed out stays valid until the NEXT Reset() (or
///   destruction). Reset() invalidates all of them at once — callers that
///   loop (one decode per rule, say) Reset() at the top of each iteration
///   and must not hold spans across iterations.
/// - Memory is never returned mid-query: allocation is a pointer bump,
///   deallocation is the single Reset(). The first kInlineBytes live on
///   the arena itself (typically the caller's stack frame), so small
///   queries never touch the heap at all.
/// - Reset() retains capacity. After one warm pass, a repeat of the same
///   workload allocates nothing: overflow blocks are coalesced into one
///   block sized to the previous high-water mark.
/// - NOT thread-safe. One arena per query, on the thread running it.
class DecodeArena {
 public:
  /// Queries decoding a handful of entries (the common interactive case)
  /// fit here and never heap-allocate.
  static constexpr size_t kInlineBytes = 4096;

  DecodeArena() = default;
  DecodeArena(const DecodeArena&) = delete;
  DecodeArena& operator=(const DecodeArena&) = delete;

  /// Uninitialized storage for `count` objects of trivially-destructible
  /// type T, aligned for T. The arena never runs destructors.
  template <typename T>
  std::span<T> AllocSpan(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "the arena never runs destructors");
    T* data =
        reinterpret_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
    return std::span<T>(data, count);
  }

  /// Invalidates every outstanding span and rewinds to empty, keeping
  /// capacity (coalescing overflow blocks so steady-state reuse stays
  /// allocation-free).
  void Reset();

  /// Bytes handed out since the last Reset().
  size_t used_bytes() const { return used_bytes_; }
  /// Largest used_bytes() ever observed — what Reset() sizes the single
  /// retained overflow block to.
  size_t high_water_bytes() const { return high_water_bytes_; }
  /// Heap blocks currently retained (0 until a query outgrows the inline
  /// buffer; 1 in steady state after).
  size_t heap_block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<uint8_t[]> bytes;
    size_t capacity = 0;
  };

  uint8_t* Allocate(size_t bytes, size_t alignment);
  /// Slow path: moves the cursor into the next retained block (Reset()
  /// keeps capacity), opening a new one only when none fits `bytes`.
  uint8_t* AllocateSlow(size_t bytes, size_t alignment);

  alignas(alignof(std::max_align_t)) uint8_t inline_buffer_[kInlineBytes];
  /// Bump cursor within the current block (inline buffer first).
  uint8_t* cursor_ = inline_buffer_;
  uint8_t* cursor_end_ = inline_buffer_ + kInlineBytes;
  /// Overflow blocks, in allocation order; blocks_[0, entered_blocks_)
  /// have been carved from since the last Reset(), the rest are retained
  /// capacity waiting for reuse.
  std::vector<Block> blocks_;
  size_t entered_blocks_ = 0;
  size_t used_bytes_ = 0;
  size_t high_water_bytes_ = 0;
};

}  // namespace tara

#endif  // TARA_COMMON_ARENA_H_
