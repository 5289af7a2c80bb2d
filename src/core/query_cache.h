#ifndef TARA_CORE_QUERY_CACHE_H_
#define TARA_CORE_QUERY_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/query_kind.h"
#include "obs/metrics.h"

namespace tara {

/// A sharded, memory-bounded LRU cache of finished answers, keyed by
/// (generation, QueryKind, canonical request bytes), that admits an
/// answer only on its request's second offer.
///
/// ## Values are finished frames, shared
///
/// A value is the complete kResult frame of one answer (wire_format.h:
/// header, kind byte, canonical result bytes), held behind a
/// shared_ptr<const std::string>. Get hands back the pointer — a reference
/// count bumped under the shard lock, no copy — so a hit goes to the
/// socket as it is stored, and an entry evicted while a reader still
/// writes it stays alive until that reader lets go. The engine's miss
/// path encodes an answer once, into exactly the frame it caches, and a
/// typed miss encodes only for an offer the cache will keep.
///
/// ## Why generation-pinned keying needs no invalidation
///
/// Every online query answers from one immutable KnowledgeBaseSnapshot,
/// and every append publishes a NEW generation — existing generations are
/// never mutated (the RCU design of DESIGN.md, "Threading model"). A
/// result cached under generation G is therefore correct for as long as
/// the process lives: a query against a newer generation G+1 simply has a
/// different key and misses. Stale generations age out through the LRU
/// policy as traffic moves to new keys; there is no explicit invalidation
/// path, and none is needed. This mirrors the PARAS/iPARAS reuse argument
/// the offline phase is built on: precomputed answers stay valid because
/// the structure they were computed from is never edited in place.
///
/// ## Admission: a request is cached on its second offer
///
/// Parameter-space exploration almost never repeats a request, so caching
/// every first answer only churns the LRU: each insert evicts an entry
/// that will not be asked for again, and the allocator's resident set
/// grows with the churn. Put therefore caches a value only when the same
/// request — kind plus canonical request bytes, generation left out — was
/// offered before and its shard's doorkeeper still remembers it;
/// otherwise it records the request's fingerprint and declines (TinyLFU's
/// doorkeeper, Einziger, Friedman & Manes, ACM ToS 2017). The doorkeeper
/// is a set-associative table of 64-bit fingerprints, kDoorkeeperWays to a
/// set, most recent sighting first, with one slot per
/// kBudgetBytesPerSlot of the shard's budget; it is read and written
/// under the shard mutex Put already holds, and Get never touches it.
/// Because the generation is left out, a request admitted once is
/// admitted again on its first miss after an append.
///
/// ## Memory bound and sharding
///
/// The budget is split evenly across a fixed number of shards, each an
/// independent (mutex, hash map, LRU list, doorkeeper). A request's
/// fingerprint, one word-at-a-time hash computed once per Get or Put,
/// also picks its shard. A Put that would exceed its shard's budget
/// evicts least-recently-used entries first; an entry larger than a whole
/// shard's budget is not cached at all. An entry is charged the heap
/// bytes it really holds — its key's and its value's allocations by
/// capacity, not size, plus the value's shared block and a fixed
/// per-entry overhead — so the configured bound is a bound on the heap
/// the entries hold rather than on entry count or encoded length. It is
/// not a bound on the resident set: the doorkeepers add 1/64 of the
/// budget, and freed entries leave allocator pages behind.
///
/// Thread-safety: Get/Put are safe from any number of threads; the shard
/// mutexes are uncontended unless two concurrent queries hash to the same
/// shard. Stats counters are relaxed atomics, mirrored into the
/// `tara.cache.{hits,misses,declined,evictions}` counters and
/// `tara.cache.bytes` gauge when a MetricsRegistry is attached.
class QueryCache {
 public:
  /// Point-in-time counters (hit_rate() is a convenience on top).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Puts the doorkeeper turned away: offers of a request it had not
    /// seen, or no longer remembered.
    uint64_t declined = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;

    double hit_rate() const {
      const uint64_t lookups = hits + misses;
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  /// `max_bytes` bounds the total charged size across all shards.
  /// `registry` may be null (stats stay available through stats()).
  explicit QueryCache(size_t max_bytes,
                      obs::MetricsRegistry* registry = nullptr);

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// A cached answer: immutable bytes shared by every reader.
  using Value = std::shared_ptr<const std::string>;

  /// Returns the value cached for this exact (generation, kind, request)
  /// key — the stored pointer itself, not a copy — refreshing its
  /// recency; null on a miss.
  Value Get(uint64_t generation, QueryKind kind, std::string_view request);

  /// Refreshes the value of a resident key; otherwise inserts it, if the
  /// doorkeeper admits the request, evicting LRU entries of the same
  /// shard as needed to stay within budget. `make()` returns the value
  /// and runs only then, so a declined offer builds nothing.
  template <typename Make>
    requires std::is_invocable_r_v<Value, Make&>
  void Put(uint64_t generation, QueryKind kind, std::string_view request,
           Make&& make) {
    std::string key = MakeKey(generation, kind, request);
    const uint64_t fingerprint = Fingerprint(kind, request);
    if (Offer(key, fingerprint)) Store(std::move(key), fingerprint, make());
  }
  void Put(uint64_t generation, QueryKind kind, std::string_view request,
           Value value) {
    Put(generation, kind, request, [&value] { return std::move(value); });
  }

  size_t max_bytes() const { return max_bytes_; }

  Stats stats() const;

 private:
  static constexpr int kShardBits = 4;
  static constexpr size_t kShardCount = size_t{1} << kShardBits;
  /// Charged per entry on top of its heap bytes: rough cost of the list
  /// node, map slot, and string headers.
  static constexpr size_t kEntryOverhead = 96;
  /// Doorkeeper geometry: fingerprints per set, and budget bytes per
  /// 8-byte slot (so the doorkeepers cost 1/64 of the budget).
  static constexpr size_t kDoorkeeperWays = 4;
  static constexpr size_t kBudgetBytesPerSlot = 512;

  struct Entry {
    std::string key;
    Value value;
    /// What the entry was charged (Cost), released on eviction.
    size_t cost;
  };

  struct Shard {
    std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
    size_t bytes = 0;
    /// Fingerprints of offered requests, kDoorkeeperWays a set; 0 marks
    /// an empty slot.
    std::vector<uint64_t> doorkeeper;
  };

  /// One flat key: generation + kind + canonical request bytes.
  static std::string MakeKey(uint64_t generation, QueryKind kind,
                             std::string_view request);
  /// The heap bytes an entry holds: key and value allocations by
  /// capacity, the value's shared block, and kEntryOverhead.
  static size_t Cost(const std::string& key, const std::string& value);
  /// The request's fingerprint: kind and request bytes, not generation.
  static uint64_t Fingerprint(QueryKind kind, std::string_view request);
  Shard& ShardFor(uint64_t fingerprint);
  /// Records a sighting of `fingerprint` in its shard's doorkeeper and
  /// returns whether it had been seen before. Caller holds shard.mutex.
  bool Admit(Shard& shard, uint64_t fingerprint) const;
  /// Whether Put will store the value for `key`: the key is resident, or
  /// the doorkeeper admits its request. Counts a decline otherwise.
  bool Offer(const std::string& key, uint64_t fingerprint);
  /// Refreshes or inserts `value` under `key`, evicting as needed.
  void Store(std::string key, uint64_t fingerprint, Value value);
  void UpdateBytesGauge();

  const size_t max_bytes_;
  const size_t shard_budget_;
  /// Sets in each shard's doorkeeper, at least one.
  const size_t doorkeeper_sets_;
  Shard shards_[kShardCount];

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> declined_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_{0};

  /// Registry instruments, all null without a registry (the null sink).
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* declined_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
};

}  // namespace tara

#endif  // TARA_CORE_QUERY_CACHE_H_
