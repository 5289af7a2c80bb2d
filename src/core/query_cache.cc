#include "core/query_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/byte_codec.h"
#include "common/hash.h"

namespace tara {

QueryCache::QueryCache(size_t max_bytes, obs::MetricsRegistry* registry)
    : max_bytes_(max_bytes),
      shard_budget_(max_bytes / kShardCount),
      doorkeeper_sets_(std::max<size_t>(
          1, shard_budget_ / (kBudgetBytesPerSlot * kDoorkeeperWays))) {
  for (Shard& shard : shards_) {
    shard.doorkeeper.assign(doorkeeper_sets_ * kDoorkeeperWays, 0);
  }
  if (registry == nullptr) return;
  hits_counter_ = registry->GetCounter("tara.cache.hits");
  misses_counter_ = registry->GetCounter("tara.cache.misses");
  declined_counter_ = registry->GetCounter("tara.cache.declined");
  evictions_counter_ = registry->GetCounter("tara.cache.evictions");
  bytes_gauge_ = registry->GetGauge("tara.cache.bytes");
}

std::string QueryCache::MakeKey(uint64_t generation, QueryKind kind,
                                std::string_view request) {
  std::string key;
  key.reserve(9 + request.size());
  codec::PutFixed(generation, &key);
  key.push_back(static_cast<char>(kind));
  key.append(request);
  return key;
}

uint64_t QueryCache::Fingerprint(QueryKind kind, std::string_view request) {
  // The length goes in first, so a short tail's zero padding cannot
  // make two requests of different lengths read the same words.
  uint64_t h = HashCombine(0x2545f4914f6cdd1dULL,
                           (uint64_t{static_cast<uint8_t>(kind)} << 56) ^
                               request.size());
  const char* bytes = request.data();
  size_t left = request.size();
  for (; left >= sizeof(uint64_t); left -= sizeof(uint64_t)) {
    uint64_t word = 0;
    std::memcpy(&word, bytes, sizeof(word));
    h = HashCombine(h, word);
    bytes += sizeof(word);
  }
  if (left > 0) {
    uint64_t word = 0;
    std::memcpy(&word, bytes, left);
    h = HashCombine(h, word);
  }
  return h;
}

QueryCache::Shard& QueryCache::ShardFor(uint64_t fingerprint) {
  // The top bits pick the shard; Admit picks the set by remainder.
  return shards_[fingerprint >> (64 - kShardBits)];
}

bool QueryCache::Admit(Shard& shard, uint64_t fingerprint) const {
  uint64_t* const set = shard.doorkeeper.data() +
                        fingerprint % doorkeeper_sets_ * kDoorkeeperWays;
  uint64_t* const end = set + kDoorkeeperWays;
  uint64_t* const seen = std::find(set, end, fingerprint);
  // Most recent sighting first: a repeat moves to the front, and a first
  // sighting pushes the set's oldest fingerprint out.
  uint64_t* const shift_end = seen == end ? end - 1 : seen;
  std::copy_backward(set, shift_end, shift_end + 1);
  set[0] = fingerprint;
  return seen != end;
}

void QueryCache::UpdateBytesGauge() {
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(
        static_cast<double>(bytes_.load(std::memory_order_relaxed)));
  }
}

size_t QueryCache::Cost(const std::string& key, const std::string& value) {
  // make_shared's one block behind a Value: the string object plus the
  // control block's vtable pointer and two reference counts.
  constexpr size_t kSharedBlock =
      sizeof(std::string) + sizeof(void*) + 2 * sizeof(int);
  return key.capacity() + value.capacity() + kSharedBlock + kEntryOverhead;
}

QueryCache::Value QueryCache::Get(uint64_t generation, QueryKind kind,
                                  std::string_view request) {
  const std::string key = MakeKey(generation, kind, request);
  Shard& shard = ShardFor(Fingerprint(kind, request));
  Value value;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      value = it->second->value;
    }
  }
  if (value != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (hits_counter_ != nullptr) hits_counter_->Increment();
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (misses_counter_ != nullptr) misses_counter_->Increment();
  }
  return value;
}

bool QueryCache::Offer(const std::string& key, uint64_t fingerprint) {
  Shard& shard = ShardFor(fingerprint);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.index.contains(key) || Admit(shard, fingerprint)) return true;
  }
  declined_.fetch_add(1, std::memory_order_relaxed);
  if (declined_counter_ != nullptr) declined_counter_->Increment();
  return false;
}

void QueryCache::Store(std::string key, uint64_t fingerprint, Value value) {
  const size_t cost = Cost(key, *value);
  // An entry that cannot fit within one shard's budget is never cached:
  // admitting it would flush the whole shard for one value.
  if (cost > shard_budget_) return;
  Shard& shard = ShardFor(fingerprint);
  uint64_t evicted = 0;
  int64_t byte_delta = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // Refresh in place (same key implies same deterministic value, but
      // replace anyway so the accounting never drifts).
      Entry& entry = *it->second;
      byte_delta =
          static_cast<int64_t>(cost) - static_cast<int64_t>(entry.cost);
      shard.bytes = shard.bytes - entry.cost + cost;
      entry.value = std::move(value);
      entry.cost = cost;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    } else {
      while (shard.bytes + cost > shard_budget_ && !shard.lru.empty()) {
        const Entry& victim = shard.lru.back();
        shard.index.erase(std::string_view(victim.key));
        shard.bytes -= victim.cost;
        byte_delta -= static_cast<int64_t>(victim.cost);
        shard.lru.pop_back();
        ++evicted;
      }
      shard.lru.push_front(Entry{std::move(key), std::move(value), cost});
      shard.index.emplace(std::string_view(shard.lru.front().key),
                          shard.lru.begin());
      shard.bytes += cost;
      byte_delta += static_cast<int64_t>(cost);
    }
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    if (evictions_counter_ != nullptr) evictions_counter_->Increment(evicted);
  }
  if (byte_delta != 0) {
    if (byte_delta > 0) {
      bytes_.fetch_add(static_cast<uint64_t>(byte_delta),
                       std::memory_order_relaxed);
    } else {
      bytes_.fetch_sub(static_cast<uint64_t>(-byte_delta),
                       std::memory_order_relaxed);
    }
    UpdateBytesGauge();
  }
}

QueryCache::Stats QueryCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.declined = declined_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.bytes = bytes_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace tara
