// Differential oracle for the generation-pinned query cache: a cache-on
// engine and a cache-off oracle receive the same randomized Q1-Q5 /
// roll-up request stream (seeded Rng, heavy request reuse so the cache
// actually serves hits), interleaved with live AppendWindow calls on
// both. Every answer must match byte-for-byte under the canonical result
// serialization — or carry the same error code — including the queries
// issued right after an append, which proves generation keying never
// serves a stale generation's answer.
//
// Also here: QueryCache unit tests (generation keying, LRU eviction
// within the byte budget, charging by capacity, oversized-entry refusal,
// second-offer admission, stats counters) and a TSan-targeted stress test
// racing Execute/ExecuteBatch against a live appender. Run under both
// sanitizer presets (tools/run_asan.sh, tools/run_tsan.sh).

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/query_cache.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

constexpr uint32_t kBaseWindows = 3;
constexpr uint32_t kLiveWindows = 3;
constexpr uint32_t kTxPerWindow = 800;
constexpr double kSupportFloor = 0.005;
constexpr double kConfidenceFloor = 0.1;

EvolvingDatabase MakeData() {
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = kTxPerWindow;
  params.num_items = 150;
  const BasketGenerator gen(params);
  EvolvingDatabase data;
  for (uint32_t w = 0; w < kBaseWindows + kLiveWindows; ++w) {
    data.AppendBatch(gen.GenerateBatch(w, w * kTxPerWindow).transactions());
  }
  return data;
}

TaraEngine::Options MakeOptions(size_t cache_bytes,
                                obs::MetricsRegistry* metrics = nullptr) {
  TaraEngine::Options options;
  options.min_support_floor = kSupportFloor;
  options.min_confidence_floor = kConfidenceFloor;
  options.max_itemset_size = 4;
  options.build_content_index = true;
  options.query_cache_bytes = cache_bytes;
  options.metrics = metrics;
  return options;
}

void AppendWindowTo(TaraEngine* engine, const EvolvingDatabase& data,
                    uint32_t w) {
  const WindowInfo& info = data.window(w);
  engine->AppendWindow(data.database(), info.begin, info.end);
}

/// A random request of any kind. Window ids may run past the engine's
/// count and settings may dip below the floors, so the stream exercises
/// every QueryError path as well as every result alternative.
QueryRequest RandomRequest(Rng* rng, uint32_t window_count) {
  const auto setting = [&]() -> ParameterSetting {
    if (rng->NextBool(0.08)) return {kSupportFloor / 10, kConfidenceFloor};
    return {kSupportFloor + rng->NextDouble() * 0.02,
            kConfidenceFloor + rng->NextDouble() * 0.4};
  };
  const auto window = [&]() -> WindowId {
    return static_cast<WindowId>(
        rng->NextBounded(window_count + (rng->NextBool(0.08) ? 2 : 0)));
  };
  const auto windows = [&]() -> std::vector<WindowId> {
    std::vector<WindowId> ids;
    const uint64_t n = 1 + rng->NextBounded(window_count);
    for (uint64_t i = 0; i < n; ++i) ids.push_back(window());
    return ids;
  };
  const auto rule = [&]() -> RuleId {
    return static_cast<RuleId>(rng->NextBounded(4000));
  };
  const MatchMode mode =
      rng->NextBool(0.5) ? MatchMode::kSingle : MatchMode::kExact;
  switch (static_cast<QueryKind>(rng->NextBounded(kQueryKindCount))) {
    case QueryKind::kMineWindow:
      return QueryRequest::MineWindow(window(), setting());
    case QueryKind::kMineWindows:
      return QueryRequest::MineWindows(windows(), setting(), mode);
    case QueryKind::kTrajectory:
      return QueryRequest::Trajectory(window(), setting(), windows());
    case QueryKind::kCompare:
      return QueryRequest::Compare(setting(), setting(), windows(), mode);
    case QueryKind::kRegion:
      return QueryRequest::Region(window(), setting());
    case QueryKind::kMeasures:
      return QueryRequest::Measures(rule(), windows());
    case QueryKind::kContent: {
      Itemset items;
      const uint64_t n = 1 + rng->NextBounded(2);
      for (uint64_t i = 0; i < n; ++i) {
        items.push_back(static_cast<ItemId>(rng->NextBounded(150)));
      }
      return QueryRequest::Content(window(), std::move(items), setting());
    }
    case QueryKind::kContentView:
      return QueryRequest::ContentView(window(), setting());
    case QueryKind::kRollUpRule:
      return QueryRequest::RollUpRule(rule(), windows());
    case QueryKind::kRollUpMine:
      return QueryRequest::RollUpMine(windows(), setting());
  }
  return QueryRequest::MineWindow(0, setting());
}

/// Both engines must give byte-identical serialized results, or the same
/// error code. Returns true when they do (so callers can count).
::testing::AssertionResult SameAnswer(
    const QueryRequest& request,
    const Expected<QueryResult, QueryError>& oracle,
    const Expected<QueryResult, QueryError>& cached) {
  if (oracle.has_value() != cached.has_value()) {
    return ::testing::AssertionFailure()
           << QueryKindName(request.kind) << ": oracle "
           << (oracle.has_value() ? "succeeded" : "failed") << ", cached "
           << (cached.has_value() ? "succeeded" : "failed");
  }
  if (!oracle.has_value()) {
    if (oracle.error().code != cached.error().code) {
      return ::testing::AssertionFailure()
             << QueryKindName(request.kind) << ": error codes differ";
    }
    return ::testing::AssertionSuccess();
  }
  const std::string oracle_bytes =
      EncodeQueryResult(request.kind, oracle.value());
  const std::string cached_bytes =
      EncodeQueryResult(request.kind, cached.value());
  if (oracle_bytes != cached_bytes) {
    return ::testing::AssertionFailure()
           << QueryKindName(request.kind) << ": serialized results differ ("
           << oracle_bytes.size() << " vs " << cached_bytes.size()
           << " bytes)";
  }
  return ::testing::AssertionSuccess();
}

TEST(QueryCacheDifferential, CachedEqualsOracleAcrossGenerations) {
  const EvolvingDatabase data = MakeData();
  TaraEngine oracle(MakeOptions(0));
  TaraEngine cached(MakeOptions(8u << 20));
  for (uint32_t w = 0; w < kBaseWindows; ++w) {
    AppendWindowTo(&oracle, data, w);
    AppendWindowTo(&cached, data, w);
  }

  Rng rng(20260806);
  std::vector<QueryRequest> history;
  uint32_t appended = kBaseWindows;
  constexpr int kSteps = 450;
  constexpr int kStepsPerAppend = 120;
  for (int step = 0; step < kSteps; ++step) {
    if (step > 0 && step % kStepsPerAppend == 0 &&
        appended < kBaseWindows + kLiveWindows) {
      // Live append on BOTH engines: the next queries run against the
      // new generation, and the cache must never answer them from the
      // old one (its entries for older generations stay valid and
      // merely age out).
      AppendWindowTo(&oracle, data, appended);
      AppendWindowTo(&cached, data, appended);
      ++appended;
      ASSERT_EQ(oracle.generation(), cached.generation());
      // Replay everything seen so far immediately after the publication:
      // every replayed request hits the cache-on engine's warm entries
      // only if they were stored under the *new* generation — which they
      // were not — so each must recompute and still match the oracle.
      for (const QueryRequest& request : history) {
        ASSERT_TRUE(SameAnswer(request, oracle.Execute(request),
                               cached.Execute(request)));
      }
    }
    // Heavy reuse: half the stream re-issues an earlier request so the
    // cached engine serves real hits, not just first-time fills.
    const QueryRequest request =
        !history.empty() && rng.NextBool(0.5)
            ? history[rng.NextBounded(history.size())]
            : RandomRequest(&rng, appended);
    if (history.size() < 64) history.push_back(request);
    ASSERT_TRUE(SameAnswer(request, oracle.Execute(request),
                           cached.Execute(request)));
  }

  ASSERT_EQ(appended, kBaseWindows + kLiveWindows);
  ASSERT_NE(cached.query_cache(), nullptr);
  const QueryCache::Stats stats = cached.query_cache()->stats();
  // The reuse-heavy stream must have produced real hits, and the oracle
  // (cache off) must have none of the cache machinery attached.
  EXPECT_GT(stats.hits, 100u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(oracle.query_cache(), nullptr);
}

TEST(QueryCacheDifferential, BatchMatchesOracleAndDedups) {
  const EvolvingDatabase data = MakeData();
  // Declared before the engines: a registry must outlive its engine.
  obs::MetricsRegistry oracle_metrics;
  obs::MetricsRegistry cached_metrics;
  TaraEngine oracle(MakeOptions(0, &oracle_metrics));
  TaraEngine cached(MakeOptions(8u << 20, &cached_metrics));
  for (uint32_t w = 0; w < kBaseWindows; ++w) {
    AppendWindowTo(&oracle, data, w);
    AppendWindowTo(&cached, data, w);
  }

  Rng rng(424242);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 24; ++i) {
    requests.push_back(RandomRequest(&rng, kBaseWindows));
  }
  // Duplicates (executed once, answered everywhere) and an argument-order
  // variant (ids are canonicalized, so it shares the duplicate's entry).
  requests.push_back(requests[0]);
  requests.push_back(requests[5]);
  requests.push_back(QueryRequest::Trajectory(0, {0.01, 0.3}, {2, 0, 1, 1}));
  requests.push_back(QueryRequest::Trajectory(0, {0.01, 0.3}, {0, 1, 2}));
  // A duplicated rejection, so both counters see a repeat.
  const QueryRequest below_floor =
      QueryRequest::MineWindow(0, {kSupportFloor / 10, kConfidenceFloor});
  requests.push_back(below_floor);
  requests.push_back(below_floor);

  const auto oracle_results = oracle.ExecuteBatch(requests);
  const auto cached_results = cached.ExecuteBatch(requests);
  ASSERT_EQ(oracle_results.size(), requests.size());
  ASSERT_EQ(cached_results.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(
        SameAnswer(requests[i], oracle_results[i], cached_results[i]))
        << "at batch position " << i;
  }

  // ok/rejected count per batch position, duplicates included, whether
  // or not a cache answers: both engines move by the same amounts.
  uint64_t ok = 0;
  for (const auto& result : oracle_results) ok += result.has_value() ? 1 : 0;
  const uint64_t rejected = requests.size() - ok;
  ASSERT_GE(rejected, 2u);
  const auto counts = [](obs::MetricsRegistry& registry) {
    return std::pair<uint64_t, uint64_t>(
        registry.GetCounter("tara.query.ok")->Value(),
        registry.GetCounter("tara.query.rejected")->Value());
  };
  EXPECT_EQ(counts(oracle_metrics), std::make_pair(ok, rejected));
  EXPECT_EQ(counts(cached_metrics), std::make_pair(ok, rejected));

  // A second offer of each request admits its answer. Re-running the
  // identical batch after it is answered fully from cache for the
  // successful requests; rejected ones are never cached (errors are
  // cheap to recompute and must stay loud), so each unique failed
  // request re-misses exactly once per batch.
  std::unordered_set<std::string> failed_keys;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!cached_results[i].has_value()) {
      failed_keys.insert(EncodeQueryRequest(requests[i]));
    }
  }
  cached.ExecuteBatch(requests);
  const QueryCache::Stats before = cached.query_cache()->stats();
  const auto replay = cached.ExecuteBatch(requests);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(SameAnswer(requests[i], oracle_results[i], replay[i]));
  }
  const QueryCache::Stats after = cached.query_cache()->stats();
  EXPECT_EQ(after.misses, before.misses + failed_keys.size());
  EXPECT_GT(after.hits, before.hits);
  // A batch answered mostly from cache counts exactly like the first.
  EXPECT_EQ(counts(cached_metrics), std::make_pair(3 * ok, 3 * rejected));
}

/// A cache value holding `bytes`.
QueryCache::Value Bytes(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

TEST(QueryCacheUnit, KeysIncludeGenerationAndKind) {
  QueryCache cache(1u << 20);
  // The first offer is declined; the second is cached.
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes("result"));
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes("result"));
  const QueryCache::Value hit = cache.Get(1, QueryKind::kMineWindow, "req");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "result");
  // Different generation, kind, or request bytes: all distinct keys.
  EXPECT_EQ(cache.Get(2, QueryKind::kMineWindow, "req"), nullptr);
  EXPECT_EQ(cache.Get(1, QueryKind::kRegion, "req"), nullptr);
  EXPECT_EQ(cache.Get(1, QueryKind::kMineWindow, "req2"), nullptr);
  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.25);
}

TEST(QueryCacheUnit, EvictsLruToStayWithinBudget) {
  constexpr size_t kBudget = 8 * 1024;
  QueryCache cache(kBudget);
  const QueryCache::Value value = Bytes(std::string(256, 'v'));
  for (uint64_t g = 0; g < 200; ++g) {
    cache.Put(g, QueryKind::kMineWindow, "req", value);
    EXPECT_LE(cache.stats().bytes, kBudget);
  }
  const QueryCache::Stats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.bytes, 0u);
  // The newest insertion is its shard's MRU entry and must survive.
  EXPECT_NE(cache.Get(199, QueryKind::kMineWindow, "req"), nullptr);
}

// An entry is charged the heap it holds, not the bytes it encodes: a
// value whose buffer is 4x its size costs its capacity, and the LRU
// evicts by that cost.
TEST(QueryCacheUnit, ChargesValueCapacityNotSize) {
  constexpr size_t kSize = 256;
  constexpr size_t kCapacity = 4 * kSize;
  const auto slack_value = [] {
    std::string bytes;
    bytes.reserve(kCapacity);
    bytes.assign(kSize, 'v');
    return Bytes(std::move(bytes));
  };
  ASSERT_GE(slack_value()->capacity(), kCapacity);

  QueryCache one(1u << 20);
  one.Put(1, QueryKind::kMineWindow, "req", slack_value());
  one.Put(1, QueryKind::kMineWindow, "req", slack_value());
  EXPECT_GE(one.stats().bytes, kCapacity);

  // 16 shards of 1.5 KiB: room for four entries a shard by size, but for
  // only one by capacity.
  constexpr size_t kBudget = 16 * 1536;
  QueryCache cache(kBudget);
  constexpr uint64_t kPuts = 200;
  // One earlier offer: the doorkeeper ignores the generation, so every
  // Put below is the request's second or later offer and is cached.
  cache.Put(0, QueryKind::kMineWindow, "req", slack_value());
  for (uint64_t g = 0; g < kPuts; ++g) {
    cache.Put(g, QueryKind::kMineWindow, "req", slack_value());
    EXPECT_LE(cache.stats().bytes, kBudget);
  }
  uint64_t resident = 0;
  for (uint64_t g = 0; g < kPuts; ++g) {
    if (cache.Get(g, QueryKind::kMineWindow, "req") != nullptr) ++resident;
  }
  EXPECT_GT(resident, 0u);
  EXPECT_LE(resident, 16u);
  EXPECT_GE(cache.stats().bytes, resident * kCapacity);
  EXPECT_EQ(cache.stats().evictions, kPuts - resident);
}

TEST(QueryCacheUnit, RefusesEntriesLargerThanAShard) {
  QueryCache cache(1024);  // 64 bytes per shard: nothing below fits
  // Offered twice, so only its size keeps it out.
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes(std::string(512, 'v')));
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes(std::string(512, 'v')));
  EXPECT_EQ(cache.Get(1, QueryKind::kMineWindow, "req"), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(QueryCacheUnit, PutRefreshesInPlace) {
  QueryCache cache(1u << 20);
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes("old"));
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes("old"));
  const uint64_t bytes_once = cache.stats().bytes;
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes("new"));
  const QueryCache::Value hit = cache.Get(1, QueryKind::kMineWindow, "req");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "new");
  EXPECT_EQ(cache.stats().bytes, bytes_once);
}

TEST(QueryCacheUnit, CachesARequestOnItsSecondOffer) {
  obs::MetricsRegistry metrics;
  QueryCache cache(1u << 20, &metrics);
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes("result"));
  EXPECT_EQ(cache.Get(1, QueryKind::kMineWindow, "req"), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().declined, 1u);
  cache.Put(1, QueryKind::kMineWindow, "req", Bytes("result"));
  const QueryCache::Value hit = cache.Get(1, QueryKind::kMineWindow, "req");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "result");
  EXPECT_EQ(cache.stats().declined, 1u);
  EXPECT_EQ(metrics.GetCounter("tara.cache.declined")->Value(), 1u);
  // The kind is part of the request: another kind's offer is a first.
  cache.Put(1, QueryKind::kRegion, "req", Bytes("result"));
  EXPECT_EQ(cache.Get(1, QueryKind::kRegion, "req"), nullptr);
  EXPECT_EQ(cache.stats().declined, 2u);
}

// A value is built only for an offer the cache keeps: a first offer
// builds nothing, a second builds it once and leaves it resident.
TEST(QueryCacheUnit, DeclinedOffersBuildNoValue) {
  QueryCache cache(1u << 20);
  int built = 0;
  const auto make = [&built] {
    ++built;
    return Bytes("result");
  };
  cache.Put(1, QueryKind::kMineWindow, "req", make);
  EXPECT_EQ(built, 0);
  EXPECT_EQ(cache.stats().declined, 1u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  cache.Put(1, QueryKind::kMineWindow, "req", make);
  EXPECT_EQ(built, 1);
  EXPECT_EQ(cache.stats().declined, 1u);
  const QueryCache::Value hit = cache.Get(1, QueryKind::kMineWindow, "req");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "result");
}

// A stream that never repeats caches nothing, so it evicts nothing: at
// this budget a cache admitting every first offer evicts hundreds.
TEST(QueryCacheUnit, NeverRepeatingRequestsCacheNothing) {
  QueryCache cache(8 * 1024);
  const QueryCache::Value value = Bytes(std::string(256, 'v'));
  constexpr uint64_t kRequests = 1000;
  for (uint64_t r = 0; r < kRequests; ++r) {
    const std::string request = "request " + std::to_string(r);
    ASSERT_EQ(cache.Get(1, QueryKind::kMineWindow, request), nullptr);
    cache.Put(1, QueryKind::kMineWindow, request, value);
  }
  const QueryCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.declined, kRequests);
  EXPECT_EQ(stats.misses, kRequests);
}

// The doorkeeper leaves the generation out: a request cached under G is
// cached again by its first offer under G+1, the miss after an append.
TEST(QueryCacheUnit, AdmittedRequestsReturnOnTheirFirstMissAfterAnAppend) {
  QueryCache cache(1u << 20);
  cache.Put(7, QueryKind::kTrajectory, "req", Bytes("g7"));
  cache.Put(7, QueryKind::kTrajectory, "req", Bytes("g7"));
  ASSERT_NE(cache.Get(7, QueryKind::kTrajectory, "req"), nullptr);
  ASSERT_EQ(cache.Get(8, QueryKind::kTrajectory, "req"), nullptr);
  cache.Put(8, QueryKind::kTrajectory, "req", Bytes("g8"));
  const QueryCache::Value hit = cache.Get(8, QueryKind::kTrajectory, "req");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "g8");
  EXPECT_EQ(cache.stats().declined, 1u);
}

// At 2 KiB a shard the doorkeeper is one set per shard, and 17 requests
// over 16 shards put at least two into one set. Offered alternately,
// every pair is cached after its second offers: a doorkeeper of one slot
// per set would keep only the latest and decline both forever.
TEST(QueryCacheUnit, RequestsSharingADoorkeeperSetAreBothAdmitted) {
  constexpr size_t kBudget = 16 * 2048;
  constexpr int kRequests = 17;
  for (int a = 0; a < kRequests; ++a) {
    for (int b = a + 1; b < kRequests; ++b) {
      QueryCache cache(kBudget);
      const std::string first = "request " + std::to_string(a);
      const std::string second = "request " + std::to_string(b);
      for (int round = 0; round < 2; ++round) {
        cache.Put(1, QueryKind::kMineWindow, first, Bytes("a"));
        cache.Put(1, QueryKind::kMineWindow, second, Bytes("b"));
      }
      EXPECT_NE(cache.Get(1, QueryKind::kMineWindow, first), nullptr)
          << a << " with " << b;
      EXPECT_NE(cache.Get(1, QueryKind::kMineWindow, second), nullptr)
          << b << " with " << a;
    }
  }
}

// dashboard_hot's shape: Zipf(1.1) over a pool of 282 requests, each
// miss answered and offered. Two misses per request drawn is all the
// doorkeeper costs.
TEST(QueryCacheUnit, AZipfStreamIsServedFromTheCache) {
  QueryCache cache(32u << 20);
  const QueryCache::Value value = Bytes(std::string(1024, 'v'));
  Rng rng(1);
  for (int draw = 0; draw < 20000; ++draw) {
    const std::string request =
        "request " + std::to_string(rng.NextZipf(282, 1.1));
    if (cache.Get(1, QueryKind::kMineWindow, request) == nullptr) {
      cache.Put(1, QueryKind::kMineWindow, request, value);
    }
  }
  const QueryCache::Stats stats = cache.stats();
  EXPECT_GE(stats.hit_rate(), 0.95) << stats.hits << " hits, "
                                    << stats.misses << " misses";
  EXPECT_EQ(stats.evictions, 0u);
}

// TSan target: Execute and ExecuteBatch race a live appender. Window 0's
// content never changes across generations, so every answer — cached
// under any generation, or computed fresh — must equal the baseline
// taken before the race started.
TEST(QueryCacheConcurrency, ExecuteRacesWithLiveAppends) {
  const EvolvingDatabase data = MakeData();
  TaraEngine engine(MakeOptions(8u << 20));
  for (uint32_t w = 0; w < kBaseWindows; ++w) {
    AppendWindowTo(&engine, data, w);
  }

  const std::vector<QueryRequest> fixed = {
      QueryRequest::MineWindow(0, {0.01, 0.3}),
      QueryRequest::Trajectory(0, {0.01, 0.3}, {0, 1, 2}),
      QueryRequest::Region(0, {0.01, 0.3}),
      QueryRequest::RollUpMine({0, 1, 2}, {0.01, 0.3}),
  };
  std::vector<std::string> baselines;
  for (const QueryRequest& request : fixed) {
    const auto result = engine.Execute(request);
    ASSERT_TRUE(result.has_value());
    baselines.push_back(EncodeQueryResult(request.kind, result.value()));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto reader = [&](size_t offset) {
    size_t i = offset;
    while (!stop.load(std::memory_order_acquire)) {
      const size_t pick = i++ % (fixed.size() + 1);
      if (pick == fixed.size()) {
        const auto batch = engine.ExecuteBatch(fixed);
        for (size_t q = 0; q < fixed.size(); ++q) {
          if (!batch[q].has_value() ||
              EncodeQueryResult(fixed[q].kind, batch[q].value()) !=
                  baselines[q]) {
            failures.fetch_add(1);
          }
        }
        continue;
      }
      const auto result = engine.Execute(fixed[pick]);
      if (!result.has_value() ||
          EncodeQueryResult(fixed[pick].kind, result.value()) !=
              baselines[pick]) {
        failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) threads.emplace_back(reader, t);
  for (uint32_t w = kBaseWindows; w < kBaseWindows + kLiveWindows; ++w) {
    AppendWindowTo(&engine, data, w);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.generation(), kBaseWindows + kLiveWindows);
  EXPECT_GT(engine.query_cache()->stats().hits, 0u);
}

}  // namespace
}  // namespace tara
