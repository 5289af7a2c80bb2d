#include "core/tara_engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "core/kb_blocks.h"
#include "core/kb_storage.h"

namespace tara {
namespace {

/// A failed MaterializeAll gate as the LoadError of the commits that run
/// behind it (CommitPersistedWindows, AttachWal): kCorruptSegment, with
/// the gate's message.
std::optional<LoadError> AsCorruptSegment(std::optional<QueryError> gate) {
  if (!gate.has_value()) return std::nullopt;
  return LoadError{LoadError::Code::kCorruptSegment, std::move(gate->message)};
}

}  // namespace

/// Everything a lazily mapped knowledge base needs: the mapping itself,
/// a cursor of how many windows are decoded, and the sticky failure
/// state. `materialized`/`done` are the lock-free fast path; the mutex
/// serializes actual decoding (and orders strictly before the builder's
/// commit mutex — materialization appends windows).
struct TaraEngine::LazyState {
  std::shared_ptr<const MappedKb> kb;
  std::mutex mutex;
  std::atomic<uint32_t> materialized{0};
  std::atomic<bool> done{false};
  /// Guarded by `mutex`. Once a decode fails, every later gate fails
  /// with the same message — a half-decoded tail must not silently
  /// shrink the knowledge base.
  bool failed = false;
  std::string failure;
};

TaraEngine::TaraEngine(const Options& options)
    : builder_(std::make_unique<KbBuilder>(options)) {
  RegisterMetrics(options.metrics);
  if (options.query_cache_bytes > 0) {
    cache_ = std::make_unique<QueryCache>(options.query_cache_bytes,
                                          options.metrics);
  }
  const uint32_t parallelism =
      options.parallelism == 0 ? std::thread::hardware_concurrency()
                               : options.parallelism;
  if (parallelism > 1) query_pool_ = std::make_unique<ThreadPool>(parallelism);
}

TaraEngine::~TaraEngine() = default;
TaraEngine::TaraEngine(TaraEngine&&) noexcept = default;
TaraEngine& TaraEngine::operator=(TaraEngine&&) noexcept = default;

void TaraEngine::RegisterMetrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) return;
  for (int k = 0; k < kQueryKindCount; ++k) {
    const std::string name =
        std::string("tara.query.") +
        std::string(QueryKindName(static_cast<QueryKind>(k))) + ".latency_ns";
    metrics_.latency[k] = registry->GetHistogram(name);
  }
  metrics_.ok = registry->GetCounter("tara.query.ok");
  metrics_.rejected = registry->GetCounter("tara.query.rejected");
}

std::optional<LoadError> TaraEngine::AttachMappedKb(
    std::shared_ptr<const MappedKb> kb, bool eager) {
  TARA_CHECK(lazy_ == nullptr) << "AttachMappedKb called twice";
  TARA_CHECK(builder_->snapshot()->window_count() == 0)
      << "AttachMappedKb needs a freshly constructed, empty engine";
  lazy_ = std::make_unique<LazyState>();
  lazy_->kb = std::move(kb);
  if (lazy_->kb->window_count() == 0) lazy_->done.store(true);
  if (eager) {
    std::optional<LoadError> error;
    {
      std::lock_guard<std::mutex> lock(lazy_->mutex);
      error = MaterializeLocked(lazy_->kb->window_count());
    }
    if (error.has_value()) return error;
    lazy_.reset();  // fully decoded — drop the gates and the mapping
  }
  return std::nullopt;
}

bool TaraEngine::fully_materialized() const {
  return lazy_ == nullptr || lazy_->done.load(std::memory_order_acquire);
}

std::shared_ptr<const KnowledgeBaseSnapshot> TaraEngine::Snapshot() const {
  EnsureAllOrDie();
  return builder_->snapshot();
}

uint32_t TaraEngine::window_count() const {
  if (lazy_ != nullptr && !lazy_->done.load(std::memory_order_acquire)) {
    // The manifest's count: appends force full materialization first, so
    // while lazy decoding is still pending the manifest is the whole
    // knowledge base.
    return lazy_->kb->window_count();
  }
  return builder_->snapshot()->window_count();
}

uint64_t TaraEngine::rule_count() const {
  if (lazy_ != nullptr && !lazy_->done.load(std::memory_order_acquire)) {
    return lazy_->kb->manifest().rule_watermark();
  }
  return builder_->snapshot()->catalog().size();
}

std::optional<LoadError> TaraEngine::MaterializeLocked(uint32_t need) const {
  const MappedKb& kb = *lazy_->kb;
  const uint32_t total = kb.window_count();
  if (need > total) need = total;
  const uint32_t have = lazy_->materialized.load(std::memory_order_relaxed);
  if (have >= need) return std::nullopt;

  // Stage 1 — catalog-free: hash the pending segments in one interleaved
  // pass, then check, parse and cross-check each against its manifest
  // row, fanned across the query pool. Workers touch only their slot; the
  // lazy mutex (held by the caller) is never taken here.
  const uint32_t count = need - have;
  std::vector<std::span<const uint8_t>> blobs;
  for (WindowId w = have; w < need; ++w) {
    blobs.emplace_back(kb.segment(w).data, kb.segment(w).size);
  }
  std::vector<uint64_t> hashes(count);
  HashBytesMany(blobs, hashes.data());
  std::vector<std::optional<Expected<PersistedWindow, LoadError>>> parsed(
      count);
  const auto parse_one = [&](uint32_t i) {
    const WindowId w = have + i;
    const SegmentView view = kb.segment(w);
    parsed[i] = ParseClaimedSegment(
        view.data, view.size, hashes[i],
        {.window = w,
         .total_transactions = view.row->total_transactions,
         .first_rule = w == 0 ? 0 : kb.segment(w - 1).row->rule_watermark,
         .rule_watermark = view.row->rule_watermark,
         .entry_count = view.row->entry_count,
         .segment_hash = view.row->segment_hash});
  };
  if (query_pool_ != nullptr && count > 1) {
    query_pool_->ParallelFor(count, [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        parse_one(static_cast<uint32_t>(i));
      }
    });
  } else {
    for (uint32_t i = 0; i < count; ++i) parse_one(i);
  }

  // Stage 2 — one batch commit by rule id: one publication for the whole
  // prefix, and nothing published when any window fails.
  std::vector<PersistedWindow> batch;
  batch.reserve(count);
  for (auto& slot : parsed) {
    if (!slot->has_value()) return slot->error();
    batch.push_back(std::move(*slot).value());
  }
  if (auto error = builder_->CommitPersistedWindows(std::move(batch))) {
    return error;
  }
  lazy_->materialized.store(need, std::memory_order_release);
  if (need == total) lazy_->done.store(true, std::memory_order_release);
  return std::nullopt;
}

std::optional<QueryError> TaraEngine::EnsureWindows(uint64_t required) const {
  if (lazy_ == nullptr || lazy_->done.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  // Clamp to the manifest: an out-of-range request materializes
  // everything, so the snapshot-side rejection is byte-identical to an
  // eager engine's.
  const uint32_t need = static_cast<uint32_t>(
      std::min<uint64_t>(required, lazy_->kb->window_count()));
  if (lazy_->materialized.load(std::memory_order_acquire) >= need) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(lazy_->mutex);
  if (lazy_->failed) {
    return QueryError{QueryError::Code::kCorruptStorage, lazy_->failure};
  }
  if (auto error = MaterializeLocked(need)) {
    lazy_->failed = true;
    lazy_->failure = error->message;
    return QueryError{QueryError::Code::kCorruptStorage,
                      std::move(error->message)};
  }
  return std::nullopt;
}

std::optional<QueryError> TaraEngine::EnsureForRequest(
    const QueryRequest& request) const {
  if (lazy_ == nullptr || lazy_->done.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  uint64_t required = 0;
  const auto windows_max = [&request]() {
    uint64_t max = 0;
    for (const WindowId id : request.windows) {
      max = std::max(max, static_cast<uint64_t>(id) + 1);
    }
    return max;
  };
  switch (request.kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kRegion:
    case QueryKind::kContent:
    case QueryKind::kContentView:
      required = static_cast<uint64_t>(request.window) + 1;
      break;
    case QueryKind::kTrajectory:
      required =
          std::max(static_cast<uint64_t>(request.window) + 1, windows_max());
      break;
    case QueryKind::kMineWindows:
    case QueryKind::kCompare:
    case QueryKind::kRollUpMine:
      required = windows_max();
      break;
    case QueryKind::kMeasures:
    case QueryKind::kRollUpRule: {
      // Through the window that interned the rule — everything when the
      // manifest never heard of it, so the rejection matches an eager
      // engine's byte for byte.
      const std::optional<WindowId> first =
          lazy_->kb->FirstWindowWithRule(request.rule);
      const uint64_t rule_prefix = first.has_value()
                                       ? static_cast<uint64_t>(*first) + 1
                                       : lazy_->kb->window_count();
      required = std::max(rule_prefix, windows_max());
      break;
    }
  }
  return EnsureWindows(required);
}

std::optional<QueryError> TaraEngine::MaterializeAll() const {
  if (lazy_ == nullptr) return std::nullopt;
  return EnsureWindows(lazy_->kb->window_count());
}

void TaraEngine::EnsureAllOrDie() const {
  if (auto error = MaterializeAll()) {
    TARA_CHECK(false) << error->message
                      << " — open with OpenOptions::verify = kHashes to "
                         "detect this at open time instead";
  }
}

WindowId TaraEngine::AppendWindow(const TransactionDatabase& db, size_t begin,
                                  size_t end) {
  EnsureAllOrDie();
  return builder_->AppendWindow(db, begin, end);
}

WindowId TaraEngine::AppendPrecomputedWindow(
    uint64_t total_transactions, const std::vector<PrecomputedRule>& rules) {
  EnsureAllOrDie();
  return builder_->AppendPrecomputedWindow(total_transactions, rules);
}

void TaraEngine::BuildAll(const EvolvingDatabase& data) {
  EnsureAllOrDie();
  builder_->BuildAll(data);
}

std::optional<LoadError> TaraEngine::CommitPersistedWindows(
    std::vector<PersistedWindow> windows) {
  if (auto error = AsCorruptSegment(MaterializeAll())) return error;
  return builder_->CommitPersistedWindows(std::move(windows));
}

Expected<WalReplayStats, LoadError> TaraEngine::AttachWal(
    const std::string& dir) {
  if (auto error = AsCorruptSegment(MaterializeAll())) return *std::move(error);
  return builder_->AttachWal(dir);
}

template <typename Form>
std::optional<Form> TaraEngine::Lookup(uint64_t generation, QueryKind kind,
                                      std::string_view key) const {
  if (cache_ == nullptr) return std::nullopt;
  ResultFrame hit = cache_->Get(generation, kind, key);
  if (hit == nullptr) return std::nullopt;
  if constexpr (std::is_same_v<Form, ResultFrame>) {
    return hit;
  } else {
    // nullopt only for bytes this engine did not write: then a miss.
    return DecodeQueryResult(
        kind, std::string_view(*hit).substr(kResultFramePrefixBytes));
  }
}

template <typename Form>
Expected<Form, QueryError> TaraEngine::Miss(
    const KnowledgeBaseSnapshot& snapshot, const QueryRequest& request,
    std::string_view key) const {
  Expected<QueryResult, QueryError> result = ExecuteQuery(snapshot, request);
  if (!result.has_value()) return result.error();
  const auto encode = [&request, &result] {
    return std::make_shared<const std::string>(
        EncodeResultFrame(request.kind, *result));
  };
  if constexpr (std::is_same_v<Form, ResultFrame>) {
    ResultFrame frame = encode();
    if (cache_ != nullptr) {
      cache_->Put(snapshot.generation(), request.kind, key, frame);
    }
    return frame;
  } else {
    // The typed answer needs no frame: encode one only for the cache to
    // keep.
    if (cache_ != nullptr) {
      cache_->Put(snapshot.generation(), request.kind, key, encode);
    }
    return std::move(result).value();
  }
}

template <typename Form>
Expected<Form, QueryError> TaraEngine::Run(const QueryRequest& request) const {
  obs::QuerySpan span(metrics_.latency[static_cast<int>(request.kind)]);
  if (auto gate = EnsureForRequest(request)) {
    return Finish<Form>(&span, *std::move(gate));
  }
  const std::shared_ptr<const KnowledgeBaseSnapshot> snapshot =
      builder_->snapshot();
  // The request bytes are only the cache's key: no cache, no encode.
  const std::string key =
      cache_ != nullptr ? EncodeQueryRequest(request) : std::string();
  if (std::optional<Form> hit =
          Lookup<Form>(snapshot->generation(), request.kind, key)) {
    return Finish<Form>(&span, *std::move(hit));
  }
  return Finish<Form>(&span, Miss<Form>(*snapshot, request, key));
}

template <typename Form>
std::vector<Expected<Form, QueryError>> TaraEngine::RunBatch(
    std::span<const QueryRequest> requests) const {
  // Gate every request BEFORE pinning the snapshot or fanning out: pool
  // workers must never materialize (they would need the lazy mutex). A
  // request whose gate fails (corrupt storage) is answered with that
  // error; the rest run as usual.
  std::vector<std::optional<QueryError>> gates;
  if (lazy_ != nullptr && !lazy_->done.load(std::memory_order_acquire)) {
    gates.reserve(requests.size());
    for (const QueryRequest& request : requests) {
      gates.push_back(EnsureForRequest(request));
    }
  }
  const auto gated = [&gates](size_t i) {
    return !gates.empty() && gates[i].has_value();
  };

  // One snapshot for the whole batch: every request — hit or miss — is
  // answered from the same generation. Dedup by canonical request bytes,
  // probe the cache (when one exists) once per distinct request, and
  // execute only the misses (in parallel when a pool exists).
  const std::shared_ptr<const KnowledgeBaseSnapshot> snapshot =
      builder_->snapshot();
  const uint64_t generation = snapshot->generation();
  std::unordered_map<std::string, size_t> unique_index;
  std::vector<const QueryRequest*> unique_requests;
  std::vector<const std::string*> unique_keys;
  std::vector<size_t> request_to_unique(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (gated(i)) continue;
    const auto [it, inserted] = unique_index.try_emplace(
        EncodeQueryRequest(requests[i]), unique_requests.size());
    if (inserted) {
      unique_requests.push_back(&requests[i]);
      unique_keys.push_back(&it->first);  // node keys never move
    }
    request_to_unique[i] = it->second;
  }

  std::vector<std::optional<Expected<Form, QueryError>>> unique_results(
      unique_requests.size());
  std::vector<size_t> miss_indexes;
  for (size_t u = 0; u < unique_requests.size(); ++u) {
    if (std::optional<Form> hit = Lookup<Form>(
            generation, unique_requests[u]->kind, *unique_keys[u])) {
      unique_results[u].emplace(*std::move(hit));
    } else {
      miss_indexes.push_back(u);
    }
  }

  const auto execute_miss = [&](size_t u) {
    unique_results[u].emplace(
        Miss<Form>(*snapshot, *unique_requests[u], *unique_keys[u]));
  };
  if (query_pool_ != nullptr && miss_indexes.size() > 1) {
    query_pool_->ParallelFor(miss_indexes.size(),
                             [&](size_t, size_t begin, size_t end) {
                               for (size_t m = begin; m < end; ++m) {
                                 execute_miss(miss_indexes[m]);
                               }
                             });
  } else {
    for (const size_t u : miss_indexes) execute_miss(u);
  }

  // Counted per batch position, so a duplicated request counts each time.
  std::vector<Expected<Form, QueryError>> results;
  results.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (gated(i)) {
      results.push_back(*std::move(gates[i]));
    } else {
      results.push_back(*unique_results[request_to_unique[i]]);
    }
    Count(results.back());
  }
  return results;
}

Expected<QueryResult, QueryError> TaraEngine::Execute(
    const QueryRequest& request) const {
  return Run<QueryResult>(request);
}

Expected<ResultFrame, QueryError> TaraEngine::ExecuteFrame(
    const QueryRequest& request) const {
  return Run<ResultFrame>(request);
}

std::vector<Expected<QueryResult, QueryError>> TaraEngine::ExecuteBatch(
    std::span<const QueryRequest> requests) const {
  return RunBatch<QueryResult>(requests);
}

std::vector<Expected<ResultFrame, QueryError>> TaraEngine::ExecuteBatchFrames(
    std::span<const QueryRequest> requests) const {
  return RunBatch<ResultFrame>(requests);
}

void TaraEngine::SetQueryCacheBytes(size_t bytes) {
  cache_ = bytes == 0 ? nullptr
                      : std::make_unique<QueryCache>(
                            bytes, builder_->options().metrics);
}

}  // namespace tara
