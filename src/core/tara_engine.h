#ifndef TARA_CORE_TARA_ENGINE_H_
#define TARA_CORE_TARA_ENGINE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.h"
#include "core/kb_builder.h"
#include "core/kb_snapshot.h"
#include "core/query_cache.h"
#include "core/query_error.h"
#include "core/query_kind.h"
#include "core/query_request.h"
#include "core/rule_catalog.h"
#include "core/wire_format.h"
#include "obs/metrics.h"
#include "obs/query_span.h"
#include "txdb/evolving_database.h"

namespace tara {

class MappedKb;

/// The TARA framework: offline knowledge-base construction (Association
/// Generator + Knowledge Base Constructor of Figure 2) plus the online
/// explorer operations (Q1-Q5, roll-up/drill-down).
///
/// The engine is a thin facade over two layers:
///
/// - a **KbBuilder** (the write side) that mines arriving windows,
///   interns their rules, appends the TAR Archive, and publishes every
///   new generation of the knowledge base with one atomic pointer swap;
/// - immutable **KnowledgeBaseSnapshot** values (the read side) that all
///   query code runs against; each window's EPS slice is built by the
///   first query that reads it. Execute pins the current generation for
///   its duration; Snapshot() hands the same pin to callers that want
///   several typed queries answered from one consistent view.
///
/// The facade adds the one query entry point, Execute(QueryRequest) /
/// ExecuteBatch (and their frame forms, ExecuteFrame / ExecuteBatchFrames,
/// for the server): the only path that records query metrics, consults the
/// query cache and lazily materializes a mapped knowledge base. For typed,
/// uninstrumented results, pin Snapshot() and call its query methods.
///
/// ## Error contract
///
/// Every online operation returns Expected<Result, QueryError>: a
/// malformed *request* (threshold below the generation floor, bad window
/// id, empty window set, unknown rule, Q5 without a content index) is
/// reported as a QueryError value, never an abort, so one bad client
/// request cannot take down a serving process. CHECK aborts remain for
/// internal invariants and construction-time contracts (an out-of-range
/// id passed to KnowledgeBaseSnapshot::MakeWindowSet is the caller's bug,
/// caught at construction; a QueryRequest's raw ids are validated at
/// execution instead). One-shot tools may call .value(), which aborts
/// with the error message on misuse.
///
/// ## Observability
///
/// When Options::metrics names a registry, the engine registers per-kind
/// query latency histograms, ok/rejected counters, build/size gauges,
/// `tara.index.build_ns` (one sample per EPS slice built), and
/// the snapshot instruments `tara.kb.generation` (gauge) and
/// `tara.kb.swaps` (publication counter) — see DESIGN.md,
/// "Observability". With a query cache enabled the cache adds
/// `tara.cache.{hits,misses,declined,evictions}` counters and a
/// `tara.cache.bytes` gauge. All recording is relaxed-atomic and
/// allocation-free; with metrics == nullptr every instrument pointer is
/// null and spans skip the clock read entirely (the null sink).
///
/// ## Threading model
///
/// Readers and the writer are decoupled by snapshot publication (see
/// DESIGN.md, "Threading model"):
///
/// - **Ingestion** (AppendWindow / AppendPrecomputedWindow / BuildAll /
///   CommitPersistedWindows): one writer at a time (concurrent writer
///   calls serialize on an internal commit mutex), one publication per
///   call. With Options::parallelism > 1 the builder
///   parallelizes internally — independent windows are mined on a
///   private thread pool while catalog interning and
///   archive appends go through a serialized, window-ordered commit
///   stage, so RuleIds and the serialized knowledge base are
///   byte-identical to a sequential build, on the bulk and the live path
///   alike.
/// - **Queries** (Execute, ExecuteBatch, and every query method of a
///   pinned Snapshot()) are safe for any number of concurrent callers
///   **at any time — including while ingestion is running**. Each call
///   pins the generation current at its start and answers entirely from
///   that immutable snapshot; a window committed mid-query becomes
///   visible to the *next* call. This is enforced by the live-ingestion
///   stress test (tests/test_live_ingestion.cc) run under
///   ThreadSanitizer.
/// - **Reading the knowledge base** (archive, segments, build stats,
///   index sizes): pin Snapshot() in a local and read from it. The
///   published snapshot is the only committed state; the engine keeps no
///   second copy to read behind a writer's back. catalog() needs no pin:
///   the catalog is shared, append-only and internally synchronized.
class TaraEngine {
 public:
  using Options = KbOptions;
  using PrecomputedRule = tara::PrecomputedRule;

  explicit TaraEngine(const Options& options);
  ~TaraEngine();
  TaraEngine(TaraEngine&&) noexcept;
  TaraEngine& operator=(TaraEngine&&) noexcept;

  /// Mines and indexes transactions [begin, end) of `db` as the next
  /// window and publishes the new generation. Returns the new window id.
  /// This is the incremental (iPARAS) build step: prior windows are never
  /// revisited. May run while any number of queries are in flight.
  WindowId AppendWindow(const TransactionDatabase& db, size_t begin,
                        size_t end);

  /// Installs a window whose rules were mined elsewhere, interning them
  /// by content. The caller guarantees the rules are exactly those
  /// passing this engine's floors over a window of `total_transactions`
  /// transactions. For callers plugging in their own miner; persisted
  /// windows go through CommitPersistedWindows. Counts no window can hold
  /// (a zero rule count, or an antecedent count below the rule count or
  /// above `total_transactions`) abort before anything is logged.
  WindowId AppendPrecomputedWindow(uint64_t total_transactions,
                                   const std::vector<PrecomputedRule>& rules);

  /// Appends every window of an evolving database. With
  /// Options::parallelism > 1, independent windows are mined
  /// concurrently and committed in window order. All new windows are
  /// published together as one publication.
  void BuildAll(const EvolvingDatabase& data);

  /// Commits windows persisted elsewhere — parsed TSEG segments
  /// (ParseWindowSegment, kb_storage.h), in window order — by rule id, as
  /// one publication (KbBuilder::CommitPersistedWindows). A segment that
  /// does not fit this engine is a typed error and nothing is committed.
  /// On a mapped engine every pending window is materialized first; a
  /// corrupt one comes back as that (sticky) failure, as kCorruptSegment,
  /// instead of aborting. The replica's record path.
  std::optional<LoadError> CommitPersistedWindows(
      std::vector<PersistedWindow> windows);

  /// --- Durability (write-ahead log) ---------------------------------------
  /// With a WAL attached, each committed window's record is appended and
  /// fdatasync'd to the log before the window is published, so a window
  /// any reader (a query, an ack, a replication stream) can see survives
  /// any crash: recovery (OpenKnowledgeBase with OpenOptions::wal_dir in
  /// kb_open.h, or AttachWal over a loaded engine) replays the log tail
  /// and reproduces that state byte-for-byte.

  /// Attaches (creating if absent) the write-ahead log in `dir`,
  /// replaying any records it holds into this engine first. Call once,
  /// before ingestion starts; NOT safe concurrently with writers. On a
  /// mapped engine this first materializes every remaining window
  /// (replay needs the full catalog); decode failures come back as the
  /// LoadError instead of replaying.
  Expected<WalReplayStats, LoadError> AttachWal(const std::string& dir);

  /// Resets the attached log to its header (no-op without one). Call
  /// only right after the logged windows became durable via
  /// AppendKnowledgeBaseBlocks — that pair is the checkpoint step.
  std::optional<LoadError> TruncateWal() { return builder_->TruncateWal(); }

  /// True once a WAL is attached (Options::wal_dir or AttachWal).
  bool wal_attached() const { return builder_->wal_attached(); }

  /// Blocks until at least `windows` windows are published or `timeout`
  /// elapses; returns the published window count either way. Every
  /// published window is already durable, so this is how a replication
  /// stream tails new windows without polling (the same name and meaning
  /// as ReplicaEngine::WaitForWindows).
  uint32_t WaitForWindows(uint32_t windows,
                          std::chrono::milliseconds timeout) const {
    return builder_->WaitForWindows(windows, timeout);
  }

  /// Pins and returns the current knowledge-base generation: an immutable
  /// view offering the same query API (minus metric spans). Use this to
  /// answer several queries from one consistent state while ingestion
  /// continues, or to hold a generation alive across an append. On a
  /// mapped engine this materializes every remaining window first (the
  /// caller asked for the whole knowledge base) — aborting on corrupt
  /// storage, like any other load the engine cannot serve around.
  std::shared_ptr<const KnowledgeBaseSnapshot> Snapshot() const;

  /// The published generation number: 0 for an empty engine, then the
  /// number of windows committed so far — each publication advances it by
  /// the windows it commits, so it does not depend on how they were
  /// batched (a loaded engine reports its writer's generation; a replica
  /// its primary's). On a mapped engine it grows as windows materialize.
  uint64_t generation() const { return builder_->generation(); }

  /// Total windows of the knowledge base — on a mapped engine this is
  /// the manifest's count and does NOT materialize anything.
  uint32_t window_count() const;

  /// Rules interned across all windows — like window_count(), read from
  /// the manifest (its final watermark) while a mapped engine still has
  /// windows pending, so it neither decodes nor fails on corrupt storage.
  uint64_t rule_count() const;

  /// --- Zero-copy (mapped) knowledge bases ----------------------------------
  /// OpenKnowledgeBase(OpenMode::kMapped) plumbing — see kb_open.h for
  /// the user-facing story and kb_blocks.h for the storage format.

  /// Attaches a mapped TARAKB3 knowledge base to a freshly constructed,
  /// empty engine (aborts otherwise; call before any query or append).
  /// With `eager` every window is materialized now and a decode failure
  /// comes back as a typed error; without it, queries materialize the
  /// window prefix they need on demand and the first query to hit
  /// corrupt storage is rejected with QueryError::Code::kCorruptStorage
  /// (sticky: the unmaterialized tail stays unavailable, already-decoded
  /// windows keep serving).
  std::optional<LoadError> AttachMappedKb(std::shared_ptr<const MappedKb> kb,
                                          bool eager);

  /// True once no lazy materialization remains (trivially true for
  /// engines without a mapped knowledge base).
  bool fully_materialized() const;

  /// Materializes every remaining window without aborting: nullopt once
  /// the whole knowledge base is decoded, kCorruptStorage (sticky) when a
  /// pending segment is corrupt. Callers with an error channel that need
  /// the whole knowledge base (a server's append and replica-subscribe
  /// handlers) pass this gate before AppendWindow or Snapshot().
  std::optional<QueryError> MaterializeAll() const;

  /// Windows decoded into the builder so far. On a lazily mapped engine
  /// this lags window_count() until queries (or Snapshot()) pull the
  /// rest in — the observable proof that mapped opens are lazy.
  uint32_t materialized_window_count() const {
    return builder_->snapshot()->window_count();
  }

  /// --- Online operations: the one query entry point ----------------------
  /// Execute/ExecuteBatch return a QueryError (never abort) on invalid
  /// thresholds, window ids, window sets or rules, record query metrics,
  /// consult the query cache (query_cache.h), and materialize the window
  /// prefix a request needs on a mapped engine. Cached, batched and
  /// uncached answers are byte-identical (tests/test_query_cache.cc).
  ///
  /// Each comes in two forms over one execute core: typed (QueryResult)
  /// for library callers, and frame (ResultFrame, the finished kResult
  /// frame of wire_format.h) for the server. The cache holds frames: a
  /// miss encodes its answer once, exactly sized, into the frame it
  /// caches; a frame-form hit is the cached pointer itself and a typed hit
  /// decodes it past the 9-byte prefix. With no cache the typed form
  /// serializes nothing and the frame form encodes once.

  /// Executes one request against the current generation, answering from
  /// the cache when enabled. Safe for any number of concurrent callers,
  /// including while ingestion runs.
  Expected<QueryResult, QueryError> Execute(const QueryRequest& request) const;

  /// Execute in frame form: what the server writes to the socket as it is.
  Expected<ResultFrame, QueryError> ExecuteFrame(
      const QueryRequest& request) const;

  /// Executes a batch against ONE pinned snapshot (every request sees the
  /// same generation, even if appends land mid-batch). Identical requests
  /// (by canonical bytes) are executed once; cache misses fan out across
  /// the engine's thread pool when Options::parallelism != 1. Results are
  /// positionally aligned with `requests`.
  std::vector<Expected<QueryResult, QueryError>> ExecuteBatch(
      std::span<const QueryRequest> requests) const;

  /// ExecuteBatch in frame form, for the server's batch reply.
  std::vector<Expected<ResultFrame, QueryError>> ExecuteBatchFrames(
      std::span<const QueryRequest> requests) const;

  /// Resizes (or disables, with 0) the query cache, dropping all cached
  /// entries. NOT safe concurrently with in-flight Execute/ExecuteBatch
  /// calls — a serving process sizes the cache at construction via
  /// Options::query_cache_bytes; this setter exists for tools that load a
  /// knowledge base first and opt into caching afterwards.
  void SetQueryCacheBytes(size_t bytes);

  /// The cache, or nullptr when disabled. Exposed for stats reporting
  /// (hit rate, bytes); never needed for correctness.
  const QueryCache* query_cache() const { return cache_.get(); }

  /// The rule catalog, whole: on a mapped engine this materializes every
  /// remaining window first. Shared, append-only and internally
  /// synchronized, so safe from any thread without a pin.
  const RuleCatalog& catalog() const {
    EnsureAllOrDie();
    return builder_->catalog();
  }
  const Options& options() const { return builder_->options(); }

 private:
  /// Query-side instrument pointers, all null when Options::metrics is
  /// null (the null sink). Raw pointers into the registry; registration
  /// happens once in the constructor.
  struct EngineMetrics {
    std::array<obs::Histogram*, kQueryKindCount> latency{};
    obs::Counter* ok = nullptr;
    obs::Counter* rejected = nullptr;
  };

  /// Bumps `ok` or `rejected` for one answered request.
  template <typename T>
  void Count(const Expected<T, QueryError>& result) const {
    obs::Counter* counter =
        result.has_value() ? metrics_.ok : metrics_.rejected;
    if (counter != nullptr) counter->Increment();
  }

  /// Books the span/counters for a finished query: cancels the latency
  /// span on an error, counts the outcome, and forwards the result
  /// unchanged.
  template <typename T>
  Expected<T, QueryError> Finish(obs::QuerySpan* span,
                                 Expected<T, QueryError> result) const {
    if (!result.has_value()) span->Cancel();
    Count(result);
    return result;
  }

  /// --- The one execute core ----------------------------------------------
  /// Run and RunBatch are Execute and ExecuteBatch in either form: `Form`
  /// is QueryResult (typed) or ResultFrame. Both forms share the gate, the
  /// pin, the span, the ok/rejected count, the probe and the miss path.
  template <typename Form>
  Expected<Form, QueryError> Run(const QueryRequest& request) const;
  template <typename Form>
  std::vector<Expected<Form, QueryError>> RunBatch(
      std::span<const QueryRequest> requests) const;
  /// The cache probe: the cached frame itself, or the typed answer decoded
  /// past its prefix; nullopt on a miss or without a cache.
  template <typename Form>
  std::optional<Form> Lookup(uint64_t generation, QueryKind kind,
                             std::string_view key) const;
  /// A miss: executes against `snapshot`, then encodes the answer once,
  /// into the frame it caches, when the frame form returns it or the cache
  /// will keep it.
  template <typename Form>
  Expected<Form, QueryError> Miss(const KnowledgeBaseSnapshot& snapshot,
                                  const QueryRequest& request,
                                  std::string_view key) const;

  /// Registers query instruments in options.metrics (no-op when null).
  void RegisterMetrics(obs::MetricsRegistry* registry);

  /// --- Lazy materialization (mapped knowledge bases) -----------------------
  /// All gates are no-ops (one relaxed load) once materialization is
  /// complete or when no mapped knowledge base is attached. Lock order:
  /// the lazy mutex is taken strictly before the builder's commit mutex
  /// (materialization appends windows); pool workers never touch the
  /// lazy mutex.

  /// Materializes windows so the snapshot holds at least
  /// min(required, total) of them. Sticky-fails with kCorruptStorage.
  std::optional<QueryError> EnsureWindows(uint64_t required) const;
  /// The kind-aware gate Execute/ExecuteBatch use — the one place that
  /// decides which window prefix each query kind needs.
  std::optional<QueryError> EnsureForRequest(const QueryRequest& request) const;
  /// MaterializeAll for callers with no error channel (Snapshot, appends,
  /// catalog()); aborts on corrupt storage.
  void EnsureAllOrDie() const;
  /// The mutex-held worker: hash-checks and parses windows
  /// [materialized, need) against the manifest (fanned across the query
  /// pool), then commits them by id in ONE batch — one publication.
  std::optional<LoadError> MaterializeLocked(uint32_t need) const;

  /// unique_ptr so the engine stays movable (the builder holds mutexes
  /// and the atomic publication slot).
  std::unique_ptr<KbBuilder> builder_;
  EngineMetrics metrics_;
  /// Generation-pinned result cache; null when Options::query_cache_bytes
  /// is 0. unique_ptr keeps the engine movable (the cache holds mutexes).
  std::unique_ptr<QueryCache> cache_;
  /// Read-side pool for ExecuteBatch fan-out; created when the effective
  /// parallelism is > 1. Separate from the builder's pool so batch reads
  /// never queue behind mining tasks during live ingestion.
  std::unique_ptr<ThreadPool> query_pool_;
  /// Lazy-materialization state for a mapped knowledge base; null for
  /// eager engines (and reset once an eager attach finishes). mutable:
  /// const queries materialize windows on demand — logically the engine
  /// is unchanged (the same knowledge base, loaded further).
  struct LazyState;
  mutable std::unique_ptr<LazyState> lazy_;
};

}  // namespace tara

#endif  // TARA_CORE_TARA_ENGINE_H_
