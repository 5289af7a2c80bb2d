#ifndef TARA_CORE_KB_BUILDER_H_
#define TARA_CORE_KB_BUILDER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/expected.h"
#include "common/thread_pool.h"
#include "core/kb_snapshot.h"
#include "core/load_error.h"
#include "core/rollup_tree.h"
#include "core/wal.h"
#include "mining/rule_generation.h"
#include "obs/metrics.h"
#include "txdb/evolving_database.h"

namespace tara {

/// One window persisted elsewhere — a TSEG segment (kb_storage.h) from a
/// TARAKB3 block, a WAL record, a replication frame or the stream form —
/// parsed and ready for KbBuilder::CommitPersistedWindows. Its entries
/// name rules by id: ids below `first_rule` are rules earlier windows
/// interned, and the window interns `new_rules` as ids
/// [first_rule, first_rule + new_rules.size()), in order.
struct PersistedWindow {
  WindowId window = 0;
  /// Not part of the segment blob: the caller sets it from the manifest
  /// row, WAL record or replication frame that carried the segment.
  uint64_t total_transactions = 0;
  RuleId first_rule = 0;
  std::vector<Rule> new_rules;
  std::vector<WindowIndex::Entry> entries;
};

/// The mutable half of the knowledge base: mines arriving windows, commits
/// them onto the current KnowledgeBaseSnapshot, and publishes each new
/// generation with a single shared_ptr swap under a publication mutex
/// (RCU-style).
///
/// ## Concurrency contract
///
/// - **One writer.** AppendWindow / AppendPrecomputedWindow / BuildAll /
///   CommitPersistedWindows are serialized by an internal commit mutex;
///   concurrent writer calls are safe but pointless (they queue).
/// - **Any number of readers, any time.** snapshot() copies the current
///   pointer under a mutex held only for that copy (or the writer's
///   swap); the returned shared_ptr pins that generation for as long as
///   it is held. A reader never waits on a commit — an in-flight query
///   keeps answering from the generation it pinned while newer windows
///   are committed and published.
///
/// What makes the swap safe:
/// - WindowSegments are immutable once published and shared by reference
///   across generations (appending window N copies N-1 pointers, not the
///   segments themselves).
/// - The RuleCatalog is shared between the builder and all snapshots: it
///   is append-only, internally synchronized (shared_mutex), and each
///   snapshot carries the rule-count watermark valid for its generation.
/// - The TAR Archive's delta streams are rewritten in place by appends, so
///   each published snapshot receives its own immutable copy of the
///   (compressed) archive; the builder keeps the working archive private.
///
/// Publication: every writer call publishes exactly ONE generation for
/// all the windows it commits, and the generation number advances by
/// the number of windows committed — so an engine's generation equals
/// its window count however its windows were batched (`tara.kb.swaps`
/// counts the publications).
///
/// Determinism: catalog interning runs strictly in window order whether
/// windows arrive via BuildAll's parallel pipeline, one at a time through
/// live AppendWindow calls, or by id from persisted segments, so RuleIds
/// — and the serialized knowledge base — are byte-identical for the same
/// window sequence at any parallelism, on every path.
class KbBuilder {
 public:
  using Options = KbOptions;

  /// Validates the options (aborts with an actionable message on an
  /// invalid field) and publishes the empty generation-0 snapshot.
  explicit KbBuilder(const Options& options);

  /// Mines and indexes transactions [begin, end) of `db` as the next
  /// window, then publishes the new generation. Returns the new window
  /// id. This is the incremental (iPARAS) build step: prior windows are
  /// never revisited.
  WindowId AppendWindow(const TransactionDatabase& db, size_t begin,
                        size_t end);

  /// Installs a window whose rules were mined elsewhere (an external
  /// miner), interning them by content, then publishes. The caller
  /// guarantees the rules are exactly those passing this builder's floors
  /// over a window of `total_transactions` transactions. Persisted
  /// windows, whose segments already name their rules by id, go through
  /// CommitPersistedWindows instead.
  WindowId AppendPrecomputedWindow(uint64_t total_transactions,
                                   const std::vector<PrecomputedRule>& rules);

  /// Appends every window of an evolving database. With
  /// Options::parallelism > 1, independent windows are mined
  /// concurrently, interned in window order, and EPS-indexed across the
  /// pool. At any parallelism the new windows become visible to readers
  /// atomically, as ONE publication after the last window's commit.
  void BuildAll(const EvolvingDatabase& data);

  /// Commits persisted windows — parsed TSEG segments, in window order,
  /// the first being window_count() — by rule id, as ONE publication:
  /// each window's new rules are moved into the catalog and must get
  /// exactly the ids the segment names; entries go to the archive and the
  /// roll-up tree by id (no content lookups); the EPS slices are built
  /// across the pool when one exists. Everything is checked before the
  /// catalog or the archive is touched: a wrong window or first rule id,
  /// an entry with a zero rule count or an antecedent count below it, an
  /// id past the window's watermark, one rule listed twice in a window,
  /// or a new rule whose contents the catalog already holds is a typed
  /// kCorruptSegment error, and then nothing is committed or published.
  std::optional<LoadError> CommitPersistedWindows(
      std::vector<PersistedWindow> windows);

  /// Attaches the write-ahead log in `dir`, creating it if absent. An
  /// existing log must carry this builder's construction options; its
  /// records are first replayed into the snapshot (windows the builder
  /// already has are skipped, a window past the next id is a typed gap
  /// error). After a successful attach every committed window is
  /// appended to the log and fdatasync'd before the committing call
  /// returns. NOT safe concurrently with writers or another AttachWal;
  /// call once, before ingestion starts.
  Expected<WalReplayStats, LoadError> AttachWal(const std::string& dir);

  /// Resets the attached log to just its header (no-op without one).
  /// Call only after the logged windows became durable elsewhere —
  /// i.e. right after a successful AppendKnowledgeBaseBlocks checkpoint.
  std::optional<LoadError> TruncateWal();

  /// True once AttachWal has succeeded (or Options::wal_dir was set).
  bool wal_attached() const { return wal_ != nullptr; }

  /// Pins and returns the current generation. Safe from any thread at any
  /// time, including while a writer is mid-append: the lock covers only
  /// the pointer copy, never a commit.
  std::shared_ptr<const KnowledgeBaseSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(current_mutex_);
    return current_;
  }

  /// The published generation number: 0 for the empty initial snapshot,
  /// then the number of windows committed so far (each publication
  /// advances it by the windows it commits).
  uint64_t generation() const { return snapshot()->generation(); }

  /// --- Durable watermark ------------------------------------------------
  /// Publication makes a window visible BEFORE its WAL record is
  /// fdatasync'd (both under the commit mutex), so a plain snapshot()
  /// can briefly expose a window a crash could still lose. Replication
  /// must not: a follower that replayed such a window would diverge from
  /// the recovered primary. The durable watermark trails publication by
  /// exactly that fsync: windows below it are safe to stream. Without a
  /// WAL every published window counts (there is no stronger durability
  /// to wait for).

  /// Windows durably acked so far. Lock-free; safe from any thread.
  uint32_t durable_window_count() const {
    return durable_windows_.load(std::memory_order_acquire);
  }

  /// Blocks until durable_window_count() > floor or `timeout` elapses;
  /// returns the current count either way. This is how a replication
  /// stream tails new windows without polling.
  uint32_t WaitDurableWindowsAbove(uint32_t floor,
                                   std::chrono::milliseconds timeout) const;

  /// --- Quiescent accessors ----------------------------------------------
  /// Direct views of the builder's working state, for offline tooling
  /// (benches, build-stats reports). Unlike snapshot(), these are NOT
  /// synchronized with concurrent appends — use them only when no writer
  /// is active, or go through snapshot().

  const RuleCatalog& catalog() const { return *catalog_; }
  const TarArchive& archive() const { return archive_; }
  const WindowSegment& segment(WindowId w) const;
  uint32_t window_count() const {
    return static_cast<uint32_t>(segments_.size());
  }
  const std::vector<WindowBuildStats>& build_stats() const { return stats_; }
  const Options& options() const { return options_; }
  size_t IndexBytes() const;

 private:
  /// One window's mining output, produced off-thread by the parallel
  /// build and handed to the ordered commit stage.
  struct MinedWindow {
    uint64_t total_transactions = 0;
    uint64_t floor_count = 0;
    std::vector<MinedRule> rules;
    double itemset_seconds = 0;
    double rule_seconds = 0;
    size_t itemset_count = 0;
  };

  /// Stage 1: mines transactions [begin, end) at the floors. Touches no
  /// builder state besides (immutable) options, so any thread may run it.
  MinedWindow MineWindowSlice(const TransactionDatabase& db, size_t begin,
                              size_t end, ThreadPool* intra_pool) const;

  /// Stage 2: interns `mined`'s rules by content and returns the window's
  /// pending segment (entries by id, watermark, stats). Must run
  /// serialized, in window order — this is what keeps RuleIds
  /// deterministic. Commit mutex must be held.
  std::shared_ptr<WindowSegment> InternMined(MinedWindow mined);

  /// Interns and commits one mined window as the next window (its own
  /// publication); returns its id. Takes the commit mutex.
  WindowId CommitMinedWindow(MinedWindow mined);

  /// Checks a persisted batch against the working state without touching
  /// it (the CommitPersistedWindows contract). Commit mutex must be held.
  std::optional<LoadError> ValidatePersistedLocked(
      const std::vector<PersistedWindow>& windows) const;

  /// The commit tail every writer shares: appends each pending window
  /// (ids already interned, in window order, starting at window_count())
  /// to the archive and the roll-up tree, builds the EPS slices (across
  /// the pool when there are several windows), publishes ONE generation
  /// holding all of them, logs them to the WAL and marks them durable.
  /// No-op for an empty batch. Commit mutex must be held.
  void CommitLocked(std::vector<std::shared_ptr<WindowSegment>> pending);

  /// Appends windows [first, window_count()) to the attached WAL,
  /// fdatasync'd, reading their bytes from the just-published snapshot.
  /// No-op without a WAL; aborts if the log cannot be written — the
  /// windows are already visible in memory, and returning success
  /// without durability would break the ack contract. Commit mutex must
  /// be held.
  void LogWindowsLocked(WindowId first);

  /// Advances the durable watermark to every committed window and wakes
  /// waiting replication streams. Call after LogWindowsLocked (commit
  /// mutex must be held).
  void MarkDurableLocked();

  /// Swaps in a snapshot of the current working state, advancing the
  /// generation by `windows` (the windows this publication commits; 0
  /// only for the initial publication). `swaps` counts publications
  /// after the initial one. Commit mutex must be held.
  void PublishSnapshotLocked(uint32_t windows);

  /// Registers instruments in options_.metrics (no-op when null).
  void RegisterMetrics();
  /// Refreshes the build/size gauges from stats_/archive_/segments_
  /// (no-op when the registry is null; commit mutex must be held).
  void UpdateBuildMetrics();

  /// Build-side instrument pointers, all null when Options::metrics is
  /// null (the null sink).
  struct BuilderMetrics {
    obs::Gauge* build_itemset_seconds = nullptr;
    obs::Gauge* build_rule_seconds = nullptr;
    obs::Gauge* build_archive_seconds = nullptr;
    obs::Gauge* build_index_seconds = nullptr;
    obs::Gauge* build_windows = nullptr;
    obs::Gauge* build_rules = nullptr;
    obs::Gauge* build_regions = nullptr;
    obs::Gauge* archive_payload_bytes = nullptr;
    obs::Gauge* archive_entries = nullptr;
    obs::Gauge* index_bytes = nullptr;
    obs::Gauge* kb_generation = nullptr;
    obs::Counter* kb_swaps = nullptr;
  };

  Options options_;
  /// Non-null iff the effective parallelism is > 1; owns the build worker
  /// threads. Queries never touch it.
  std::unique_ptr<ThreadPool> pool_;
  /// Serializes writers (append/build calls) and publication.
  std::mutex commit_mutex_;
  /// Master catalog, shared with every published snapshot (append-only,
  /// internally synchronized).
  std::shared_ptr<RuleCatalog> catalog_;
  /// Working archive; every published snapshot gets an immutable copy.
  TarArchive archive_;
  /// Mirrors the archive as hierarchical partial sums; every published
  /// snapshot gets an immutable tree (series shared copy-on-write).
  RollUpTreeBuilder tree_builder_;
  /// All committed segments, oldest first (each immutable once pushed).
  std::vector<std::shared_ptr<const WindowSegment>> segments_;
  std::vector<WindowBuildStats> stats_;
  /// Windows committed by the publications so far. A counter of its own
  /// rather than segments_.size(), so a reader comparing a snapshot's
  /// generation with its window count catches a torn publication.
  uint64_t generation_ = 0;
  /// The RCU publication point: readers copy it and the writer swaps it,
  /// both under current_mutex_.
  mutable std::mutex current_mutex_;
  std::shared_ptr<const KnowledgeBaseSnapshot> current_;
  /// Write-ahead log; null until AttachWal succeeds. Written only under
  /// the commit mutex, after each publication.
  std::unique_ptr<WalWriter> wal_;
  /// Windows whose WAL records are fdatasync'd (== window count when no
  /// WAL is attached). Readers poll the atomic; waiters park on the cv.
  std::atomic<uint32_t> durable_windows_{0};
  mutable std::mutex durable_mutex_;
  mutable std::condition_variable durable_cv_;
  BuilderMetrics metrics_;
};

}  // namespace tara

#endif  // TARA_CORE_KB_BUILDER_H_
