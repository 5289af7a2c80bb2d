#ifndef TARA_CORE_KB_BUILDER_H_
#define TARA_CORE_KB_BUILDER_H_

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
/// (RCU-style). The published snapshot is the only committed state: the
/// builder keeps no working copy of the knowledge base beside it.
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
/// - Each commit builds the next generation from the current one. It
///   shares the current WindowSegments by reference (appending window N
///   copies N-1 pointers, not the segments), and appends to its own copy
///   of the current archive, whose delta streams are rewritten in place
///   — so no reader ever sees an archive change.
/// - The RuleCatalog is shared between the builder and all snapshots: it
///   is append-only, internally synchronized (shared_mutex), and each
///   snapshot carries the rule-count watermark valid for its generation.
///
/// Publication: every writer call publishes exactly ONE generation for
/// all the windows it commits, and the generation number advances by
/// the number of windows committed — so an engine's generation equals
/// its window count however its windows were batched (`tara.kb.swaps`
/// counts the publications). With a WAL attached, every window is
/// appended and fdatasync'd to the log BEFORE the publication that makes
/// it visible: a window a reader (or a replication stream) can see
/// survives any crash.
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
  /// over a window of `total_transactions` transactions; counts no window
  /// can hold abort before anything is archived or logged. Persisted
  /// windows, whose segments already name their rules by id, go through
  /// CommitPersistedWindows instead.
  WindowId AppendPrecomputedWindow(uint64_t total_transactions,
                                   const std::vector<PrecomputedRule>& rules);

  /// Appends every window of an evolving database. With
  /// Options::parallelism > 1, independent windows are mined
  /// concurrently and interned in window order. At any parallelism the
  /// new windows become visible to readers atomically, as ONE
  /// publication after the last window's commit.
  void BuildAll(const EvolvingDatabase& data);

  /// Commits persisted windows — parsed TSEG segments, in window order,
  /// the first being the published window count — by rule id, as ONE
  /// publication: each window's new rules are moved into the catalog and
  /// must get exactly the ids the segment names; entries go to the
  /// archive by id (no content lookups); no EPS slice is built until a
  /// query reads it. Everything is checked before the catalog
  /// or the archive is touched: a wrong window or first rule id,
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

  /// Blocks until at least `windows` windows are published or `timeout`
  /// elapses; returns the published window count either way. A window is
  /// logged before it is published, so every window counted is durable:
  /// this is how a replication stream tails new windows without polling.
  uint32_t WaitForWindows(uint32_t windows,
                          std::chrono::milliseconds timeout) const;

  /// The master catalog, shared with every snapshot: append-only and
  /// internally synchronized, so safe from any thread.
  const RuleCatalog& catalog() const { return *catalog_; }
  const Options& options() const { return options_; }

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

  /// Checks a persisted batch against `current` without touching
  /// anything (the CommitPersistedWindows contract). Commit mutex must be
  /// held.
  std::optional<LoadError> ValidatePersistedLocked(
      const KnowledgeBaseSnapshot& current,
      const std::vector<PersistedWindow>& windows) const;

  /// The commit tail every writer shares. Builds the next generation from
  /// the current one: appends the pending windows (ids already interned,
  /// in window order) to the current archive through Appended, appends
  /// each window's TSEG record to the WAL (fdatasync'd), and only then
  /// publishes ONE generation holding all of them. The EPS slices are
  /// left to their first readers.
  /// Aborts if the log cannot be written — before anything is visible.
  /// No-op for an empty batch. Commit mutex must be held.
  void CommitLocked(std::vector<std::shared_ptr<WindowSegment>> pending);

  /// Swaps in `next` as the current generation and wakes WaitForWindows.
  /// `swaps` counts every publication but the initial one. Commit mutex
  /// must be held.
  void PublishSnapshotLocked(std::shared_ptr<const KnowledgeBaseSnapshot> next);

  /// Registers instruments in options_.metrics (no-op when null).
  void RegisterMetrics();
  /// Refreshes the build/size gauges from `published` (no-op when the
  /// registry is null; commit mutex must be held).
  void UpdateBuildMetrics(const KnowledgeBaseSnapshot& published);

  /// Build-side instrument pointers, all null when Options::metrics is
  /// null (the null sink).
  struct BuilderMetrics {
    obs::Gauge* build_itemset_seconds = nullptr;
    obs::Gauge* build_rule_seconds = nullptr;
    obs::Gauge* build_archive_seconds = nullptr;
    obs::Gauge* build_windows = nullptr;
    obs::Gauge* build_rules = nullptr;
    obs::Gauge* archive_payload_bytes = nullptr;
    obs::Gauge* archive_entries = nullptr;
    /// Handed to every snapshot: one sample per EPS slice built.
    obs::Histogram* index_build_ns = nullptr;
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
  /// The RCU publication point: readers copy it and the writer swaps it,
  /// both under current_mutex_; WaitForWindows parks on published_cv_.
  mutable std::mutex current_mutex_;
  mutable std::condition_variable published_cv_;
  std::shared_ptr<const KnowledgeBaseSnapshot> current_;
  /// Write-ahead log; null until AttachWal succeeds. Written only under
  /// the commit mutex, before each publication.
  std::unique_ptr<WalWriter> wal_;
  BuilderMetrics metrics_;
};

}  // namespace tara

#endif  // TARA_CORE_KB_BUILDER_H_
