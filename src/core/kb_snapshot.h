#ifndef TARA_CORE_KB_SNAPSHOT_H_
#define TARA_CORE_KB_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/byte_codec.h"
#include "common/expected.h"
#include "core/periodicity.h"
#include "core/query_error.h"
#include "core/rule_catalog.h"
#include "core/stable_region_index.h"
#include "core/tar_archive.h"
#include "core/trajectory.h"
#include "core/window_set.h"
#include "txdb/evolving_database.h"

namespace tara {

namespace obs {
class Histogram;
class MetricsRegistry;
}  // namespace obs

/// A (minimum support, minimum confidence) query setting.
struct ParameterSetting {
  double min_support = 0.0;
  double min_confidence = 0.0;
};

/// How a multi-window predicate combines per-window validity.
enum class MatchMode {
  kSingle,  ///< valid in at least one of the windows (union)
  kExact,   ///< valid in every window (intersection)
};

/// Knowledge-base construction options, shared by the KbBuilder and the
/// TaraEngine facade (which aliases this as TaraEngine::Options).
struct KbOptions {
  /// Generation floors (Table 4): the per-window offline mining
  /// thresholds. Each window is mined exactly once at these floors, so
  /// they bound the online parameter space from below: every online
  /// query must use minsupp/minconf at or above them (checked per
  /// query), and the roll-up interval bounds widen by at most one floor
  /// count per missing window. Valid ranges: min_support_floor in
  /// (0, 1], min_confidence_floor in [0, 1].
  double min_support_floor = 0.001;
  double min_confidence_floor = 0.1;
  /// Cap on frequent-itemset cardinality (0 = unlimited, otherwise
  /// >= 2; a cap of 1 would admit no rules at all).
  uint32_t max_itemset_size = 0;
  /// Build per-window item→rule inverted indexes (the TARA-S variant)
  /// enabling Q5 content queries at extra build cost.
  bool build_content_index = false;
  /// Worker threads for the offline build and for queries: BuildAll
  /// overlaps whole windows, AppendWindow parallelizes rule derivation, a
  /// mapped open parses the segments a query needs, and ExecuteBatch
  /// spreads its misses. A commit builds no EPS slice: each window's
  /// slice is built, sequentially, by the first query that reads it (in
  /// a batch, by one pool worker while the others wait for it).
  /// 1 = fully sequential (default), 0 = use the hardware concurrency.
  /// Any value yields a byte-identical serialized knowledge base; this is
  /// an execution knob, not knowledge-base state, and is not serialized.
  uint32_t parallelism = 1;
  /// Destination for the engine's instruments, or nullptr for the null
  /// sink (no clocks, no atomics on the query path). The registry must
  /// outlive the engine. Like parallelism this is a runtime knob, not
  /// knowledge-base state, and is not serialized. Engines sharing a
  /// registry aggregate into the same named series.
  obs::MetricsRegistry* metrics = nullptr;
  /// Memory budget for the generation-pinned query cache serving
  /// TaraEngine::Execute / ExecuteBatch, in bytes. 0 (default) disables
  /// caching entirely — no hashing, no serialization on the query path.
  /// A runtime knob like parallelism/metrics: not serialized, and
  /// adjustable after construction via TaraEngine::SetQueryCacheBytes.
  size_t query_cache_bytes = 0;
  /// Directory of the write-ahead log for live ingestion, or "" (default)
  /// for no WAL. When set, construction replays any log found there into
  /// the engine and every committed window is fdatasync'd to the log
  /// before Append*/BuildAll return — see wal.h for the durability
  /// contract. Construction aborts if the log cannot be attached; callers
  /// that want a typed error attach via TaraEngine::AttachWal instead.
  /// A runtime knob like parallelism/metrics: not serialized.
  std::string wal_dir;

  /// Returns an actionable description of the first invalid field, or
  /// nullopt when the options are usable. The KbBuilder (and therefore
  /// the TaraEngine) constructor calls this and aborts with the returned
  /// message.
  std::optional<std::string> Validate() const;
};

/// The options fingerprint: the serialized subset of KbOptions, carried
/// byte for byte by the stream and TARAKB3 manifests, the WAL header and
/// the replica checkpoint frame — support floor (f64), confidence floor
/// (f64), itemset cap (varint), content-index flag (one byte, 0 or 1).
/// `Options` is any struct with those four fields: KbOptions,
/// KbBlocksManifest or ReplicaCheckpoint.
template <typename Options, typename Bytes>
void WriteOptionsFingerprint(const Options& options,
                             codec::ByteWriter<Bytes>* out) {
  out->F64(options.min_support_floor);
  out->F64(options.min_confidence_floor);
  out->U64(options.max_itemset_size);
  out->Byte(options.build_content_index ? 1 : 0);
}

/// True when `a` and `b`, each any struct with the four fingerprint
/// fields, carry the same fingerprint.
template <typename A, typename B>
bool SameOptionsFingerprint(const A& a, const B& b) {
  return a.min_support_floor == b.min_support_floor &&
         a.min_confidence_floor == b.min_confidence_floor &&
         a.max_itemset_size == b.max_itemset_size &&
         a.build_content_index == b.build_content_index;
}

/// Why a fingerprint did not read: the bytes end inside it, or a field is
/// out of range (KbOptions::Validate). Each format maps the two cases to
/// its own error codes.
struct FingerprintError {
  bool truncated = false;
  std::string message;
};

/// Reads a fingerprint and validates it as KbOptions would; only a valid
/// one is copied into `*out`.
template <typename Options>
std::optional<FingerprintError> ReadOptionsFingerprint(codec::ByteReader* in,
                                                       Options* out) {
  KbOptions options;
  uint64_t itemset_cap = 0;
  uint8_t content_index = 0;
  if (!in->F64(&options.min_support_floor) ||
      !in->F64(&options.min_confidence_floor) || !in->U64(&itemset_cap) ||
      !in->Byte(&content_index)) {
    return FingerprintError{true, "ends inside the options fingerprint"};
  }
  if (content_index > 1) {
    return FingerprintError{false, "content-index flag is neither 0 nor 1"};
  }
  options.max_itemset_size = static_cast<uint32_t>(itemset_cap);
  options.build_content_index = content_index == 1;
  const std::optional<std::string> invalid =
      options.max_itemset_size != itemset_cap
          ? std::optional<std::string>("itemset cap overflows")
          : options.Validate();
  if (invalid.has_value()) {
    return FingerprintError{false, "options are outside the valid ranges: " +
                                       *invalid};
  }
  out->min_support_floor = options.min_support_floor;
  out->min_confidence_floor = options.min_confidence_floor;
  out->max_itemset_size = options.max_itemset_size;
  out->build_content_index = options.build_content_index;
  return std::nullopt;
}

/// Per-window offline timing/size breakdown (Figure 9's stacked tasks).
/// The EPS slice is built by its window's first read, not at commit, so
/// its cost and shape are the slice's to report (window_index(w)).
struct WindowBuildStats {
  WindowId window = 0;
  double itemset_seconds = 0;  ///< frequent itemset generation
  double rule_seconds = 0;     ///< rule derivation
  double archive_seconds = 0;  ///< share of its commit's archive build
  size_t itemset_count = 0;
  size_t rule_count = 0;

  double total_seconds() const {
    return itemset_seconds + rule_seconds + archive_seconds;
  }
};

/// A rule with counts produced outside the engine (an external miner, or
/// the knowledge-base loader).
struct PrecomputedRule {
  Rule rule;
  uint64_t rule_count = 0;
  uint64_t antecedent_count = 0;
};

/// Result of the Q1 trajectory query: the rules matching the anchor
/// setting plus each rule's trajectory over the horizon windows, flat.
/// Trajectory t is points[offsets[t], offsets[t + 1]) (compressed sparse
/// rows: `offsets` starts at 0 and has one entry more than there are
/// trajectories). The engine answers one trajectory per rule, each over
/// the whole horizon; the rows are not assumed equal, so any bytes the
/// result grammar accepts decode to a value.
struct TrajectoryQueryResult {
  std::vector<RuleId> rules;
  std::vector<uint32_t> offsets = {0};
  std::vector<TrajectoryPoint> points;

  size_t trajectory_count() const { return offsets.size() - 1; }
  std::span<const TrajectoryPoint> trajectory(size_t t) const {
    return std::span<const TrajectoryPoint>(points).subspan(
        offsets[t], offsets[t + 1] - offsets[t]);
  }
};

/// The merged item→rules view of a window's answer (the TARA-S Q5
/// companion result), flat: items ascending, item i's rules ascending in
/// rules[offsets[i], offsets[i + 1]) — the order the result grammar
/// writes. `offsets` starts at 0 and has one entry more than `items`.
struct ContentViewResult {
  std::vector<ItemId> items;
  std::vector<uint32_t> offsets = {0};
  std::vector<RuleId> rules;

  std::span<const RuleId> rules_of(size_t i) const {
    return std::span<const RuleId>(rules).subspan(
        offsets[i], offsets[i + 1] - offsets[i]);
  }
  bool operator==(const ContentViewResult&) const = default;
};

/// Result of the Q2 ruleset comparison.
struct RulesetDiff {
  std::vector<RuleId> only_first;
  std::vector<RuleId> only_second;
};

/// Result of mining over a rolled-up window union: rules certainly valid
/// (interval lower bounds pass) and rules whose validity depends on the
/// sub-floor windows (only upper bounds pass).
struct RolledUpRules {
  std::vector<RuleId> certain;
  std::vector<RuleId> possible;
};

/// How the panorama ranks rules. Every order breaks ties by ascending
/// RuleId.
enum class PanoramaOrder {
  kStable,    ///< coverage, then stability, descending
  kEmerging,  ///< emergence descending
  kFading,    ///< emergence ascending
  kPeriodic,  ///< cycle strength descending, then shorter period; only
              ///< rules with a detected cycle
};

/// One rule of a panorama with its evolving-behavior profile over the
/// horizon.
struct RuleInsight {
  RuleId rule = 0;
  TrajectoryMeasures measures;
  PeriodicityResult periodicity;
  /// Mean support over the second half of the horizon minus the first
  /// (absence counts as zero support): positive = emerging, negative =
  /// fading.
  double emergence = 0.0;
};

/// One committed window of the knowledge base: its entries (the EPS
/// slice's input, read as they are by roll-up mining and serialization),
/// its build breakdown, and its EPS slice, built from the entries by the
/// first KnowledgeBaseSnapshot::window_index(w) call rather than at
/// commit. The public fields are immutable once a snapshot referencing the
/// segment has been published; the segment is shared by every later
/// snapshot, so appending a window never copies older windows, and a slice
/// one generation built serves all of them.
class WindowSegment {
 public:
  std::vector<WindowIndex::Entry> entries;
  uint64_t total_transactions = 0;
  uint64_t floor_count = 0;
  /// Catalog size after this window's commit. Rules first interned by
  /// this window occupy ids [previous segment's watermark, this
  /// watermark) — the invariant the segmented serialization format
  /// relies on to persist one window at a time.
  RuleId rule_watermark = 0;
  WindowBuildStats stats;

 private:
  friend class KnowledgeBaseSnapshot;

  /// The EPS slice, built on the first call. Concurrent first callers
  /// wait for one build; once it is built a call costs one acquire load.
  /// Each build records its nanoseconds in `build_ns` (may be null).
  const WindowIndex& Index(const RuleCatalog& catalog, bool content_index,
                           obs::Histogram* build_ns) const;

  mutable std::atomic<bool> index_built_{false};
  mutable std::mutex index_mutex_;
  /// Written once, under index_mutex_, before index_built_ is released.
  mutable WindowIndex index_;
};

/// An immutable, point-in-time view of the knowledge base: the rule
/// catalog (bounded by the rule-count watermark at publication), the TAR
/// Archive, and one WindowSegment per committed window. All online query
/// logic (Q1–Q5, roll-up/drill-down, the panorama) lives here and reads
/// only this state, so any number of threads may query one snapshot — or
/// different snapshots — while a KbBuilder keeps committing new windows
/// and publishing new generations.
///
/// Snapshots are obtained from KbBuilder::snapshot() /
/// TaraEngine::Snapshot() as shared_ptr<const KnowledgeBaseSnapshot>;
/// holding the pointer pins the generation (RCU-style): the data it
/// references is never mutated and outlives the pointer.
///
/// Queries validate their request and return Expected<T, QueryError> —
/// the same crash-free contract as the TaraEngine facade, minus the
/// facade's metric spans.
class KnowledgeBaseSnapshot {
 public:
  /// The generation number: 0 for the empty snapshot published at
  /// construction, +1 per publication since.
  uint64_t generation() const { return generation_; }

  uint32_t window_count() const {
    return static_cast<uint32_t>(segments_.size());
  }

  /// Number of rules interned when this snapshot was published. The
  /// shared catalog may have grown past this since; ids >= rule_count()
  /// are *not* part of this generation and are rejected by queries.
  size_t rule_count() const { return rule_count_; }

  /// The shared rule catalog. Safe for concurrent readers (internally
  /// synchronized against the single interning writer); only ids below
  /// rule_count() belong to this snapshot.
  const RuleCatalog& catalog() const { return *catalog_; }

  /// This generation's archive. Immutable: the next commit shares its
  /// filled chunks and rebuilds only the open one.
  const TarArchive& archive() const { return *archive_; }

  /// archive(), under the name perfbench's trace calls RollUp through;
  /// ROADMAP.md item 1 moves that call onto RollUpRule and deletes this.
  const TarArchive& rollup_tree() const { return archive(); }

  const WindowSegment& segment(WindowId w) const;
  /// Window `w`'s EPS slice. The first call for a window builds it (and
  /// records one `tara.index.build_ns` sample); every later call, from
  /// this generation or any later one, returns the same slice.
  const WindowIndex& window_index(WindowId w) const;
  const std::vector<WindowIndex::Entry>& window_entries(WindowId w) const {
    return segment(w).entries;
  }

  /// The construction options the knowledge base was built with (runtime
  /// knobs — parallelism, metrics — as of the owning builder).
  const KbOptions& options() const { return options_; }

  /// Approximate bytes of all EPS window indexes (Figure 12 bookkeeping).
  /// Builds every slice not yet built.
  size_t IndexBytes() const;

  /// --- WindowSet construction -------------------------------------------

  /// A validated WindowSet over this snapshot's windows. Aborts if any id
  /// is out of range.
  WindowSet MakeWindowSet(std::vector<WindowId> ids) const {
    return WindowSet(std::move(ids), window_count());
  }

  /// Every window of the snapshot, oldest first.
  WindowSet AllWindows() const { return WindowSet::All(window_count()); }

  /// The newest `count` windows (fewer if the snapshot has fewer).
  WindowSet RecentWindows(uint32_t count) const {
    const uint32_t n = window_count();
    return WindowSet::Range(count >= n ? 0 : n - count, n, n);
  }

  /// --- Online operations ------------------------------------------------
  /// All of these validate the request and return a QueryError (never
  /// abort) on invalid thresholds, window ids, empty window sets, or
  /// unknown rules.

  /// Rules valid in window `w` under `setting`.
  Expected<std::vector<RuleId>, QueryError> MineWindow(
      WindowId w, const ParameterSetting& setting) const;

  /// Rules valid across `windows` under `setting`, combined per `mode`.
  /// Output is sorted by RuleId.
  Expected<std::vector<RuleId>, QueryError> MineWindows(
      const WindowSet& windows, const ParameterSetting& setting,
      MatchMode mode) const;

  /// Q1: rules matching `setting` in `anchor`, each with its trajectory
  /// over `horizon` (oldest window first).
  Expected<TrajectoryQueryResult, QueryError> TrajectoryQuery(
      WindowId anchor, const ParameterSetting& setting,
      const WindowSet& horizon) const;

  /// Q2: symmetric difference of the rulesets of two settings over the
  /// same windows. Outputs sorted by RuleId.
  Expected<RulesetDiff, QueryError> CompareSettings(
      const ParameterSetting& first, const ParameterSetting& second,
      const WindowSet& windows, MatchMode mode) const;

  /// Q3: the time-aware stable region of `setting` in window `w` — the
  /// parameter recommendation primitive (any setting inside the region is
  /// equivalent; its upper corner is the tightest such setting).
  Expected<RegionInfo, QueryError> RecommendRegion(
      WindowId w, const ParameterSetting& setting) const;

  /// Q4: evolving-behavior measures of a rule over `windows`.
  Expected<TrajectoryMeasures, QueryError> RuleMeasures(
      RuleId rule, const WindowSet& windows) const;

  /// Q5: rules valid under `setting` in window `w` containing all of
  /// `items`. Requires KbOptions::build_content_index.
  Expected<std::vector<RuleId>, QueryError> ContentQuery(
      WindowId w, const Itemset& items,
      const ParameterSetting& setting) const;

  /// Builds the merged item→rules view of a window's result set (the
  /// TARA-S region-index merge).
  Expected<ContentViewResult, QueryError> ContentView(
      WindowId w, const ParameterSetting& setting) const;

  /// Roll-up: interval measures of `rule` over the union of `windows`.
  Expected<RollUpBound, QueryError> RollUpRule(
      RuleId rule, const WindowSet& windows) const;

  /// Roll-up mining: rules archived in some window of `windows`, split by
  /// their validity over the union under `setting`. Classified in counts
  /// (mining/measures.h): certain when the rule's lower bounds pass,
  /// possible when only its upper bounds do. A rule valid over the union
  /// but archived in none of the windows is not reported. Both outputs
  /// sorted by RuleId.
  Expected<RolledUpRules, QueryError> MineRolledUp(
      const WindowSet& windows, const ParameterSetting& setting) const;

  /// The rule-centric panorama (Section 2.1.2): every rule valid under
  /// `setting` in at least one window of `horizon`, profiled over the
  /// horizon with cycles looked for up to `max_period` windows, ranked by
  /// `order`; the first `k` are returned.
  Expected<std::vector<RuleInsight>, QueryError> Panorama(
      const WindowSet& horizon, const ParameterSetting& setting,
      PanoramaOrder order, size_t k, uint32_t max_period) const;

 private:
  friend class KbBuilder;

  KnowledgeBaseSnapshot() = default;

  /// --- Request validation (each returns the error, or nullopt) ---------
  std::optional<QueryError> ValidateSetting(
      const ParameterSetting& setting) const;
  std::optional<QueryError> ValidateWindow(WindowId w) const;
  std::optional<QueryError> ValidateWindows(const WindowSet& windows) const;
  std::optional<QueryError> ValidateRule(RuleId rule) const;

  /// Unvalidated single-window collect shared by the public entrypoints.
  std::vector<RuleId> CollectWindow(WindowId w,
                                    const ParameterSetting& setting) const;

  /// Shared with the owning builder; bounded by rule_count_.
  std::shared_ptr<const RuleCatalog> catalog_;
  size_t rule_count_ = 0;
  std::shared_ptr<const TarArchive> archive_;
  /// Shared with every other generation that committed the same windows.
  std::vector<std::shared_ptr<const WindowSegment>> segments_;
  uint64_t generation_ = 0;
  KbOptions options_;
  /// `tara.index.build_ns`, or null without a registry.
  obs::Histogram* index_build_ns_ = nullptr;
};

}  // namespace tara

#endif  // TARA_CORE_KB_SNAPSHOT_H_
