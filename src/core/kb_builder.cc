#include "core/kb_builder.h"

#include <algorithm>
#include <deque>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/kb_storage.h"
#include "mining/fp_growth.h"

namespace tara {
namespace {

/// Resolves Options::parallelism (0 = hardware concurrency) to a concrete
/// worker count.
uint32_t EffectiveParallelism(uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

LoadError CorruptSegment(WindowId window, const std::string& what) {
  return LoadError{LoadError::Code::kCorruptSegment,
                   "segment of window " + std::to_string(window) +
                       " is corrupt: " + what};
}

}  // namespace

KbBuilder::KbBuilder(const Options& options)
    : options_(options), catalog_(std::make_shared<RuleCatalog>()) {
  const std::optional<std::string> error = options_.Validate();
  TARA_CHECK(!error.has_value()) << *error;
  const uint32_t parallelism = EffectiveParallelism(options_.parallelism);
  if (parallelism > 1) pool_ = std::make_unique<ThreadPool>(parallelism);
  RegisterMetrics();
  {
    // Publish the empty generation-0 snapshot so snapshot() is never null.
    auto empty =
        std::shared_ptr<KnowledgeBaseSnapshot>(new KnowledgeBaseSnapshot());
    empty->catalog_ = catalog_;
    empty->archive_ = std::make_shared<const TarArchive>();
    empty->options_ = options_;
    empty->index_build_ns_ = metrics_.index_build_ns;
    std::lock_guard<std::mutex> lock(commit_mutex_);
    PublishSnapshotLocked(std::move(empty));
  }
  if (!options_.wal_dir.empty()) {
    const auto attached = AttachWal(options_.wal_dir);
    TARA_CHECK(attached.has_value())
        << "cannot attach the write-ahead log in '" << options_.wal_dir
        << "': " << attached.error().message;
  }
}

Expected<WalReplayStats, LoadError> KbBuilder::AttachWal(
    const std::string& dir) {
  TARA_CHECK(wal_ == nullptr) << "a write-ahead log is already attached";
  WalReplayStats stats;
  uint64_t valid_bytes = 0;
  if (WalExists(dir)) {
    auto contents = ReadWal(dir);
    if (!contents.has_value()) return contents.error();
    // The log must describe this builder's engine; replaying records
    // mined at other floors would poison the knowledge base.
    if (!SameOptionsFingerprint(contents->options, options_)) {
      return LoadError{
          LoadError::Code::kBadManifest,
          "write-ahead log in '" + dir +
              "' was written by an engine with different construction "
              "options (floors/itemset cap/content index) — refusing to "
              "attach"};
    }
    valid_bytes = contents->valid_bytes;
    stats.truncated_bytes = contents->truncated_bytes;
    stats.records_scanned = contents->records.size();
    // Every record the checkpoint does not cover goes in one batch.
    const uint32_t have = snapshot()->window_count();
    std::vector<PersistedWindow> batch;
    for (const WalRecord& record : contents->records) {
      // Order the record by its window id BEFORE parsing it: a record the
      // last checkpoint already covers (the crash landed between the
      // checkpoint and the log truncation) is skipped unread.
      const auto window = PeekWindowSegmentWindow(record.segment_bytes.data(),
                                                 record.segment_bytes.size());
      if (!window.has_value()) return window.error();
      const WindowId next = static_cast<WindowId>(have + batch.size());
      if (*window < next) {
        ++stats.records_skipped;
        continue;
      }
      if (*window != next) {
        return LoadError{
            LoadError::Code::kBadManifest,
            "write-ahead log in '" + dir + "' jumps to window " +
                std::to_string(*window) + " but the engine has " +
                std::to_string(next) +
                " windows — the log does not belong to this knowledge base"};
      }
      auto parsed = ParseWindowSegment(record.segment_bytes.data(),
                                       record.segment_bytes.size());
      if (!parsed.has_value()) return parsed.error();
      parsed.value().total_transactions = record.total_transactions;
      batch.push_back(std::move(parsed).value());
    }
    stats.records_replayed = batch.size();
    if (auto error = CommitPersistedWindows(std::move(batch))) return *error;
  }
  auto writer = WalWriter::Open(dir, options_, valid_bytes, options_.metrics);
  if (!writer.has_value()) return writer.error();
  {
    std::lock_guard<std::mutex> lock(commit_mutex_);
    wal_ = std::make_unique<WalWriter>(std::move(writer.value()));
  }
  if (options_.metrics != nullptr && stats.records_replayed > 0) {
    options_.metrics->GetCounter("tara.wal.replays")
        ->Increment(stats.records_replayed);
  }
  return stats;
}

std::optional<LoadError> KbBuilder::TruncateWal() {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  if (wal_ == nullptr) return std::nullopt;
  return wal_->Truncate();
}

uint32_t KbBuilder::WaitForWindows(uint32_t windows,
                                  std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(current_mutex_);
  published_cv_.wait_for(
      lock, timeout, [&] { return current_->window_count() >= windows; });
  return current_->window_count();
}

void KbBuilder::RegisterMetrics() {
  obs::MetricsRegistry* registry = options_.metrics;
  if (registry == nullptr) return;
  metrics_.build_itemset_seconds =
      registry->GetGauge("tara.build.itemset_seconds");
  metrics_.build_rule_seconds = registry->GetGauge("tara.build.rule_seconds");
  metrics_.build_archive_seconds =
      registry->GetGauge("tara.build.archive_seconds");
  metrics_.build_windows = registry->GetGauge("tara.build.windows");
  metrics_.build_rules = registry->GetGauge("tara.build.rules");
  metrics_.archive_payload_bytes =
      registry->GetGauge("tara.archive.payload_bytes");
  metrics_.archive_entries = registry->GetGauge("tara.archive.entries");
  metrics_.index_build_ns = registry->GetHistogram("tara.index.build_ns");
  metrics_.kb_generation = registry->GetGauge("tara.kb.generation");
  metrics_.kb_swaps = registry->GetCounter("tara.kb.swaps");
}

void KbBuilder::UpdateBuildMetrics(const KnowledgeBaseSnapshot& published) {
  if (options_.metrics == nullptr) return;
  double itemset = 0, rule = 0, archive = 0;
  for (WindowId w = 0; w < published.window_count(); ++w) {
    const WindowBuildStats& s = published.segment(w).stats;
    itemset += s.itemset_seconds;
    rule += s.rule_seconds;
    archive += s.archive_seconds;
  }
  metrics_.build_itemset_seconds->Set(itemset);
  metrics_.build_rule_seconds->Set(rule);
  metrics_.build_archive_seconds->Set(archive);
  metrics_.build_windows->Set(static_cast<double>(published.window_count()));
  metrics_.build_rules->Set(static_cast<double>(catalog_->size()));
  metrics_.archive_payload_bytes->Set(
      static_cast<double>(published.archive().payload_bytes()));
  metrics_.archive_entries->Set(
      static_cast<double>(published.archive().entry_count()));
  metrics_.kb_generation->Set(static_cast<double>(published.generation()));
}

KbBuilder::MinedWindow KbBuilder::MineWindowSlice(
    const TransactionDatabase& db, size_t begin, size_t end,
    ThreadPool* intra_pool) const {
  MinedWindow mined;
  mined.total_transactions = end - begin;

  // (1) Frequent itemset generation at the floor support.
  Stopwatch timer;
  FpGrowthMiner miner;
  FrequentItemsetMiner::Options mine_options;
  mine_options.min_count =
      MinCountForSupport(options_.min_support_floor, mined.total_transactions);
  mine_options.max_size = options_.max_itemset_size;
  mined.floor_count = mine_options.min_count;
  const std::vector<FrequentItemset> frequent =
      miner.Mine(db, begin, end, mine_options);
  mined.itemset_seconds = timer.ElapsedSeconds();
  mined.itemset_count = frequent.size();

  // (2) Rule derivation at the floor confidence.
  timer.Restart();
  mined.rules =
      GenerateRules(frequent, options_.min_confidence_floor, intra_pool);
  mined.rule_seconds = timer.ElapsedSeconds();
  return mined;
}

std::shared_ptr<WindowSegment> KbBuilder::InternMined(MinedWindow mined) {
  auto segment = std::make_shared<WindowSegment>();
  segment->total_transactions = mined.total_transactions;
  segment->floor_count = mined.floor_count;
  WindowBuildStats& stats = segment->stats;
  stats.itemset_seconds = mined.itemset_seconds;
  stats.rule_seconds = mined.rule_seconds;
  stats.itemset_count = mined.itemset_count;
  stats.rule_count = mined.rules.size();

  Stopwatch timer;
  segment->entries.reserve(mined.rules.size());
  for (const MinedRule& r : mined.rules) {
    const RuleId id = catalog_->Intern(Rule{r.antecedent, r.consequent});
    segment->entries.push_back(
        WindowIndex::Entry{id, r.rule_count, r.antecedent_count});
  }
  segment->rule_watermark = static_cast<RuleId>(catalog_->size());
  stats.archive_seconds = timer.ElapsedSeconds();
  return segment;
}

std::optional<LoadError> KbBuilder::ValidatePersistedLocked(
    const KnowledgeBaseSnapshot& current,
    const std::vector<PersistedWindow>& windows) const {
  if (windows.empty()) return std::nullopt;
  uint64_t watermark = catalog_->size();
  for (const PersistedWindow& p : windows) {
    watermark += p.new_rules.size();
  }
  if (watermark > RuleCatalog::kNotFound) {
    return CorruptSegment(windows.back().window, "rule ids overflow");
  }
  // last_seen[id] == i + 1 once window i of the batch listed rule id.
  std::vector<uint32_t> last_seen(watermark, 0);
  WindowId next = current.window_count();
  watermark = catalog_->size();
  for (size_t i = 0; i < windows.size(); ++i, ++next) {
    const PersistedWindow& p = windows[i];
    if (p.window != next) {
      return CorruptSegment(p.window, "it arrives where window " +
                                          std::to_string(next) + " is next");
    }
    if (p.first_rule != watermark) {
      return CorruptSegment(p.window, "it starts its rule ids at " +
                                          std::to_string(p.first_rule) +
                                          " but the catalog holds " +
                                          std::to_string(watermark) +
                                          " rules");
    }
    watermark += p.new_rules.size();
    const uint32_t stamp = static_cast<uint32_t>(i + 1);
    for (const WindowIndex::Entry& e : p.entries) {
      if (e.rule >= watermark) {
        return CorruptSegment(p.window, "entry names rule " +
                                            std::to_string(e.rule) +
                                            " past the window's watermark " +
                                            std::to_string(watermark));
      }
      if (e.rule_count == 0 || e.antecedent_count < e.rule_count ||
          e.antecedent_count > p.total_transactions) {
        return CorruptSegment(
            p.window, "rule " + std::to_string(e.rule) +
                          " has impossible counts (rule " +
                          std::to_string(e.rule_count) + ", antecedent " +
                          std::to_string(e.antecedent_count) + ")");
      }
      if (last_seen[e.rule] == stamp) {
        return CorruptSegment(p.window, "rule " + std::to_string(e.rule) +
                                            " is listed twice");
      }
      last_seen[e.rule] = stamp;
    }
  }
  return std::nullopt;
}

std::optional<LoadError> KbBuilder::CommitPersistedWindows(
    std::vector<PersistedWindow> windows) {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  if (auto error = ValidatePersistedLocked(*snapshot(), windows)) {
    return error;
  }

  // Intern every new rule of the batch at once: all or nothing, so a
  // rule whose contents the catalog already holds leaves it unchanged.
  std::vector<Rule> new_rules;
  for (PersistedWindow& p : windows) {
    for (Rule& rule : p.new_rules) new_rules.push_back(std::move(rule));
  }
  if (const std::optional<size_t> repeated = catalog_->InternNew(new_rules)) {
    // Map the batch-wide index back to its window for the message.
    size_t offset = *repeated;
    size_t i = 0;
    while (offset >= windows[i].new_rules.size()) {
      offset -= windows[i++].new_rules.size();
    }
    return CorruptSegment(windows[i].window,
                          "new rule " +
                              std::to_string(windows[i].first_rule + offset) +
                              " repeats the contents of a rule already "
                              "interned");
  }

  std::vector<std::shared_ptr<WindowSegment>> pending;
  pending.reserve(windows.size());
  for (PersistedWindow& p : windows) {
    auto segment = std::make_shared<WindowSegment>();
    segment->total_transactions = p.total_transactions;
    segment->floor_count =
        MinCountForSupport(options_.min_support_floor, p.total_transactions);
    segment->rule_watermark =
        static_cast<RuleId>(p.first_rule + p.new_rules.size());
    segment->stats.rule_count = p.entries.size();
    segment->entries = std::move(p.entries);
    pending.push_back(std::move(segment));
  }
  CommitLocked(std::move(pending));
  return std::nullopt;
}

void KbBuilder::CommitLocked(
    std::vector<std::shared_ptr<WindowSegment>> pending) {
  if (pending.empty()) return;
  // The next generation is the current one plus `pending`: the current
  // segments and filled archive chunks, shared by reference, and the
  // archive's open chunk rebuilt with the new windows.
  const std::shared_ptr<const KnowledgeBaseSnapshot> current = snapshot();
  const WindowId first = current->window_count();
  std::vector<TarArchive::Window> windows;
  windows.reserve(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    WindowSegment& segment = *pending[i];
    segment.stats.window = first + static_cast<WindowId>(i);
    windows.push_back({segment.total_transactions, segment.floor_count,
                       options_.min_confidence_floor, segment.entries});
  }
  Stopwatch timer;
  auto archive =
      std::make_shared<const TarArchive>(current->archive().Appended(windows));
  // Each window's share of the batch's archive build.
  const double share = timer.ElapsedSeconds() / pending.size();
  for (auto& segment : pending) segment->stats.archive_seconds += share;

  // Log, then publish: every window is durable before any is visible.
  if (wal_ != nullptr) {
    RuleId first_rule =
        first == 0 ? 0 : current->segment(first - 1).rule_watermark;
    for (size_t i = 0; i < pending.size(); ++i) {
      const WindowSegment& segment = *pending[i];
      const WindowId window = first + static_cast<WindowId>(i);
      const auto error = wal_->Append(
          segment.total_transactions,
          EncodeWindowSegment(window, first_rule, segment, *catalog_));
      // Nothing is visible yet, but returning without durability would
      // let the caller ack a window a crash can lose.
      TARA_CHECK(!error.has_value())
          << "write-ahead log append failed for window " << window << ": "
          << error->message;
      first_rule = segment.rule_watermark;
    }
  }

  auto next = std::shared_ptr<KnowledgeBaseSnapshot>(
      new KnowledgeBaseSnapshot(*current));
  next->rule_count_ = catalog_->size();
  next->archive_ = std::move(archive);
  next->generation_ += pending.size();
  for (auto& segment : pending) next->segments_.push_back(std::move(segment));
  PublishSnapshotLocked(std::move(next));
}

void KbBuilder::PublishSnapshotLocked(
    std::shared_ptr<const KnowledgeBaseSnapshot> next) {
  const KnowledgeBaseSnapshot& published = *next;
  {
    std::lock_guard<std::mutex> lock(current_mutex_);
    current_.swap(next);
  }
  published_cv_.notify_all();
  // `next` now holds the outgoing generation (null at construction). It
  // is released outside the lock, so its last reference never frees a
  // whole snapshot while readers wait.
  UpdateBuildMetrics(published);
  if (next != nullptr && metrics_.kb_swaps != nullptr) {
    metrics_.kb_swaps->Increment();
  }
}

WindowId KbBuilder::CommitMinedWindow(MinedWindow mined) {
  std::lock_guard<std::mutex> lock(commit_mutex_);
  const WindowId window = snapshot()->window_count();
  CommitLocked({InternMined(std::move(mined))});
  return window;
}

WindowId KbBuilder::AppendWindow(const TransactionDatabase& db, size_t begin,
                                 size_t end) {
  return CommitMinedWindow(MineWindowSlice(db, begin, end, pool_.get()));
}

WindowId KbBuilder::AppendPrecomputedWindow(
    uint64_t total_transactions, const std::vector<PrecomputedRule>& rules) {
  MinedWindow mined;
  mined.total_transactions = total_transactions;
  mined.floor_count =
      MinCountForSupport(options_.min_support_floor, total_transactions);
  mined.rules.reserve(rules.size());
  for (const PrecomputedRule& r : rules) {
    // The counts CommitPersistedWindows refuses are refused here too,
    // before anything is archived or logged, so every logged window
    // replays.
    TARA_CHECK(r.rule_count > 0 && r.antecedent_count >= r.rule_count &&
               r.antecedent_count <= total_transactions)
        << "impossible counts (rule " << r.rule_count << ", antecedent "
        << r.antecedent_count << ") in a window of " << total_transactions
        << " transactions";
    MinedRule rule;
    rule.antecedent = r.rule.antecedent;
    rule.consequent = r.rule.consequent;
    rule.rule_count = r.rule_count;
    rule.antecedent_count = r.antecedent_count;
    mined.rules.push_back(std::move(rule));
  }
  return CommitMinedWindow(std::move(mined));
}

void KbBuilder::BuildAll(const EvolvingDatabase& data) {
  const uint32_t n = data.window_count();
  const TransactionDatabase& db = data.database();
  std::lock_guard<std::mutex> lock(commit_mutex_);
  std::vector<std::shared_ptr<WindowSegment>> pending;
  pending.reserve(n);
  ThreadPool* pool = pool_.get();
  if (pool == nullptr || n <= 1) {
    for (WindowId w = 0; w < n; ++w) {
      const WindowInfo& info = data.window(w);
      pending.push_back(
          InternMined(MineWindowSlice(db, info.begin, info.end, pool)));
    }
  } else {
    // Parallel pipeline. Windows are independent by construction (the
    // iPARAS increment never revisits prior windows), so:
    //   stage 1 (fan-out): mine itemsets + derive rules per window;
    //   stage 2 (serial):  intern rules strictly in window order — RuleIds
    //                      come out identical to a sequential build;
    //   stage 3:           the commit tail below (archive appends, the
    //                      WAL, one publication for every window).
    // Keep only a few windows of mined-but-uninterned rules in memory.
    const uint32_t max_ahead = pool->size() + 2;
    std::deque<std::future<MinedWindow>> in_flight;
    WindowId next_to_mine = 0;
    const auto submit_next_mine = [&] {
      if (next_to_mine >= n) return;
      const WindowInfo info = data.window(next_to_mine);
      in_flight.push_back(pool->Submit([this, &db, info] {
        // Intra-window loops stay sequential here: the window fan-out
        // already keeps every worker busy.
        return MineWindowSlice(db, info.begin, info.end, nullptr);
      }));
      ++next_to_mine;
    };
    while (next_to_mine < n && next_to_mine < max_ahead) submit_next_mine();
    for (uint32_t i = 0; i < n; ++i) {
      MinedWindow mined = in_flight.front().get();
      in_flight.pop_front();
      submit_next_mine();
      pending.push_back(InternMined(std::move(mined)));
    }
  }
  // In-flight queries keep answering from the generation they pinned.
  CommitLocked(std::move(pending));
}

}  // namespace tara
