// tara_cli: a scriptable command-line explorer for TARA knowledge bases.
//
// Reads one command per line from stdin (so it works both interactively
// and piped). Typical session:
//
//   gen quest 8000 200          # synthesize a dataset (or: load FILE)
//   windows 4                   # partition into tumbling windows
//   build 0.01 0.1              # offline phase with these floors
//   mine 3 0.02 0.5             # rules of window 3
//   region 3 0.02 0.5           # Q3: enclosing stable region
//   diff 0.02 0.5 0.04 0.5      # Q2 across all windows
//   traj 3 0.02 0.5             # Q1 from window 3 over all windows
//   top stable 5                # the panorama (a snapshot query)
//   metrics [json]              # engine instrument snapshot
//   cache 16777216              # enable the generation-pinned query cache
//   batch queries.q             # replay a query script, per-query latency
//   savedir kb/ / loaddir kb/   # TARAKB3 block-directory persistence
//   save kb.bin                 # canonical bytes, for comparison (cmp)
//   ingest day9.txt             # live-append a window; persists only the
//                               # new window when a directory is attached
//   help / quit
//
// Queries follow one grammar (kQueryGrammarHelp) whether typed into the
// session, replayed by `batch`, or sent by `tara_cli query --remote`.
//
// With --metrics, a text snapshot of every instrument (per-query-kind
// latency percentiles, build gauges, archive/index sizes) is printed to
// stderr when the session ends.

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"
#include "server/serving_bootstrap.h"
#include "server/tara_client.h"
#include "txdb/evolving_database.h"
#include "txdb/io.h"

namespace tara::cli {
namespace {

/// Every engine this process builds or loads records into the process
/// registry; the `metrics` command and --metrics read it back.
obs::MetricsRegistry& Registry() { return obs::MetricsRegistry::Global(); }

/// The query grammar, one verb per QueryKind: the session's and the
/// remote shell's `help` print it.
constexpr char kQueryGrammarHelp[] =
    "queries (W window, S C min support/confidence, R rule; no [W...]\n"
    "tail = every window):\n"
    "  mine W S C | minewindows S C single|exact [W...] | region W S C\n"
    "  traj W S C [W...] | diff S1 C1 S2 C2 [W...] | measures R [W...]\n"
    "  content W S C ITEM... | view W S C | rollup R [W...]\n"
    "  rollupmine S C [W...]\n";

/// The verb of each QueryKind, indexed by its numeric value.
constexpr std::array<std::string_view, kQueryKindCount> kQueryVerbs = {
    "mine",     "minewindows", "traj", "diff",   "region",
    "measures", "content",     "view", "rollup", "rollupmine"};

std::optional<QueryKind> QueryVerbKind(std::string_view verb) {
  for (int k = 0; k < kQueryKindCount; ++k) {
    if (kQueryVerbs[k] == verb) return static_cast<QueryKind>(k);
  }
  return std::nullopt;
}

/// Reads the next token of `in` into `out`; false unless the whole token
/// parses (window, rule and item ids as unsigned decimals, settings as
/// finite doubles).
template <typename Number>
bool Take(std::istream& in, Number* out) {
  std::string token;
  if (!(in >> token)) return false;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, *out);
  return error == std::errc() && stop == end;
}

bool TakeSetting(std::istream& in, ParameterSetting* out) {
  return Take(in, &out->min_support) && std::isfinite(out->min_support) &&
         Take(in, &out->min_confidence) && std::isfinite(out->min_confidence);
}

bool AtEnd(std::istream& in) { return (in >> std::ws).eof(); }

/// Parses the window-id tail of a query line (every remaining token); an
/// empty tail means every one of the `window_count` windows (local engine
/// or remote server alike — the caller supplies whichever count applies).
bool ParseWindowTail(std::istream& in, uint32_t window_count,
                     std::vector<WindowId>* ids) {
  while (!AtEnd(in)) {
    ids->push_back(0);
    if (!Take(in, &ids->back())) return false;
  }
  if (ids->empty()) {
    for (WindowId w = 0; w < window_count; ++w) ids->push_back(w);
  }
  return true;
}

/// Parses the arguments of one query line into `r`, whose kind is set.
bool ParseQueryArgs(std::istream& in, uint32_t window_count,
                    QueryRequest* r) {
  std::string mode;
  switch (r->kind) {
    case QueryKind::kMineWindow:
    case QueryKind::kRegion:
    case QueryKind::kContentView:
      return Take(in, &r->window) && TakeSetting(in, &r->setting);
    case QueryKind::kMineWindows:
      if (!TakeSetting(in, &r->setting) || !(in >> mode) ||
          (mode != "single" && mode != "exact")) {
        return false;
      }
      r->mode = mode == "exact" ? MatchMode::kExact : MatchMode::kSingle;
      return ParseWindowTail(in, window_count, &r->windows);
    case QueryKind::kTrajectory:
      return Take(in, &r->window) && TakeSetting(in, &r->setting) &&
             ParseWindowTail(in, window_count, &r->windows);
    case QueryKind::kCompare:
      r->mode = MatchMode::kExact;
      return TakeSetting(in, &r->setting) && TakeSetting(in, &r->second) &&
             ParseWindowTail(in, window_count, &r->windows);
    case QueryKind::kMeasures:
    case QueryKind::kRollUpRule:
      return Take(in, &r->rule) &&
             ParseWindowTail(in, window_count, &r->windows);
    case QueryKind::kContent:
      if (!Take(in, &r->window) || !TakeSetting(in, &r->setting)) {
        return false;
      }
      while (!AtEnd(in)) {
        r->items.push_back(0);
        if (!Take(in, &r->items.back())) return false;
      }
      return true;
    case QueryKind::kRollUpMine:
      return TakeSetting(in, &r->setting) &&
             ParseWindowTail(in, window_count, &r->windows);
  }
  return false;
}

/// Parses one query line into a request. Returns nullopt (and prints
/// `bad query line`) unless the verb is known, every argument parses
/// whole and no token is left over. The one query grammar: shared by the
/// session, its `batch` command and the remote query shell.
std::optional<QueryRequest> ParseQueryLine(const std::string& line,
                                           uint32_t window_count) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  if (const std::optional<QueryKind> kind = QueryVerbKind(verb)) {
    QueryRequest request;
    request.kind = *kind;
    if (ParseQueryArgs(in, window_count, &request) && AtEnd(in)) {
      return request;
    }
  }
  std::printf("bad query line: %s\n", line.c_str());
  return std::nullopt;
}

/// One-line human summary of a successful query result.
std::string Summarize(const QueryResult& result) {
  char buffer[128];
  if (const auto* rules = std::get_if<std::vector<RuleId>>(&result)) {
    std::snprintf(buffer, sizeof(buffer), "%zu rules", rules->size());
  } else if (const auto* traj = std::get_if<TrajectoryQueryResult>(&result)) {
    std::snprintf(buffer, sizeof(buffer), "%zu rules with trajectories",
                  traj->rules.size());
  } else if (const auto* diff = std::get_if<RulesetDiff>(&result)) {
    std::snprintf(buffer, sizeof(buffer), "only-first %zu, only-second %zu",
                  diff->only_first.size(), diff->only_second.size());
  } else if (const auto* region = std::get_if<RegionInfo>(&result)) {
    std::snprintf(buffer, sizeof(buffer),
                  "stable region supp (%.5f, %.5f] conf (%.4f, %.4f], "
                  "%zu rules",
                  region->support_lower, region->support_upper,
                  region->confidence_lower, region->confidence_upper,
                  region->result_size);
  } else if (const auto* measures = std::get_if<TrajectoryMeasures>(&result)) {
    std::snprintf(buffer, sizeof(buffer),
                  "coverage %.2f stability %.2f mean supp %.4f",
                  measures->coverage, measures->stability,
                  measures->mean_support);
  } else if (const auto* view = std::get_if<ContentViewResult>(&result)) {
    std::snprintf(buffer, sizeof(buffer), "%zu items in view",
                  view->items.size());
  } else if (const auto* bound = std::get_if<RollUpBound>(&result)) {
    std::snprintf(buffer, sizeof(buffer),
                  "supp [%.5f, %.5f] conf [%.4f, %.4f], %u missing",
                  bound->support_lo, bound->support_hi, bound->confidence_lo,
                  bound->confidence_hi, bound->missing_windows);
  } else if (const auto* rolled = std::get_if<RolledUpRules>(&result)) {
    std::snprintf(buffer, sizeof(buffer), "certain %zu, possible %zu",
                  rolled->certain.size(), rolled->possible.size());
  } else {
    std::snprintf(buffer, sizeof(buffer), "ok");
  }
  return buffer;
}

/// The summary line every executed query prints, locally or remotely.
void PrintSummary(QueryKind kind, const QueryResult& result) {
  std::printf("%-12s %s\n", std::string(QueryKindName(kind)).c_str(),
              Summarize(result).c_str());
}

class Session {
 public:
  int Run() {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
    }
    return 0;
  }

 private:
  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    if (!(in >> command) || command[0] == '#') return true;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "load") {
      Load(in);
    } else if (command == "gen") {
      Generate(in);
    } else if (command == "windows") {
      Windows(in);
    } else if (command == "build") {
      Build(in);
    } else if (QueryVerbKind(command).has_value()) {
      Query(line);
    } else if (command == "top") {
      Top(in);
    } else if (command == "metrics") {
      Metrics(in);
    } else if (command == "cache") {
      Cache(in);
    } else if (command == "wal") {
      Wal(in);
    } else if (command == "batch") {
      Batch(in);
    } else if (command == "save") {
      SaveKb(in);
    } else if (command == "savedir") {
      SaveDir(in);
    } else if (command == "loaddir") {
      LoadDir(in);
    } else if (command == "ingest") {
      Ingest(in);
    } else {
      std::printf("unknown command '%s' (try: help)\n", command.c_str());
    }
    return true;
  }

  void Help() {
    std::printf(
        "commands:\n"
        "  load FILE             read 'time item item...' lines\n"
        "  gen quest N ITEMS | gen retail N ITEMS   synthesize data\n"
        "  windows K             partition into K tumbling windows\n"
        "  build SUPP CONF       offline phase with these floors\n"
        "  top stable|emerging|fading|periodic K\n"
        "  metrics [json]        instrument snapshot (text or JSON)\n"
        "  cache BYTES           size the query cache (0 disables); applies\n"
        "                        to the current engine and later builds\n"
        "  wal DIR               attach a write-ahead log: appends return\n"
        "                        only after the record is fsync'd; attaching\n"
        "                        replays any tail a crash left behind\n"
        "  batch FILE [group]    replay a script of queries (one per line);\n"
        "                        'group' sends one ExecuteBatch instead of\n"
        "                        per-query calls\n"
        "  savedir DIR | loaddir DIR  block directory (attaches DIR)\n"
        "  save FILE             write the canonical bytes, for comparison\n"
        "  ingest FILE           append FILE as a new window; persists only\n"
        "                        the new window when a DIR is attached\n"
        "  quit\n"
        "%s",
        kQueryGrammarHelp);
  }

  /// Prints a rejected query's error and returns false; true on success.
  /// The pattern every query command uses: queries never abort the CLI.
  template <typename T>
  bool Ok(const Expected<T, QueryError>& result) {
    if (result.has_value()) return true;
    std::ostringstream out;
    out << result.error();
    std::printf("rejected: %s\n", out.str().c_str());
    return false;
  }

  /// Same pattern for persistence: prints the LoadError (if any) and
  /// returns true when the operation succeeded.
  bool StoreOk(const std::optional<LoadError>& error) {
    if (!error.has_value()) return true;
    std::ostringstream out;
    out << *error;
    std::printf("failed: %s\n", out.str().c_str());
    return false;
  }

  void Load(std::istringstream& in) {
    std::string path;
    if (!(in >> path)) {
      std::printf("usage: load FILE\n");
      return;
    }
    std::ifstream file(path);
    if (!file) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    db_ = ReadDatabase(&file);
    data_.reset();
    ResetEngine();
    std::printf("loaded %zu transactions, %zu distinct items\n", db_->size(),
                db_->distinct_item_count());
  }

  void Generate(std::istringstream& in) {
    std::string kind;
    uint32_t n = 10000, items = 500;
    in >> kind >> n >> items;
    if (kind == "quest") {
      QuestGenerator::Params params;
      params.num_transactions = n;
      params.num_items = items;
      params.num_patterns = items / 3 + 1;
      params.avg_transaction_len = 9;
      params.seed = 11;
      db_ = QuestGenerator(params).Generate();
    } else if (kind == "retail") {
      BasketGenerator::Params params = BasketGenerator::RetailPreset();
      params.num_transactions = n;
      params.num_items = items;
      db_ = BasketGenerator(params).GenerateBatch(0, 0);
    } else {
      std::printf("usage: gen quest|retail N ITEMS\n");
      return;
    }
    data_.reset();
    ResetEngine();
    std::printf("generated %zu transactions (%s)\n", db_->size(),
                kind.c_str());
  }

  void Windows(std::istringstream& in) {
    uint32_t k = 0;
    if (!(in >> k) || k == 0 || !db_) {
      std::printf("usage: windows K (load or gen data first)\n");
      return;
    }
    data_ = EvolvingDatabase::PartitionIntoBatches(*db_, k);
    ResetEngine();
    std::printf("partitioned into %u windows of ~%zu transactions\n", k,
                db_->size() / k);
  }

  void Build(std::istringstream& in) {
    double supp = 0.01, conf = 0.1;
    in >> supp >> conf;
    if (!data_) {
      std::printf("partition first (windows K)\n");
      return;
    }
    TaraEngine::Options options;
    options.min_support_floor = supp;
    options.min_confidence_floor = conf;
    options.max_itemset_size = 5;
    options.build_content_index = true;
    options.metrics = &Registry();
    options.query_cache_bytes = cache_bytes_;
    ResetEngine();
    engine_ = std::make_unique<TaraEngine>(options);
    // Attach before building so every built window is in the log and a
    // crashed session can be rebuilt from the log alone (recover).
    if (!wal_dir_.empty() && !AttachWalToEngine()) {
      engine_.reset();
      return;
    }
    engine_->BuildAll(*data_);
    const auto kb = engine_->Snapshot();
    double seconds = 0;
    for (WindowId w = 0; w < kb->window_count(); ++w) {
      seconds += kb->segment(w).stats.total_seconds();
    }
    std::printf("built: %zu rules interned, %zu archive entries, %.2fs\n",
                kb->catalog().size(), kb->archive().entry_count(), seconds);
  }

  bool Ready() const {
    if (!engine_) std::printf("build first\n");
    return engine_ != nullptr;
  }

  /// Every query verb: ParseQueryLine, Execute, the shared summary line,
  /// then the first rules by name (the session has the catalog; the
  /// remote shell does not).
  void Query(const std::string& line) {
    if (!Ready()) return;
    const auto request = ParseQueryLine(line, engine_->window_count());
    if (!request.has_value()) return;
    const auto result = engine_->Execute(*request);
    if (!Ok(result)) return;
    PrintSummary(request->kind, *result);
    const auto name = [this](RuleId rule) {
      return engine_->catalog().FormatRule(rule);
    };
    if (const auto* rules = std::get_if<std::vector<RuleId>>(&*result)) {
      for (size_t i = 0; i < rules->size() && i < 10; ++i) {
        std::printf("  %s\n", name((*rules)[i]).c_str());
      }
    } else if (const auto* traj =
                   std::get_if<TrajectoryQueryResult>(&*result)) {
      for (size_t i = 0; i < traj->rules.size() && i < 5; ++i) {
        std::printf("  %-28s", name(traj->rules[i]).c_str());
        for (const TrajectoryPoint& p : traj->trajectory(i)) {
          std::printf(p.present ? " %.4f" : "   --  ", p.support);
        }
        std::printf("\n");
      }
    }
  }

  void Top(std::istringstream& in) {
    std::string kind;
    size_t k = 5;
    in >> kind >> k;
    if (!Ready()) return;
    // Cycles up to half the horizon, except for the periodic order.
    uint32_t max_period = std::max<uint32_t>(2, engine_->window_count() / 2);
    PanoramaOrder order = PanoramaOrder::kStable;
    if (kind == "emerging") {
      order = PanoramaOrder::kEmerging;
    } else if (kind == "fading") {
      order = PanoramaOrder::kFading;
    } else if (kind == "periodic") {
      order = PanoramaOrder::kPeriodic;
      max_period = 4;
    } else if (kind != "stable") {
      std::printf("usage: top stable|emerging|fading|periodic K\n");
      return;
    }
    const ParameterSetting floor{engine_->options().min_support_floor,
                                 engine_->options().min_confidence_floor};
    Expected<std::vector<RuleInsight>, QueryError> result =
        std::vector<RuleInsight>{};
    // The gate answers corrupt mapped storage with a rejection, where
    // Snapshot() would abort.
    if (auto error = engine_->MaterializeAll()) {
      result = *std::move(error);
    } else {
      const std::shared_ptr<const KnowledgeBaseSnapshot> kb =
          engine_->Snapshot();
      result = kb->Panorama(kb->AllWindows(), floor, order, k, max_period);
    }
    if (!Ok(result)) return;
    for (const RuleInsight& insight : *result) {
      std::printf("  %-28s coverage=%.2f stability=%.2f emergence=%+.4f",
                  engine_->catalog().FormatRule(insight.rule).c_str(),
                  insight.measures.coverage, insight.measures.stability,
                  insight.emergence);
      if (insight.periodicity.period != 0) {
        std::printf(" period=%u", insight.periodicity.period);
      }
      std::printf("\n");
    }
  }

  void Metrics(std::istringstream& in) {
    std::string format;
    in >> format;
    const std::string snapshot = format == "json"
                                     ? Registry().SnapshotJson()
                                     : Registry().SnapshotText();
    std::fputs(snapshot.c_str(), stdout);
    if (snapshot.empty() || snapshot.back() != '\n') std::printf("\n");
  }

  void Cache(std::istringstream& in) {
    size_t bytes = 0;
    if (!(in >> bytes)) {
      std::printf("usage: cache BYTES (0 disables)\n");
      return;
    }
    cache_bytes_ = bytes;
    if (engine_) engine_->SetQueryCacheBytes(bytes);
    std::printf("query cache %s (%zu bytes)%s\n",
                bytes == 0 ? "disabled" : "enabled", bytes,
                engine_ ? "" : "; applies when an engine is built or loaded");
  }

  void Wal(std::istringstream& in) {
    std::string dir;
    if (!(in >> dir)) {
      std::printf("usage: wal DIR\n");
      return;
    }
    wal_dir_ = dir;
    if (engine_ != nullptr && !engine_->wal_attached()) {
      AttachWalToEngine();
    } else if (engine_ == nullptr) {
      std::printf("write-ahead log %s will attach when an engine is built "
                  "or loaded\n",
                  dir.c_str());
    }
  }

  /// Attaches wal_dir_ to the current engine, replaying any tail the
  /// log holds. Prints the outcome; false on a typed failure.
  bool AttachWalToEngine() {
    const auto stats = engine_->AttachWal(wal_dir_);
    if (!stats.has_value()) {
      std::ostringstream out;
      out << stats.error();
      std::printf("cannot attach WAL %s: %s\n", wal_dir_.c_str(),
                  out.str().c_str());
      return false;
    }
    std::printf("write-ahead log attached at %s (%llu records replayed, "
                "%llu skipped, %llu torn bytes dropped)\n",
                wal_dir_.c_str(),
                static_cast<unsigned long long>(stats->records_replayed),
                static_cast<unsigned long long>(stats->records_skipped),
                static_cast<unsigned long long>(stats->truncated_bytes));
    return true;
  }

  /// After a successful checkpoint (savedir/ingest persistence), the log
  /// records are covered by blocks + manifest and can be retired.
  void TruncateWalAfterCheckpoint() {
    if (engine_ == nullptr || !engine_->wal_attached()) return;
    if (const auto error = engine_->TruncateWal()) {
      std::ostringstream out;
      out << *error;
      std::printf("warning: cannot truncate WAL: %s\n", out.str().c_str());
      return;
    }
    std::printf("write-ahead log truncated (checkpoint covers it)\n");
  }

  void PrintCacheStats(const QueryCache::Stats& before) const {
    const QueryCache* cache = engine_->query_cache();
    if (cache == nullptr) {
      std::printf("cache: disabled (enable with: cache BYTES)\n");
      return;
    }
    const QueryCache::Stats now = cache->stats();
    const uint64_t hits = now.hits - before.hits;
    const uint64_t misses = now.misses - before.misses;
    const uint64_t lookups = hits + misses;
    std::printf("cache: %llu hits, %llu misses (hit rate %.3f), "
                "%llu declined, %llu evictions, %llu bytes of %zu\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                lookups == 0 ? 0.0
                             : static_cast<double>(hits) /
                                   static_cast<double>(lookups),
                static_cast<unsigned long long>(now.declined -
                                                before.declined),
                static_cast<unsigned long long>(now.evictions),
                static_cast<unsigned long long>(now.bytes),
                cache->max_bytes());
  }

  void Batch(std::istringstream& in) {
    std::string path, mode;
    if (!(in >> path) || !Ready()) return;
    in >> mode;
    std::ifstream file(path);
    if (!file) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    std::vector<QueryRequest> requests;
    std::string line;
    while (std::getline(file, line)) {
      if (line.empty() || line[0] == '#') continue;
      if (auto request = ParseQueryLine(line, engine_->window_count())) {
        requests.push_back(*std::move(request));
      }
    }
    if (requests.empty()) {
      std::printf("no queries in %s\n", path.c_str());
      return;
    }
    const QueryCache::Stats before = engine_->query_cache() != nullptr
                                         ? engine_->query_cache()->stats()
                                         : QueryCache::Stats{};
    const auto now_us = [] {
      return std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
          .count();
    };
    // 'group' sends one ExecuteBatch (one pinned snapshot, deduplicated,
    // fanned out across the pool); otherwise each query is timed alone.
    const int64_t batch_start = now_us();
    std::vector<Expected<QueryResult, QueryError>> results;
    std::vector<double> latency_us;
    if (mode == "group") {
      results = engine_->ExecuteBatch(requests);
    } else {
      for (const QueryRequest& request : requests) {
        const int64_t start = now_us();
        results.push_back(engine_->Execute(request));
        latency_us.push_back(static_cast<double>(now_us() - start));
      }
    }
    const double elapsed = static_cast<double>(now_us() - batch_start);
    for (size_t i = 0; i < results.size(); ++i) {
      std::ostringstream outcome;
      if (results[i].has_value()) {
        outcome << Summarize(*results[i]);
      } else {
        outcome << "rejected: " << results[i].error();
      }
      const std::string kind(QueryKindName(requests[i].kind));
      if (latency_us.empty()) {
        std::printf("  [%3zu] %-12s %s\n", i, kind.c_str(),
                    outcome.str().c_str());
      } else {
        std::printf("  [%3zu] %-12s %8.1fus  %s\n", i, kind.c_str(),
                    latency_us[i], outcome.str().c_str());
      }
    }
    if (latency_us.empty()) {
      std::printf("%zu queries in one batch, %.1fus total (%.1fus/query)\n",
                  results.size(), elapsed,
                  elapsed / static_cast<double>(results.size()));
    } else {
      std::printf("%zu queries, %.1fus total\n", results.size(), elapsed);
    }
    PrintCacheStats(before);
  }

  void SaveKb(std::istringstream& in) {
    std::string path;
    if (!(in >> path) || !Ready()) return;
    const std::string bytes = EncodeKnowledgeBase(*engine_->Snapshot());
    std::ofstream file(path, std::ios::binary);
    file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    file.close();
    if (!file) {
      std::printf("failed: cannot write %s\n", path.c_str());
      return;
    }
    std::printf("saved knowledge base to %s\n", path.c_str());
  }

  void SaveDir(std::istringstream& in) {
    std::string dir;
    if (!(in >> dir) || !Ready()) return;
    // Incremental by design: an already-saved prefix is left untouched.
    if (!StoreOk(AppendKnowledgeBaseBlocks(*engine_->Snapshot(), dir))) {
      return;
    }
    attached_dir_ = dir;
    std::printf("saved knowledge base into %s (%u windows, attached)\n",
                dir.c_str(), engine_->window_count());
    TruncateWalAfterCheckpoint();
  }

  void LoadDir(std::istringstream& in) {
    std::string dir, mode;
    if (!(in >> dir)) {
      std::printf("usage: loaddir DIR [mmap]\n");
      return;
    }
    in >> mode;
    OpenOptions options;
    options.kb_dir = dir;
    options.mode = mode == "mmap" ? OpenMode::kMapped : OpenMode::kEager;
    options.metrics = &Registry();
    options.query_cache_bytes = cache_bytes_;
    Expected<TaraEngine, LoadError> loaded = OpenKnowledgeBase(options);
    if (!loaded.has_value()) {
      std::ostringstream out;
      out << loaded.error();
      std::printf("failed: %s\n", out.str().c_str());
      return;
    }
    ResetEngine();
    engine_ = std::make_unique<TaraEngine>(std::move(loaded).value());
    // Attaching after the load replays exactly the windows the last
    // checkpoint missed — the CLI-session form of crash recovery.
    if (!wal_dir_.empty()) AttachWalToEngine();
    attached_dir_ = dir;
    if (engine_->fully_materialized()) {
      std::printf("loaded knowledge base from %s: %u windows, %zu rules "
                  "(attached)\n",
                  dir.c_str(), engine_->window_count(),
                  engine_->catalog().size());
    } else {
      std::printf("mapped knowledge base from %s: %u windows, decoded on "
                  "demand (attached)\n",
                  dir.c_str(), engine_->window_count());
    }
  }

  void Ingest(std::istringstream& in) {
    std::string path;
    if (!(in >> path) || !Ready()) return;
    std::ifstream file(path);
    if (!file) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    const TransactionDatabase batch = ReadDatabase(&file);
    if (batch.size() == 0) {
      std::printf("no transactions in %s\n", path.c_str());
      return;
    }
    const WindowId window = engine_->AppendWindow(batch, 0, batch.size());
    std::printf("ingested %zu transactions as window %u (generation %llu)\n",
                batch.size(), window,
                static_cast<unsigned long long>(engine_->generation()));
    if (attached_dir_.empty()) return;
    // Persists only the new window (a fresh block) plus the manifest.
    if (StoreOk(AppendKnowledgeBaseBlocks(*engine_->Snapshot(),
                                          attached_dir_))) {
      std::printf("persisted the new window into %s\n", attached_dir_.c_str());
      TruncateWalAfterCheckpoint();
    }
  }

  /// Drops the engine and any attached knowledge-base directory (the dir
  /// describes the old engine's windows, not the next one's).
  void ResetEngine() {
    engine_.reset();
    attached_dir_.clear();
  }

  std::optional<TransactionDatabase> db_;
  std::optional<EvolvingDatabase> data_;
  std::unique_ptr<TaraEngine> engine_;
  /// Knowledge-base directory that `ingest` appends to.
  std::string attached_dir_;
  /// Query-cache budget set via `cache`; applied to the current engine
  /// immediately and to every engine built or loaded afterwards.
  size_t cache_bytes_ = 0;
  /// Write-ahead-log directory set via `wal`; attached to the current
  /// engine immediately and to every engine built or loaded afterwards.
  std::string wal_dir_;
};

/// The remote query shell behind `tara_cli query --remote HOST:PORT`:
/// the same query-script grammar as the local `batch` command, executed
/// over the wire one line at a time. Window-id tails default to every
/// window the server reported at connect time (refreshed by `info`).
class RemoteShell {
 public:
  RemoteShell(server::TaraClient client, uint32_t deadline_ms)
      : client_(std::move(client)), deadline_ms_(deadline_ms) {}

  int Run() {
    if (!RefreshInfo(/*print=*/true)) return 1;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream in(line);
      std::string verb;
      in >> verb;
      if (verb == "quit" || verb == "exit") break;
      if (verb == "help") {
        Help();
      } else if (verb == "info") {
        RefreshInfo(/*print=*/true);
      } else if (verb == "ping") {
        const auto pong = client_.Ping();
        std::printf(pong.has_value() ? "pong\n" : "no pong\n");
      } else if (verb == "metrics") {
        std::string format;
        in >> format;
        const auto snapshot = client_.Metrics(format == "json");
        if (snapshot.has_value()) {
          std::fputs(snapshot->c_str(), stdout);
          if (snapshot->empty() || snapshot->back() != '\n') std::printf("\n");
        } else {
          PrintError(snapshot.error());
        }
      } else if (verb == "ingest") {
        Ingest(in);
      } else {
        Query(line);
      }
    }
    return 0;
  }

 private:
  void Help() {
    std::printf(
        "remote commands (deadline %ums):\n"
        "  ingest FILE           append FILE as a new window on the server\n"
        "  metrics [json]        server instrument snapshot\n"
        "  info | ping | quit\n"
        "%s",
        deadline_ms_, kQueryGrammarHelp);
  }

  bool RefreshInfo(bool print) {
    const auto info = client_.Info();
    if (!info.has_value()) {
      PrintError(info.error());
      return false;
    }
    window_count_ = info->window_count;
    if (print) {
      std::printf("remote knowledge base: %u windows, %llu rules, "
                  "generation %llu\n",
                  info->window_count,
                  static_cast<unsigned long long>(info->rule_count),
                  static_cast<unsigned long long>(info->generation));
    }
    return true;
  }

  void Query(const std::string& line) {
    const auto request = ParseQueryLine(line, window_count_);
    if (!request.has_value()) return;
    const auto result = client_.Execute(*request, deadline_ms_);
    if (result.has_value()) {
      PrintSummary(request->kind, *result);
    } else {
      PrintError(result.error());
    }
  }

  void Ingest(std::istringstream& in) {
    std::string path;
    if (!(in >> path)) {
      std::printf("usage: ingest FILE\n");
      return;
    }
    std::ifstream file(path);
    if (!file) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    const TransactionDatabase batch = ReadDatabase(&file);
    if (batch.size() == 0) {
      std::printf("no transactions in %s\n", path.c_str());
      return;
    }
    const auto ack = client_.AppendWindow(batch);
    if (!ack.has_value()) {
      PrintError(ack.error());
      return;
    }
    std::printf("ingested %zu transactions as window %u (generation %llu)\n",
                batch.size(), ack->window,
                static_cast<unsigned long long>(ack->generation));
    window_count_ = ack->window + 1;
  }

  void PrintError(const WireError& error) {
    std::ostringstream out;
    out << error;
    std::printf("error: %s\n", out.str().c_str());
  }

  server::TaraClient client_;
  uint32_t deadline_ms_;
  uint32_t window_count_ = 0;
};

/// `tara_cli wal recover --kb DIR --wal DIR`: load the checkpoint (if one
/// exists), replay the log tail, checkpoint the recovered state back
/// into the directory, and retire the log. Exit 0 means the directory
/// now holds every acked window and the log is empty.
int RunRecover(int argc, char** argv) {
  std::string kb_dir, wal_dir;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--wal" && i + 1 < argc) {
      wal_dir = argv[++i];
    } else if (arg == "--kb" && i + 1 < argc) {
      kb_dir = argv[++i];
    } else {
      kb_dir.clear();
      break;
    }
  }
  if (kb_dir.empty() || wal_dir.empty()) {
    std::fprintf(stderr, "usage: tara_cli wal recover --kb DIR --wal DIR\n");
    return 2;
  }
  OpenOptions options;
  options.kb_dir = kb_dir;
  options.wal_dir = wal_dir;
  options.metrics = &Registry();
  WalReplayStats stats;
  options.replay_stats = &stats;
  auto recovered = OpenKnowledgeBase(options);
  if (!recovered.has_value()) {
    std::ostringstream out;
    out << recovered.error();
    std::fprintf(stderr, "tara_cli wal recover: %s\n", out.str().c_str());
    return 1;
  }
  TaraEngine engine = std::move(recovered).value();
  std::fprintf(stderr,
               "recovered %u windows (%llu log records replayed, %llu "
               "skipped, %llu torn bytes dropped)\n",
               engine.window_count(),
               static_cast<unsigned long long>(stats.records_replayed),
               static_cast<unsigned long long>(stats.records_skipped),
               static_cast<unsigned long long>(stats.truncated_bytes));
  if (const auto error =
          AppendKnowledgeBaseBlocks(*engine.Snapshot(), kb_dir)) {
    std::ostringstream out;
    out << *error;
    std::fprintf(stderr,
                 "tara_cli wal recover: cannot checkpoint into %s: %s\n",
                 kb_dir.c_str(), out.str().c_str());
    return 1;
  }
  if (const auto error = engine.TruncateWal()) {
    std::ostringstream out;
    out << *error;
    std::fprintf(stderr,
                 "tara_cli wal recover: cannot truncate the log: %s\n",
                 out.str().c_str());
    return 1;
  }
  std::fprintf(stderr, "checkpointed into %s and truncated the log\n",
               kb_dir.c_str());
  return 0;
}

/// `tara_cli wal CMD ...`: the write-ahead-log noun. `recover` is its
/// only verb today.
int RunWal(int argc, char** argv) {
  if (argc >= 1 && std::strcmp(argv[0], "recover") == 0) {
    return RunRecover(argc - 1, argv + 1);
  }
  std::fprintf(stderr, "usage: tara_cli wal recover --kb DIR --wal DIR\n");
  return 2;
}

/// Prints a LoadError prefixed with the db verb that hit it; returns 1
/// (the db suite's failure exit code).
int DbFail(const char* verb, const LoadError& error) {
  std::ostringstream out;
  out << error;
  std::fprintf(stderr, "tara_cli db %s: %s\n", verb, out.str().c_str());
  return 1;
}

/// Parses the shared `--kb DIR` grammar of every db verb plus the
/// verb-specific flags handed in as `extra` (flag name -> value slot).
/// Returns false (after printing usage) on a malformed command line.
bool ParseDbArgs(int argc, char** argv, const char* verb,
                 const char* extra_usage, std::string* kb_dir,
                 const std::vector<std::pair<std::string, uint64_t*>>& extra) {
  bool ok = true;
  for (int i = 0; i < argc && ok; ++i) {
    const std::string arg = argv[i];
    if (arg == "--kb" && i + 1 < argc) {
      *kb_dir = argv[++i];
      continue;
    }
    ok = false;
    for (const auto& [flag, slot] : extra) {
      if (arg == flag && i + 1 < argc) {
        *slot = std::strtoull(argv[++i], nullptr, 10);
        ok = true;
        break;
      }
    }
  }
  if (!ok || kb_dir->empty()) {
    std::fprintf(stderr, "usage: tara_cli db %s --kb DIR%s\n", verb,
                 extra_usage);
    return false;
  }
  return true;
}

/// `db stats --kb DIR`: format, options, windows, rules, blocks, bytes —
/// all from the manifest, no segment payload read.
int RunDbStats(const std::string& kb_dir) {
  auto manifest = ReadKnowledgeBaseBlocksManifest(kb_dir);
  if (!manifest.has_value()) return DbFail("stats", manifest.error());
  uint64_t payload = 0, file_bytes = 0, entries = 0;
  for (const KbBlockInfo& block : manifest->blocks) {
    file_bytes += block.file_bytes;
    for (const KbBlockRow& row : block.rows) {
      payload += row.segment_bytes;
      entries += row.entry_count;
    }
  }
  std::printf("format:   TARAKB3 (block-partitioned)\n");
  std::printf("windows:  %u in %zu blocks\n", manifest->window_count(),
              manifest->blocks.size());
  std::printf("rules:    %llu\n", static_cast<unsigned long long>(
                                      manifest->rule_watermark()));
  std::printf("entries:  %llu\n", static_cast<unsigned long long>(entries));
  std::printf("bytes:    %llu on disk, %llu segment payload\n",
              static_cast<unsigned long long>(file_bytes),
              static_cast<unsigned long long>(payload));
  std::printf("floors:   supp %g conf %g, max itemset %llu, content "
              "index %s\n",
              manifest->min_support_floor, manifest->min_confidence_floor,
              static_cast<unsigned long long>(manifest->max_itemset_size),
              manifest->build_content_index ? "yes" : "no");
  for (const KbBlockInfo& block : manifest->blocks) {
    std::printf("  block-%06llu.blk  windows %u..%u  %llu bytes\n",
                static_cast<unsigned long long>(block.file_index),
                block.first_window,
                block.first_window +
                    static_cast<uint32_t>(block.rows.size()) - 1,
                static_cast<unsigned long long>(block.file_bytes));
  }
  return 0;
}

/// `db show --kb DIR`: the per-window table.
int RunDbShow(const std::string& kb_dir) {
  auto manifest = ReadKnowledgeBaseBlocksManifest(kb_dir);
  if (!manifest.has_value()) return DbFail("show", manifest.error());
  std::printf("window  transactions      rules    entries      bytes\n");
  for (const KbBlockInfo& block : manifest->blocks) {
    WindowId w = block.first_window;
    for (const KbBlockRow& row : block.rows) {
      std::printf("%6u  %12llu %10llu %10llu %10llu\n", w++,
                  static_cast<unsigned long long>(row.total_transactions),
                  static_cast<unsigned long long>(row.rule_watermark),
                  static_cast<unsigned long long>(row.entry_count),
                  static_cast<unsigned long long>(row.segment_bytes));
    }
  }
  return 0;
}

/// `db verify --kb DIR`: every block and segment hash checked,
/// block-parallel. Exit 0 only when everything matches.
int RunDbVerify(const std::string& kb_dir) {
  auto mapped = MappedKb::Open(kb_dir);
  if (!mapped.has_value()) return DbFail("verify", mapped.error());
  std::unique_ptr<ThreadPool> pool;
  if (mapped->manifest().blocks.size() > 1) {
    pool = std::make_unique<ThreadPool>(std::thread::hardware_concurrency());
  }
  if (const auto error = mapped->VerifyHashes(pool.get())) {
    return DbFail("verify", *error);
  }
  std::printf("verified %u windows in %zu blocks: all hashes match\n",
              mapped->window_count(), mapped->manifest().blocks.size());
  return 0;
}

/// `tara_cli db CMD --kb DIR ...`: the DAZZ_DB-style directory suite.
int RunDb(int argc, char** argv) {
  const auto usage = []() -> int {
    std::fprintf(
        stderr,
        "usage: tara_cli db CMD --kb DIR\n"
        "  db stats --kb DIR                  manifest-level summary\n"
        "  db show --kb DIR                   per-window table\n"
        "  db verify --kb DIR                 check every content hash\n"
        "  db split --kb DIR [--block-bytes N]  repartition into blocks\n"
        "  db trim --kb DIR --windows N       keep the first N windows\n"
        "  db rm --kb DIR                     delete the knowledge base\n");
    return 2;
  };
  if (argc < 1) return usage();
  const std::string verb = argv[0];
  --argc;
  ++argv;
  std::string kb_dir;
  if (verb == "stats") {
    if (!ParseDbArgs(argc, argv, "stats", "", &kb_dir, {})) return 2;
    return RunDbStats(kb_dir);
  }
  if (verb == "show") {
    if (!ParseDbArgs(argc, argv, "show", "", &kb_dir, {})) return 2;
    return RunDbShow(kb_dir);
  }
  if (verb == "verify") {
    if (!ParseDbArgs(argc, argv, "verify", "", &kb_dir, {})) return 2;
    return RunDbVerify(kb_dir);
  }
  if (verb == "split") {
    uint64_t block_bytes = kDefaultBlockBytes;
    if (!ParseDbArgs(argc, argv, "split", " [--block-bytes N]", &kb_dir,
                     {{"--block-bytes", &block_bytes}})) {
      return 2;
    }
    if (block_bytes == 0) block_bytes = kDefaultBlockBytes;
    if (const auto error = RepartitionKnowledgeBase(kb_dir, block_bytes)) {
      return DbFail("split", *error);
    }
    auto manifest = ReadKnowledgeBaseBlocksManifest(kb_dir);
    if (!manifest.has_value()) return DbFail("split", manifest.error());
    std::printf("repartitioned %s: %u windows in %zu blocks of ~%llu "
                "bytes\n",
                kb_dir.c_str(), manifest->window_count(),
                manifest->blocks.size(),
                static_cast<unsigned long long>(block_bytes));
    return 0;
  }
  if (verb == "trim") {
    uint64_t windows = UINT64_MAX;
    if (!ParseDbArgs(argc, argv, "trim", " --windows N", &kb_dir,
                     {{"--windows", &windows}}) ||
        windows == UINT64_MAX) {
      if (windows == UINT64_MAX && !kb_dir.empty()) {
        std::fprintf(stderr, "usage: tara_cli db trim --kb DIR --windows N\n");
      }
      return 2;
    }
    if (const auto error =
            TrimKnowledgeBase(kb_dir, static_cast<uint32_t>(windows))) {
      return DbFail("trim", *error);
    }
    std::printf("trimmed %s to %llu windows\n", kb_dir.c_str(),
                static_cast<unsigned long long>(windows));
    return 0;
  }
  if (verb == "rm") {
    if (!ParseDbArgs(argc, argv, "rm", "", &kb_dir, {})) return 2;
    if (const auto error = RemoveKnowledgeBase(kb_dir)) {
      return DbFail("rm", *error);
    }
    std::printf("removed the knowledge base in %s\n", kb_dir.c_str());
    return 0;
  }
  return usage();
}

/// `tara_cli replica status HOST:PORT` — the follower's health at a
/// glance: knowledge-base shape from the info endpoint plus the
/// tara.replica.* series filtered out of the metrics snapshot. Run it
/// against a server started with `serve --replicate-from`.
int RunReplica(int argc, char** argv) {
  const auto usage = []() -> int {
    std::fprintf(stderr, "usage: tara_cli replica status HOST:PORT\n");
    return 2;
  };
  if (argc < 2 || std::string(argv[0]) != "status") return usage();
  std::string host;
  uint16_t port = 0;
  if (!server::SplitHostPort(argv[1], &host, &port)) {
    std::fprintf(stderr, "tara_cli replica: bad HOST:PORT: %s\n", argv[1]);
    return 2;
  }
  auto client = server::TaraClient::Connect(host, port);
  if (!client.has_value()) {
    std::ostringstream out;
    out << client.error();
    std::fprintf(stderr, "tara_cli replica: %s\n", out.str().c_str());
    return 1;
  }
  server::TaraClient remote = std::move(client.value());
  const auto info = remote.Info();
  if (!info.has_value()) {
    std::ostringstream out;
    out << info.error();
    std::fprintf(stderr, "tara_cli replica: %s\n", out.str().c_str());
    return 1;
  }
  std::printf("windows    %u\n", info->window_count);
  std::printf("generation %llu\n",
              static_cast<unsigned long long>(info->generation));
  std::printf("rules      %llu\n",
              static_cast<unsigned long long>(info->rule_count));
  const auto metrics = remote.Metrics(/*json=*/false);
  if (!metrics.has_value()) {
    std::ostringstream out;
    out << metrics.error();
    std::fprintf(stderr, "tara_cli replica: %s\n", out.str().c_str());
    return 1;
  }
  bool any_replica_series = false;
  std::istringstream lines(metrics.value());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("tara.replica.", 0) == 0) {
      std::printf("%s\n", line.c_str());
      any_replica_series = true;
    }
  }
  if (!any_replica_series) {
    std::printf("(no tara.replica.* series — not a replica?)\n");
  }
  return 0;
}

/// The top-level command surface, printed by `tara_cli help` (stdout —
/// pinned by the help-text golden test) and on a bad command line
/// (stderr).
void PrintUsage(std::FILE* out) {
  std::fputs(
      "tara_cli — interactive temporal association analytics\n"
      "\n"
      "usage:\n"
      "  tara_cli [--metrics]            interactive session (commands on\n"
      "                                  stdin; type 'help' inside)\n"
      "  tara_cli db CMD --kb DIR        knowledge-base directory tooling\n"
      "  tara_cli query [--remote HOST:PORT [--deadline MS]]\n"
      "  tara_cli serve HOST:PORT [flags]\n"
      "  tara_cli replica status HOST:PORT\n"
      "  tara_cli wal recover --kb DIR --wal DIR\n"
      "  tara_cli help\n"
      "\n"
      "db commands (all under --kb DIR):\n"
      "  db stats                        format, windows, rules, blocks\n"
      "  db show                         per-window table\n"
      "  db verify                       check every content hash\n"
      "  db split [--block-bytes N]      repartition into balanced blocks\n"
      "  db trim --windows N             keep only the first N windows\n"
      "  db rm                           delete every manifest-named file\n"
      "\n"
      "serve flags:\n"
      "  [--loaddir DIR] [--wal DIR] [--mmap] [--verify]\n"
      "  [--quest N ITEMS] [--windows K] [--floor S C] [--cache BYTES]\n"
      "  [--workers N] [--queue N] [--port-file FILE]\n"
      "  [--replicate-from HOST:PORT]   serve as a read-only hot standby\n"
      "                                  of that primary\n",
      out);
}

int RunRemoteQuery(int argc, char** argv) {
  std::string host;
  uint16_t port = 0;
  uint32_t deadline_ms = 0;
  bool have_remote = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--remote" && i + 1 < argc) {
      if (!server::SplitHostPort(argv[++i], &host, &port)) {
        std::fprintf(stderr, "tara_cli query: bad HOST:PORT: %s\n", argv[i]);
        return 2;
      }
      have_remote = true;
    } else if (arg == "--deadline" && i + 1 < argc) {
      deadline_ms =
          static_cast<uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: tara_cli query --remote HOST:PORT "
                   "[--deadline MS] < queries\n");
      return 2;
    }
  }
  if (!have_remote) {
    // Without --remote, `query` is the plain local session (the same
    // query grammar, executed in-process).
    return Session().Run();
  }
  auto client = server::TaraClient::Connect(host, port);
  if (!client.has_value()) {
    std::ostringstream out;
    out << client.error();
    std::fprintf(stderr, "tara_cli query: %s\n", out.str().c_str());
    return 1;
  }
  return RemoteShell(std::move(client.value()), deadline_ms).Run();
}

}  // namespace
}  // namespace tara::cli

int main(int argc, char** argv) {
  // Noun-verb surface: db / query / serve / replica / wal (+ help).
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    return tara::server::RunServeMain(argc - 2, argv + 2, "tara_cli serve");
  }
  if (argc > 1 && std::strcmp(argv[1], "query") == 0) {
    return tara::cli::RunRemoteQuery(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "db") == 0) {
    return tara::cli::RunDb(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "replica") == 0) {
    return tara::cli::RunReplica(argc - 2, argv + 2);
  }
  if (argc > 1 && std::strcmp(argv[1], "wal") == 0) {
    return tara::cli::RunWal(argc - 2, argv + 2);
  }
  if (argc > 1 && (std::strcmp(argv[1], "help") == 0 ||
                   std::strcmp(argv[1], "--help") == 0)) {
    tara::cli::PrintUsage(stdout);
    return 0;
  }
  bool dump_metrics = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else {
      tara::cli::PrintUsage(stderr);
      return 2;
    }
  }
  const int status = tara::cli::Session().Run();
  if (dump_metrics) {
    std::fputs(tara::obs::MetricsRegistry::Global().SnapshotText().c_str(),
               stderr);
  }
  return status;
}
