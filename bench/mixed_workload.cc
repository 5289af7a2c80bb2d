// Mixed read/write workload: online query latency with and without live
// ingestion running underneath.
//
// Phase 1 (read_only): reader threads hammer a Q1/Q3/Q5/roll-up mix
// against a finished knowledge base — the baseline the RCU snapshot
// design should preserve.
// Phase 2 (live_append): the same readers keep querying while the writer
// appends new windows one at a time, each publishing a new generation.
// The interesting columns are the read p50/p99 deltas between the phases
// (readers never block on the writer; they only pin snapshots) and the
// per-append publication latency.
// Phases 3-5 exercise the generation-pinned query cache on a fixed
// repeated request set: repeat_nocache (baseline, cache off),
// repeat_cache (same series, cache on — p50 must drop and the hit rate
// approach 1), and cache_live_append (cache on under a live appender:
// every publication bumps the generation, so each new generation re-misses
// the set once and then hits again).
// Phase 6 (wal_append): live_append on a twin engine with the
// write-ahead log attached — the durability tax.
// Phase 7 (replication): a WAL-backed primary behind a real TaraServer
// streams durably-acked windows to an in-process ReplicaEngine while
// readers hammer the replica; the interesting columns are replica lag
// (append-ack on the primary -> window applied on the replica) and the
// diverged flag (byte-compare at equal window counts; CI asserts 0).
//
// Writes BENCH_mixed_workload.json (schema of bench_report.h) with a full
// metrics-registry snapshot attached, including the snapshot instruments
// tara.kb.generation and tara.kb.swaps.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_report.h"
#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "core/kb_storage.h"
#include "core/tara_engine.h"
#include "datagen/basket_generators.h"
#include "obs/metrics.h"
#include "server/replica.h"
#include "server/tara_server.h"
#include "txdb/evolving_database.h"

namespace tara {
namespace {

constexpr uint32_t kBaseWindows = 6;
constexpr uint32_t kLiveWindows = 6;
constexpr uint32_t kCacheLiveWindows = 4;
constexpr uint32_t kTxPerWindow = 2000;
constexpr int kReaders = 4;
constexpr double kReadOnlySeconds = 2.0;
constexpr double kRepeatSeconds = 1.5;
constexpr size_t kCacheBudgetBytes = 64ull << 20;

EvolvingDatabase MakeData(uint32_t windows) {
  BasketGenerator::Params params = BasketGenerator::RetailPreset();
  params.num_transactions = kTxPerWindow;
  params.num_items = 250;
  const BasketGenerator gen(params);
  EvolvingDatabase data;
  for (uint32_t w = 0; w < windows; ++w) {
    data.AppendBatch(gen.GenerateBatch(w, w * kTxPerWindow).transactions());
  }
  return data;
}

double PercentileUs(std::vector<uint64_t>* latencies_ns, double p) {
  if (latencies_ns->empty()) return 0;
  std::sort(latencies_ns->begin(), latencies_ns->end());
  const size_t index = std::min(
      latencies_ns->size() - 1,
      static_cast<size_t>(p * static_cast<double>(latencies_ns->size())));
  return static_cast<double>((*latencies_ns)[index]) / 1000.0;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One reader's loop: a fixed query mix against the engine, recording
/// whole-query latencies until `stop` flips.
void ReaderLoop(const TaraEngine& engine, const ParameterSetting& setting,
                RuleId probe, const Itemset& probe_items,
                const std::atomic<bool>& stop,
                std::vector<uint64_t>* latencies_ns) {
  size_t i = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const std::shared_ptr<const KnowledgeBaseSnapshot> snapshot =
        engine.Snapshot();
    const uint32_t k = snapshot->window_count();
    if (k == 0) continue;
    const WindowSet all = snapshot->AllWindows();
    const WindowId newest = k - 1;
    const uint64_t start = NowNs();
    switch (i++ % 4) {
      case 0:
        (void)snapshot->TrajectoryQuery(newest, setting, all);
        break;
      case 1:
        (void)snapshot->RecommendRegion(newest, setting);
        break;
      case 2:
        (void)snapshot->ContentQuery(newest, probe_items, setting);
        break;
      default:
        (void)snapshot->RollUpRule(probe, all);
        break;
    }
    latencies_ns->push_back(NowNs() - start);
  }
}

/// One reader's loop for the cache phases: cycles a fixed request series
/// through the uniform Execute entrypoint (which consults the cache when
/// one is configured). Readers start at different offsets so the first
/// pass over the series is spread across them.
void RepeatLoop(const TaraEngine& engine,
                const std::vector<QueryRequest>& requests, size_t offset,
                const std::atomic<bool>& stop,
                std::vector<uint64_t>* latencies_ns) {
  size_t i = offset;
  while (!stop.load(std::memory_order_acquire)) {
    const QueryRequest& request = requests[i++ % requests.size()];
    const uint64_t start = NowNs();
    (void)engine.Execute(request);
    latencies_ns->push_back(NowNs() - start);
  }
}

struct PhaseResult {
  std::vector<uint64_t> latencies_ns;
  double seconds = 0;
};

/// Runs `kReaders` reader threads around `writer` (which runs on this
/// thread and flips the stop flag when it returns). `reader` is invoked
/// as reader(thread_index, stop, &latencies).
template <typename Reader, typename Writer>
PhaseResult RunPhase(Reader&& reader, Writer&& writer) {
  std::atomic<bool> stop{false};
  std::vector<std::vector<uint64_t>> per_thread(kReaders);
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    per_thread[r].reserve(1 << 16);
    threads.emplace_back([&, r] { reader(r, stop, &per_thread[r]); });
  }
  const auto start = std::chrono::steady_clock::now();
  writer();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  PhaseResult result;
  result.seconds = elapsed.count();
  for (std::vector<uint64_t>& lat : per_thread) {
    result.latencies_ns.insert(result.latencies_ns.end(), lat.begin(),
                               lat.end());
  }
  return result;
}

void ReportPhase(bench::BenchReport* report, const char* phase,
                 PhaseResult result, std::vector<uint64_t> append_ns,
                 const QueryCache::Stats& cache = {}) {
  const size_t queries = result.latencies_ns.size();
  const double qps =
      result.seconds > 0 ? static_cast<double>(queries) / result.seconds : 0;
  const double p50 = PercentileUs(&result.latencies_ns, 0.50);
  const double p99 = PercentileUs(&result.latencies_ns, 0.99);
  const uint64_t appends = append_ns.size();
  double append_seconds = 0;
  for (const uint64_t ns : append_ns) {
    append_seconds += static_cast<double>(ns) / 1e9;
  }
  const double append_p50 = PercentileUs(&append_ns, 0.50);
  const double append_p99 = PercentileUs(&append_ns, 0.99);
  std::printf("%-16s %10zu queries %10.0f q/s  p50 %8.1fus  p99 %8.1fus",
              phase, queries, qps, p50, p99);
  if (appends > 0) {
    std::printf("  (%llu appends, p50 %.0fus, p99 %.0fus)",
                static_cast<unsigned long long>(appends), append_p50,
                append_p99);
  }
  if (cache.hits + cache.misses > 0) {
    std::printf("  (cache hit rate %.3f, %llu evictions)", cache.hit_rate(),
                static_cast<unsigned long long>(cache.evictions));
  }
  std::printf("\n");
  report->AddRow()
      .Set("phase", phase)
      .Set("readers", static_cast<uint64_t>(kReaders))
      .Set("queries", static_cast<uint64_t>(queries))
      .Set("qps", qps)
      .Set("read_p50_us", p50)
      .Set("read_p99_us", p99)
      .Set("appends", appends)
      .Set("append_seconds_total", append_seconds)
      .Set("append_p50_us", append_p50)
      .Set("append_p99_us", append_p99)
      .Set("cache_hits", cache.hits)
      .Set("cache_misses", cache.misses)
      .Set("cache_evictions", cache.evictions)
      .Set("cache_bytes", cache.bytes)
      .Set("hit_rate", cache.hit_rate())
      .Set("peak_rss_bytes", bench::PeakRssBytes());
}

/// The fastest of several OpenKnowledgeBase calls on one directory, plus
/// the resident-set growth the winning open caused (how many payload bytes
/// it actually faulted in — near zero for a mapped open).
struct OpenCost {
  double open_us = 1e18;
  uint64_t rss_delta_bytes = 0;
  uint32_t windows = 0;
};

/// Opens `dir` once and keeps the open in `best` if it is the fastest yet.
bool TimeOpen(const std::string& dir, OpenMode mode, OpenCost* best) {
  OpenOptions options;
  options.kb_dir = dir;
  options.mode = mode;
  const uint64_t rss_before = bench::CurrentRssBytes();
  const uint64_t start = NowNs();
  auto opened = OpenKnowledgeBase(options);
  const double us = static_cast<double>(NowNs() - start) / 1000.0;
  if (!opened.has_value()) {
    std::fprintf(stderr, "cannot open %s: open-phase bug\n", dir.c_str());
    return false;
  }
  const uint64_t rss_after = bench::CurrentRssBytes();
  if (us < best->open_us) {
    best->open_us = us;
    best->rss_delta_bytes = rss_after > rss_before ? rss_after - rss_before : 0;
  }
  best->windows = opened->window_count();
  return true;
}

/// Phase 7: open-time scaling. The full knowledge base is saved as
/// TARAKB3 blocks twice — once whole, once trimmed to a quarter of the
/// windows — and both are opened in both modes. A mapped open touches
/// manifests only, so its cost must not grow with window count; the
/// eager open decodes every segment and must grow ~linearly. CI asserts
/// exactly that from these two rows.
bool ReportOpenScaling(bench::BenchReport* report,
                       const KnowledgeBaseSnapshot& snapshot) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "mixed_workload_open";
  fs::remove_all(root);
  const std::string large_dir = (root / "large").string();
  const std::string small_dir = (root / "small").string();
  // Small target block size so several blocks exist and the mapped open
  // exercises the multi-mmap path.
  constexpr uint64_t kOpenBlockBytes = 256 * 1024;
  const uint32_t small_windows = snapshot.window_count() / 4;
  if (SaveKnowledgeBaseBlocks(snapshot, large_dir, kOpenBlockBytes) ||
      SaveKnowledgeBaseBlocks(snapshot, small_dir, kOpenBlockBytes) ||
      TrimKnowledgeBase(small_dir, small_windows)) {
    std::fprintf(stderr, "cannot stage the open-phase directories\n");
    return false;
  }
  for (const OpenMode mode : {OpenMode::kMapped, OpenMode::kEager}) {
    const char* phase =
        mode == OpenMode::kMapped ? "open_mmap" : "open_eager";
    // Best of 7, small and large interleaved, so a few ms of host noise
    // neither decides a side nor lands on one side only.
    OpenCost small, large;
    for (int i = 0; i < 7; ++i) {
      if (!TimeOpen(small_dir, mode, &small) ||
          !TimeOpen(large_dir, mode, &large)) {
        return false;
      }
    }
    const double ratio =
        small.open_us > 0 ? large.open_us / small.open_us : 0;
    std::printf("%-16s %4u windows %10.1fus -> %4u windows %10.1fus "
                "(x%.2f, +%llu resident bytes)\n",
                phase, small.windows, small.open_us, large.windows,
                large.open_us, ratio,
                static_cast<unsigned long long>(large.rss_delta_bytes));
    report->AddRow()
        .Set("phase", phase)
        .Set("small_windows", small.windows)
        .Set("large_windows", large.windows)
        .Set("small_open_us", small.open_us)
        .Set("large_open_us", large.open_us)
        .Set("open_ratio", ratio)
        .Set("rss_delta_bytes", large.rss_delta_bytes)
        .Set("peak_rss_bytes", bench::PeakRssBytes());
  }
  fs::remove_all(root);
  return true;
}

/// The fixed repeated series the cache phases cycle: every window's
/// trajectory, region, and content view, plus multi-window roll-ups and
/// comparisons — the expensive, repeat-heavy queries an interactive
/// session reissues as the analyst pans and zooms.
std::vector<QueryRequest> MakeRepeatedRequests(uint32_t windows, RuleId probe,
                                               const Itemset& probe_items,
                                               const ParameterSetting& base) {
  std::vector<WindowId> all;
  all.reserve(windows);
  for (WindowId w = 0; w < windows; ++w) all.push_back(w);
  std::vector<QueryRequest> requests;
  for (WindowId w = 0; w < windows; ++w) {
    requests.push_back(QueryRequest::Trajectory(w, base, all));
    requests.push_back(QueryRequest::Region(w, base));
    requests.push_back(QueryRequest::ContentView(w, base));
  }
  for (int i = 0; i < 4; ++i) {
    const ParameterSetting setting{base.min_support +
                                       0.002 * static_cast<double>(i),
                                   base.min_confidence};
    requests.push_back(QueryRequest::RollUpMine(all, setting));
    requests.push_back(QueryRequest::Compare(
        setting,
        ParameterSetting{setting.min_support + 0.004, setting.min_confidence},
        all, MatchMode::kExact));
  }
  requests.push_back(QueryRequest::Measures(probe, all));
  requests.push_back(QueryRequest::RollUpRule(probe, all));
  requests.push_back(QueryRequest::Content(0, probe_items, base));
  return requests;
}

QueryCache::Stats StatsDelta(const TaraEngine& engine,
                             const QueryCache::Stats& before) {
  if (engine.query_cache() == nullptr) return {};
  QueryCache::Stats now = engine.query_cache()->stats();
  now.hits -= before.hits;
  now.misses -= before.misses;
  now.evictions -= before.evictions;
  return now;
}

int Run() {
  std::printf(
      "mixed workload: %d readers over %u base + %u live windows x %u "
      "transactions (hardware threads: %u)\n\n",
      kReaders, kBaseWindows, kLiveWindows, kTxPerWindow,
      std::thread::hardware_concurrency());

  const EvolvingDatabase data =
      MakeData(kBaseWindows + kLiveWindows + kCacheLiveWindows);
  obs::MetricsRegistry registry;
  TaraEngine::Options options;
  options.min_support_floor = 0.004;
  options.min_confidence_floor = 0.1;
  options.max_itemset_size = 4;
  options.build_content_index = true;
  options.metrics = &registry;
  TaraEngine engine(options);
  for (uint32_t w = 0; w < kBaseWindows; ++w) {
    const WindowInfo& info = data.window(w);
    engine.AppendWindow(data.database(), info.begin, info.end);
  }

  const ParameterSetting setting{0.008, 0.3};
  const auto mined = engine.Snapshot()->MineWindow(0, setting).value();
  if (mined.empty()) {
    std::fprintf(stderr, "dataset produced no rules at the probe setting\n");
    return 1;
  }
  const RuleId probe = mined[0];
  const Itemset probe_items = {engine.catalog().rule(probe).antecedent[0]};

  bench::BenchReport report("mixed_workload");

  const auto mixed_reader = [&](int, const std::atomic<bool>& stop,
                                std::vector<uint64_t>* latencies) {
    ReaderLoop(engine, setting, probe, probe_items, stop, latencies);
  };
  const auto sleep_writer = [] {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kReadOnlySeconds));
  };
  const auto append_writer = [&](TaraEngine& target, uint32_t begin,
                                 uint32_t end,
                                 std::vector<uint64_t>* append_ns) {
    for (uint32_t w = begin; w < end; ++w) {
      const WindowInfo& info = data.window(w);
      const uint64_t start = NowNs();
      target.AppendWindow(data.database(), info.begin, info.end);
      append_ns->push_back(NowNs() - start);
    }
  };

  // Phase 1: pure reads against the finished base.
  PhaseResult read_only = RunPhase(mixed_reader, sleep_writer);
  ReportPhase(&report, "read_only", std::move(read_only), {});

  // Phase 2: the same readers while windows are appended live.
  std::vector<uint64_t> append_ns;
  PhaseResult live = RunPhase(mixed_reader, [&] {
    append_writer(engine, kBaseWindows, kBaseWindows + kLiveWindows,
                  &append_ns);
  });
  ReportPhase(&report, "live_append", std::move(live), std::move(append_ns));

  // Phases 3-5: a fixed repeated request series through Execute — first
  // with the cache off (baseline), then on (hits dominate), then on with
  // a live appender bumping the generation out from under it.
  const std::vector<QueryRequest> repeated = MakeRepeatedRequests(
      engine.window_count(), probe, probe_items, setting);
  const auto repeat_reader = [&](int r, const std::atomic<bool>& stop,
                                 std::vector<uint64_t>* latencies) {
    RepeatLoop(engine, repeated,
               static_cast<size_t>(r) * repeated.size() / kReaders, stop,
               latencies);
  };
  const auto sleep_repeat = [] {
    std::this_thread::sleep_for(std::chrono::duration<double>(kRepeatSeconds));
  };

  PhaseResult repeat_nocache = RunPhase(repeat_reader, sleep_repeat);
  ReportPhase(&report, "repeat_nocache", std::move(repeat_nocache), {});

  engine.SetQueryCacheBytes(kCacheBudgetBytes);
  QueryCache::Stats before = engine.query_cache()->stats();
  PhaseResult repeat_cache = RunPhase(repeat_reader, sleep_repeat);
  ReportPhase(&report, "repeat_cache", std::move(repeat_cache), {},
              StatsDelta(engine, before));

  before = engine.query_cache()->stats();
  std::vector<uint64_t> cache_append_ns;
  PhaseResult cache_live = RunPhase(repeat_reader, [&] {
    append_writer(engine, kBaseWindows + kLiveWindows,
                  kBaseWindows + kLiveWindows + kCacheLiveWindows,
                  &cache_append_ns);
  });
  ReportPhase(&report, "cache_live_append", std::move(cache_live),
              std::move(cache_append_ns), StatsDelta(engine, before));

  // Phase 6: the live_append phase again on a twin engine with the
  // write-ahead log attached — the durability tax (encode + fdatasync
  // per window, on the append path, inside the commit section).
  const std::filesystem::path wal_dir =
      std::filesystem::temp_directory_path() / "mixed_workload_wal";
  std::filesystem::remove_all(wal_dir);
  {
    TaraEngine::Options wal_options = options;
    wal_options.wal_dir = wal_dir.string();
    TaraEngine wal_engine(wal_options);
    for (uint32_t w = 0; w < kBaseWindows; ++w) {
      const WindowInfo& info = data.window(w);
      wal_engine.AppendWindow(data.database(), info.begin, info.end);
    }
    const auto wal_reader = [&](int, const std::atomic<bool>& stop,
                                std::vector<uint64_t>* latencies) {
      ReaderLoop(wal_engine, setting, probe, probe_items, stop, latencies);
    };
    std::vector<uint64_t> wal_append_ns;
    PhaseResult wal_live = RunPhase(wal_reader, [&] {
      append_writer(wal_engine, kBaseWindows, kBaseWindows + kLiveWindows,
                    &wal_append_ns);
    });
    ReportPhase(&report, "wal_append", std::move(wal_live),
                std::move(wal_append_ns));
  }
  std::filesystem::remove_all(wal_dir);

  // Phase 7: hot-standby replication. A WAL-backed twin primary behind
  // a real TaraServer, an in-process ReplicaEngine subscribed to it;
  // readers query the replica while the primary appends live windows.
  // Per-window lag is append-return (the durable ack) to the replica
  // holding the window.
  const std::filesystem::path repl_wal =
      std::filesystem::temp_directory_path() / "mixed_workload_repl_wal";
  std::filesystem::remove_all(repl_wal);
  {
    TaraEngine::Options primary_options = options;
    primary_options.wal_dir = repl_wal.string();
    TaraEngine primary(primary_options);
    for (uint32_t w = 0; w < kBaseWindows; ++w) {
      const WindowInfo& info = data.window(w);
      primary.AppendWindow(data.database(), info.begin, info.end);
    }
    server::ServerOptions server_options;
    server_options.metrics = &registry;
    server::TaraServer primary_server(&primary, server_options);
    if (primary_server.Start().has_value()) {
      std::fprintf(stderr, "replication phase: primary server failed\n");
      return 1;
    }
    server::ReplicaOptions replica_options;
    replica_options.primary_port = primary_server.port();
    replica_options.metrics = &registry;
    server::ReplicaEngine replica(replica_options);
    if (replica.Start().has_value()) {
      std::fprintf(stderr, "replication phase: replica failed to start\n");
      return 1;
    }
    const auto sync_wait = std::chrono::milliseconds(60000);
    if (replica.WaitForWindows(kBaseWindows, sync_wait) != kBaseWindows) {
      std::fprintf(stderr, "replication phase: replica never synced\n");
      return 1;
    }
    const TaraEngine& replica_engine = *replica.engine();
    const auto replica_reader = [&](int, const std::atomic<bool>& stop,
                                    std::vector<uint64_t>* latencies) {
      ReaderLoop(replica_engine, setting, probe, probe_items, stop, latencies);
    };
    std::vector<uint64_t> repl_append_ns;
    std::vector<uint64_t> lag_ns;
    bool lag_timed_out = false;
    PhaseResult repl = RunPhase(replica_reader, [&] {
      for (uint32_t w = kBaseWindows; w < kBaseWindows + kLiveWindows; ++w) {
        const WindowInfo& info = data.window(w);
        const uint64_t start = NowNs();
        primary.AppendWindow(data.database(), info.begin, info.end);
        const uint64_t acked = NowNs();
        repl_append_ns.push_back(acked - start);
        if (replica.WaitForWindows(w + 1, sync_wait) != w + 1) {
          lag_timed_out = true;
          return;
        }
        lag_ns.push_back(NowNs() - acked);
      }
    });
    if (lag_timed_out) {
      std::fprintf(stderr, "replication phase: lag wait timed out\n");
      return 1;
    }
    // Divergence oracle at equal window counts: the replica's knowledge
    // base must be byte-identical to the primary's.
    const bool diverged =
        EncodeKnowledgeBase(*replica_engine.Snapshot()) !=
        EncodeKnowledgeBase(*primary.Snapshot());
    const server::ReplicaEngine::Status status = replica.GetStatus();
    const size_t repl_queries = repl.latencies_ns.size();
    const double repl_qps =
        repl.seconds > 0 ? static_cast<double>(repl_queries) / repl.seconds
                         : 0;
    const double repl_p50 = PercentileUs(&repl.latencies_ns, 0.50);
    const double repl_p99 = PercentileUs(&repl.latencies_ns, 0.99);
    const double lag_p50 = PercentileUs(&lag_ns, 0.50);
    const double lag_p99 = PercentileUs(&lag_ns, 0.99);
    std::printf("%-16s %10zu queries %10.0f q/s  p50 %8.1fus  p99 %8.1fus"
                "  (lag p50 %.0fus, p99 %.0fus, diverged %d)\n",
                "replication", repl_queries, repl_qps, repl_p50, repl_p99,
                lag_p50, lag_p99, diverged ? 1 : 0);
    report.AddRow()
        .Set("phase", "replication")
        .Set("readers", static_cast<uint64_t>(kReaders))
        .Set("queries", static_cast<uint64_t>(repl_queries))
        .Set("qps", repl_qps)
        .Set("read_p50_us", repl_p50)
        .Set("read_p99_us", repl_p99)
        .Set("appends", static_cast<uint64_t>(repl_append_ns.size()))
        .Set("lag_p50_us", lag_p50)
        .Set("lag_p99_us", lag_p99)
        .Set("replica_windows",
             static_cast<uint64_t>(replica_engine.window_count()))
        .Set("primary_windows", static_cast<uint64_t>(primary.window_count()))
        .Set("records_applied", status.records_applied)
        .Set("reconnects", status.reconnects)
        .Set("diverged", static_cast<uint64_t>(diverged ? 1 : 0))
        .Set("peak_rss_bytes", bench::PeakRssBytes());
    replica.Stop();
    primary_server.Stop();
  }
  std::filesystem::remove_all(repl_wal);

  constexpr uint32_t kAllWindows =
      kBaseWindows + kLiveWindows + kCacheLiveWindows;
  if (engine.window_count() != kAllWindows ||
      engine.generation() != kAllWindows) {
    std::fprintf(stderr, "generation bookkeeping is off: %u windows, "
                 "generation %llu\n",
                 engine.window_count(),
                 static_cast<unsigned long long>(engine.generation()));
    return 1;
  }

  if (!ReportOpenScaling(&report, *engine.Snapshot())) return 1;

  report.SetMetricsJson(registry.SnapshotJson());
  return report.WriteFile() ? 0 : 1;
}

}  // namespace
}  // namespace tara

int main() { return tara::Run(); }
