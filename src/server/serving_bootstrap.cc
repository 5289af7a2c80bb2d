#include "server/serving_bootstrap.h"

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>

#include "core/kb_blocks.h"
#include "core/kb_open.h"
#include "datagen/quest_generator.h"
#include "obs/metrics.h"
#include "server/replica.h"
#include "server/tara_server.h"
#include "txdb/evolving_database.h"

namespace tara::server {

Expected<TaraEngine, std::string> BootstrapEngine(
    const EngineBootstrap& bootstrap) {
  if (!bootstrap.loaddir.empty()) {
    OpenOptions open;
    open.kb_dir = bootstrap.loaddir;
    open.mode = bootstrap.mmap ? OpenMode::kMapped : OpenMode::kEager;
    open.verify = bootstrap.verify_hashes ? OpenVerify::kHashes
                                          : OpenVerify::kNone;
    // With a WAL configured, recovery subsumes loading: the checkpoint
    // directory (if any) plus the replayed log tail, log left attached.
    if (!bootstrap.wal_dir.empty() &&
        (WalExists(bootstrap.wal_dir) ||
         KnowledgeBaseBlocksDirExists(bootstrap.loaddir))) {
      open.wal_dir = bootstrap.wal_dir;
    }
    open.metrics = bootstrap.metrics;
    open.query_cache_bytes = bootstrap.cache_bytes;
    Expected<TaraEngine, LoadError> loaded = OpenKnowledgeBase(open);
    if (!loaded.has_value()) {
      std::ostringstream message;
      message << "cannot load " << bootstrap.loaddir << ": "
              << loaded.error();
      return message.str();
    }
    return std::move(loaded).value();
  }
  if (bootstrap.windows == 0) {
    return std::string("need at least one window (--windows)");
  }
  QuestGenerator::Params params;
  params.num_transactions = bootstrap.quest_transactions;
  params.num_items = bootstrap.quest_items;
  params.num_patterns = bootstrap.quest_items / 3 + 1;
  params.avg_transaction_len = 9;
  params.seed = 11;
  const TransactionDatabase db = QuestGenerator(params).Generate();
  const EvolvingDatabase data =
      EvolvingDatabase::PartitionIntoBatches(db, bootstrap.windows);
  TaraEngine::Options options;
  options.min_support_floor = bootstrap.support_floor;
  options.min_confidence_floor = bootstrap.confidence_floor;
  options.max_itemset_size = 5;
  options.build_content_index = true;
  options.parallelism = 0;
  options.metrics = bootstrap.metrics;
  options.query_cache_bytes = bootstrap.cache_bytes;
  if (const auto problem = options.Validate()) return *problem;
  TaraEngine engine(options);
  engine.BuildAll(data);
  if (!bootstrap.wal_dir.empty()) {
    // Attach AFTER BuildAll: the Quest base is deterministic (same seed,
    // same params on every start), so the log only needs to carry — and
    // on restart replay — the windows appended live on top of it.
    const auto replay = engine.AttachWal(bootstrap.wal_dir);
    if (!replay.has_value()) {
      std::ostringstream message;
      message << "cannot attach WAL " << bootstrap.wal_dir << ": "
              << replay.error();
      return message.str();
    }
  }
  return engine;
}

bool WritePortFile(const std::string& path, uint16_t port) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const bool ok = std::fprintf(file, "%u\n", port) > 0;
  return std::fclose(file) == 0 && ok;
}

namespace {

std::atomic<bool> g_serve_stop{false};

void HandleServeSignal(int) { g_serve_stop.store(true); }

}  // namespace

int RunServeMain(int argc, char** argv, const char* usage_prefix) {
  const auto usage = [usage_prefix]() -> int {
    std::fprintf(stderr,
                 "usage: %s HOST:PORT [--loaddir DIR] [--wal DIR] [--mmap] "
                 "[--verify] [--quest N ITEMS] "
                 "[--windows K] [--floor S C] [--cache BYTES] [--workers N] "
                 "[--queue N] [--port-file FILE] "
                 "[--replicate-from HOST:PORT]\n",
                 usage_prefix);
    return 2;
  };
  if (argc < 1) return usage();

  ServerOptions server_options;
  if (!SplitHostPort(argv[0], &server_options.host, &server_options.port)) {
    std::fprintf(stderr, "%s: bad HOST:PORT: %s\n", usage_prefix, argv[0]);
    return 2;
  }

  EngineBootstrap bootstrap;
  std::string port_file;
  std::string replicate_from;
  bool bad_flag = false;
  for (int i = 1; i < argc && !bad_flag; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs %s\n", usage_prefix, arg.c_str(),
                     what);
        bad_flag = true;
        return "";
      }
      return argv[++i];
    };
    if (arg == "--loaddir") {
      bootstrap.loaddir = next("DIR");
    } else if (arg == "--wal") {
      bootstrap.wal_dir = next("DIR");
    } else if (arg == "--mmap") {
      bootstrap.mmap = true;
    } else if (arg == "--verify") {
      bootstrap.verify_hashes = true;
    } else if (arg == "--quest") {
      bootstrap.quest_transactions =
          static_cast<uint32_t>(std::strtoul(next("N"), nullptr, 10));
      bootstrap.quest_items =
          static_cast<uint32_t>(std::strtoul(next("ITEMS"), nullptr, 10));
    } else if (arg == "--windows") {
      bootstrap.windows =
          static_cast<uint32_t>(std::strtoul(next("K"), nullptr, 10));
    } else if (arg == "--floor") {
      bootstrap.support_floor = std::strtod(next("S"), nullptr);
      bootstrap.confidence_floor = std::strtod(next("C"), nullptr);
    } else if (arg == "--cache") {
      bootstrap.cache_bytes = std::strtoull(next("BYTES"), nullptr, 10);
    } else if (arg == "--workers") {
      server_options.max_concurrent_queries =
          static_cast<uint32_t>(std::strtoul(next("N"), nullptr, 10));
    } else if (arg == "--queue") {
      server_options.max_queued_queries =
          static_cast<uint32_t>(std::strtoul(next("N"), nullptr, 10));
    } else if (arg == "--port-file") {
      port_file = next("FILE");
    } else if (arg == "--replicate-from") {
      replicate_from = next("HOST:PORT");
    } else {
      return usage();
    }
  }
  if (bad_flag) return 2;

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  bootstrap.metrics = &metrics;
  server_options.metrics = &metrics;

  // The serving engine: either this process's own (built or loaded), or
  // a hot-standby follower of another primary (--replicate-from), served
  // read-only while its tail thread replays the primary's stream.
  std::optional<Expected<TaraEngine, std::string>> owned;
  std::unique_ptr<ReplicaEngine> replica;
  TaraEngine* serving_engine = nullptr;
  if (!replicate_from.empty()) {
    ReplicaOptions replica_options;
    if (!SplitHostPort(replicate_from, &replica_options.primary_host,
                       &replica_options.primary_port)) {
      std::fprintf(stderr, "%s: bad --replicate-from HOST:PORT: %s\n",
                   usage_prefix, replicate_from.c_str());
      return 2;
    }
    replica_options.kb_dir = bootstrap.loaddir;
    replica_options.metrics = &metrics;
    replica_options.query_cache_bytes = bootstrap.cache_bytes;
    replica = std::make_unique<ReplicaEngine>(replica_options);
    if (const auto problem = replica->Start()) {
      std::fprintf(stderr, "%s: %s\n", usage_prefix, problem->c_str());
      return 1;
    }
    serving_engine = replica->engine();
    server_options.read_only = true;
    std::fprintf(stderr,
                 "%s: replicating from %s (%u windows at subscribe)\n",
                 usage_prefix, replicate_from.c_str(),
                 serving_engine->window_count());
  } else {
    owned.emplace(BootstrapEngine(bootstrap));
    Expected<TaraEngine, std::string>& engine = *owned;
    if (!engine.has_value()) {
      std::fprintf(stderr, "%s: %s\n", usage_prefix, engine.error().c_str());
      return 1;
    }
    if (engine->fully_materialized()) {
      std::fprintf(stderr,
                   "%s: knowledge base ready (%u windows, %zu rules%s)\n",
                   usage_prefix, engine->window_count(),
                   engine->Snapshot()->catalog().size(),
                   engine->wal_attached() ? ", WAL attached" : "");
    } else {
      // Mapped open: don't force materialization just for a log line.
      std::fprintf(stderr,
                   "%s: knowledge base mapped (%u windows, decoded on "
                   "demand)\n",
                   usage_prefix, engine->window_count());
    }
    serving_engine = &engine.value();
  }

  TaraServer server(serving_engine, server_options);
  if (const auto problem = server.Start()) {
    std::fprintf(stderr, "%s: %s\n", usage_prefix, problem->c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: listening on %s:%u\n", usage_prefix,
               server_options.host.c_str(), server.port());
  if (!port_file.empty() && !WritePortFile(port_file, server.port())) {
    std::fprintf(stderr, "%s: cannot write %s\n", usage_prefix,
                 port_file.c_str());
    server.Stop();
    return 1;
  }

  g_serve_stop.store(false);
  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (!g_serve_stop.load()) usleep(100 * 1000);

  std::fprintf(stderr, "%s: shutting down\n", usage_prefix);
  server.Stop();
  if (replica != nullptr) replica->Stop();
  return 0;
}

}  // namespace tara::server
