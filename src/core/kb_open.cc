#include "core/kb_open.h"

#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "common/thread_pool.h"
#include "core/kb_blocks.h"

namespace tara {
namespace {

/// The manifest of the retired one-file-per-window directory format
/// (TARAKB2), named only to refuse it with a useful error.
constexpr char kLegacyManifestFile[] = "manifest.tarakb";

/// `serialized` (the options a manifest or WAL header carries) with the
/// runtime knobs of `options` applied.
KbOptions WithRuntimeKnobs(KbOptions serialized, const OpenOptions& options) {
  serialized.metrics = options.metrics;
  serialized.parallelism = options.parallelism;
  serialized.query_cache_bytes = options.query_cache_bytes;
  return serialized;
}

/// Replays and attaches the WAL in options.wal_dir, when one is asked for.
Expected<TaraEngine, LoadError> ReplayWal(TaraEngine engine,
                                          const OpenOptions& options) {
  if (options.wal_dir.empty()) return engine;
  auto replayed = engine.AttachWal(options.wal_dir);
  if (!replayed.has_value()) return replayed.error();
  if (options.replay_stats != nullptr) *options.replay_stats = *replayed;
  return engine;
}

}  // namespace

Expected<TaraEngine, LoadError> OpenKnowledgeBase(const OpenOptions& options) {
  if (!KnowledgeBaseBlocksDirExists(options.kb_dir)) {
    std::error_code ec;
    if (std::filesystem::exists(
            std::filesystem::path(options.kb_dir) / kLegacyManifestFile, ec)) {
      return LoadError{
          LoadError::Code::kBadVersion,
          options.kb_dir +
              " holds a TARAKB2 directory (manifest.tarakb), a format this "
              "build no longer reads; convert it to TARAKB3 with `tara_cli "
              "db split` from an earlier build"};
    }
    if (options.wal_dir.empty()) {
      return LoadError{LoadError::Code::kIoError,
                       "no knowledge base in " + options.kb_dir + " (no " +
                           KnowledgeBaseBlocksManifestFileName() + ")"};
    }
    // No checkpoint yet: the crash happened before the first save. The
    // WAL header carries the construction options, so the whole engine
    // rebuilds from the log alone.
    auto contents = ReadWal(options.wal_dir);
    if (!contents.has_value()) return contents.error();
    return ReplayWal(TaraEngine(WithRuntimeKnobs(contents->options, options)),
                     options);
  }

  auto mapped = MappedKb::Open(options.kb_dir);
  if (!mapped.has_value()) return mapped.error();
  if (options.verify == OpenVerify::kHashes) {
    const uint32_t parallelism = options.parallelism == 0
                                     ? std::thread::hardware_concurrency()
                                     : options.parallelism;
    std::unique_ptr<ThreadPool> pool;
    if (parallelism > 1 && mapped->manifest().blocks.size() > 1) {
      pool = std::make_unique<ThreadPool>(parallelism);
    }
    if (auto error = mapped->VerifyHashes(pool.get())) return *error;
  }

  const KbBlocksManifest& manifest = mapped->manifest();
  KbOptions serialized;
  serialized.min_support_floor = manifest.min_support_floor;
  serialized.min_confidence_floor = manifest.min_confidence_floor;
  serialized.max_itemset_size =
      static_cast<uint32_t>(manifest.max_itemset_size);
  serialized.build_content_index = manifest.build_content_index;
  TaraEngine engine(WithRuntimeKnobs(serialized, options));

  // WAL replay appends windows, which requires the full catalog — a
  // mapped open with recovery materializes everything up front.
  const bool eager =
      options.mode == OpenMode::kEager || !options.wal_dir.empty();
  if (auto error = engine.AttachMappedKb(
          std::make_shared<const MappedKb>(std::move(mapped.value())),
          eager)) {
    return *error;
  }
  return ReplayWal(std::move(engine), options);
}

}  // namespace tara
