// Reproduces Figure 12: size of the pregenerated information — the H-Mine
// itemset store, the TAR Archive, and the uncompressed per-rule parameter
// values — for each dataset.
//
// Expected shape (paper): the TAR Archive is larger than the H-Mine index
// (TARA pregenerates rules, not just itemsets) but compresses far below
// the uncompressed rule parameter values.

#include <cstdio>
#include <memory>

#include "baselines/hmine_baseline.h"
#include "bench/bench_datasets.h"
#include "core/tara_engine.h"

namespace tara::bench {
namespace {

/// Width of one raw archive record: window id (4) + rule count (8) +
/// antecedent count (8).
constexpr size_t kRawRecordBytes = 20;

void Run() {
  std::printf("=== Figure 12: size of the pregenerated information ===\n");
  std::printf("%-10s | %14s %14s | %14s %14s | %16s %12s\n", "dataset",
              "hmine_items", "hmine_KB", "tar_entries", "tar_KB",
              "uncompressed_KB", "ratio");
  for (BenchDataset& d : MakeAllDatasets()) {
    TaraEngine::Options options;
    options.min_support_floor = d.support_floor;
    options.min_confidence_floor = d.confidence_floor;
    options.max_itemset_size = d.max_itemset_size;
    TaraEngine engine(options);
    engine.BuildAll(d.data);

    HMineBaseline hmine(d.support_floor, d.max_itemset_size);
    hmine.Build(d.data);

    const std::shared_ptr<const KnowledgeBaseSnapshot> kb = engine.Snapshot();
    const TarArchive& archive = kb->archive();
    const size_t tar_bytes = archive.payload_bytes();
    const size_t raw_bytes = archive.entry_count() * kRawRecordBytes;
    std::printf("%-10s | %14zu %14.1f | %14zu %14.1f | %16.1f %11.2fx\n",
                d.name.c_str(), hmine.StoredItemsetCount(),
                hmine.ApproximateBytes() / 1024.0,
                archive.entry_count(), tar_bytes / 1024.0,
                raw_bytes / 1024.0,
                tar_bytes > 0 ? static_cast<double>(raw_bytes) / tar_bytes
                              : 0.0);
  }
  std::printf("\n(ratio = uncompressed / TAR Archive; EPS index bytes are "
              "reported by micro_index_sizes)\n");
}

}  // namespace
}  // namespace tara::bench

int main() {
  tara::bench::Run();
  return 0;
}
