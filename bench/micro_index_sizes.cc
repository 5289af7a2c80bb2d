// Companion to Figure 12: approximate in-memory footprint of the EPS
// stable-region indexes (plain and TARA-S content-indexed variants) and
// the per-window location/region counts, per dataset.

#include <cstdio>
#include <memory>

#include "bench/bench_datasets.h"
#include "core/tara_engine.h"

namespace tara::bench {
namespace {

void Run() {
  std::printf("=== EPS index footprint (companion to Figure 12) ===\n");
  std::printf("%-10s | %10s %10s %12s | %12s %14s\n", "dataset", "locations",
              "regions", "eps_KB", "eps_s_KB", "archive_KB");
  for (BenchDataset& d : MakeAllDatasets()) {
    TaraEngine::Options options;
    options.min_support_floor = d.support_floor;
    options.min_confidence_floor = d.confidence_floor;
    options.max_itemset_size = d.max_itemset_size;
    TaraEngine engine(options);
    engine.BuildAll(d.data);

    options.build_content_index = true;
    TaraEngine engine_s(options);
    engine_s.BuildAll(d.data);

    const std::shared_ptr<const KnowledgeBaseSnapshot> kb = engine.Snapshot();
    size_t locations = 0, regions = 0;
    for (WindowId w = 0; w < kb->window_count(); ++w) {
      const WindowIndex& index = kb->window_index(w);
      locations += index.location_count();
      regions += index.region_count();
    }
    std::printf("%-10s | %10zu %10zu %12.1f | %12.1f %14.1f\n",
                d.name.c_str(), locations, regions,
                kb->IndexBytes() / 1024.0,
                engine_s.Snapshot()->IndexBytes() / 1024.0,
                kb->archive().payload_bytes() / 1024.0);
  }
}

}  // namespace
}  // namespace tara::bench

int main() {
  tara::bench::Run();
  return 0;
}
