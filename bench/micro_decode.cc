// Archive-decode and roll-up microbench: prices the archive's one decoder
// and the roll-up built on its window axis.
//
// Part 1 (decode row): a TarArchive::VisitEntries sweep's throughput (MB/s
// over payload bytes) over every rule of a stable-rule archive — gap 1 and
// small count wobble, so almost every varint is one byte: the shape the
// archive's one-test fast path for three one-byte varints targets.
//
// Part 2 (rollup rows): roll-up p50 latency, the linear reference of
// tests/archive_feed.h (decode the series into a reused vector,
// binary-search each window) vs TarArchive::RollUp (window-axis prefix sums
// plus one streaming pass over the rule's series), over the all-windows
// set and a sparse jittered set, with a built-in divergence check (the two
// must produce bit-identical bounds). CI asserts the archive's roll-up
// beats the reference on the all-windows set and stays within 10 us of it
// on the sparse set.
//
// Part 3 (codec rows): the result codec every served answer passes
// through, in MB/s of frame bytes, over two fixed-seed answers — a
// trajectory answer of 2,000 points and a list of 5,000 rule ids:
// EncodeResultFrame (the one exact-size writer, run once per answer the
// server sends) and DecodeResultPayload (the client's decode). CI asserts
// the trajectory encode runs at least 0.75x as fast as its decode.
//
// Writes BENCH_decode.json (schema of bench_report.h).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_report.h"
#include "common/rng.h"
#include "core/tar_archive.h"
#include "core/wire_format.h"
#include "tests/archive_feed.h"

namespace tara {
namespace {

constexpr uint32_t kWindows = 4096;
constexpr uint32_t kRules = 64;
constexpr uint64_t kWindowSize = 100000;
/// Every window's size and floors.
constexpr WindowTerms kTerms{kWindowSize, 50, 0.1};
constexpr int kDecodeReps = 100;
constexpr int kRollUpReps = 400;
constexpr int kCodecReps = 200;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double PercentileUs(std::vector<uint64_t>* ns, double p) {
  if (ns->empty()) return 0;
  std::sort(ns->begin(), ns->end());
  const size_t index =
      std::min(ns->size() - 1,
               static_cast<size_t>(p * static_cast<double>(ns->size())));
  return static_cast<double>((*ns)[index]) / 1000.0;
}

/// A stable-rule archive: every rule in every window, counts wobbling by
/// less than 16.
TarArchive StableArchive() {
  Rng rng(7);
  std::vector<std::vector<WindowIndex::Entry>> entries(kWindows);
  std::vector<TarArchive::Window> windows;
  for (WindowId w = 0; w < kWindows; ++w) {
    for (RuleId r = 0; r < kRules; ++r) {
      const uint64_t rule_count = 500 + r + rng.NextBounded(16);
      const uint64_t ant_count = rule_count + rng.NextBounded(16);
      entries[w].push_back({r, rule_count, ant_count});
    }
    windows.push_back({kTerms.size, kTerms.floor_count,
                       kTerms.confidence_floor, entries[w]});
  }
  return TarArchive().Appended(windows);
}

/// A trajectory answer: 100 rules over a 20-window horizon.
QueryResult TrajectoryAnswer() {
  Rng rng(11);
  TrajectoryQueryResult answer;
  for (RuleId r = 0; r < 100; ++r) {
    answer.rules.push_back(r * 8 + static_cast<RuleId>(rng.NextBounded(8)));
    for (WindowId w = 0; w < 20; ++w) {
      TrajectoryPoint point;
      point.window = w;
      point.present = rng.NextBool(0.8);
      if (point.present) {
        point.support = 0.01 + 0.1 * rng.NextDouble();
        point.confidence = 0.3 + 0.6 * rng.NextDouble();
      }
      answer.points.push_back(point);
    }
    answer.offsets.push_back(static_cast<uint32_t>(answer.points.size()));
  }
  return answer;
}

/// A Q1 answer: 5,000 ascending rule ids out of a catalog of about
/// 10,000, so most ids take two varint bytes.
QueryResult RuleListAnswer() {
  Rng rng(13);
  std::vector<RuleId> rules;
  RuleId id = 0;
  for (int i = 0; i < 5000; ++i) {
    id += 1 + static_cast<RuleId>(rng.NextBounded(3));
    rules.push_back(id);
  }
  return rules;
}

}  // namespace
}  // namespace tara

int main() {
  using namespace tara;

  const TarArchive archive = StableArchive();
  std::printf("archive: %u windows x %u rules, %zu payload bytes\n", kWindows,
              kRules, archive.payload_bytes());

  bench::BenchReport report("decode");

  // --- Part 1: VisitEntries throughput ------------------------------------
  uint64_t best_ns = UINT64_MAX;
  size_t entries = 0;
  uint64_t count_sum = 0;  // read once the sweep ends, so it is not elided
  for (int rep = 0; rep < kDecodeReps; ++rep) {
    entries = 0;
    const uint64_t start = NowNs();
    for (RuleId r = 0; r < kRules; ++r) {
      archive.VisitEntries(r, [&](const ArchiveEntry& e) {
        ++entries;
        count_sum += e.rule_count + e.antecedent_count;
        return true;
      });
    }
    best_ns = std::min(best_ns, NowNs() - start);
  }
  const double visit_mbps = static_cast<double>(archive.payload_bytes()) *
                            1000.0 / static_cast<double>(best_ns);
  std::printf("visit_entries %8.1f MB/s  (%zu entries/pass, sum %llu)\n",
              visit_mbps, entries,
              static_cast<unsigned long long>(count_sum));
  report.AddRow()
      .Set("row", "decode")
      .Set("mb_per_s", visit_mbps)
      .Set("entries_per_pass", static_cast<uint64_t>(entries))
      .Set("peak_rss_bytes", bench::PeakRssBytes());

  // --- Part 2: roll-up latency, linear reference vs archive --------------
  const std::vector<WindowTerms> terms(kWindows, kTerms);
  std::vector<ArchiveEntry> scratch;
  std::vector<WindowId> all_windows(kWindows);
  for (WindowId w = 0; w < kWindows; ++w) all_windows[w] = w;
  Rng rng(99);
  std::vector<WindowId> sparse;
  for (WindowId w = 0; w < kWindows; w += 1 + rng.NextBounded(15)) {
    sparse.push_back(w);
  }

  struct SetCase {
    const char* name;
    const std::vector<WindowId>* windows;
  };
  const SetCase cases[] = {{"all_windows", &all_windows},
                           {"sparse_jitter", &sparse}};
  for (const SetCase& c : cases) {
    std::vector<uint64_t> linear_ns, archive_ns;
    bool diverged = false;
    for (int rep = 0; rep < kRollUpReps; ++rep) {
      const RuleId rule = static_cast<RuleId>(rep % kRules);
      uint64_t start = NowNs();
      const RollUpBound linear =
          LinearRollUp(archive, rule, *c.windows, terms, &scratch);
      linear_ns.push_back(NowNs() - start);
      start = NowNs();
      const RollUpBound served = archive.RollUp(rule, *c.windows);
      archive_ns.push_back(NowNs() - start);
      diverged |= linear.support_lo != served.support_lo ||
                  linear.support_hi != served.support_hi ||
                  linear.confidence_lo != served.confidence_lo ||
                  linear.confidence_hi != served.confidence_hi ||
                  linear.missing_windows != served.missing_windows;
    }
    if (diverged) {
      std::fprintf(stderr, "archive/linear divergence on %s\n", c.name);
      return 1;
    }
    const double linear_p50 = PercentileUs(&linear_ns, 0.5);
    const double archive_p50 = PercentileUs(&archive_ns, 0.5);
    std::printf("rollup %-13s linear p50 %9.2f us | archive p50 %9.2f us\n",
                c.name, linear_p50, archive_p50);
    report.AddRow()
        .Set("row", "rollup")
        .Set("window_set", c.name)
        .Set("set_size", static_cast<uint64_t>(c.windows->size()))
        .Set("reference_p50_us", linear_p50)
        .Set("archive_p50_us", archive_p50);
  }

  // --- Part 3: result codec throughput -----------------------------------
  struct CodecCase {
    const char* name;
    QueryKind kind;
    QueryResult answer;
  };
  const CodecCase codecs[] = {
      {"trajectory", QueryKind::kTrajectory, TrajectoryAnswer()},
      {"rule_list", QueryKind::kMineWindow, RuleListAnswer()},
  };
  for (const CodecCase& c : codecs) {
    std::string frame;
    uint64_t encode_ns = UINT64_MAX;
    for (int rep = 0; rep < kCodecReps; ++rep) {
      const uint64_t start = NowNs();
      frame = EncodeResultFrame(c.kind, c.answer);
      encode_ns = std::min(encode_ns, NowNs() - start);
    }
    const std::string_view payload =
        std::string_view(frame).substr(kWireHeaderBytes);
    uint64_t decode_ns = UINT64_MAX;
    for (int rep = 0; rep < kCodecReps; ++rep) {
      const uint64_t start = NowNs();
      const auto decoded = DecodeResultPayload(payload);
      decode_ns = std::min(decode_ns, NowNs() - start);
      if (!decoded.has_value() ||
          EncodeResultFrame(c.kind, decoded->second) != frame) {
        std::fprintf(stderr, "codec round trip diverged on %s\n", c.name);
        return 1;
      }
    }
    const double bytes = static_cast<double>(frame.size());
    const double encode_mbps = bytes * 1000.0 / static_cast<double>(encode_ns);
    const double decode_mbps = bytes * 1000.0 / static_cast<double>(decode_ns);
    std::printf("codec %-10s %7zu B  encode %8.1f MB/s | decode %8.1f MB/s\n",
                c.name, frame.size(), encode_mbps, decode_mbps);
    report.AddRow()
        .Set("row", "codec")
        .Set("answer", c.name)
        .Set("frame_bytes", static_cast<uint64_t>(frame.size()))
        .Set("encode_mb_per_s", encode_mbps)
        .Set("decode_mb_per_s", decode_mbps);
  }

  return report.WriteFile() ? 0 : 1;
}
