#include "bench/q1_runner.h"

#include <cstdio>
#include <variant>
#include <vector>

#include "baselines/dctar.h"
#include "baselines/hmine_baseline.h"
#include "baselines/paras_baseline.h"
#include "common/stopwatch.h"
#include "core/query_request.h"
#include "core/tara_engine.h"
#include "obs/metrics.h"

namespace tara::bench {
namespace {

/// Times `fn` by running it `reps` times and returning mean microseconds.
template <typename Fn>
double TimeMicros(int reps, Fn&& fn) {
  Stopwatch timer;
  for (int i = 0; i < reps; ++i) fn();
  return timer.ElapsedMicros() / reps;
}

/// Index-based systems answer in micro/milliseconds; average over several
/// runs. Scan-based systems take seconds; run once.
constexpr int kFastReps = 20;
constexpr int kSlowReps = 1;

struct Systems {
  TaraEngine tara;
  TaraEngine tara_s;
  HMineBaseline hmine;
  ParasBaseline paras;
  DctarBaseline dctar;

  explicit Systems(const BenchDataset& d)
      : tara(MakeOptions(d, false)),
        tara_s(MakeOptions(d, true)),
        hmine(d.support_floor, d.max_itemset_size),
        paras(d.support_floor, d.confidence_floor, d.max_itemset_size),
        dctar(&d.data, d.max_itemset_size) {}

  static TaraEngine::Options MakeOptions(const BenchDataset& d,
                                         bool content) {
    TaraEngine::Options options;
    options.min_support_floor = d.support_floor;
    options.min_confidence_floor = d.confidence_floor;
    options.max_itemset_size = d.max_itemset_size;
    options.build_content_index = content;
    // Benchmarked queries feed the process registry, so harnesses can dump
    // per-kind latency percentiles alongside the sweep tables.
    options.metrics = &obs::MetricsRegistry::Global();
    return options;
  }

  void Build(const BenchDataset& d) {
    tara.BuildAll(d.data);
    tara_s.BuildAll(d.data);
    hmine.Build(d.data);
    paras.Build(&d.data);
  }
};

std::vector<WindowId> Horizon(const BenchDataset& d) {
  std::vector<WindowId> horizon;
  const uint32_t n = d.data.window_count();
  const uint32_t first = n >= 4 ? n - 4 : 0;
  for (WindowId w = first; w < n; ++w) horizon.push_back(w);
  return horizon;
}

}  // namespace

void RunQ1Experiment(BenchDataset& d, Vary vary, BenchReport* report) {
  std::printf("\n--- dataset %s (Q1: trajectory + recommendation; anchor = "
              "newest window, horizon = %s4 windows) ---\n",
              d.name.c_str(), d.data.window_count() >= 4 ? "last " : "");
  Systems systems(d);
  systems.Build(d);

  const WindowId anchor = d.data.window_count() - 1;
  const std::vector<WindowId> horizon = Horizon(d);
  const std::vector<double>& sweep =
      vary == Vary::kSupport ? d.support_sweep : d.confidence_sweep;

  std::printf("%-10s %8s | %12s %12s %12s %12s %14s %14s\n",
              vary == Vary::kSupport ? "minsupp" : "minconf", "rules",
              "TARA(us)", "TARA-S(us)", "TARA-R(us)", "HMine(us)",
              "PARAS(us)", "DCTAR(us)");

  for (double value : sweep) {
    ParameterSetting setting;
    setting.min_support = vary == Vary::kSupport ? value : d.fixed_support;
    setting.min_confidence =
        vary == Vary::kConfidence ? value : d.fixed_confidence;

    // The TARA systems answer through Execute, the engine's instrumented
    // query path, so every timed row also lands in the per-kind latency
    // histograms.
    const QueryRequest trajectory =
        QueryRequest::Trajectory(anchor, setting, horizon);
    const QueryRequest content_view =
        QueryRequest::ContentView(anchor, setting);
    const QueryRequest region = QueryRequest::Region(anchor, setting);
    const size_t rules =
        std::get<std::vector<RuleId>>(
            systems.tara.Execute(QueryRequest::MineWindow(anchor, setting))
                .value())
            .size();

    // .value() inside the timed lambdas asserts the sweep stays above the
    // dataset floors — a silently rejected query would time the validation
    // path, not the query.
    const double tara_us = TimeMicros(kFastReps, [&] {
      systems.tara.Execute(trajectory).value();
    });
    const double tara_s_us = TimeMicros(kFastReps, [&] {
      systems.tara_s.Execute(trajectory).value();
      systems.tara_s.Execute(content_view).value();
    });
    const double tara_r_us = TimeMicros(kFastReps, [&] {
      systems.tara.Execute(region).value();
    });
    const double hmine_us = TimeMicros(kSlowReps, [&] {
      systems.hmine.TrajectoryQuery(anchor, setting, horizon);
    });
    const double paras_us = TimeMicros(kSlowReps, [&] {
      systems.paras.TrajectoryQuery(anchor, setting, horizon);
    });
    const double dctar_us = TimeMicros(kSlowReps, [&] {
      systems.dctar.TrajectoryQuery(anchor, setting, horizon);
    });

    std::printf("%-10.4f %8zu | %12.1f %12.1f %12.1f %12.1f %14.1f %14.1f\n",
                value, rules, tara_us, tara_s_us, tara_r_us, hmine_us,
                paras_us, dctar_us);
    if (report != nullptr) {
      report->AddRow()
          .Set("dataset", d.name)
          .Set("vary", vary == Vary::kSupport ? "support" : "confidence")
          .Set("value", value)
          .Set("rules", rules)
          .Set("tara_us", tara_us)
          .Set("tara_s_us", tara_s_us)
          .Set("tara_r_us", tara_r_us)
          .Set("hmine_us", hmine_us)
          .Set("paras_us", paras_us)
          .Set("dctar_us", dctar_us)
          .Set("peak_rss_bytes", PeakRssBytes());
    }
  }
}

void RunQ2Experiment(BenchDataset& d, Vary vary, BenchReport* report) {
  std::printf("\n--- dataset %s (Q2: ruleset comparison, exact match over 4 "
              "windows) ---\n",
              d.name.c_str());
  Systems systems(d);
  systems.Build(d);

  const std::vector<WindowId> windows = Horizon(d);
  const std::vector<double>& sweep =
      vary == Vary::kSupport ? d.support_sweep : d.confidence_sweep;

  ParameterSetting first;
  first.min_support = d.fixed_support;
  first.min_confidence = d.fixed_confidence;

  std::printf("%-10s %8s | %12s %12s %14s\n",
              vary == Vary::kSupport ? "minsupp2" : "minconf2", "diff",
              "TARA(us)", "HMine(us)", "DCTAR(us)");

  for (double value : sweep) {
    ParameterSetting second;
    second.min_support = vary == Vary::kSupport ? value : d.fixed_support;
    second.min_confidence =
        vary == Vary::kConfidence ? value : d.fixed_confidence;

    const QueryRequest compare =
        QueryRequest::Compare(first, second, windows, MatchMode::kExact);
    size_t diff_size = 0;
    const double tara_us = TimeMicros(kFastReps, [&] {
      const auto diff =
          std::get<RulesetDiff>(systems.tara.Execute(compare).value());
      diff_size = diff.only_first.size() + diff.only_second.size();
    });
    const double hmine_us = TimeMicros(kSlowReps, [&] {
      systems.hmine.CompareSettings(first, second, windows);
    });
    const double dctar_us = TimeMicros(kSlowReps, [&] {
      systems.dctar.CompareSettings(first, second, windows);
    });

    std::printf("%-10.4f %8zu | %12.1f %12.1f %14.1f\n", value, diff_size,
                tara_us, hmine_us, dctar_us);
    if (report != nullptr) {
      report->AddRow()
          .Set("dataset", d.name)
          .Set("vary", vary == Vary::kSupport ? "support" : "confidence")
          .Set("value", value)
          .Set("diff", diff_size)
          .Set("tara_us", tara_us)
          .Set("hmine_us", hmine_us)
          .Set("dctar_us", dctar_us)
          .Set("peak_rss_bytes", PeakRssBytes());
    }
  }
}

}  // namespace tara::bench
