// Figure 2: DNS lookup latency for the Table 1 CDN domains over three types
// of Internet connectivity.
//
// Regenerates the paper's five per-site bar groups. Each bar is the mean of
// the 8th-92nd percentile of the per-query lookup latencies ("Each bar is
// based on at least 12 tests, only including the results from the 8th- to
// the 92th-percentile"), with untrimmed min/max as the whiskers. The paper
// observes: cellular-mobile is substantially slower and more variable than
// wired-campus and wifi-home, across all five domains.
//
// Each (site, network) cell is one parallel-campaign job with a private
// MeasurementStudy seeded split_mix64(seed ^ cell_index) — the historical
// single-study version threaded one RNG through all fifteen cells, so every
// cell's numbers depended on the cells that ran before it. Output is merged
// in cell order and is byte-identical for any --workers value.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/study.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/strings.h"

using namespace mecdns;

namespace {

/// "Booking.com" + "wifi-home" -> "booking-com.wifi-home": a filename-safe
/// cell label for the per-cell trace/timeseries files.
std::string cell_slug(const std::string& website,
                      const std::string& network_class) {
  std::string out;
  for (const char c : website) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '-') {
      out += '-';
    }
  }
  return out + "." + network_class;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_fig2: Figure 2 DNS lookup latency bars");
  args.add_string("json-out", "BENCH_fig2.json",
                  "write per-bar summaries as JSON ('' disables)");
  args.add_string("trace-out", "",
                  "per-cell Chrome trace-event JSON (cell slug is inserted "
                  "before the extension)");
  args.add_string("metrics-out", "",
                  "write counters/gauges/histograms as JSON (merged across "
                  "cells)");
  args.add_string("timeseries-out", "",
                  "per-cell windowed-metrics JSON (cell slug is inserted "
                  "before the extension)");
  args.add_double("timeseries-window-ms", 500.0,
                  "sim-time window width for --timeseries-out");
  args.add_int("seed", 7,
               "campaign seed; each (site, network) cell runs with "
               "split_mix64(seed ^ cell_index)");
  args.add_int("workers", 0,
               "parallel campaign workers (0 = hardware concurrency, "
               "1 = serial); output is byte-identical for any value");
  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }
  const bool want_trace = !args.get_string("trace-out").empty();
  const bool want_metrics = !args.get_string("metrics-out").empty();
  const bool want_series = !args.get_string("timeseries-out").empty();

  std::printf("=== Table 1: tested CDN domain names ===\n");
  for (const auto& entry : workload::table1_domains()) {
    std::printf("  %-14s | %s\n", entry.website.c_str(),
                entry.cdn_domain.c_str());
  }

  // One job per (site, network) cell: a private study, observers and RNG.
  // Artifacts are serialized in-job; writes, merges and printing happen
  // below on this thread in cell order.
  struct JobOutput {
    core::MeasurementStudy::CellResult cell;
    std::string trace_json;
    std::string timeseries_json;
    obs::Registry metrics;
  };
  const auto& profiles = workload::figure3_profiles();
  const auto& classes = workload::network_classes();
  const std::size_t cell_count = profiles.size() * classes.size();
  const auto campaign_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const core::ParallelCampaign campaign(
      core::resolve_workers(args.get_int("workers")));
  const auto outcomes = campaign.run<JobOutput>(
      cell_count, [&](std::size_t index) {
        core::MeasurementStudy::Config config;
        config.queries_per_cell = 40;
        config.seed = core::job_seed(campaign_seed, index);
        core::MeasurementStudy study(config);
        obs::TraceSink trace(study.network().simulator());
        obs::Registry metrics;
        obs::TimeSeries timeseries(
            study.network().simulator(),
            simnet::SimTime::millis(args.get_double("timeseries-window-ms")));
        study.set_observers(want_trace ? &trace : nullptr,
                            want_metrics ? &metrics : nullptr);
        study.set_timeseries(want_series ? &timeseries : nullptr);

        JobOutput out;
        out.cell = study.run_cell(index / classes.size(),
                                  classes[index % classes.size()]);
        if (want_trace) out.trace_json = trace.to_chrome_trace();
        if (want_series) out.timeseries_json = timeseries.to_json();
        if (want_metrics) out.metrics = std::move(metrics);
        return out;
      });

  std::printf("\n=== Figure 2: DNS lookup latency (ms) ===\n");
  std::printf("%-14s %-18s %10s %8s %8s %8s\n", "website", "network",
              "bar(mean)", "min", "max", "samples");

  struct Bar {
    std::string website;
    std::string network;
    util::Summary trimmed;
  };
  std::vector<Bar> bars;
  double scale = 0.0;
  obs::Registry combined;
  double wired_mean = 0.0;
  for (std::size_t index = 0; index < outcomes.size(); ++index) {
    const auto& outcome = outcomes[index];
    if (!outcome.ok) {
      std::fprintf(stderr, "error: cell %zu failed: %s\n", index,
                   outcome.error.c_str());
      return 1;
    }
    const JobOutput& out = outcome.value;
    const auto& cell = out.cell;
    const std::string slug = cell_slug(cell.website, cell.network_class);
    if (want_trace) {
      const std::string path =
          util::with_slug(args.get_string("trace-out"), slug);
      if (!obs::write_text_file(path, out.trace_json)) {
        std::fprintf(stderr, "error: failed to write trace to %s\n",
                     path.c_str());
        return 1;
      }
    }
    if (want_series) {
      const std::string path =
          util::with_slug(args.get_string("timeseries-out"), slug);
      if (!obs::write_text_file(path, out.timeseries_json)) {
        std::fprintf(stderr, "error: failed to write timeseries to %s\n",
                     path.c_str());
        return 1;
      }
    }
    if (want_metrics) combined.merge(out.metrics);

    std::printf("%-14s %-18s %10.1f %8.1f %8.1f %8zu\n", cell.website.c_str(),
                cell.network_class.c_str(), cell.trimmed.mean,
                cell.trimmed.min, cell.trimmed.max,
                cell.latencies_ms.size());
    if (cell.network_class == workload::kWiredCampus) {
      wired_mean = cell.trimmed.mean;
    }
    if (cell.network_class == workload::kCellularMobile && wired_mean > 0.0) {
      std::printf("%-14s %-18s %9.1fx slower than wired\n", "", "-> cellular",
                  cell.trimmed.mean / wired_mean);
    }
    bars.push_back(Bar{cell.website, cell.network_class, cell.trimmed});
    scale = std::max(scale, cell.trimmed.max);
  }

  std::printf("\n%-34s 0 %s %.0f ms\n", "", std::string(38, '-').c_str(),
              scale);
  for (const Bar& bar : bars) {
    std::printf("%-14s %-18s |%s| %.1f\n", bar.website.c_str(),
                bar.network.c_str(),
                util::ascii_bar(bar.trimmed.mean, scale, 40).c_str(),
                bar.trimmed.mean);
  }
  std::printf(
      "\nexpected shape (paper): cellular-mobile bars are the tallest and "
      "most variable in every group\n");

  const std::string json_out = args.get_string("json-out");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig2_lookup_latency\",\n  %s,\n"
                 "  \"unit\": \"ms\",\n  \"scenarios\": [\n",
                 obs::provenance_json("fig2_lookup_latency", campaign_seed).c_str());
    for (std::size_t i = 0; i < bars.size(); ++i) {
      const Bar& bar = bars[i];
      const util::Summary& s = bar.trimmed;
      std::fprintf(
          f,
          "    {\"scenario\": \"%s/%s\", \"count\": %zu, \"mean\": %.3f, "
          "\"stddev\": %.3f, \"min\": %.3f, \"max\": %.3f, \"p50\": %.3f, "
          "\"p90\": %.3f, \"p99\": %.3f}%s\n",
          bar.website.c_str(), bar.network.c_str(), s.count, s.mean, s.stddev,
          s.min, s.max, s.p50, s.p90, s.p99,
          i + 1 < bars.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu scenarios to %s\n", bars.size(),
                 json_out.c_str());
  }
  if (want_metrics && !combined.write_json(args.get_string("metrics-out"))) {
    std::fprintf(stderr, "error: failed to write metrics to %s\n",
                 args.get_string("metrics-out").c_str());
    return 1;
  }
  return 0;
}
