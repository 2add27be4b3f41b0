// Figure 5: DNS lookup latency on the LTE testbed for different local
// resolvers and for MEC-CDN.
//
// Regenerates the paper's bar chart: six deployments, each bar split into
// the wireless (UE<->P-GW) segment and the DNS-query segment beyond the
// P-GW, with min/max whiskers. Prints Table 2 (ecosystem roles) as a
// preamble since the deployments are exactly the points in that ecosystem
// where a resolver can live.
//
// Paper reference values (ms): MEC/MEC 29.4, MEC/LAN 34.8, MEC/WAN 60.9,
// LAN L-DNS 114.6, Google 112.5, Cloudflare 285.7 — "up to 9x lower
// resolution latency". Shape, not absolute values, is the reproduction
// target.
#include <cstdio>
#include <string>
#include <vector>

#include "core/fig5.h"
#include "core/parallel.h"
#include "core/roles.h"
#include "core/throughput.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/strings.h"

using namespace mecdns;

int main(int argc, char** argv) {
  util::ArgParser args("bench_fig5: Figure 5 deployment latency bars");
  args.add_string("json-out", "BENCH_fig5.json",
                  "write per-deployment summaries as JSON ('' disables)");
  args.add_string("trace-out", "",
                  "per-deployment Chrome trace-event JSON (deployment slug "
                  "is inserted before the extension)");
  args.add_string("metrics-out", "",
                  "combined metrics JSON, names prefixed per deployment");
  args.add_string("timeseries-out", "",
                  "per-deployment windowed-metrics JSON (deployment slug is "
                  "inserted before the extension)");
  args.add_double("timeseries-window-ms", 500.0,
                  "sim-time window width for --timeseries-out");
  args.add_int("seed", 42,
               "campaign seed; each deployment runs with "
               "split_mix64(seed ^ deployment_index)");
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
  obs::Registry combined;

  std::printf("=== Table 2: entities and roles in MEC CDN ===\n");
  for (const auto& role : core::ecosystem_roles()) {
    std::printf("  %-18s | %s\n", role.entity.c_str(), role.role.c_str());
  }

  std::printf("\n=== Figure 5: DNS lookup latency on the LTE testbed ===\n");
  std::printf("%-24s %10s %12s %12s %8s %8s %s\n", "deployment", "mean(ms)",
              "wireless", "dns-query", "min", "max", "answers");

  struct Row {
    core::Fig5Deployment deployment;
    util::Summary summary;
    double wireless;
    double beyond;
    std::string answers;
  };
  // Each deployment is one campaign job: a private testbed (simulator,
  // network, RNG, observers), seeded independently of every other job.
  // Artifacts are serialized inside the job; all file writes, merges and
  // printing happen below in job-index order, so the bench's entire output
  // is byte-identical for any --workers value.
  struct JobOutput {
    Row row;
    std::string trace_json;
    std::string timeseries_json;
    obs::Registry metrics;
  };
  const auto& deployments = core::all_fig5_deployments();
  const auto campaign_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const core::ParallelCampaign campaign(
      core::resolve_workers(args.get_int("workers")));
  const auto outcomes = campaign.run<JobOutput>(
      deployments.size(), [&](std::size_t index) {
        const auto deployment = deployments[index];
        core::Fig5Testbed::Config config;
        config.deployment = deployment;
        config.seed = core::job_seed(campaign_seed, index);
        core::Fig5Testbed testbed(config);
        obs::TraceSink trace(testbed.network().simulator());
        obs::Registry metrics;
        obs::TimeSeries timeseries(
            testbed.simulator(),
            simnet::SimTime::millis(args.get_double("timeseries-window-ms")));
        testbed.set_observers(want_trace ? &trace : nullptr,
                              want_metrics ? &metrics : nullptr);
        testbed.set_timeseries(want_series ? &timeseries : nullptr);
        const core::SeriesResult result = testbed.measure(50);

        JobOutput out;
        if (want_trace) out.trace_json = trace.to_chrome_trace();
        if (want_series) out.timeseries_json = timeseries.to_json();
        if (want_metrics) {
          testbed.export_metrics(metrics);
          out.metrics = std::move(metrics);
        }
        Row& row = out.row;
        row.deployment = deployment;
        row.summary = result.totals().summarize();
        row.wireless = result.wireless().mean();
        row.beyond = result.beyond_pgw().mean();
        const double mec_share = result.answer_share(
            [&](simnet::Ipv4Address a) { return testbed.is_mec_cache(a); });
        const double cloud_share = result.answer_share(
            [&](simnet::Ipv4Address a) { return testbed.is_cloud_cache(a); });
        if (mec_share == 1.0) {
          row.answers = "all MEC caches";
        } else if (cloud_share == 1.0) {
          row.answers = "all cloud cache";
        } else {
          row.answers = util::fmt_fixed(100.0 * mec_share, 0) + "% MEC / " +
                        util::fmt_fixed(100.0 * cloud_share, 0) + "% cloud";
        }
        return out;
      });

  std::vector<Row> rows;
  double mec_mean = 0.0;
  double worst_mean = 0.0;
  for (std::size_t index = 0; index < outcomes.size(); ++index) {
    const auto& outcome = outcomes[index];
    const auto deployment = deployments[index];
    if (!outcome.ok) {
      std::fprintf(stderr, "error: deployment %s failed: %s\n",
                   core::fig5_slug(deployment).c_str(), outcome.error.c_str());
      return 1;
    }
    const JobOutput& out = outcome.value;
    if (want_trace) {
      const std::string path = util::with_slug(args.get_string("trace-out"),
                                               core::fig5_slug(deployment));
      if (!obs::write_text_file(path, out.trace_json)) {
        std::fprintf(stderr, "error: failed to write trace to %s\n",
                     path.c_str());
        return 1;
      }
    }
    if (want_series) {
      const std::string path = util::with_slug(
          args.get_string("timeseries-out"), core::fig5_slug(deployment));
      if (!obs::write_text_file(path, out.timeseries_json)) {
        std::fprintf(stderr, "error: failed to write timeseries to %s\n",
                     path.c_str());
        return 1;
      }
    }
    if (want_metrics) {
      combined.merge_prefixed(core::fig5_slug(deployment), out.metrics);
    }
    const Row& row = out.row;
    std::printf("%-24s %10.1f %12.1f %12.1f %8.1f %8.1f %s\n",
                core::to_string(deployment).c_str(), row.summary.mean,
                row.wireless, row.beyond, row.summary.min, row.summary.max,
                row.answers.c_str());
    if (deployment == core::Fig5Deployment::kMecLdnsMecCdns) {
      mec_mean = row.summary.mean;
    }
    if (row.summary.mean > worst_mean) worst_mean = row.summary.mean;
    rows.push_back(row);
  }

  std::printf("\n%-24s 0 %s %.0f ms\n", "", std::string(38, '-').c_str(),
              worst_mean);
  for (const Row& row : rows) {
    // Two segments, like the paper's stacked bars: wireless ('=') then the
    // DNS-query time beyond the P-GW ('#').
    std::string bar = util::ascii_bar(row.wireless, worst_mean, 40);
    const std::string full =
        util::ascii_bar(row.wireless + row.beyond, worst_mean, 40);
    for (std::size_t i = 0; i < bar.size(); ++i) {
      if (bar[i] == '#') {
        bar[i] = '=';
      } else if (full[i] == '#') {
        bar[i] = '#';
      }
    }
    std::printf("%-24s|%s| %.1f\n", core::to_string(row.deployment).c_str(),
                bar.c_str(), row.summary.mean);
  }
  std::printf("%-24s legend: '=' wireless (UE<->P-GW), '#' DNS query beyond "
              "the P-GW\n", "");

  if (mec_mean > 0.0) {
    std::printf(
        "\nMEC-CDN speedup vs worst non-MEC deployment: %.1fx (paper: up to "
        "9x)\n",
        worst_mean / mec_mean);
  }
  std::printf(
      "paper reference means (ms): 29.4 / 34.8 / 60.9 / 114.6 / 112.5 / "
      "285.7\n");

  const std::string json_out = args.get_string("json-out");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig5_deployments\",\n  %s,\n"
                 "  \"unit\": \"ms\",\n  \"scenarios\": [\n",
                 obs::provenance_json("fig5_deployments", campaign_seed).c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const util::Summary& s = row.summary;
      std::fprintf(
          f,
          "    {\"scenario\": \"%s\", \"count\": %zu, \"mean\": %.3f, "
          "\"stddev\": %.3f, \"min\": %.3f, \"max\": %.3f, \"p50\": %.3f, "
          "\"p90\": %.3f, \"p99\": %.3f, \"wireless_ms\": %.3f, "
          "\"beyond_pgw_ms\": %.3f, \"answers\": \"%s\"}%s\n",
          core::fig5_slug(row.deployment).c_str(), s.count, s.mean, s.stddev,
          s.min, s.max, s.p50, s.p90, s.p99, row.wireless, row.beyond,
          row.answers.c_str(), i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu scenarios to %s\n", rows.size(),
                 json_out.c_str());
  }
  if (want_metrics && !combined.write_json(args.get_string("metrics-out"))) {
    std::fprintf(stderr, "error: failed to write metrics to %s\n",
                 args.get_string("metrics-out").c_str());
    return 1;
  }
  return 0;
}
