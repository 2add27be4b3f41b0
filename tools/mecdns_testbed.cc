// mecdns_testbed — run the paper's experiments from the command line.
//
//   mecdns_testbed --experiment fig5 --deployment mec-mec --queries 50
//   mecdns_testbed --experiment fig5 --deployment google --csv
//   mecdns_testbed --experiment study --site 0 --network cellular-mobile
//   mecdns_testbed --experiment ecs --deployment mec-lan
//
// Prints a human-readable summary, or CSV rows (--csv) for plotting.
#include <cstdio>
#include <string>
#include <vector>

#include "core/fig5.h"
#include "core/parallel.h"
#include "core/study.h"
#include "core/throughput.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/args.h"
#include "util/strings.h"

using namespace mecdns;

namespace {

/// Writes the collected trace/metrics/timeseries files named by
/// --trace-out, --metrics-out and --timeseries-out (any may be empty =
/// disabled). Returns false if any requested file could not be written —
/// silently dropping telemetry a CI gate depends on is worse than failing.
bool write_observability(const util::ArgParser& args,
                         const obs::TraceSink& trace,
                         const obs::Registry& metrics,
                         const obs::TimeSeries* timeseries) {
  bool ok = true;
  const std::string trace_out = args.get_string("trace-out");
  if (!trace_out.empty()) {
    if (trace.write_chrome_trace(trace_out)) {
      std::fprintf(stderr, "wrote %zu spans to %s (load in chrome://tracing "
                   "or ui.perfetto.dev)\n", trace.size(), trace_out.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write trace to %s\n",
                   trace_out.c_str());
      ok = false;
    }
  }
  const std::string metrics_out = args.get_string("metrics-out");
  if (!metrics_out.empty()) {
    if (metrics.write_json(metrics_out)) {
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write metrics to %s\n",
                   metrics_out.c_str());
      ok = false;
    }
  }
  const std::string series_out = args.get_string("timeseries-out");
  if (!series_out.empty() && timeseries != nullptr) {
    if (timeseries->write_json(series_out)) {
      std::fprintf(stderr, "wrote %zu windows to %s\n",
                   timeseries->windows().size(), series_out.c_str());
    } else {
      std::fprintf(stderr, "error: failed to write timeseries to %s\n",
                   series_out.c_str());
      ok = false;
    }
  }
  return ok;
}

/// Applies the --trace-sample* flags to the sink. A rate of 1.0 leaves
/// sampling off entirely so the span stream is bit-identical to a plain
/// unsampled run.
void configure_sampling(const util::ArgParser& args, obs::TraceSink& trace) {
  const double rate = args.get_double("trace-sample");
  if (rate >= 1.0) return;
  obs::TraceSink::SamplingConfig sampling;
  sampling.head_rate = rate;
  sampling.seed = static_cast<std::uint64_t>(args.get_int("seed")) ^
                  static_cast<std::uint64_t>(args.get_int("trace-sample-seed"));
  sampling.keep_slower_than =
      simnet::SimTime::millis(args.get_double("trace-slow-keep-ms"));
  trace.set_sampling(sampling);
}

/// --experiment fig5 --deployment all: the whole six-deployment sweep as a
/// parallel campaign — one private testbed per deployment, seeded
/// split_mix64(seed ^ deployment_index), output merged in deployment order
/// (byte-identical for any --workers value).
int run_fig5_sweep(const util::ArgParser& args) {
  struct JobOutput {
    std::string summary_lines;  ///< the per-deployment stdout block
    std::string trace_json;
    std::string timeseries_json;
    obs::Registry metrics;
  };
  const auto& deployments = core::all_fig5_deployments();
  const bool want_trace = !args.get_string("trace-out").empty();
  const bool want_metrics = !args.get_string("metrics-out").empty();
  const bool want_series = !args.get_string("timeseries-out").empty();
  const bool csv = args.get_bool("csv");
  const auto queries = static_cast<std::size_t>(args.get_int("queries"));
  const auto campaign_seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const core::ParallelCampaign campaign(
      core::resolve_workers(args.get_int("workers")));
  const auto outcomes = campaign.run<JobOutput>(
      deployments.size(), [&](std::size_t index) {
        core::Fig5Testbed::Config config;
        config.deployment = deployments[index];
        config.seed = core::job_seed(campaign_seed, index);
        config.enable_ecs = args.get_bool("ecs");
        core::Fig5Testbed testbed(config);
        obs::TraceSink trace(testbed.network().simulator());
        obs::Registry metrics;
        obs::TimeSeries timeseries(
            testbed.simulator(),
            simnet::SimTime::millis(
                args.get_double("timeseries-window-ms")));
        if (want_trace) configure_sampling(args, trace);
        testbed.set_observers(want_trace ? &trace : nullptr,
                              want_metrics ? &metrics : nullptr);
        testbed.set_timeseries(want_series ? &timeseries : nullptr);
        const core::SeriesResult result = testbed.measure(queries);

        JobOutput out;
        if (want_trace) out.trace_json = trace.to_chrome_trace();
        if (want_series) out.timeseries_json = timeseries.to_json();
        if (want_metrics) {
          testbed.export_metrics(metrics);
          out.metrics = std::move(metrics);
        }
        char buf[256];
        if (csv) {
          for (std::size_t i = 0; i < result.samples.size(); ++i) {
            const auto& sample = result.samples[i];
            std::snprintf(buf, sizeof(buf), "%s,%zu,%.3f,%.3f,%.3f,%s\n",
                          core::fig5_slug(deployments[index]).c_str(), i,
                          sample.total_ms, sample.wireless_ms,
                          sample.beyond_pgw_ms,
                          sample.address.to_string().c_str());
            out.summary_lines += buf;
          }
          return out;
        }
        const util::Summary summary = result.totals().summarize();
        std::snprintf(buf, sizeof(buf),
                      "%s: mean %.1f ms (wireless %.1f + dns %.1f), min "
                      "%.1f, max %.1f, failures %zu\n",
                      core::to_string(config.deployment).c_str(),
                      summary.mean, result.wireless().mean(),
                      result.beyond_pgw().mean(), summary.min, summary.max,
                      result.failures());
        out.summary_lines += buf;
        const double mec_share = result.answer_share(
            [&](simnet::Ipv4Address a) { return testbed.is_mec_cache(a); });
        std::snprintf(buf, sizeof(buf), "answers from MEC caches: %.0f%%\n",
                      100.0 * mec_share);
        out.summary_lines += buf;
        return out;
      });

  if (csv) {
    std::printf("deployment,query,total_ms,wireless_ms,beyond_pgw_ms,answer\n");
  }
  obs::Registry combined;
  for (std::size_t index = 0; index < outcomes.size(); ++index) {
    const std::string slug = core::fig5_slug(deployments[index]);
    if (!outcomes[index].ok) {
      std::fprintf(stderr, "error: deployment %s failed: %s\n", slug.c_str(),
                   outcomes[index].error.c_str());
      return 1;
    }
    const JobOutput& out = outcomes[index].value;
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
    if (want_metrics) {
      // One combined file, names prefixed per deployment (the six runs
      // share metric names).
      combined.merge_prefixed(slug, out.metrics);
    }
    std::fputs(out.summary_lines.c_str(), stdout);
  }
  if (want_metrics && !combined.write_json(args.get_string("metrics-out"))) {
    std::fprintf(stderr, "error: failed to write metrics to %s\n",
                 args.get_string("metrics-out").c_str());
    return 1;
  }
  return 0;
}

util::Result<core::Fig5Deployment> parse_deployment(const std::string& text) {
  core::Fig5Deployment deployment;
  if (core::fig5_from_slug(text, deployment)) return deployment;
  return util::Err("unknown deployment '" + text +
                   "' (mec-mec|mec-lan|mec-wan|provider|google|cloudflare)");
}

int run_fig5(const util::ArgParser& args) {
  if (args.get_string("deployment") == "all") return run_fig5_sweep(args);
  const auto deployment = parse_deployment(args.get_string("deployment"));
  if (!deployment.ok()) {
    std::fprintf(stderr, "%s\n", deployment.error().message.c_str());
    return 2;
  }
  core::Fig5Testbed::Config config;
  config.deployment = deployment.value();
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.enable_ecs = args.get_bool("ecs");
  core::Fig5Testbed testbed(config);
  obs::TraceSink trace(testbed.network().simulator());
  obs::Registry metrics;
  obs::TimeSeries timeseries(
      testbed.simulator(),
      simnet::SimTime::millis(args.get_double("timeseries-window-ms")));
  const bool want_trace = !args.get_string("trace-out").empty();
  const bool want_metrics = !args.get_string("metrics-out").empty();
  const bool want_series = !args.get_string("timeseries-out").empty();
  if (want_trace) configure_sampling(args, trace);
  testbed.set_observers(want_trace ? &trace : nullptr,
                        want_metrics ? &metrics : nullptr);
  testbed.set_timeseries(want_series ? &timeseries : nullptr);
  const core::SeriesResult result =
      testbed.measure(static_cast<std::size_t>(args.get_int("queries")));
  if (want_metrics) testbed.export_metrics(metrics);
  if (!write_observability(args, trace, metrics, &timeseries)) return 1;

  if (args.get_bool("csv")) {
    std::printf("deployment,query,total_ms,wireless_ms,beyond_pgw_ms,answer\n");
    for (std::size_t i = 0; i < result.samples.size(); ++i) {
      const auto& sample = result.samples[i];
      std::printf("%s,%zu,%.3f,%.3f,%.3f,%s\n",
                  args.get_string("deployment").c_str(), i, sample.total_ms,
                  sample.wireless_ms, sample.beyond_pgw_ms,
                  sample.address.to_string().c_str());
    }
    return 0;
  }
  const util::Summary summary = result.totals().summarize();
  std::printf("%s: mean %.1f ms (wireless %.1f + dns %.1f), min %.1f, max "
              "%.1f, failures %zu\n",
              core::to_string(config.deployment).c_str(), summary.mean,
              result.wireless().mean(), result.beyond_pgw().mean(),
              summary.min, summary.max, result.failures());
  const double mec_share = result.answer_share(
      [&](simnet::Ipv4Address a) { return testbed.is_mec_cache(a); });
  std::printf("answers from MEC caches: %.0f%%\n", 100.0 * mec_share);
  return 0;
}

int run_study(const util::ArgParser& args) {
  core::MeasurementStudy::Config config;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.queries_per_cell = static_cast<std::size_t>(args.get_int("queries"));
  core::MeasurementStudy study(config);
  const auto site = static_cast<std::size_t>(args.get_int("site"));
  if (site >= workload::figure3_profiles().size()) {
    std::fprintf(stderr, "site index out of range (0-%zu)\n",
                 workload::figure3_profiles().size() - 1);
    return 2;
  }
  obs::TraceSink trace(study.network().simulator());
  obs::Registry metrics;
  obs::TimeSeries timeseries(
      study.network().simulator(),
      simnet::SimTime::millis(args.get_double("timeseries-window-ms")));
  const bool want_trace = !args.get_string("trace-out").empty();
  const bool want_metrics = !args.get_string("metrics-out").empty();
  const bool want_series = !args.get_string("timeseries-out").empty();
  if (want_trace) configure_sampling(args, trace);
  study.set_observers(want_trace ? &trace : nullptr,
                      want_metrics ? &metrics : nullptr);
  study.set_timeseries(want_series ? &timeseries : nullptr);
  const auto cell = study.run_cell(site, args.get_string("network"));
  if (!write_observability(args, trace, metrics, &timeseries)) return 1;

  if (args.get_bool("csv")) {
    std::printf("website,network,query,latency_ms\n");
    const auto& values = cell.latencies_ms.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::printf("%s,%s,%zu,%.3f\n", cell.website.c_str(),
                  cell.network_class.c_str(), i, values[i]);
    }
    return 0;
  }
  std::printf("%s over %s: bar %.1f ms (8th-92nd pct), min %.1f, max %.1f\n",
              cell.website.c_str(), cell.network_class.c_str(),
              cell.trimmed.mean, cell.trimmed.min, cell.trimmed.max);
  for (const auto& key : cell.distribution.keys_by_count()) {
    std::printf("  %-40s %.0f%%\n", key.c_str(),
                100.0 * cell.distribution.share(key));
  }
  return 0;
}

int run_ecs(const util::ArgParser& args) {
  const auto deployment = parse_deployment(args.get_string("deployment"));
  if (!deployment.ok()) {
    std::fprintf(stderr, "%s\n", deployment.error().message.c_str());
    return 2;
  }
  const auto queries = static_cast<std::size_t>(args.get_int("queries"));
  double means[2];
  for (const bool ecs : {false, true}) {
    core::Fig5Testbed::Config config;
    config.deployment = deployment.value();
    config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
    config.enable_ecs = ecs;
    core::Fig5Testbed testbed(config);
    means[ecs ? 1 : 0] = testbed.measure(queries).totals().mean();
  }
  std::printf("%s: no-ECS %.1f ms, ECS %.1f ms, ratio %.2fx\n",
              core::to_string(deployment.value()).c_str(), means[0], means[1],
              means[1] / means[0]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "mecdns_testbed: run the MEC-CDN paper's experiments from the CLI");
  args.add_string("experiment", "fig5", "fig5 | study | ecs");
  args.add_string("deployment", "mec-mec",
                  "fig5/ecs deployment: mec-mec|mec-lan|mec-wan|provider|"
                  "google|cloudflare, or 'all' (fig5) for the whole sweep");
  args.add_int("workers", 0,
               "parallel campaign workers for --deployment all "
               "(0 = hardware concurrency, 1 = serial); output is "
               "byte-identical for any value");
  args.add_int("queries", 50, "measured queries per series");
  args.add_int("seed", 42, "simulation seed");
  args.add_bool("ecs", false, "enable EDNS Client Subnet (fig5)");
  args.add_int("site", 0, "study: Table 1 site index (0-4)");
  args.add_string("network", "cellular-mobile",
                  "study: wired-campus | wifi-home | cellular-mobile");
  args.add_bool("csv", false, "emit per-query CSV instead of a summary");
  args.add_string("trace-out", "",
                  "write per-query spans as Chrome trace-event JSON "
                  "(chrome://tracing / Perfetto)");
  args.add_string("metrics-out", "",
                  "write counters/gauges/histograms as JSON");
  args.add_string("timeseries-out", "",
                  "write sim-time-windowed metrics (with chaos annotations) "
                  "as JSON");
  args.add_double("timeseries-window-ms", 500.0,
                  "sim-time window width for --timeseries-out");
  args.add_double("trace-sample", 1.0,
                  "head-sampling rate for root query spans (1.0 = keep all; "
                  "slow or failed lookups are always kept)");
  args.add_int("trace-sample-seed", 0,
               "extra seed XORed into the sampling hash");
  args.add_double("trace-slow-keep-ms", 20.0,
                  "tail-keep threshold: sampled-out lookups slower than this "
                  "are kept anyway");
  args.add_bool("help", false, "print usage");

  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }
  if (args.get_bool("help")) {
    std::printf("%s", args.usage(argv[0]).c_str());
    return 0;
  }

  const std::string experiment = args.get_string("experiment");
  if (experiment == "fig5") return run_fig5(args);
  if (experiment == "study") return run_study(args);
  if (experiment == "ecs") return run_ecs(args);
  std::fprintf(stderr, "unknown experiment '%s'\n%s", experiment.c_str(),
               args.usage(argv[0]).c_str());
  return 2;
}
