// bench_throughput — queries/sec and per-query hot-path cost of the Figure 5
// deployments under load from 10^5+ simulated UEs.
//
// A workload::LoadGenerator drives every UE's Poisson arrivals through the
// testbed's full resolution stack while the obs/perf counter layer (plus
// the counting allocator linked into this binary) accounts what each query
// costs: allocations, wire-codec invocations, simulator events, and the
// event-queue high-water mark. Output splits by determinism:
//
//   --json-out BENCH_throughput.json   deterministic metrics only —
//       byte-identical for any --workers value, diffable with
//       `mecdns_report --diff` as a perf regression gate;
//   --wall-out BENCH_throughput_wall.json   wall-clock throughput
//       (queries/sec, events/sec of real time) — machine-dependent,
//       reported for humans, never byte-compared;
//   --metrics-out metrics.json         full registries, names prefixed per
//       deployment slug.
#include <cstdio>
#include <string>
#include <vector>

#include "core/throughput.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "util/args.h"
#include "util/strings.h"

using namespace mecdns;

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_throughput: load-generator throughput and per-query cost "
      "across fig5 deployments");
  args.add_string("deployments", "mec-mec,provider",
                  "comma-separated deployment slugs (mec-mec, mec-lan, "
                  "mec-wan, provider, google, cloudflare) or 'all'");
  args.add_int("ues", 100000, "simulated UE population per deployment");
  args.add_double("rate-hz", 0.02,
                  "per-UE Poisson arrival rate (queries per sim second)");
  args.add_double("duration-s", 15.0, "load-generation window, sim seconds");
  args.add_bool("closed-loop", false,
                "closed-loop arrivals (think time between completions) "
                "instead of open-loop Poisson");
  args.add_double("think-s", 1.0, "closed-loop mean think time, seconds");
  args.add_int("warmup-queries", 5,
               "cache-priming queries before the measured window");
  args.add_int("seed", 42,
               "campaign seed; each deployment runs with "
               "split_mix64(seed ^ deployment_index)");
  args.add_int("workers", 0,
               "parallel campaign workers (0 = hardware concurrency, "
               "1 = serial); --json-out is byte-identical for any value");
  args.add_bool("journal", false,
                "attach a flight-recorder journal to every hot-path "
                "component (steady-state records nothing; used to verify "
                "the allocs/query ceiling with journaling armed)");
  args.add_string("json-out", "BENCH_throughput.json",
                  "deterministic summary JSON ('' disables)");
  args.add_string("wall-out", "",
                  "wall-clock throughput JSON (machine-dependent; "
                  "'' disables)");
  args.add_string("metrics-out", "",
                  "combined metrics JSON, names prefixed per deployment");
  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }

  core::ThroughputConfig config;
  const std::string spec = args.get_string("deployments");
  if (spec == "all") {
    config.deployments = core::all_fig5_deployments();
  } else {
    for (const std::string& part : util::split(spec, ',')) {
      const std::string slug = util::trim(part);
      if (slug.empty()) continue;
      core::Fig5Deployment deployment;
      if (!core::fig5_from_slug(slug, deployment)) {
        std::fprintf(stderr, "error: unknown deployment '%s'\n",
                     slug.c_str());
        return 2;
      }
      config.deployments.push_back(deployment);
    }
  }
  if (config.deployments.empty()) {
    std::fprintf(stderr, "error: no deployments selected\n");
    return 2;
  }
  config.ues = static_cast<std::uint32_t>(args.get_int("ues"));
  config.rate_hz = args.get_double("rate-hz");
  config.duration_s = args.get_double("duration-s");
  config.closed_loop = args.get_bool("closed-loop");
  config.think_s = args.get_double("think-s");
  config.warmup_queries =
      static_cast<std::size_t>(args.get_int("warmup-queries"));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.workers = core::resolve_workers(args.get_int("workers"));
  config.journal = args.get_bool("journal");

  if (!obs::alloc_counting_active()) {
    std::fprintf(stderr,
                 "warning: counting allocator not linked; allocs_per_query "
                 "will be absent from the output\n");
  }

  const auto outcomes = core::run_throughput(config);

  std::vector<core::ThroughputResult> rows;
  obs::Registry combined;
  const bool want_metrics = !args.get_string("metrics-out").empty();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) {
      std::fprintf(stderr, "error: deployment %s failed: %s\n",
                   core::fig5_slug(config.deployments[i]).c_str(),
                   outcomes[i].error.c_str());
      return 1;
    }
    rows.push_back(outcomes[i].value.result);
    if (want_metrics) {
      combined.merge_prefixed(rows.back().scenario,
                              outcomes[i].value.metrics);
    }
  }

  std::printf("=== throughput: %u UEs x %s qps, %s s window ===\n",
              config.ues, util::fmt_fixed(config.rate_hz, 3).c_str(),
              util::fmt_fixed(config.duration_s, 1).c_str());
  std::printf("%-12s %9s %9s %8s %8s %9s %8s %8s %12s\n", "deployment",
              "queries", "qps_sim", "ev/q", "alloc/q", "wireB/q", "p50",
              "p99", "qps_wall");
  for (const core::ThroughputResult& r : rows) {
    std::printf("%-12s %9llu %9.1f %8.2f ", r.scenario.c_str(),
                static_cast<unsigned long long>(r.queries), r.qps_sim,
                r.events_per_query);
    if (r.alloc_counted) {
      std::printf("%8.1f ", r.allocs_per_query);
    } else {
      std::printf("%8s ", "-");
    }
    std::printf("%9.1f %8.3f %8.3f %12.0f\n", r.wire_bytes_per_query,
                r.p50_ms, r.p99_ms, r.qps_wall);
  }

  const std::string json_out = args.get_string("json-out");
  if (!json_out.empty()) {
    if (!obs::write_text_file(json_out,
                              core::throughput_json(rows, config.seed))) {
      std::fprintf(stderr, "error: failed to write %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu scenarios to %s\n", rows.size(),
                 json_out.c_str());
  }
  const std::string wall_out = args.get_string("wall-out");
  if (!wall_out.empty()) {
    if (!obs::write_text_file(
            wall_out, core::throughput_wall_json(rows, config.workers,
                                                 config.seed))) {
      std::fprintf(stderr, "error: failed to write %s\n", wall_out.c_str());
      return 1;
    }
  }
  if (want_metrics) {
    if (!combined.write_json(args.get_string("metrics-out"))) {
      std::fprintf(stderr, "error: failed to write %s\n",
                   args.get_string("metrics-out").c_str());
      return 1;
    }
  }
  return 0;
}
