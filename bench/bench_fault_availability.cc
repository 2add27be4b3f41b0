// Fault availability: end-to-end content availability under injected
// faults, with and without the failure-handling machinery.
//
// For every scenario in core::fault_scenario_names() this bench runs the
// Fig. 5 testbed twice through the same fault window:
//
//   fragile  the paper-measurement configuration — per-query routing, no
//            retransmission, no fallback servers, no serve-stale, no
//            health monitor.
//   robust   the failure-handling stack on — UE retry with exponential
//            backoff and a provider fallback server, short-TTL answer
//            caching with RFC 8767 serve-stale, C-DNS->provider forward
//            failover, a TrafficMonitor draining dead caches, and an
//            orchestrator LdnsFailover that re-targets the UE's resolver
//            when the MEC L-DNS dies.
//
// Each request is a full resolve-and-fetch (DNS lookup + content GET): an
// answer pointing at a dead cache counts as a failure, which is what makes
// cache-level faults measurable. The JSON reports success rate, latency
// percentiles and time-to-recover per (scenario, mode).
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cdn/content.h"
#include "cdn/traffic_monitor.h"
#include "chaos/controller.h"
#include "core/fault_scenarios.h"
#include "core/fig5.h"
#include "core/parallel.h"
#include "core/topology.h"
#include "mec/failover.h"
#include "obs/incident.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "util/args.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace mecdns;

namespace {

struct Knobs {
  std::size_t requests = 110;
  simnet::SimTime spacing = simnet::SimTime::millis(500);
  simnet::SimTime fault_start = simnet::SimTime::seconds(15);
  simnet::SimTime fault_end = simnet::SimTime::seconds(30);
  std::uint64_t seed = 42;
};

struct RunResult {
  std::size_t requests = 0;
  std::size_t ok = 0;
  double success_rate = 0.0;
  util::Summary latency;  ///< successful requests, DNS + fetch, ms
  /// First success after the last failure, relative to fault start; 0 =
  /// no failures at all, -1 = never recovered within the run.
  double time_to_recover_ms = 0.0;
  std::size_t window_failures = 0;  ///< failures sent inside the window
  std::uint64_t ue_retransmissions = 0;
  std::uint64_t ue_failovers = 0;
  std::uint64_t ue_servfails = 0;
  std::uint64_t ue_timeouts = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t fetch_retries = 0;
  std::uint64_t forward_failovers = 0;
  std::uint64_t monitor_transitions = 0;
  std::size_t ldns_switches = 0;
  std::size_t injections = 0;
  obs::SloResult slo;  ///< fetch-success SLO over 500 ms sim-time windows
};

struct Sample {
  simnet::SimTime sent;
  bool ok = false;
  double total_ms = 0.0;
};

/// One (scenario, mode) campaign job: the availability numbers plus the
/// serialized time series (written to disk by the caller, in job order).
struct JobResult {
  RunResult r;
  std::string series_json;
  std::string series_name;
  std::string journal_json;    ///< flight-recorder dump, when requested
  std::string incidents_json;  ///< one BENCH_incidents scenario row
};

JobResult run_scenario(const std::string& name, bool robust,
                       std::uint64_t seed, const Knobs& k, bool want_series,
                       bool want_incidents, double slo_target) {
  core::Fig5Testbed::Config config;
  // The WAN-loss scenario only bites when lookups cross the WAN, so it
  // runs the "MEC L-DNS w/ WAN C-DNS" deployment; everything else runs the
  // paper's proposal with both DNS stages in the MEC.
  config.deployment = name == "wan-loss-burst"
                          ? core::Fig5Deployment::kMecLdnsWanCdns
                          : core::Fig5Deployment::kMecLdnsMecCdns;
  config.seed = seed;
  // Both modes get the identical topology (provider L-DNS built); only the
  // handling knobs differ, so the fault exposure is the same.
  config.provider_fallback = true;
  if (robust) {
    config.answer_ttl = 4;  // short TTL: cacheable, bounds dead answers
    config.serve_stale = true;
    config.cdns_fallback_to_provider = true;
    config.ue_dns_options.max_retries = 1;
    config.ue_dns_options.backoff_factor = 2.0;
    config.ue_dns_options.max_backoff = simnet::SimTime::seconds(8);
    config.ue_dns_options.fallback_servers = {
        core::topology::provider_endpoint()};
  }
  core::Fig5Testbed testbed(config);
  simnet::Network& net = testbed.network();
  simnet::Simulator& sim = testbed.simulator();
  if (robust) {
    // App-layer resilience: a failed fetch re-resolves once, picking up
    // the drained routing / expired cache entry.
    testbed.ue().set_fetch_retries(2);
    // A fully drained edge C-DNS answers with a parent-tier referral
    // (CNAME into cdn-parent.test); the UE must chase it.
    testbed.ue().resolver().set_chase_cnames(true);
  }

  const simnet::SimTime t0 = net.now();
  const simnet::SimTime fault_start = t0 + k.fault_start;
  const simnet::SimTime fault_end = t0 + k.fault_end;
  const simnet::SimTime horizon =
      t0 + k.spacing * static_cast<std::int64_t>(k.requests + 1) +
      simnet::SimTime::seconds(20);

  // Arm the fault. The C-DNS brownout gets a delay above the transport
  // timeout so a browned-out router is indistinguishable from a dead one
  // at the client — the case failover has to win.
  core::FaultScenario scenario =
      name == "cdns-brownout"
          ? core::make_cdns_brownout(testbed, fault_start, fault_end,
                                     simnet::SimTime::millis(2500))
          : core::make_fault_scenario(name, testbed, fault_start, fault_end);
  const std::string run_name = name + (robust ? "/robust" : "/fragile");
  chaos::ChaosController controller(net, run_name);
  // Per-window fetch counters; injections land as annotations on the same
  // sim-time axis, so the SLO verdicts line up with the fault window.
  obs::TimeSeries timeseries(sim, simnet::SimTime::millis(500));
  controller.set_timeseries(&timeseries);
  // Flight recorder: fault edges from the controller, reactions from every
  // component that can fire in this bench (transport retargets, serve-stale
  // entry, guard transitions, parent referrals; monitor drains and L-DNS
  // switches attach below once the robust extras exist).
  obs::Journal journal;
  if (want_incidents) {
    controller.set_journal(&journal);
    testbed.ue().resolver().transport().set_journal(&journal);
    testbed.site().public_dns_cache()->set_journal(&journal);
    if (auto* guard = testbed.site().overload_guard()) {
      guard->set_journal(&journal);
    }
    if (auto* router = testbed.site().router()) {
      router->set_journal(&journal);
    }
    if (auto* forward = testbed.site().cdn_forward()) {
      forward->set_journal(&journal);
    }
  }
  controller.arm(scenario.schedule);

  // Robust extras that live beside the testbed rather than inside it: the
  // cache-health monitor and the orchestrator's L-DNS health-checker.
  std::unique_ptr<cdn::TrafficMonitor> monitor;
  std::unique_ptr<mec::LdnsFailover> ldns_failover;
  if (robust) {
    // Probes originate at the cluster gateway — the orchestrator's vantage.
    // (The P-GW would NAT-drop probe replies: its downlink path discards
    // packets to the public address with no translation entry.)
    const simnet::NodeId vantage = testbed.site().gateway();
    cdn::TrafficMonitor::Config mc;
    mc.rounds = static_cast<std::size_t>(
        (horizon - t0).to_millis() / mc.probe_interval.to_millis());
    monitor = std::make_unique<cdn::TrafficMonitor>(
        net.runtime(vantage), testbed.active_router(), mc);
    cdn::Url probe;
    probe.host = testbed.content_name();
    probe.path = "/index.m3u8";
    const auto caches = testbed.site().caches();
    for (std::size_t i = 0; i < caches.size(); ++i) {
      monitor->watch("mec-edge", caches[i]->name(),
                     simnet::Endpoint{testbed.site().cache_address(i),
                                      cdn::kContentPort},
                     probe);
    }
    if (want_incidents) monitor->set_journal(&journal);
    monitor->start();

    mec::LdnsFailover::Config fc;
    fc.primary = testbed.site().ldns_endpoint();
    fc.fallback = testbed.provider_endpoint();
    ldns_failover =
        std::make_unique<mec::LdnsFailover>(net.runtime(vantage), fc);
    ldns_failover->set_on_switch(
        [&testbed](const simnet::Endpoint& target, bool /*to_fallback*/) {
          testbed.ue().resolver().set_server(target);
        });
    if (want_incidents) ldns_failover->set_journal(&journal);
    ldns_failover->start(static_cast<std::size_t>(
        (horizon - t0).to_millis() / fc.probe_interval.to_millis()));
  }

  // The request stream: one resolve-and-fetch every spacing, spanning the
  // fault window. Samples are indexed by send slot so recovery can be
  // measured in send order even though completions arrive out of order.
  std::vector<Sample> samples(k.requests);
  for (std::size_t i = 0; i < k.requests; ++i) {
    const simnet::SimTime at =
        t0 + k.spacing * static_cast<std::int64_t>(i + 1);
    samples[i].sent = at;
    sim.schedule_at(at, [&testbed, &samples, &timeseries, i] {
      cdn::Url url;
      url.host = testbed.content_name();
      url.path = "/segment000" + std::to_string(i % 8);
      testbed.ue().resolve_and_fetch(
          url, [&samples, &timeseries,
                i](const ran::UserEquipment::FetchOutcome& outcome) {
            samples[i].ok = outcome.ok;
            samples[i].total_ms = outcome.total.to_millis();
            timeseries.add("fetch.requests");
            if (outcome.ok) {
              timeseries.observe("fetch.total_ms", outcome.total.to_millis());
            } else {
              timeseries.add("fetch.failures");
            }
          });
    });
  }
  sim.run();

  RunResult result;
  result.requests = k.requests;
  util::SampleSet latencies;
  simnet::SimTime last_failure = simnet::SimTime::zero();
  bool any_failure = false;
  for (const Sample& s : samples) {
    if (s.ok) {
      ++result.ok;
      latencies.add(s.total_ms);
    } else {
      any_failure = true;
      if (s.sent > last_failure) last_failure = s.sent;
      if (s.sent >= fault_start && s.sent < fault_end) {
        ++result.window_failures;
      }
    }
  }
  result.success_rate = k.requests == 0
                            ? 0.0
                            : static_cast<double>(result.ok) /
                                  static_cast<double>(k.requests);
  result.latency = latencies.summarize();
  if (!any_failure) {
    result.time_to_recover_ms = 0.0;
  } else {
    result.time_to_recover_ms = -1.0;
    for (const Sample& s : samples) {
      if (s.ok && s.sent > last_failure) {
        const double ttr = (s.sent - fault_start).to_millis();
        result.time_to_recover_ms = ttr < 0.0 ? 0.0 : ttr;
        break;
      }
    }
  }

  dns::DnsTransport& ue_transport = testbed.ue().resolver().transport();
  result.ue_retransmissions = ue_transport.retransmissions();
  result.ue_failovers = ue_transport.failovers();
  result.ue_servfails = ue_transport.servfails();
  result.ue_timeouts = ue_transport.timeouts();
  result.stale_served = testbed.site().public_dns_cache()->stats().stale_hits;
  result.fetch_retries = testbed.ue().fetch_retries_used();
  if (testbed.site().cdn_forward() != nullptr) {
    result.forward_failovers = testbed.site().cdn_forward()->failovers();
  }
  if (monitor != nullptr) result.monitor_transitions = monitor->transitions();
  if (ldns_failover != nullptr) {
    result.ldns_switches = ldns_failover->switches().size();
  }
  result.injections = controller.injected();
  result.slo = obs::evaluate_slo(
      obs::success_slo("fetch.requests", "fetch.failures", slo_target),
      timeseries);
  JobResult job;
  if (want_incidents) {
    obs::append_slo_journal(result.slo, journal);
    const obs::IncidentReport report = obs::correlate_incidents(journal);
    job.journal_json = journal.to_json();
    job.incidents_json = "{\"scenario\": \"" + name + "\", \"mode\": \"" +
                         (robust ? "robust" : "fragile") + "\", " +
                         obs::incident_report_json(report) + "}";
  }
  job.r = std::move(result);
  if (want_series) {
    job.series_json = timeseries.to_json();
    job.series_name = run_name;
  }
  return job;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_fault_availability: availability under injected faults, "
      "fragile vs robust");
  args.add_string("json-out", "BENCH_fault_availability.json",
                  "write per-(scenario,mode) summaries as JSON ('' disables)");
  args.add_string("scenario", "all",
                  "one scenario name, or 'all' for the whole catalog");
  args.add_int("requests", 110, "resolve-and-fetch requests per run");
  args.add_int("spacing-ms", 500, "gap between requests");
  args.add_int("fault-start-ms", 15000, "fault window start");
  args.add_int("fault-end-ms", 30000, "fault window end (restart/heal time)");
  args.add_int("seed", 42, "testbed RNG seed");
  args.add_string("timeseries-out", "",
                  "per-run windowed-metrics JSON with chaos annotations "
                  "(scenario/mode slug is inserted before the extension)");
  args.add_string("journal-out", "",
                  "per-run flight-recorder journal JSON (scenario/mode slug "
                  "is inserted before the extension; '' disables)");
  args.add_string("incidents-out", "",
                  "correlated incident forensics (BENCH_incidents.json "
                  "shape: MTTD/MTTR per scenario; '' disables)");
  args.add_double("slo-target", 0.99,
                  "per-window fetch success ratio the SLO requires");
  args.add_int("workers", 0,
               "parallel campaign workers (0 = hardware concurrency, "
               "1 = serial); output is byte-identical for any value");
  args.add_string("scaling-out", "",
                  "also run the whole matrix once per worker count in "
                  "--scaling-workers, timing each, and write the speedup "
                  "record as JSON ('' disables)");
  args.add_string("scaling-workers", "1,2,4,8",
                  "comma-separated worker counts for --scaling-out");
  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }

  Knobs knobs;
  knobs.requests = static_cast<std::size_t>(args.get_int("requests"));
  knobs.spacing = simnet::SimTime::millis(args.get_int("spacing-ms"));
  knobs.fault_start = simnet::SimTime::millis(args.get_int("fault-start-ms"));
  knobs.fault_end = simnet::SimTime::millis(args.get_int("fault-end-ms"));
  knobs.seed = static_cast<std::uint64_t>(args.get_int("seed"));

  std::vector<std::string> scenarios;
  const std::string pick = args.get_string("scenario");
  if (pick == "all") {
    scenarios = core::fault_scenario_names();
  } else {
    scenarios.push_back(pick);
  }

  std::printf("=== Fault availability: %zu requests, fault window "
              "[%lld, %lld) ms ===\n",
              knobs.requests,
              static_cast<long long>(knobs.fault_start.to_millis()),
              static_cast<long long>(knobs.fault_end.to_millis()));
  std::printf("%-22s %-8s %8s %9s %9s %9s %11s %s\n", "scenario", "mode",
              "ok", "success", "p50(ms)", "p99(ms)", "recover(ms)", "notes");

  struct Row {
    std::string scenario;
    std::string mode;
    RunResult r;
  };
  // The campaign grid: (scenario × mode), one private simulation per job.
  // Fragile and robust runs of the same scenario share a seed derived from
  // the scenario index — split_mix64(seed ^ scenario_index) — so both modes
  // see the identical topology and fault exposure, while no scenario's RNG
  // stream depends on which scenarios ran before it (or on worker count).
  struct JobSpec {
    std::string scenario;
    std::size_t scenario_index;
    bool robust;
  };
  std::vector<JobSpec> jobs;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    jobs.push_back(JobSpec{scenarios[si], si, false});
    jobs.push_back(JobSpec{scenarios[si], si, true});
  }
  const bool want_series = !args.get_string("timeseries-out").empty();
  const bool want_journal = !args.get_string("journal-out").empty();
  const bool want_incidents =
      want_journal || !args.get_string("incidents-out").empty();
  const double slo_target = args.get_double("slo-target");
  const auto run_matrix = [&](std::size_t workers) {
    const core::ParallelCampaign campaign(workers);
    return campaign.run<JobResult>(jobs.size(), [&](std::size_t index) {
      const JobSpec& spec = jobs[index];
      return run_scenario(spec.scenario, spec.robust,
                          core::job_seed(knobs.seed, spec.scenario_index),
                          knobs, want_series, want_incidents, slo_target);
    });
  };

  const auto outcomes =
      run_matrix(core::resolve_workers(args.get_int("workers")));

  std::vector<Row> rows;
  std::vector<std::string> incident_rows;
  bool write_failed = false;
  for (std::size_t index = 0; index < outcomes.size(); ++index) {
    const JobSpec& spec = jobs[index];
    const bool robust = spec.robust;
    const std::string& scenario = spec.scenario;
    if (!outcomes[index].ok) {
      std::fprintf(stderr, "error: %s/%s failed: %s\n", scenario.c_str(),
                   robust ? "robust" : "fragile",
                   outcomes[index].error.c_str());
      write_failed = true;
      continue;
    }
    const JobResult& job = outcomes[index].value;
    if (want_series && !job.series_json.empty()) {
      const std::string path =
          util::with_slug(args.get_string("timeseries-out"), job.series_name);
      if (!obs::write_text_file(path, job.series_json)) {
        std::fprintf(stderr, "error: failed to write timeseries to %s\n",
                     path.c_str());
        write_failed = true;
      }
    }
    if (want_journal && !job.journal_json.empty()) {
      const std::string path =
          util::with_slug(args.get_string("journal-out"),
                          scenario + "/" + (robust ? "robust" : "fragile"));
      if (!obs::write_text_file(path, job.journal_json)) {
        std::fprintf(stderr, "error: failed to write journal to %s\n",
                     path.c_str());
        write_failed = true;
      }
    }
    if (!job.incidents_json.empty()) {
      incident_rows.push_back(job.incidents_json);
    }
    {
      const RunResult& r = job.r;
      std::string notes;
      if (r.ue_failovers > 0) {
        notes += "ue-failovers=" + std::to_string(r.ue_failovers) + " ";
      }
      if (r.forward_failovers > 0) {
        notes += "fwd-failovers=" + std::to_string(r.forward_failovers) + " ";
      }
      if (r.stale_served > 0) {
        notes += "stale=" + std::to_string(r.stale_served) + " ";
      }
      if (r.fetch_retries > 0) {
        notes += "fetch-retries=" + std::to_string(r.fetch_retries) + " ";
      }
      if (r.ldns_switches > 0) {
        notes += "ldns-switches=" + std::to_string(r.ldns_switches) + " ";
      }
      if (r.monitor_transitions > 0) {
        notes += "drains=" + std::to_string(r.monitor_transitions);
      }
      char recover[32];
      if (r.time_to_recover_ms < 0.0) {
        std::snprintf(recover, sizeof(recover), "%11s", "never");
      } else {
        std::snprintf(recover, sizeof(recover), "%11.0f",
                      r.time_to_recover_ms);
      }
      std::printf("%-22s %-8s %4zu/%-3zu %8.1f%% %9.1f %9.1f %s %s\n",
                  scenario.c_str(), robust ? "robust" : "fragile", r.ok,
                  r.requests, 100.0 * r.success_rate, r.latency.p50,
                  r.latency.p99, recover, notes.c_str());
      std::printf("%-22s %-8s   %s\n", "", "",
                  obs::slo_summary(r.slo).c_str());
      rows.push_back(Row{scenario, robust ? "robust" : "fragile", r});
    }
  }

  // Serializer shared by --json-out and the --scaling-out identity check:
  // byte-for-byte the same payload a serial run produces.
  const auto matrix_json = [&knobs](const std::vector<Row>& matrix_rows) {
    std::string out;
    char buf[1600];
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"bench\": \"fault_availability\",\n"
                  "  %s,\n"
                  "  \"unit\": \"ms\",\n"
                  "  \"requests\": %zu,\n"
                  "  \"fault_window_ms\": [%lld, %lld],\n"
                  "  \"scenarios\": [\n",
                  obs::provenance_json("fault_availability", knobs.seed)
                      .c_str(),
                  knobs.requests,
                  static_cast<long long>(knobs.fault_start.to_millis()),
                  static_cast<long long>(knobs.fault_end.to_millis()));
    out += buf;
    for (std::size_t i = 0; i < matrix_rows.size(); ++i) {
      const Row& row = matrix_rows[i];
      const RunResult& r = row.r;
      std::snprintf(
          buf, sizeof(buf),
          "    {\"scenario\": \"%s\", \"mode\": \"%s\", \"ok\": %zu, "
          "\"requests\": %zu, \"success_rate\": %.4f, "
          "\"mean\": %.3f, \"p50\": %.3f, \"p99\": %.3f, \"max\": %.3f, "
          "\"time_to_recover_ms\": %.1f, \"window_failures\": %zu, "
          "\"ue_retransmissions\": %llu, \"ue_timeouts\": %llu, "
          "\"ue_servfails\": %llu, \"ue_failovers\": %llu, "
          "\"forward_failovers\": %llu, \"stale_served\": %llu, "
          "\"fetch_retries\": %llu, "
          "\"monitor_transitions\": %llu, \"ldns_switches\": %zu, "
          "\"injections\": %zu, "
          "\"slo_ok\": %s, \"slo_windows\": %zu, "
          "\"slo_windows_violated\": %zu, \"slo_budget_consumed\": %.4f, "
          "\"slo_worst_burn_rate\": %.4f, "
          "\"slo_first_violation_ms\": %.1f, "
          "\"slo_last_violation_ms\": %.1f}%s\n",
          row.scenario.c_str(), row.mode.c_str(), r.ok, r.requests,
          r.success_rate, r.latency.mean, r.latency.p50, r.latency.p99,
          r.latency.max, r.time_to_recover_ms, r.window_failures,
          static_cast<unsigned long long>(r.ue_retransmissions),
          static_cast<unsigned long long>(r.ue_timeouts),
          static_cast<unsigned long long>(r.ue_servfails),
          static_cast<unsigned long long>(r.ue_failovers),
          static_cast<unsigned long long>(r.forward_failovers),
          static_cast<unsigned long long>(r.stale_served),
          static_cast<unsigned long long>(r.fetch_retries),
          static_cast<unsigned long long>(r.monitor_transitions),
          r.ldns_switches, r.injections, r.slo.ok ? "true" : "false",
          r.slo.windows.size(), r.slo.windows_violated,
          r.slo.budget_consumed, r.slo.worst_burn_rate,
          r.slo.first_violation_ms, r.slo.last_violation_ms,
          i + 1 < matrix_rows.size() ? "," : "");
      out += buf;
    }
    out += "  ]\n}\n";
    return out;
  };

  const std::string json_out = args.get_string("json-out");
  if (!json_out.empty()) {
    if (!obs::write_text_file(json_out, matrix_json(rows))) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu runs to %s\n", rows.size(),
                 json_out.c_str());
  }

  const std::string incidents_out = args.get_string("incidents-out");
  if (!incidents_out.empty()) {
    std::string out = "{\n  \"bench\": \"fault_incidents\",\n  " +
                      obs::provenance_json("fault_incidents", knobs.seed) +
                      ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < incident_rows.size(); ++i) {
      out += "    " + incident_rows[i];
      out += i + 1 < incident_rows.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    if (!obs::write_text_file(incidents_out, out)) {
      std::fprintf(stderr, "failed to open %s\n", incidents_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu incident rows to %s\n",
                 incident_rows.size(), incidents_out.c_str());
  }

  // --scaling-out: re-run the identical matrix once per worker count,
  // recording wall-clock time and asserting that every run's JSON payload
  // is byte-identical to the one above. Timings are hardware-dependent
  // (speedup saturates at min(jobs, cores)); the `identical` bits are the
  // determinism contract and must always be true.
  const std::string scaling_out = args.get_string("scaling-out");
  if (!scaling_out.empty()) {
    std::vector<std::size_t> counts;
    const std::string spec = args.get_string("scaling-workers");
    for (std::size_t pos = 0; pos < spec.size();) {
      const std::size_t comma = spec.find(',', pos);
      const std::string item =
          spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (!item.empty()) {
        const long n = std::atol(item.c_str());
        if (n >= 1) counts.push_back(static_cast<std::size_t>(n));
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (counts.empty()) counts = {1, 2, 4, 8};
    const std::string reference = matrix_json(rows);
    struct Point {
      std::size_t workers;
      double wall_ms;
      bool identical;
    };
    std::vector<Point> points;
    std::printf("\n=== parallel scaling: %zu jobs ===\n", jobs.size());
    std::printf("%8s %10s %9s %10s\n", "workers", "wall(ms)", "speedup",
                "identical");
    for (const std::size_t n : counts) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto rerun = run_matrix(n);
      const auto t1 = std::chrono::steady_clock::now();
      std::vector<Row> rerun_rows;
      for (std::size_t index = 0; index < rerun.size(); ++index) {
        if (!rerun[index].ok) continue;
        rerun_rows.push_back(Row{jobs[index].scenario,
                                 jobs[index].robust ? "robust" : "fragile",
                                 rerun[index].value.r});
      }
      Point p;
      p.workers = n;
      p.wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      p.identical = matrix_json(rerun_rows) == reference;
      if (!p.identical) write_failed = true;
      points.push_back(p);
      const double speedup =
          points.front().wall_ms > 0.0 ? points.front().wall_ms / p.wall_ms
                                       : 0.0;
      std::printf("%8zu %10.0f %8.2fx %10s\n", p.workers, p.wall_ms, speedup,
                  p.identical ? "yes" : "NO");
    }
    std::string out = "{\n  \"bench\": \"parallel_scaling\",\n  " +
                      obs::provenance_json("parallel_scaling", knobs.seed) +
                      ",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"grid\": \"fault_matrix\",\n  \"jobs\": %zu,\n"
                  "  \"requests_per_job\": %zu,\n"
                  "  \"hardware_concurrency\": %zu,\n  \"points\": [\n",
                  jobs.size(), knobs.requests, core::resolve_workers(0));
    out += buf;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::snprintf(buf, sizeof(buf),
                    "    {\"workers\": %zu, \"wall_ms\": %.1f, "
                    "\"speedup_vs_first\": %.3f, \"identical\": %s}%s\n",
                    p.workers, p.wall_ms,
                    p.wall_ms > 0.0 ? points.front().wall_ms / p.wall_ms
                                    : 0.0,
                    p.identical ? "true" : "false",
                    i + 1 < points.size() ? "," : "");
      out += buf;
    }
    out += "  ]\n}\n";
    if (!obs::write_text_file(scaling_out, out)) {
      std::fprintf(stderr, "failed to open %s\n", scaling_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu scaling points to %s\n", points.size(),
                 scaling_out.c_str());
  }
  return write_failed ? 1 : 0;
}
