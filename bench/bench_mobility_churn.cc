// Mobility-churn robustness: handoff storms, flash crowds and commute
// waves over K MEC cells, fragile vs robust, graded as CI verdicts.
//
// For each mobility scenario this bench runs the MobilityTestbed twice:
//
//   fragile  the paper-measurement configuration — bounded L-DNS service
//            capacity with silent queue-overflow drops, no ingress guard,
//            unbounded edge allocation, clients with no retries and no
//            fallback. A population converging on one cell pushes its
//            L-DNS past capacity and every dropped query is a hard 2 s
//            timeout failure.
//   robust   overload-safe degradation on — SERVFAIL-shedding ingress
//            guard (rate + queue-probe), bounded-load edge allocation with
//            parent-tier referrals, per-site auto-scaling, and clients
//            that retry, fail over to the provider L-DNS, chase referral
//            CNAMEs and follow in-flight resolver re-targets.
//
// The verdict is an SLO over 500 ms sim-time windows: --gate exits
// nonzero unless robust meets the fetch-success SLO on *every* scenario
// while fragile exhausts its error budget on at least one. --misconfigure
// swaps the robust runs for a broken-robust configuration (site machinery
// on, client fallback forgotten) that still *reports* as "robust" — the
// gate must catch it.
//
// The (scenario x mode) matrix runs under core::ParallelCampaign with
// per-scenario seeds; every artifact is byte-identical at any --workers.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/mobility.h"
#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "util/args.h"
#include "util/strings.h"

using namespace mecdns;

namespace {

std::string matrix_json(const std::vector<core::MobilityRunResult>& rows,
                        const core::MobilityKnobs& knobs,
                        std::uint64_t seed) {
  std::string out;
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"mobility_churn\",\n"
                "  %s,\n"
                "  \"unit\": \"ms\",\n"
                "  \"ues\": %u,\n  \"rate_hz\": %.2f,\n  \"cells\": %u,\n"
                "  \"duration_ms\": %lld,\n"
                "  \"event_window_ms\": [%lld, %lld],\n"
                "  \"slo_target\": %.4f,\n"
                "  \"runs\": [\n",
                obs::provenance_json("mobility_churn", seed).c_str(),
                knobs.ues, knobs.rate_hz,
                static_cast<unsigned>(knobs.cells),
                static_cast<long long>(knobs.duration.to_millis()),
                static_cast<long long>(knobs.event_start.to_millis()),
                static_cast<long long>(knobs.event_end.to_millis()),
                knobs.slo_target);
  out += buf;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "    " + core::mobility_row_json(rows[i]);
    out += i + 1 < rows.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_mobility_churn: handoff storms and flash crowds over K MEC "
      "cells, fragile vs robust, graded as SLO verdicts");
  args.add_string("json-out", "BENCH_mobility.json",
                  "write the (scenario,mode) matrix as JSON ('' disables)");
  args.add_string("scenario", "all",
                  "commute-wave | flash-crowd | handoff-storm | all");
  args.add_int("ues", 600, "logical UE population");
  args.add_double("rate-hz", 2.0, "per-UE resolve-and-fetch rate");
  args.add_int("cells", 3, "MEC cells (RAN segment + site each)");
  args.add_int("cohort", 8, "real UEs with HandoffManagers");
  args.add_int("duration-s", 40, "measurement window");
  args.add_int("event-start-s", 10, "mobility event start");
  args.add_int("event-end-s", 25, "mobility event end");
  args.add_double("participation", 0.8,
                  "fraction of UEs joining the wave/crowd");
  args.add_int("ldns-workers", 1, "per-site L-DNS service workers");
  args.add_int("ldns-max-queue", 64,
               "per-site L-DNS queue bound (overflow drops silently)");
  args.add_int("guard-threshold-qps", 800,
               "robust: ingress guard shed threshold");
  args.add_int("cache-capacity", 300,
               "robust: bounded-load selections per cache per 1 s");
  args.add_int("max-replicas", 4, "robust: auto-scaler replica ceiling");
  args.add_double("slo-target", 0.99,
                  "per-window fetch success ratio the SLO requires");
  args.add_int("seed", 42, "campaign seed (per-scenario seeds derive)");
  args.add_int("workers", 0,
               "parallel campaign workers (0 = hardware concurrency, "
               "1 = serial); output is byte-identical for any value");
  args.add_string("timeseries-out", "",
                  "per-run windowed-metrics JSON with phase annotations "
                  "(scenario/mode slug is inserted before the extension)");
  args.add_string("journal-out", "",
                  "per-run flight-recorder journal JSON (scenario/mode slug "
                  "is inserted before the extension; '' disables)");
  args.add_string("incidents-out", "",
                  "correlated incident forensics (BENCH_incidents.json "
                  "shape: MTTD/MTTR per scenario; '' disables)");
  args.add_bool("gate", false,
                "CI verdict: exit nonzero unless robust meets the SLO on "
                "every scenario AND fragile violates it on at least one");
  args.add_bool("misconfigure", false,
                "run the robust rows with the client-side fallback "
                "forgotten (still labelled robust); a working --gate must "
                "fail this");
  if (auto result = args.parse(argc - 1, argv + 1); !result.ok()) {
    std::fprintf(stderr, "%s\n%s", result.error().message.c_str(),
                 args.usage(argv[0]).c_str());
    return 2;
  }

  core::MobilityKnobs knobs;
  knobs.ues = static_cast<std::uint32_t>(args.get_int("ues"));
  knobs.rate_hz = args.get_double("rate-hz");
  knobs.cells = static_cast<std::uint16_t>(args.get_int("cells"));
  knobs.cohort = static_cast<std::size_t>(args.get_int("cohort"));
  knobs.duration = simnet::SimTime::seconds(args.get_int("duration-s"));
  knobs.event_start = simnet::SimTime::seconds(args.get_int("event-start-s"));
  knobs.event_end = simnet::SimTime::seconds(args.get_int("event-end-s"));
  knobs.participation = args.get_double("participation");
  knobs.ldns_workers = static_cast<std::size_t>(args.get_int("ldns-workers"));
  knobs.ldns_max_queue =
      static_cast<std::size_t>(args.get_int("ldns-max-queue"));
  knobs.guard_threshold_qps =
      static_cast<std::size_t>(args.get_int("guard-threshold-qps"));
  knobs.cache_selection_capacity =
      static_cast<std::uint64_t>(args.get_int("cache-capacity"));
  knobs.max_replicas = static_cast<std::size_t>(args.get_int("max-replicas"));
  knobs.slo_target = args.get_double("slo-target");
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed"));

  std::vector<workload::MobilityScenario> scenarios;
  const std::string pick = args.get_string("scenario");
  if (pick == "all") {
    scenarios = workload::all_mobility_scenarios();
  } else if (auto s = workload::mobility_from_slug(pick)) {
    scenarios.push_back(*s);
  } else {
    std::fprintf(stderr, "unknown scenario '%s'\n", pick.c_str());
    return 2;
  }

  const core::MobilityMode hardened_mode =
      args.get_bool("misconfigure") ? core::MobilityMode::kMisconfigured
                                    : core::MobilityMode::kRobust;
  // The grid: (scenario x mode). Both modes of a scenario share the seed
  // derived from the scenario index, so the movement history and arrival
  // times are identical — only the handling differs.
  struct JobSpec {
    workload::MobilityScenario scenario;
    std::size_t scenario_index;
    core::MobilityMode mode;
  };
  std::vector<JobSpec> jobs;
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    jobs.push_back(JobSpec{scenarios[si], si, core::MobilityMode::kFragile});
    jobs.push_back(JobSpec{scenarios[si], si, hardened_mode});
  }
  const bool want_series = !args.get_string("timeseries-out").empty();
  const bool want_journal = !args.get_string("journal-out").empty();
  const bool want_incidents =
      want_journal || !args.get_string("incidents-out").empty();

  std::printf("=== Mobility churn: %u UEs x %.1f Hz over %u cells, "
              "event [%lld, %lld) s ===\n",
              knobs.ues, knobs.rate_hz, static_cast<unsigned>(knobs.cells),
              static_cast<long long>(knobs.event_start.to_seconds()),
              static_cast<long long>(knobs.event_end.to_seconds()));

  const core::ParallelCampaign campaign(
      core::resolve_workers(args.get_int("workers")));
  const auto outcomes = campaign.run<core::MobilityRunResult>(
      jobs.size(), [&](std::size_t index) {
        const JobSpec& spec = jobs[index];
        return core::run_mobility_job(
            spec.scenario, spec.mode,
            core::job_seed(seed, spec.scenario_index), knobs, want_series,
            want_incidents);
      });

  std::printf("%-14s %-8s %10s %9s %9s %9s %8s %8s %s\n", "scenario", "mode",
              "ok/issued", "success", "p50(ms)", "p99(ms)", "shed",
              "handoffs", "notes");
  std::vector<core::MobilityRunResult> rows;
  bool write_failed = false;
  bool robust_all_ok = true;
  bool fragile_any_violation = false;
  for (std::size_t index = 0; index < outcomes.size(); ++index) {
    const JobSpec& spec = jobs[index];
    if (!outcomes[index].ok) {
      std::fprintf(stderr, "error: %s/%s failed: %s\n",
                   workload::mobility_slug(spec.scenario),
                   core::mobility_mode_label(spec.mode),
                   outcomes[index].error.c_str());
      write_failed = true;
      continue;
    }
    const core::MobilityRunResult& r = outcomes[index].value;
    if (spec.mode == core::MobilityMode::kFragile) {
      fragile_any_violation = fragile_any_violation || !r.slo.ok;
    } else {
      robust_all_ok = robust_all_ok && r.slo.ok;
    }
    if (want_series && !r.series_json.empty()) {
      const std::string path =
          util::with_slug(args.get_string("timeseries-out"),
                          r.scenario + "/" + r.mode);
      if (!obs::write_text_file(path, r.series_json)) {
        std::fprintf(stderr, "error: failed to write timeseries to %s\n",
                     path.c_str());
        write_failed = true;
      }
    }
    if (want_journal && !r.journal_json.empty()) {
      const std::string path = util::with_slug(
          args.get_string("journal-out"), r.scenario + "/" + r.mode);
      if (!obs::write_text_file(path, r.journal_json)) {
        std::fprintf(stderr, "error: failed to write journal to %s\n",
                     path.c_str());
        write_failed = true;
      }
    }
    std::string notes;
    if (r.ue_failovers > 0) {
      notes += "failovers=" + std::to_string(r.ue_failovers) + " ";
    }
    if (r.in_flight_retargets > 0) {
      notes += "retargets=" + std::to_string(r.in_flight_retargets) + " ";
    }
    if (r.referred_to_parent > 0) {
      notes += "referred=" + std::to_string(r.referred_to_parent) + " ";
    }
    if (r.scale_ups > 0) {
      notes += "scale-ups=" + std::to_string(r.scale_ups) + " ";
    }
    if (r.ue_timeouts > 0) {
      notes += "timeouts=" + std::to_string(r.ue_timeouts);
    }
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%llu/%llu",
                  static_cast<unsigned long long>(r.ok),
                  static_cast<unsigned long long>(r.issued));
    std::printf("%-14s %-8s %10s %8.1f%% %9.1f %9.1f %8llu %8llu %s\n",
                r.scenario.c_str(), r.mode.c_str(), ratio,
                100.0 * r.success_rate, r.latency.p50, r.latency.p99,
                static_cast<unsigned long long>(r.shed),
                static_cast<unsigned long long>(r.cohort_handoffs),
                notes.c_str());
    std::printf("%-14s %-8s   %s\n", "", "", obs::slo_summary(r.slo).c_str());
    rows.push_back(r);
  }

  const std::string json_out = args.get_string("json-out");
  if (!json_out.empty()) {
    if (!obs::write_text_file(json_out, matrix_json(rows, knobs, seed))) {
      std::fprintf(stderr, "failed to open %s\n", json_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu runs to %s\n", rows.size(),
                 json_out.c_str());
  }

  const std::string incidents_out = args.get_string("incidents-out");
  if (!incidents_out.empty()) {
    std::string out = "{\n  \"bench\": \"mobility_incidents\",\n  " +
                      obs::provenance_json("mobility_incidents", seed) +
                      ",\n  \"scenarios\": [\n";
    std::size_t emitted = 0;
    for (const core::MobilityRunResult& r : rows) {
      if (r.incidents_json.empty()) continue;
      if (emitted++ > 0) out += ",\n";
      out += "    " + r.incidents_json;
    }
    out += "\n  ]\n}\n";
    if (!obs::write_text_file(incidents_out, out)) {
      std::fprintf(stderr, "failed to open %s\n", incidents_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu incident rows to %s\n", emitted,
                 incidents_out.c_str());
  }

  if (args.get_bool("gate")) {
    // Two-sided verdict: the robustness story must hold AND the workload
    // must be hard enough to actually discriminate. A gate that passes
    // when fragile also passes is measuring nothing.
    const bool pass = robust_all_ok && fragile_any_violation;
    std::printf("\nGATE %s: robust SLO %s on all scenarios; fragile %s "
                "its error budget\n",
                pass ? "PASS" : "FAIL", robust_all_ok ? "met" : "MISSED",
                fragile_any_violation ? "exhausted" : "NEVER exhausted");
    if (!pass) return 1;
  }
  return write_failed ? 1 : 0;
}
