#include "core/mobility.h"

#include <algorithm>
#include <cstdio>

#include "cdn/content.h"
#include "obs/timeseries.h"
#include "workload/loadgen.h"

namespace mecdns::core {

using simnet::Ipv4Address;
using simnet::SimTime;

const char* mobility_mode_label(MobilityMode mode) {
  switch (mode) {
    case MobilityMode::kFragile:
      return "fragile";
    case MobilityMode::kRobust:
    case MobilityMode::kMisconfigured:
      return "robust";
  }
  return "?";
}

MobilityTestbed::MobilityTestbed(Config config)
    : config_(std::move(config)), content_name_(topology::content_name()) {
  if (config_.knobs.cells == 0 || config_.knobs.cells > 8) {
    throw std::invalid_argument("MobilityTestbed supports 1..8 cells");
  }
  build();
}

dns::DnsTransport::Options MobilityTestbed::client_options() const {
  dns::DnsTransport::Options options;
  if (config_.mode == MobilityMode::kRobust) {
    options.max_retries = 1;
    options.backoff_factor = 2.0;
    options.max_backoff = SimTime::seconds(8);
    options.fallback_servers = {topology::provider_endpoint()};
    // A guard SERVFAIL moves the transaction to the provider fallback
    // within one RTT.
  }
  // Misconfigured: the site machinery is on but the operator forgot the
  // client-side fallback — guard sheds become hard failures.
  return options;
}

void MobilityTestbed::build() {
  const MobilityKnobs& k = config_.knobs;
  sim_ = std::make_unique<simnet::Simulator>();
  net_ = std::make_unique<simnet::Network>(*sim_, util::Rng(config_.seed));
  const simnet::NodeId backbone = topology::add_backbone(*net_);
  const cdn::ContentCatalog catalog = topology::churn_catalog();

  // --- shared cloud tier ----------------------------------------------------
  origin_ = topology::add_origin(*net_, backbone, catalog);
  cloud_cache_ = topology::add_cloud_cache(*net_, backbone, catalog);
  hierarchy_ = topology::add_public_dns(*net_, backbone);
  // The provider path ends at the WAN C-DNS, which answers with the cloud
  // cache: degraded but up.
  wan_cdns_ = topology::add_wan_cdns(*net_, backbone, *hierarchy_,
                                     /*answer_ttl=*/0, /*use_ecs=*/false);
  topology::serve_from_cloud(*wan_cdns_, topology::cdn_domain(), {"demo1"});
  // A bounded-load-exhausted edge C-DNS refers demo1 queries here.
  mid_cdns_ =
      topology::add_mid_cdns(*net_, backbone, *hierarchy_, {"demo1"});

  // --- the cells and the provider L-DNS every P-GW reaches ------------------
  std::vector<simnet::NodeId> pgws;
  for (std::uint16_t cell = 0; cell < k.cells; ++cell) {
    cells_.push_back(topology::add_cell(
        *net_, cell, backbone, topology::churn_site(config_.mode, k)));
    pgws.push_back(cells_.back().ran->pgw());
  }
  provider_ldns_ = topology::add_provider_ldns(*net_, *hierarchy_, pgws);
  for (auto& cell : cells_) {
    cell.site->add_delivery_service("demo1", catalog, /*warm_caches=*/true);
  }

  // --- clients ------------------------------------------------------------
  const bool robust_client = config_.mode == MobilityMode::kRobust;
  for (std::uint16_t cell = 0; cell < k.cells; ++cell) {
    auto ue = std::make_unique<ran::UserEquipment>(
        *net_, *cells_[cell].ran, "agg-ue-" + std::to_string(cell),
        Ipv4Address::must_parse("10.45.1." + std::to_string(cell + 1)),
        cells_[cell].site->ldns_endpoint(), client_options());
    if (robust_client) {
      ue->set_fetch_retries(2);
      ue->resolver().set_chase_cnames(true);
    }
    aggregate_ues_.push_back(std::move(ue));
  }

  const std::size_t cohort_n = std::min<std::size_t>(k.cohort, k.ues);
  for (std::size_t i = 0; i < cohort_n; ++i) {
    topology::RoamingUe member = topology::add_roaming_ue(
        *net_, cells_, "cohort-ue-" + std::to_string(i),
        Ipv4Address::must_parse("10.45.2." + std::to_string(i + 1)),
        client_options());
    if (robust_client) {
      member.ue->set_fetch_retries(2);
      member.ue->resolver().set_chase_cnames(true);
      // The handoff fix under test: transactions pending against the old
      // cell's L-DNS follow the re-target instead of timing out.
      member.ue->resolver().set_retarget_in_flight(true);
    }
    cohort_.push_back(std::move(member));
  }
}

MobilityRunResult run_mobility_job(workload::MobilityScenario scenario,
                                   MobilityMode mode, std::uint64_t seed,
                                   const MobilityKnobs& knobs,
                                   bool want_series, bool want_incidents) {
  MobilityTestbed::Config config;
  config.mode = mode;
  config.seed = seed;
  config.knobs = knobs;
  MobilityTestbed bed(config);
  simnet::Simulator& sim = bed.simulator();

  // Control-plane flight recorder. Attaching it draws no randomness and
  // schedules no events, so rows stay byte-identical either way; only
  // transition points record, so the journal stays cold under load.
  obs::Journal journal;
  if (want_incidents) {
    for (std::uint16_t cell = 0; cell < knobs.cells; ++cell) {
      if (bed.site(cell).overload_guard() != nullptr) {
        bed.site(cell).overload_guard()->set_journal(&journal, cell);
      }
      bed.site(cell).router()->set_journal(&journal, cell);
    }
    // Cohort transports see real handoffs; aggregate UEs are mass-load
    // stand-ins whose failover churn would swamp the ring.
    for (std::size_t i = 0; i < bed.cohort_size(); ++i) {
      bed.cohort_ue(i).resolver().transport().set_journal(&journal);
    }
    // The churn event itself is the incident seed: its window is scripted,
    // so record it with explicit timestamps up front.
    journal.record(knobs.event_start, obs::JournalKind::kLoadStart,
                   /*cell=*/0, workload::mobility_slug(scenario),
                   knobs.ues);
    journal.record(knobs.event_end, obs::JournalKind::kLoadEnd,
                   /*cell=*/0, workload::mobility_slug(scenario));
  }

  obs::TimeSeries series(sim, knobs.slo_window);
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  util::SampleSet latencies;
  std::vector<std::uint32_t> population(knobs.cells, 0);

  workload::MobilityModel::Options mo;
  mo.ues = knobs.ues;
  mo.cells = knobs.cells;
  mo.scenario = scenario;
  mo.duration = knobs.duration;
  mo.event_start = knobs.event_start;
  mo.event_end = knobs.event_end;
  mo.target_cell = 0;
  mo.participation = knobs.participation;
  mo.crowd_burst = knobs.crowd_burst;
  mo.dwell = knobs.dwell;
  mo.seed = seed;
  workload::MobilityModel model(
      sim, mo,
      [&bed, &series, &population](std::uint32_t ue, std::uint16_t from,
                                   std::uint16_t to) {
        --population[from];
        ++population[to];
        series.set_gauge("mob.pop.cell" + std::to_string(from),
                         static_cast<double>(population[from]));
        series.set_gauge("mob.pop.cell" + std::to_string(to),
                         static_cast<double>(population[to]));
        // The first `cohort` logical UEs are real: their handoff is a true
        // bulk DNS re-target (and, when enabled, an in-flight retarget).
        if (ue < bed.cohort_size()) {
          bed.cohort_handoff(ue).attach(to, /*retarget_dns=*/true);
        }
      });

  workload::LoadGenerator::Options lo;
  lo.ues = knobs.ues;
  lo.rate_hz = knobs.rate_hz;
  lo.duration = knobs.duration;
  lo.seed = seed;
  workload::LoadGenerator load(
      sim, lo, [&bed, &model, &series, &ok, &failed, &latencies](
                   std::uint32_t ue) {
        ran::UserEquipment& client =
            ue < bed.cohort_size()
                ? bed.cohort_ue(ue)
                : bed.aggregate_ue(model.cell_of(ue));
        char path[16];
        std::snprintf(path, sizeof(path), "/seg%04u",
                      ue % static_cast<std::uint32_t>(
                               topology::kChurnCatalogObjects));
        cdn::Url url;
        url.host = bed.content_name();
        url.path = path;
        client.resolve_and_fetch(
            url, [&series, &ok, &failed,
                  &latencies](const ran::UserEquipment::FetchOutcome& outcome) {
              series.add("fetch.requests");
              if (outcome.ok) {
                ++ok;
                latencies.add(outcome.total.to_millis());
                series.observe("fetch.total_ms", outcome.total.to_millis());
              } else {
                ++failed;
                series.add("fetch.failures");
              }
            });
      });

  // Overload-safe degradation includes elasticity: per-site control loops
  // add cache replicas when routed load per replica crosses the watermark.
  std::vector<std::unique_ptr<mec::AutoScaler>> scalers;
  if (mode != MobilityMode::kFragile) {
    for (std::uint16_t cell = 0; cell < knobs.cells; ++cell) {
      MecCdnSite* site = &bed.site(cell);
      mec::AutoScaler::Config ac;
      ac.interval = SimTime::seconds(1);
      ac.scale_up_per_replica = knobs.scale_up_per_replica;
      ac.scale_down_per_replica = knobs.scale_down_per_replica;
      ac.min_replicas = MecCdnSite::kEdgeCaches;
      ac.max_replicas = knobs.max_replicas;
      ac.cooldown_intervals = 2;
      scalers.push_back(std::make_unique<mec::AutoScaler>(
          sim, ac,
          [site] { return site->router()->router_stats().routed; },
          [site] { return site->active_edge_caches(); },
          [site] { return site->add_edge_cache() != nullptr; },
          [site] { return site->retire_edge_cache(); }));
      if (want_incidents) scalers.back()->set_journal(&journal, cell);
      scalers.back()->run_for(static_cast<std::size_t>(
          knobs.duration.count_nanos() / ac.interval.count_nanos()));
    }
  }

  model.start();
  for (std::uint16_t cell = 0; cell < knobs.cells; ++cell) {
    population[cell] = model.population(cell);
  }
  // Move the cohort to its modelled starting cells before any load flows.
  for (std::size_t i = 0; i < bed.cohort_size(); ++i) {
    bed.cohort_handoff(i).attach(model.cell_of(static_cast<std::uint32_t>(i)),
                                 /*retarget_dns=*/true);
  }
  std::uint64_t base_handoffs = 0;
  for (std::size_t i = 0; i < bed.cohort_size(); ++i) {
    base_handoffs += bed.cohort_handoff(i).handoffs();
  }
  load.start();
  const SimTime t0 = sim.now();
  sim.schedule_at(t0 + knobs.event_start, [&series, scenario] {
    series.annotate("phase", std::string(workload::mobility_slug(scenario)) +
                                 " event start");
  });
  sim.schedule_at(t0 + knobs.event_end, [&series, scenario] {
    series.annotate("phase", std::string(workload::mobility_slug(scenario)) +
                                 " event end");
  });
  sim.run();

  MobilityRunResult r;
  r.scenario = workload::mobility_slug(scenario);
  r.mode = mobility_mode_label(mode);
  r.issued = load.issued();
  r.ok = ok;
  r.failed = failed;
  r.success_rate =
      r.issued == 0 ? 0.0
                    : static_cast<double>(ok) / static_cast<double>(r.issued);
  r.latency = latencies.summarize();
  r.moves = model.moves();

  for (std::size_t i = 0; i < bed.cohort_size(); ++i) {
    r.cohort_handoffs += bed.cohort_handoff(i).handoffs();
    const dns::DnsTransport& t = bed.cohort_ue(i).resolver().transport();
    r.in_flight_retargets += t.retargets();
    r.ue_timeouts += t.timeouts();
    r.ue_retransmissions += t.retransmissions();
    r.ue_servfails += t.servfails();
    r.ue_failovers += t.failovers();
  }
  r.cohort_handoffs -= base_handoffs;
  for (std::uint16_t cell = 0; cell < knobs.cells; ++cell) {
    const dns::DnsTransport& t =
        bed.aggregate_ue(cell).resolver().transport();
    r.ue_timeouts += t.timeouts();
    r.ue_retransmissions += t.retransmissions();
    r.ue_servfails += t.servfails();
    r.ue_failovers += t.failovers();

    MecCdnSite& site = bed.site(cell);
    if (site.overload_guard() != nullptr) {
      const mec::OverloadGuardPlugin& guard = *site.overload_guard();
      r.shed += guard.shed();
      r.shed_queue_full += guard.shed_queue_full();
      r.guard_trips += guard.trips();
      r.guard_recoveries += guard.recoveries();
    }
    const cdn::RouterStats& rs = site.router()->router_stats();
    r.routed += rs.routed;
    r.referred_to_parent += rs.referred_to_parent;
    r.bounded_overflows += rs.bounded_overflows;
    r.capacity_exhausted += rs.capacity_exhausted;
    r.topology_changes += rs.topology_changes;
    r.max_remap_fraction = std::max(r.max_remap_fraction,
                                    rs.max_remap_fraction);
    r.max_site_replicas =
        std::max(r.max_site_replicas, site.active_edge_caches());
  }
  for (const auto& scaler : scalers) {
    r.scale_ups += scaler->scale_ups();
    r.scale_downs += scaler->scale_downs();
  }

  r.slo = obs::evaluate_slo(
      obs::success_slo("fetch.requests", "fetch.failures", knobs.slo_target),
      series);
  if (want_series) r.series_json = series.to_json();
  if (want_incidents) {
    obs::append_slo_journal(r.slo, journal);
    const obs::IncidentReport report = obs::correlate_incidents(journal);
    r.journal_json = journal.to_json();
    r.incidents_json = "{\"scenario\": \"" + r.scenario + "\", \"mode\": \"" +
                       r.mode + "\", " + obs::incident_report_json(report) +
                       "}";
  }
  return r;
}

std::string mobility_row_json(const MobilityRunResult& r) {
  char buf[1600];
  std::snprintf(
      buf, sizeof(buf),
      "{\"scenario\": \"%s\", \"mode\": \"%s\", \"issued\": %llu, "
      "\"ok\": %llu, \"failed\": %llu, \"success_rate\": %.4f, "
      "\"mean\": %.3f, \"p50\": %.3f, \"p90\": %.3f, \"p99\": %.3f, "
      "\"max\": %.3f, "
      "\"moves\": %llu, \"cohort_handoffs\": %llu, "
      "\"in_flight_retargets\": %llu, "
      "\"ue_timeouts\": %llu, \"ue_retransmissions\": %llu, "
      "\"ue_servfails\": %llu, \"ue_failovers\": %llu, "
      "\"shed\": %llu, \"shed_queue_full\": %llu, "
      "\"guard_trips\": %llu, \"guard_recoveries\": %llu, "
      "\"routed\": %llu, \"referred_to_parent\": %llu, "
      "\"bounded_overflows\": %llu, \"capacity_exhausted\": %llu, "
      "\"topology_changes\": %llu, \"max_remap_fraction\": %.4f, "
      "\"scale_ups\": %llu, \"scale_downs\": %llu, "
      "\"max_site_replicas\": %zu, "
      "\"slo_ok\": %s, \"slo_windows\": %zu, "
      "\"slo_windows_violated\": %zu, \"slo_budget_consumed\": %.4f, "
      "\"slo_worst_burn_rate\": %.4f, \"slo_first_violation_ms\": %.1f, "
      "\"slo_last_violation_ms\": %.1f}",
      r.scenario.c_str(), r.mode.c_str(),
      static_cast<unsigned long long>(r.issued),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.failed), r.success_rate,
      r.latency.mean, r.latency.p50, r.latency.p90, r.latency.p99,
      r.latency.max, static_cast<unsigned long long>(r.moves),
      static_cast<unsigned long long>(r.cohort_handoffs),
      static_cast<unsigned long long>(r.in_flight_retargets),
      static_cast<unsigned long long>(r.ue_timeouts),
      static_cast<unsigned long long>(r.ue_retransmissions),
      static_cast<unsigned long long>(r.ue_servfails),
      static_cast<unsigned long long>(r.ue_failovers),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.shed_queue_full),
      static_cast<unsigned long long>(r.guard_trips),
      static_cast<unsigned long long>(r.guard_recoveries),
      static_cast<unsigned long long>(r.routed),
      static_cast<unsigned long long>(r.referred_to_parent),
      static_cast<unsigned long long>(r.bounded_overflows),
      static_cast<unsigned long long>(r.capacity_exhausted),
      static_cast<unsigned long long>(r.topology_changes),
      r.max_remap_fraction, static_cast<unsigned long long>(r.scale_ups),
      static_cast<unsigned long long>(r.scale_downs), r.max_site_replicas,
      r.slo.ok ? "true" : "false", r.slo.windows.size(),
      r.slo.windows_violated, r.slo.budget_consumed, r.slo.worst_burn_rate,
      r.slo.first_violation_ms, r.slo.last_violation_ms);
  return buf;
}

}  // namespace mecdns::core
