// Mobility-churn robustness testbed: K MEC cells under handoff storms and
// flash crowds, fragile vs robust.
//
// The paper hands a UE to the nearest MEC L-DNS "as part of the cellular
// hand-off process" and stops there. This testbed asks what happens when
// *populations* move: a commute wave or a stadium flash crowd concentrates
// most of the UEs on one cell, and a highway handoff storm re-targets
// resolvers continuously. Each cell is a full RAN segment (eNB/S-GW/P-GW
// with NAT) fronting its own MecCdnSite; a shared provider L-DNS, public
// DNS hierarchy, WAN C-DNS and parent CDN tier provide the degraded-but-up
// path the robust configuration falls back to.
//
// Three configurations share one topology:
//   fragile        — the paper-measurement setup: bounded L-DNS service
//                    capacity with silent queue-overflow drops, no guard,
//                    unbounded consistent hashing, clients with no retries
//                    and no fallback. Converging load melts the hot cell.
//   robust         — overload-safe degradation on: SERVFAIL-shedding
//                    ingress guard (rate + queue-probe admission control),
//                    bounded-load edge allocation with parent-tier
//                    referrals, an AutoScaler adding cache replicas, and
//                    clients that retry, fail over to the provider L-DNS,
//                    chase referral CNAMEs and follow in-flight re-targets.
//   misconfigured  — the robust *site* with the client-side fallback
//                    forgotten: guard sheds become hard SERVFAILs. Reported
//                    under the robust label so CI gates can prove they
//                    catch a broken robustness story, not just a missing
//                    one.
//
// Mass load rides per-cell aggregate UEs selected by the mobility model's
// cell table (O(cells) client objects for 10^2..10^6 logical UEs); a small
// cohort of real UEs with HandoffManagers exercises true bulk DNS
// re-targets, including transactions in flight across the handoff.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/topology.h"
#include "mec/autoscaler.h"
#include "obs/incident.h"
#include "obs/slo.h"
#include "util/stats.h"
#include "workload/mobility.h"

namespace mecdns::core {

enum class MobilityMode {
  kFragile,
  kRobust,
  kMisconfigured,
};

/// The label a run reports under. Misconfigured runs claim "robust" — the
/// point of the gate is to fail them, not to excuse them.
const char* mobility_mode_label(MobilityMode mode);

/// Workload and capacity knobs shared by the bench and the tests. Defaults
/// are sized so the flash crowd concentrates ~2.4x the even per-cell load
/// on the target cell, past the fragile L-DNS's service capacity
/// (ldns_workers / 1.1 ms ~= 909 qps) but within reach of the robust
/// degradation path.
struct MobilityKnobs {
  std::uint32_t ues = 600;
  double rate_hz = 2.0;  ///< per-UE resolve-and-fetch rate (open loop)
  std::uint16_t cells = 3;
  /// Real UEs with HandoffManagers (the first `cohort` logical UEs); the
  /// rest issue through their current cell's aggregate UE.
  std::size_t cohort = 8;
  simnet::SimTime duration = simnet::SimTime::seconds(40);
  simnet::SimTime event_start = simnet::SimTime::seconds(10);
  simnet::SimTime event_end = simnet::SimTime::seconds(25);
  double participation = 0.8;
  simnet::SimTime crowd_burst = simnet::SimTime::seconds(2);
  simnet::SimTime dwell = simnet::SimTime::seconds(3);

  // --- per-site capacity (applies to every mode) ------------------------
  std::size_t ldns_workers = 1;
  std::size_t ldns_max_queue = 64;

  // --- robust machinery -------------------------------------------------
  /// Ingress-rate guard threshold (1 s window), kept just under the L-DNS
  /// service capacity so shedding starts before the queue rots.
  std::size_t guard_threshold_qps = 800;
  std::size_t guard_recovery_windows = 2;
  /// Queue-probe admission control: shed when the worker FIFO backlog
  /// reaches this depth.
  std::size_t queue_shed_limit = 48;
  /// Bounded-load allocation: routed selections per cache per 1 s window.
  std::uint64_t cache_selection_capacity = 300;
  /// AutoScaler watermarks (routed queries per replica per 1 s interval).
  double scale_up_per_replica = 250.0;
  double scale_down_per_replica = 80.0;
  std::size_t max_replicas = 4;

  double slo_target = 0.99;
  simnet::SimTime slo_window = simnet::SimTime::millis(500);
};

class MobilityTestbed {
 public:
  struct Config {
    MobilityMode mode = MobilityMode::kFragile;
    std::uint64_t seed = 42;
    MobilityKnobs knobs;
  };

  explicit MobilityTestbed(Config config);

  simnet::Simulator& simulator() { return *sim_; }
  simnet::Network& network() { return *net_; }
  MecCdnSite& site(std::uint16_t cell) { return *cells_.at(cell).site; }
  /// The cell's mass-load client: one UE object standing in for every
  /// logical UE currently camped on the cell.
  ran::UserEquipment& aggregate_ue(std::uint16_t cell) {
    return *aggregate_ues_.at(cell);
  }
  std::size_t cohort_size() const { return cohort_.size(); }
  ran::UserEquipment& cohort_ue(std::size_t i) { return *cohort_.at(i).ue; }
  ran::HandoffManager& cohort_handoff(std::size_t i) {
    return *cohort_.at(i).handoff;
  }
  const dns::DnsName& content_name() const { return content_name_; }
  simnet::Endpoint provider_endpoint() const {
    return topology::provider_endpoint();
  }

 private:
  void build();
  dns::DnsTransport::Options client_options() const;

  Config config_;
  dns::DnsName content_name_;
  std::unique_ptr<simnet::Simulator> sim_;
  std::unique_ptr<simnet::Network> net_;
  std::vector<topology::Cell> cells_;
  std::vector<std::unique_ptr<ran::UserEquipment>> aggregate_ues_;
  std::vector<topology::RoamingUe> cohort_;
  std::unique_ptr<dns::PublicDnsHierarchy> hierarchy_;
  std::unique_ptr<cdn::TrafficRouter> wan_cdns_;
  std::unique_ptr<cdn::TrafficRouter> mid_cdns_;
  std::unique_ptr<dns::RecursiveResolver> provider_ldns_;
  std::unique_ptr<cdn::OriginServer> origin_;
  std::unique_ptr<cdn::CacheServer> cloud_cache_;
};

/// One (scenario, mode) run's numbers — everything the bench table, the
/// JSON artifact and the CI verdicts need.
struct MobilityRunResult {
  std::string scenario;
  std::string mode;
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double success_rate = 0.0;
  util::Summary latency;  ///< successful requests, DNS + fetch, ms

  // Mobility / handoff machinery.
  std::uint64_t moves = 0;             ///< executed cell changes (all UEs)
  std::uint64_t cohort_handoffs = 0;   ///< real HandoffManager re-targets
  std::uint64_t in_flight_retargets = 0;  ///< transactions moved mid-flight

  // Client transports (aggregate + cohort UEs).
  std::uint64_t ue_timeouts = 0;
  std::uint64_t ue_retransmissions = 0;
  std::uint64_t ue_servfails = 0;
  std::uint64_t ue_failovers = 0;

  // Ingress guards, summed over cells.
  std::uint64_t shed = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t guard_trips = 0;
  std::uint64_t guard_recoveries = 0;

  // Edge allocation, summed (fractions: worst over cells).
  std::uint64_t routed = 0;
  std::uint64_t referred_to_parent = 0;
  std::uint64_t bounded_overflows = 0;
  std::uint64_t capacity_exhausted = 0;
  std::uint64_t topology_changes = 0;
  double max_remap_fraction = 0.0;

  // Auto-scaling, summed; replicas: worst (max) final count over cells.
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::size_t max_site_replicas = 0;

  obs::SloResult slo;      ///< fetch-success SLO over slo_window windows
  std::string series_json;  ///< when requested; "" otherwise

  // Control-plane forensics, when requested (want_incidents); "" otherwise.
  std::string journal_json;    ///< obs::Journal::to_json()
  std::string incidents_json;  ///< one BENCH_incidents scenario row
};

/// Runs one (scenario, mode) job in a private simulation. Deterministic:
/// the result (including series_json) is a pure function of the arguments.
MobilityRunResult run_mobility_job(workload::MobilityScenario scenario,
                                   MobilityMode mode, std::uint64_t seed,
                                   const MobilityKnobs& knobs,
                                   bool want_series,
                                   bool want_incidents = false);

/// Byte-stable one-row JSON fragment shared by the bench's --json-out and
/// the determinism tests (no trailing comma or newline).
std::string mobility_row_json(const MobilityRunResult& row);

}  // namespace mecdns::core
