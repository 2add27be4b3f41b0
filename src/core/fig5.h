// The Figure 5 LTE testbed: six DNS deployment scenarios.
//
// Recreates the paper's prototype — srsLTE RAN + NextEPC core + Kubernetes
// + CoreDNS + Apache Traffic Control, all "collocated at the edge of
// network" — as a simulated topology, and measures DNS lookup latency for
// video.demo1.mycdn.ciab.test under each resolver deployment the paper
// compares:
//
//   1. MEC L-DNS w/ MEC C-DNS   — the proposal (both in the MEC cluster)
//   2. MEC L-DNS w/ LAN C-DNS   — ETSI/3GPP-style: C-DNS one LAN hop away
//   3. MEC L-DNS w/ WAN C-DNS   — C-DNS at the CDN's cloud site
//   4. LAN L-DNS                — provider L-DNS behind the cellular core
//   5. Google DNS               — cloud public resolver (well-peered)
//   6. Cloudflare DNS           — CDN-operated public resolver (the slow
//                                 path from the paper's testbed)
//
// Every scenario carries real DNS wire traffic end to end; the breakdown
// into "wireless" and "DNS query over LTE" segments comes from the DnsTap
// at the P-GW, exactly like the paper's tcpdump.
#pragma once

#include <memory>
#include <string>

#include "cdn/cache_server.h"
#include "cdn/traffic_router.h"
#include "core/experiment.h"
#include "core/mec_cdn.h"
#include "dns/hierarchy.h"
#include "dns/recursive.h"
#include "ran/segment.h"
#include "ran/tap.h"
#include "ran/ue.h"

namespace mecdns::core {

enum class Fig5Deployment {
  kMecLdnsMecCdns,
  kMecLdnsLanCdns,
  kMecLdnsWanCdns,
  kProviderLdns,
  kGoogleDns,
  kCloudflareDns,
};

/// The paper's bar label.
std::string to_string(Fig5Deployment deployment);

/// All six, in the figure's order.
const std::vector<Fig5Deployment>& all_fig5_deployments();

class Fig5Testbed {
 public:
  struct Config {
    Fig5Deployment deployment = Fig5Deployment::kMecLdnsMecCdns;
    std::uint64_t seed = 42;
    bool enable_ecs = false;
    ran::AccessProfile access = ran::lte();

    /// Always build the provider L-DNS and configure the MEC L-DNS to
    /// forward non-MEC queries to it (the split-namespace ablation and the
    /// overload fallback need both paths live at once).
    bool provider_fallback = false;
    /// Overload guard threshold for the MEC L-DNS public view (0 = off).
    std::size_t overload_threshold_qps = 0;
    /// Overload-guard recovery hysteresis windows (0 = stateless guard).
    std::size_t overload_recovery_windows = 0;

    // --- robustness knobs (defaults reproduce the fragile baseline) -----
    /// UE stub transport options: retry/backoff/failover-server knobs for
    /// the fault-availability experiments.
    dns::DnsTransport::Options ue_dns_options;
    /// Routed-answer TTL (0 = per-query routing, as the paper measured).
    /// Non-zero lets the L-DNS cache answers — a prerequisite for
    /// serve-stale to have anything stale to serve.
    std::uint32_t answer_ttl = 0;
    /// RFC 8767 serve-stale on the MEC L-DNS public-view cache.
    bool serve_stale = false;
    /// Append the provider L-DNS to the L-DNS's stub-domain forward and
    /// fail over to it on SERVFAIL or timeout from the MEC C-DNS (requires
    /// provider_fallback). The provider resolves the CDN domain through
    /// the public hierarchy to the WAN C-DNS — the degraded-but-up path.
    bool cdns_fallback_to_provider = false;
  };

  explicit Fig5Testbed(Config config);

  /// Attaches observability to the measurement path: spans per lookup into
  /// `trace`, runner histograms into `metrics`. Either may be nullptr.
  void set_observers(obs::TraceSink* trace, obs::Registry* metrics) {
    trace_sink_ = trace;
    metrics_ = metrics;
  }

  /// Attaches a sim-time-windowed series, forwarded to the QueryRunner.
  void set_timeseries(obs::TimeSeries* series) { timeseries_ = series; }

  /// Snapshots every component's counters into `registry`: the MEC site
  /// (L-DNS, C-DNS, edge caches), the scenario's external routers, the
  /// provider/public resolvers, the cloud cache and the P-GW tap.
  void export_metrics(obs::Registry& registry) const;

  /// Runs `queries` measured lookups (plus warmups) of the content name.
  SeriesResult measure(std::size_t queries = 50,
                       simnet::SimTime spacing = simnet::SimTime::seconds(2));

  /// Measures lookups of an arbitrary name (ablation benches).
  SeriesResult measure_name(const dns::DnsName& name, std::size_t queries,
                            simnet::SimTime spacing, std::size_t warmup = 3);

  /// The content's DNS name: video.demo1.mycdn.ciab.test.
  const dns::DnsName& content_name() const { return content_name_; }

  /// A regular (non-MEC) web CDN domain hosted across the WAN; resolvable
  /// through the provider path. Only present with provider_fallback.
  const dns::DnsName& web_name() const { return web_name_; }

  /// Content of a delivery service deployed only at the parent CDN tier
  /// (not at the MEC): resolving it through the MEC C-DNS yields a
  /// cascading CNAME into the parent tier's domain. Only present with
  /// provider_fallback.
  const dns::DnsName& tier2_name() const { return tier2_name_; }

  /// The provider L-DNS endpoint (fixed by the addressing plan, so it is
  /// known whether or not this deployment builds the provider).
  simnet::Endpoint provider_endpoint() const;

  /// True if `addr` is one of the MEC edge caches' cluster IPs.
  bool is_mec_cache(simnet::Ipv4Address addr) const;
  /// True if `addr` is the cloud cache.
  bool is_cloud_cache(simnet::Ipv4Address addr) const {
    return addr == cloud_cache_->endpoint().addr;
  }

  simnet::Network& network() { return *net_; }
  simnet::Simulator& simulator() { return *sim_; }
  ran::UserEquipment& ue() { return *ue_; }
  ran::RanSegment& ran() { return *ran_; }
  MecCdnSite& site() { return *site_; }

  // --- fault-injection handles (chaos scenarios) --------------------------
  /// Node hosting the MEC L-DNS (the cluster "infra" worker).
  simnet::NodeId mec_ldns_node() const;
  /// The provider L-DNS node (kInvalidNode when not built).
  simnet::NodeId provider_ldns_node() const;
  /// P-GW <-> internet backbone (the WAN exit).
  simnet::LinkId pgw_backbone_link() const { return pgw_backbone_link_; }
  dns::RecursiveResolver* provider_ldns() { return provider_ldns_.get(); }
  /// The C-DNS the active scenario resolves through (for ECS toggling and
  /// answer-correctness checks). The in-cluster router for scenario 1,
  /// the LAN or WAN router otherwise.
  cdn::TrafficRouter& active_router();

 private:
  void build();

  Config config_;
  dns::DnsName content_name_;
  dns::DnsName web_name_;
  dns::DnsName tier2_name_;
  std::unique_ptr<simnet::Simulator> sim_;
  std::unique_ptr<simnet::Network> net_;
  std::unique_ptr<ran::RanSegment> ran_;
  std::unique_ptr<ran::UserEquipment> ue_;
  std::unique_ptr<ran::DnsTap> tap_;
  std::unique_ptr<MecCdnSite> site_;
  std::unique_ptr<dns::PublicDnsHierarchy> hierarchy_;
  std::unique_ptr<cdn::TrafficRouter> lan_cdns_;
  std::unique_ptr<cdn::TrafficRouter> wan_cdns_;
  std::unique_ptr<cdn::TrafficRouter> mid_cdns_;
  std::unique_ptr<dns::RecursiveResolver> provider_ldns_;
  std::unique_ptr<dns::RecursiveResolver> public_resolver_;
  std::unique_ptr<cdn::OriginServer> origin_;
  std::unique_ptr<cdn::CacheServer> cloud_cache_;
  simnet::LinkId pgw_backbone_link_ = 0;
  obs::TraceSink* trace_sink_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  obs::TimeSeries* timeseries_ = nullptr;
};

}  // namespace mecdns::core
