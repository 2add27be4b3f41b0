// The MEC-CDN topology builder: one unit, repeated.
//
// A cell is a RAN segment whose P-GW fronts a MEC site (split-namespace
// L-DNS chained to an in-cluster C-DNS, plus edge caches). Behind the cells
// sits a shared cloud tier: origin, cloud cache, public DNS, the CDN's WAN
// C-DNS, the parent-tier C-DNS and the provider L-DNS. This module owns the
// addressing plan, the calibration delays, the server-processing model, the
// demo catalogs and one step per piece; every testbed is a composition of
// those steps. Each step creates its nodes and links when it is called, so
// a testbed's call order is its creation order, and with it the node ids
// (which seed every component's RNG), node names and link ids.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fig5.h"
#include "ran/handoff.h"

namespace mecdns::core {

struct MobilityKnobs;
enum class MobilityMode;

namespace topology {

// --- calibration: one-way link delays in ms (Figure 5's shape) -------------
inline constexpr double kPgwToMecMs = 0.5;        ///< P-GW <-> MEC cluster
inline constexpr double kLanCdnsMs = 3.3;         ///< MEC <-> LAN C-DNS
inline constexpr double kPgwToInternetMs = 4.0;   ///< P-GW <-> backbone
inline constexpr double kWanCdnsMs = 11.7;        ///< backbone <-> CDN cloud
inline constexpr double kProviderLdnsMs = 14.55;  ///< P-GW <-> provider L-DNS
inline constexpr double kGoogleMs = 14.0;         ///< anycast: near
inline constexpr double kCloudflareMs = 57.3;     ///< the paper's slow path

// --- addressing plan, names and models --------------------------------------
/// Fixed, so fallback lists can name it before add_provider_ldns() runs.
simnet::Endpoint provider_endpoint();
cdn::CacheInfo cloud_cache_info();
simnet::Ipv4Address ue_address();  ///< a cell's first UE
simnet::Cidr ue_subnet();          ///< what every P-GW NATs
dns::DnsName cdn_domain();         ///< mycdn.ciab.test
dns::DnsName content_name();       ///< video.demo1.mycdn.ciab.test
/// Per-query processing time of a DNS server with the given mean.
simnet::LatencyModel server_processing(double mean_ms);

/// demo1: 32 two-MiB segments plus a manifest under content_name().
cdn::ContentCatalog demo_catalog();
/// demo2: 8 segments deployed only at the parent tier.
cdn::ContentCatalog demo2_catalog();
/// demo1 as 64 KiB "/seg0000".. objects: churn stresses lookups, not
/// transfers.
inline constexpr std::size_t kChurnCatalogObjects = 16;
cdn::ContentCatalog churn_catalog();

// --- the shared cloud tier --------------------------------------------------
simnet::NodeId add_backbone(simnet::Network& net);
std::unique_ptr<cdn::OriginServer> add_origin(
    simnet::Network& net, simnet::NodeId backbone,
    const cdn::ContentCatalog& catalog);
/// Backed by the origin, warmed with `catalog`.
std::unique_ptr<cdn::CacheServer> add_cloud_cache(
    simnet::Network& net, simnet::NodeId backbone,
    const cdn::ContentCatalog& catalog);
/// Root and .test TLD servers.
std::unique_ptr<dns::PublicDnsHierarchy> add_public_dns(
    simnet::Network& net, simnet::NodeId backbone);
/// Delegated cdn_domain(); callers register its caches and services.
std::unique_ptr<cdn::TrafficRouter> add_wan_cdns(
    simnet::Network& net, simnet::NodeId backbone,
    dns::PublicDnsHierarchy& hierarchy, std::uint32_t answer_ttl,
    bool use_ecs);
/// The parent tier: delegated cdn-parent.test, serving `services` from
/// the cloud cache.
std::unique_ptr<cdn::TrafficRouter> add_mid_cdns(
    simnet::Network& net, simnet::NodeId backbone,
    dns::PublicDnsHierarchy& hierarchy,
    const std::vector<std::string>& services);
/// Linked to every P-GW in `pgws`.
std::unique_ptr<dns::RecursiveResolver> add_provider_ldns(
    simnet::Network& net, const dns::PublicDnsHierarchy& hierarchy,
    const std::vector<simnet::NodeId>& pgws);
/// Routes each "<service>.<domain>" to the cloud cache, the default group.
void serve_from_cloud(cdn::TrafficRouter& router, const dns::DnsName& domain,
                      const std::vector<std::string>& services);

// --- cells ------------------------------------------------------------------
/// The paper testbed's RAN: 10.100.0.1/.2 behind P-GW 203.0.113.1.
std::unique_ptr<ran::RanSegment> add_ran(simnet::Network& net,
                                         const std::string& name,
                                         const ran::AccessProfile& access);
simnet::LinkId link_to_backbone(simnet::Network& net,
                                const ran::RanSegment& ran,
                                simnet::NodeId backbone);
/// A MEC site one kPgwToMecMs hop from `ran`'s P-GW.
std::unique_ptr<MecCdnSite> add_site(simnet::Network& net,
                                     const ran::RanSegment& ran,
                                     MecCdnSite::Config site = {});

struct Cell {
  std::unique_ptr<ran::RanSegment> ran;
  std::unique_ptr<MecCdnSite> site;
};

/// Cell `index` (0..8): RAN "cell-<index>" at 10.1<index+1>.0.0/16 behind
/// P-GW 203.0.<113+index>.1, MEC cluster "mec-<index>" in the same /16.
/// The P-GW links to `backbone` unless it is simnet::kInvalidNode.
Cell add_cell(simnet::Network& net, std::uint16_t index,
              simnet::NodeId backbone, MecCdnSite::Config site = {});

/// Figure 5's site: calibrated processing, the cloud origin, the testbed's
/// TTL/ECS/guard/serve-stale settings, the provider path and parent tier
/// with provider_fallback, the C-DNS at `external_cdns` when set.
MecCdnSite::Config fig5_site(const Fig5Testbed::Config& testbed,
                             std::optional<simnet::Endpoint> external_cdns);
/// A mobility cell's site: bounded L-DNS capacity chained to the cloud
/// tier; outside kFragile also the shedding guard, bounded-load allocation
/// and C-DNS failover to the provider.
MecCdnSite::Config churn_site(MobilityMode mode, const MobilityKnobs& knobs);

// --- clients ----------------------------------------------------------------
struct RoamingUe {
  std::unique_ptr<ran::UserEquipment> ue;
  std::unique_ptr<ran::HandoffManager> handoff;
};

/// A UE on cells[0] resolving through its MEC L-DNS, with down air links to
/// the other cells and a HandoffManager attached to cell 0.
RoamingUe add_roaming_ue(simnet::Network& net, std::vector<Cell>& cells,
                         const std::string& name, simnet::Ipv4Address addr,
                         dns::DnsTransport::Options options = {});

}  // namespace topology
}  // namespace mecdns::core
