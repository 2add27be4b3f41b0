#include "core/topology.h"

#include "core/mobility.h"

namespace mecdns::core::topology {

using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

namespace {
constexpr const char* kCloudGroup = "cloud";

dns::DnsName parent_domain() {
  return dns::DnsName::must_parse("cdn-parent.test");
}

simnet::Endpoint origin_endpoint() {
  return simnet::Endpoint{Ipv4Address::must_parse("198.51.100.10"),
                          cdn::kContentPort};
}

std::unique_ptr<ran::RanSegment> make_ran(simnet::Network& net,
                                          const std::string& name,
                                          const std::string& prefix,
                                          const std::string& pgw_addr,
                                          const ran::AccessProfile& access) {
  ran::RanSegment::Config rc;
  rc.name = name;
  rc.enb_addr = Ipv4Address::must_parse(prefix + ".0.1");
  rc.sgw_addr = Ipv4Address::must_parse(prefix + ".0.2");
  rc.pgw_addr = Ipv4Address::must_parse(pgw_addr);
  rc.ue_subnet = ue_subnet();
  rc.access = access;
  return std::make_unique<ran::RanSegment>(net, std::move(rc));
}
}  // namespace

simnet::Endpoint provider_endpoint() {
  return simnet::Endpoint{Ipv4Address::must_parse("10.201.0.53"),
                          dns::kDnsPort};
}

cdn::CacheInfo cloud_cache_info() {
  return cdn::CacheInfo{"cloud-cache", Ipv4Address::must_parse("198.51.100.20"),
                        true};
}

simnet::Ipv4Address ue_address() {
  return Ipv4Address::must_parse("10.45.0.2");
}

simnet::Cidr ue_subnet() { return simnet::Cidr::must_parse("10.45.0.0/16"); }

dns::DnsName cdn_domain() {
  return dns::DnsName::must_parse("mycdn.ciab.test");
}

dns::DnsName content_name() {
  return dns::DnsName::must_parse("video.demo1.mycdn.ciab.test");
}

LatencyModel server_processing(double mean_ms) {
  return LatencyModel::normal(SimTime::millis(mean_ms),
                              SimTime::millis(mean_ms * 0.12),
                              SimTime::millis(mean_ms * 0.4));
}

cdn::ContentCatalog demo_catalog() {
  cdn::ContentCatalog catalog;
  catalog.add_series(content_name(), "segment", 32, 2 * 1024 * 1024);
  cdn::Url manifest;
  manifest.host = content_name();
  manifest.path = "/index.m3u8";
  catalog.add(manifest, 4 * 1024);
  return catalog;
}

cdn::ContentCatalog demo2_catalog() {
  cdn::ContentCatalog catalog;
  catalog.add_series(dns::DnsName::must_parse("video.demo2.mycdn.ciab.test"),
                     "segment", 8, 2 * 1024 * 1024);
  return catalog;
}

cdn::ContentCatalog churn_catalog() {
  cdn::ContentCatalog catalog;
  catalog.add_series(content_name(), "seg", kChurnCatalogObjects, 64 * 1024);
  return catalog;
}

simnet::NodeId add_backbone(simnet::Network& net) {
  return net.add_node("internet-backbone",
                      Ipv4Address::must_parse("192.0.2.1"));
}

std::unique_ptr<cdn::OriginServer> add_origin(
    simnet::Network& net, simnet::NodeId backbone,
    const cdn::ContentCatalog& catalog) {
  const simnet::NodeId node =
      net.add_node("cloud-origin", origin_endpoint().addr);
  net.add_link(node, backbone, ran::wan_link(25.0));
  return std::make_unique<cdn::OriginServer>(net.runtime(node), "cloud-origin",
                                             catalog);
}

std::unique_ptr<cdn::CacheServer> add_cloud_cache(
    simnet::Network& net, simnet::NodeId backbone,
    const cdn::ContentCatalog& catalog) {
  const cdn::CacheInfo info = cloud_cache_info();
  const simnet::NodeId node = net.add_node(info.name, info.address);
  net.add_link(node, backbone, ran::wan_link(24.0));
  cdn::CacheServer::Config config;
  config.parent = origin_endpoint();
  auto cache = std::make_unique<cdn::CacheServer>(
      net.runtime(node), info.name, config, cdn::kContentPort, info.address);
  for (const auto& [url, object] : catalog.objects()) cache->warm(object);
  return cache;
}

std::unique_ptr<dns::PublicDnsHierarchy> add_public_dns(
    simnet::Network& net, simnet::NodeId backbone) {
  auto hierarchy = std::make_unique<dns::PublicDnsHierarchy>(
      net, backbone, ran::wan_link(15.0), server_processing(0.5));
  hierarchy->ensure_tld("test", Ipv4Address::must_parse("199.7.50.1"),
                        ran::wan_link(15.0));
  return hierarchy;
}

std::unique_ptr<cdn::TrafficRouter> add_wan_cdns(
    simnet::Network& net, simnet::NodeId backbone,
    dns::PublicDnsHierarchy& hierarchy, std::uint32_t answer_ttl,
    bool use_ecs) {
  const auto addr = Ipv4Address::must_parse("198.51.100.53");
  const simnet::NodeId node = net.add_node("wan-cdns", addr);
  net.add_link(node, backbone, ran::wan_link(kWanCdnsMs));
  cdn::TrafficRouter::Config config;
  config.cdn_domain = cdn_domain();
  config.answer_ttl = answer_ttl;
  config.use_ecs = use_ecs;
  auto router = std::make_unique<cdn::TrafficRouter>(
      net.runtime(node), "wan-cdns", server_processing(2.6), std::move(config),
      dns::kDnsPort, addr);
  hierarchy.delegate_to(cdn_domain(),
                        dns::DnsName::must_parse("ns1.mycdn.ciab.test"), addr);
  return router;
}

std::unique_ptr<cdn::TrafficRouter> add_mid_cdns(
    simnet::Network& net, simnet::NodeId backbone,
    dns::PublicDnsHierarchy& hierarchy,
    const std::vector<std::string>& services) {
  const auto addr = Ipv4Address::must_parse("198.51.100.63");
  const simnet::NodeId node = net.add_node("mid-cdns", addr);
  net.add_link(node, backbone, ran::wan_link(kWanCdnsMs));
  cdn::TrafficRouter::Config config;
  config.cdn_domain = parent_domain();
  config.answer_ttl = 0;
  auto router = std::make_unique<cdn::TrafficRouter>(
      net.runtime(node), "mid-cdns", server_processing(2.6), std::move(config),
      dns::kDnsPort, addr);
  serve_from_cloud(*router, parent_domain(), services);
  hierarchy.delegate_to(parent_domain(),
                        dns::DnsName::must_parse("ns1.cdn-parent.test"), addr);
  return router;
}

std::unique_ptr<dns::RecursiveResolver> add_provider_ldns(
    simnet::Network& net, const dns::PublicDnsHierarchy& hierarchy,
    const std::vector<simnet::NodeId>& pgws) {
  const Ipv4Address addr = provider_endpoint().addr;
  const simnet::NodeId node = net.add_node("provider-ldns", addr);
  for (const simnet::NodeId pgw : pgws) {
    net.add_link(pgw, node, ran::wan_link(kProviderLdnsMs));
  }
  dns::RecursiveResolver::Config config;
  config.root_servers = hierarchy.root_hints();
  return std::make_unique<dns::RecursiveResolver>(
      net.runtime(node), "provider-ldns", server_processing(0.8), config, addr);
}

void serve_from_cloud(cdn::TrafficRouter& router, const dns::DnsName& domain,
                      const std::vector<std::string>& services) {
  router.add_cache(kCloudGroup, cloud_cache_info());
  router.coverage().set_default_group(kCloudGroup);
  for (const std::string& id : services) {
    router.add_delivery_service(cdn::DeliveryService{
        id, dns::DnsName::must_parse(id + "." + domain.to_string()),
        {kCloudGroup}});
  }
}

std::unique_ptr<ran::RanSegment> add_ran(simnet::Network& net,
                                         const std::string& name,
                                         const ran::AccessProfile& access) {
  return make_ran(net, name, "10.100", "203.0.113.1", access);
}

simnet::LinkId link_to_backbone(simnet::Network& net,
                                const ran::RanSegment& ran,
                                simnet::NodeId backbone) {
  return net.add_link(ran.pgw(), backbone, ran::wan_link(kPgwToInternetMs));
}

std::unique_ptr<MecCdnSite> add_site(simnet::Network& net,
                                     const ran::RanSegment& ran,
                                     MecCdnSite::Config site) {
  auto mec = std::make_unique<MecCdnSite>(net, std::move(site));
  net.add_link(ran.pgw(), mec->gateway(),
               LatencyModel::constant(SimTime::millis(kPgwToMecMs)));
  return mec;
}

Cell add_cell(simnet::Network& net, std::uint16_t index,
              simnet::NodeId backbone, MecCdnSite::Config site) {
  const std::string prefix = "10.1" + std::to_string(index + 1);
  Cell cell;
  cell.ran = make_ran(net, "cell-" + std::to_string(index), prefix,
                      "203.0." + std::to_string(113 + index) + ".1",
                      ran::lte());
  if (backbone != simnet::kInvalidNode) {
    link_to_backbone(net, *cell.ran, backbone);
  }
  site.name = "mec-" + std::to_string(index);
  site.node_cidr = simnet::Cidr::must_parse(prefix + ".64.0/24");
  site.service_cidr = simnet::Cidr::must_parse(prefix + ".128.0/20");
  cell.site = add_site(net, *cell.ran, std::move(site));
  return cell;
}

MecCdnSite::Config fig5_site(const Fig5Testbed::Config& testbed,
                             std::optional<simnet::Endpoint> external_cdns) {
  MecCdnSite::Config site;
  site.answer_ttl = testbed.answer_ttl;
  site.enable_ecs = testbed.enable_ecs;
  site.origin = origin_endpoint();
  site.ldns_processing = server_processing(2.4);
  site.cdns_processing = server_processing(2.6);
  site.overload_threshold_qps = testbed.overload_threshold_qps;
  site.overload_recovery_windows = testbed.overload_recovery_windows;
  site.serve_stale = testbed.serve_stale;
  site.cdns_fallback_to_provider = testbed.cdns_fallback_to_provider;
  if (testbed.provider_fallback) {
    site.provider_ldns = provider_endpoint();
    // Misses at the edge C-DNS cascade into the parent tier's CDN domain.
    site.parent_cdn_domain = parent_domain();
  }
  site.external_cdns = external_cdns;
  return site;
}

MecCdnSite::Config churn_site(MobilityMode mode, const MobilityKnobs& knobs) {
  MecCdnSite::Config site;
  site.origin = origin_endpoint();
  site.provider_ldns = provider_endpoint();
  site.parent_cdn_domain = parent_domain();
  // The capacity constraint exists in every mode: robustness is in the
  // handling, not in pretending the L-DNS is infinite.
  site.ldns_workers = knobs.ldns_workers;
  site.ldns_max_queue = knobs.ldns_max_queue;
  if (mode != MobilityMode::kFragile) {
    site.overload_threshold_qps = knobs.guard_threshold_qps;
    site.overload_recovery_windows = knobs.guard_recovery_windows;
    site.overload_action = mec::OverloadAction::kServFail;
    site.overload_queue_limit = knobs.queue_shed_limit;
    site.cache_selection_capacity = knobs.cache_selection_capacity;
    site.cdns_fallback_to_provider = true;
  }
  return site;
}

RoamingUe add_roaming_ue(simnet::Network& net, std::vector<Cell>& cells,
                         const std::string& name, simnet::Ipv4Address addr,
                         dns::DnsTransport::Options options) {
  RoamingUe roaming;
  roaming.ue = std::make_unique<ran::UserEquipment>(
      net, *cells[0].ran, name, addr, cells[0].site->ldns_endpoint(),
      std::move(options));
  roaming.handoff = std::make_unique<ran::HandoffManager>(net, *roaming.ue);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    simnet::LinkId air = 0;
    if (i == 0) {
      air = cells[0].ran->ue_link(roaming.ue->node());
    } else {
      const ran::AccessProfile lte = ran::lte();
      air = net.add_link(roaming.ue->node(), cells[i].ran->enb(), lte.uplink,
                         lte.downlink);
      net.set_link_up(air, false);
    }
    roaming.handoff->add_cell(ran::HandoffManager::Cell{
        "cell-" + std::to_string(i), cells[i].ran.get(), air,
        cells[i].site->ldns_endpoint()});
  }
  roaming.handoff->attach(0);
  return roaming;
}

}  // namespace mecdns::core::topology
