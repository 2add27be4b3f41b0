#include "core/fig5.h"

#include <stdexcept>

#include "core/metrics_export.h"

namespace mecdns::core {

using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

std::string to_string(Fig5Deployment deployment) {
  switch (deployment) {
    case Fig5Deployment::kMecLdnsMecCdns: return "MEC L-DNS w/ MEC C-DNS";
    case Fig5Deployment::kMecLdnsLanCdns: return "MEC L-DNS w/ LAN C-DNS";
    case Fig5Deployment::kMecLdnsWanCdns: return "MEC L-DNS w/ WAN C-DNS";
    case Fig5Deployment::kProviderLdns: return "LAN L-DNS";
    case Fig5Deployment::kGoogleDns: return "Google DNS";
    case Fig5Deployment::kCloudflareDns: return "Cloudflare DNS";
  }
  return "?";
}

const std::vector<Fig5Deployment>& all_fig5_deployments() {
  static const std::vector<Fig5Deployment> kAll = {
      Fig5Deployment::kMecLdnsMecCdns, Fig5Deployment::kMecLdnsLanCdns,
      Fig5Deployment::kMecLdnsWanCdns, Fig5Deployment::kProviderLdns,
      Fig5Deployment::kGoogleDns,      Fig5Deployment::kCloudflareDns,
  };
  return kAll;
}

namespace {
constexpr const char* kEdgeGroup = "mec-edge";
constexpr const char* kCloudGroup = "cloud";

cdn::ContentCatalog demo_catalog(const dns::DnsName& content_host) {
  cdn::ContentCatalog catalog;
  catalog.add_series(content_host, "segment", 32, 2 * 1024 * 1024);
  cdn::Url manifest;
  manifest.host = content_host;
  manifest.path = "/index.m3u8";
  catalog.add(manifest, 4 * 1024);
  return catalog;
}

LatencyModel server_processing(double mean_ms) {
  return LatencyModel::normal(SimTime::millis(mean_ms),
                              SimTime::millis(mean_ms * 0.12),
                              SimTime::millis(mean_ms * 0.4));
}
}  // namespace

Fig5Testbed::Fig5Testbed(Config config)
    : config_(std::move(config)),
      content_name_(dns::DnsName::must_parse("video.demo1.mycdn.ciab.test")) {
  build();
}

void Fig5Testbed::build() {
  sim_ = std::make_unique<simnet::Simulator>();
  net_ = std::make_unique<simnet::Network>(*sim_, util::Rng(config_.seed));
  backbone_ =
      net_->add_node("internet-backbone", Ipv4Address::must_parse("192.0.2.1"));

  const dns::DnsName cdn_domain = dns::DnsName::must_parse("mycdn.ciab.test");

  // --- RAN: UE - eNB - S-GW - P-GW(NAT) -----------------------------------
  ran::RanSegment::Config rc;
  rc.name = "lte";
  rc.enb_addr = Ipv4Address::must_parse("10.100.0.1");
  rc.sgw_addr = Ipv4Address::must_parse("10.100.0.2");
  rc.pgw_addr = Ipv4Address::must_parse("203.0.113.1");
  rc.ue_subnet = simnet::Cidr::must_parse("10.45.0.0/16");
  rc.access = config_.access;
  ran_ = std::make_unique<ran::RanSegment>(*net_, rc);
  // The paper's tcpdump at P-GW: client-side DNS only (uplink queries still
  // carry the UE source here — taps run before the NAT — and downlink
  // responses are addressed to the gateway's public address), so a resolver
  // hairpinning upstream lookups through the core is not miscounted.
  const simnet::Cidr ue_subnet = rc.ue_subnet;
  const Ipv4Address pgw_public = rc.pgw_addr;
  tap_ = std::make_unique<ran::DnsTap>(
      *net_, ran_->pgw(), [ue_subnet, pgw_public](const simnet::Packet& p) {
        return ue_subnet.contains(p.src.addr) || p.dst.addr == pgw_public;
      });
  pgw_backbone_link_ = net_->add_link(
      ran_->pgw(), backbone_, ran::wan_link(config_.pgw_to_internet_ms));

  // --- content, origin and the CDN's cloud tier ----------------------------
  const cdn::ContentCatalog catalog = demo_catalog(content_name_);
  const auto origin_addr = Ipv4Address::must_parse("198.51.100.10");
  const simnet::NodeId origin_node = net_->add_node("cloud-origin", origin_addr);
  net_->add_link(origin_node, backbone_, ran::wan_link(25.0));
  origin_ = std::make_unique<cdn::OriginServer>(net_->runtime(origin_node),
                                                "cloud-origin", catalog);

  cloud_cache_addr_ = Ipv4Address::must_parse("198.51.100.20");
  const simnet::NodeId cloud_cache_node =
      net_->add_node("cloud-cache", cloud_cache_addr_);
  net_->add_link(cloud_cache_node, backbone_, ran::wan_link(24.0));
  cdn::CacheServer::Config ccc;
  ccc.parent = simnet::Endpoint{origin_addr, cdn::kContentPort};
  cloud_cache_ = std::make_unique<cdn::CacheServer>(
      net_->runtime(cloud_cache_node), "cloud-cache", ccc, cdn::kContentPort,
      cloud_cache_addr_);
  for (const auto& [url, object] : catalog.objects()) {
    cloud_cache_->warm(object);
  }

  // --- public DNS hierarchy (root, .test TLD) ------------------------------
  hierarchy_ = std::make_unique<dns::PublicDnsHierarchy>(
      *net_, backbone_, ran::wan_link(15.0), server_processing(0.5));
  hierarchy_->ensure_tld("test", Ipv4Address::must_parse("199.7.50.1"),
                         ran::wan_link(15.0));

  // --- the CDN's public (WAN) C-DNS — authoritative for the CDN domain -----
  const auto wan_cdns_addr = Ipv4Address::must_parse("198.51.100.53");
  const simnet::NodeId wan_cdns_node = net_->add_node("wan-cdns", wan_cdns_addr);
  net_->add_link(wan_cdns_node, backbone_, ran::wan_link(config_.wan_cdns_ms));
  {
    cdn::TrafficRouter::Config wc;
    wc.cdn_domain = cdn_domain;
    wc.answer_ttl = config_.answer_ttl;
    wc.use_ecs = config_.enable_ecs;
    wan_cdns_ = std::make_unique<cdn::TrafficRouter>(
        net_->runtime(wan_cdns_node), "wan-cdns", server_processing(2.6),
        std::move(wc), dns::kDnsPort, wan_cdns_addr);
  }
  hierarchy_->delegate_to(cdn_domain,
                          dns::DnsName::must_parse("ns1.mycdn.ciab.test"),
                          wan_cdns_addr);

  // --- LAN C-DNS node (scenario 2's external router) ------------------------
  const auto lan_cdns_addr = Ipv4Address::must_parse("10.200.0.53");
  const simnet::NodeId lan_cdns_node = net_->add_node("lan-cdns", lan_cdns_addr);

  // --- the MEC site ----------------------------------------------------------
  MecCdnSite::Config sc;
  sc.cdn_domain = cdn_domain;
  sc.answer_ttl = config_.answer_ttl;
  sc.enable_ecs = config_.enable_ecs;
  sc.origin = simnet::Endpoint{origin_addr, cdn::kContentPort};
  sc.ldns_processing = server_processing(2.4);
  sc.cdns_processing = server_processing(2.6);
  sc.overload_threshold_qps = config_.overload_threshold_qps;
  sc.overload_recovery_windows = config_.overload_recovery_windows;
  sc.serve_stale = config_.serve_stale;
  sc.cdns_fallback_to_provider = config_.cdns_fallback_to_provider;
  if (config_.provider_fallback) {
    // The provider resolver is built later, but its address is fixed.
    sc.provider_ldns = simnet::Endpoint{
        Ipv4Address::must_parse("10.201.0.53"), dns::kDnsPort};
    // Misses at the edge C-DNS cascade into the parent tier's CDN domain.
    sc.parent_cdn_domain = dns::DnsName::must_parse("cdn-parent.test");
  }
  switch (config_.deployment) {
    case Fig5Deployment::kMecLdnsLanCdns:
      sc.external_cdns = simnet::Endpoint{lan_cdns_addr, dns::kDnsPort};
      break;
    case Fig5Deployment::kMecLdnsWanCdns:
      sc.external_cdns = simnet::Endpoint{wan_cdns_addr, dns::kDnsPort};
      break;
    default:
      break;  // in-cluster C-DNS
  }
  site_ = std::make_unique<MecCdnSite>(*net_, sc);
  const simnet::NodeId mec_gw = site_->orchestrator().cluster().gateway();
  pgw_mec_link_ = net_->add_link(
      ran_->pgw(), mec_gw,
      LatencyModel::constant(SimTime::millis(config_.pgw_to_mec_ms)));
  mec_lan_link_ = net_->add_link(
      mec_gw, lan_cdns_node,
      LatencyModel::constant(SimTime::millis(config_.lan_cdns_ms)));

  // LAN C-DNS: same routing scope as the in-cluster router, one LAN hop out.
  {
    cdn::TrafficRouter::Config lc;
    lc.cdn_domain = cdn_domain;
    lc.answer_ttl = config_.answer_ttl;
    lc.use_ecs = config_.enable_ecs;
    lan_cdns_ = std::make_unique<cdn::TrafficRouter>(
        net_->runtime(lan_cdns_node), "lan-cdns", server_processing(2.6),
        std::move(lc), dns::kDnsPort, lan_cdns_addr);
    lan_cdns_->coverage().set_default_group(kEdgeGroup);
  }

  // Register the MEC edge caches and the delivery service with every
  // router that can route to this site.
  site_->add_delivery_service("demo1", catalog, /*warm_caches=*/true);
  const auto caches = site_->caches();
  for (std::size_t i = 0; i < caches.size(); ++i) {
    const cdn::CacheInfo info{caches[i]->name(), site_->cache_address(i), true};
    lan_cdns_->add_cache(kEdgeGroup, info);
    wan_cdns_->add_cache(kEdgeGroup, info);
  }
  lan_cdns_->add_delivery_service(
      cdn::DeliveryService{"demo1",
                           dns::DnsName::must_parse("demo1.mycdn.ciab.test"),
                           {kEdgeGroup}});
  wan_cdns_->add_cache(kCloudGroup,
                       cdn::CacheInfo{"cloud-cache", cloud_cache_addr_, true});
  wan_cdns_->add_delivery_service(
      cdn::DeliveryService{"demo1",
                           dns::DnsName::must_parse("demo1.mycdn.ciab.test"),
                           {kEdgeGroup, kCloudGroup}});
  // The WAN router serves both worlds: queries arriving from the MEC
  // complex (scenario 3, or ECS disclosing the mobile gateway's subnet)
  // route to the MEC edge caches; everything else goes to the cloud tier.
  const auto& cluster_cfg = site_->orchestrator().cluster().config();
  wan_cdns_->coverage().add(cluster_cfg.node_cidr, kEdgeGroup);
  wan_cdns_->coverage().add(cluster_cfg.service_cidr, kEdgeGroup);
  wan_cdns_->coverage().add(simnet::Cidr(rc.pgw_addr, 24), kEdgeGroup);
  wan_cdns_->coverage().set_default_group(kCloudGroup);
  lan_cdns_->coverage().add(simnet::Cidr(rc.pgw_addr, 24), kEdgeGroup);
  if (site_->router() != nullptr) {
    site_->router()->coverage().add(simnet::Cidr(rc.pgw_addr, 24), kEdgeGroup);
  }

  // --- alternative resolvers (scenarios 4-6) --------------------------------
  dns::RecursiveResolver::Config rcfg;
  rcfg.root_servers = hierarchy_->root_hints();

  if (config_.provider_fallback &&
      config_.deployment != Fig5Deployment::kProviderLdns) {
    const auto addr = Ipv4Address::must_parse("10.201.0.53");
    const simnet::NodeId node = net_->add_node("provider-ldns", addr);
    provider_node_ = node;
    pgw_provider_link_ = net_->add_link(ran_->pgw(), node,
                                        ran::wan_link(config_.provider_ldns_ms));
    provider_ldns_ = std::make_unique<dns::RecursiveResolver>(
        net_->runtime(node), "provider-ldns", server_processing(0.8), rcfg,
        addr);
  }
  if (config_.provider_fallback) {
    // A regular web CDN domain, reachable only via the provider path —
    // the "non-latency-critical content" of the namespace ablation.
    web_name_ = dns::DnsName::must_parse("img.webshop.test");
    dns::AuthoritativeServer& auth = hierarchy_->add_authoritative(
        dns::DnsName::must_parse("webshop.test"),
        Ipv4Address::must_parse("198.51.100.80"), ran::wan_link(12.0));
    auth.find_zone(web_name_)->must_add(dns::make_a(
        web_name_, Ipv4Address::must_parse("198.18.0.99"), 0));

    // The parent CDN tier: a mid/cloud Traffic Router authoritative for
    // cdn-parent.test, serving delivery service "demo2" (which is NOT
    // deployed at the MEC). The edge C-DNS refers demo2 queries here via a
    // cascading CNAME; the UE chases it through the provider path.
    tier2_name_ = dns::DnsName::must_parse("video.demo2.mycdn.ciab.test");
    const auto mid_addr = Ipv4Address::must_parse("198.51.100.63");
    const simnet::NodeId mid_node = net_->add_node("mid-cdns", mid_addr);
    net_->add_link(mid_node, backbone_, ran::wan_link(config_.wan_cdns_ms));
    cdn::TrafficRouter::Config mc;
    mc.cdn_domain = dns::DnsName::must_parse("cdn-parent.test");
    mc.answer_ttl = 0;
    mid_cdns_ = std::make_unique<cdn::TrafficRouter>(
        net_->runtime(mid_node), "mid-cdns", server_processing(2.6),
        std::move(mc), dns::kDnsPort, mid_addr);
    mid_cdns_->add_cache(kCloudGroup, cdn::CacheInfo{
        "cloud-cache", cloud_cache_addr_, true});
    mid_cdns_->coverage().set_default_group(kCloudGroup);
    mid_cdns_->add_delivery_service(cdn::DeliveryService{
        "demo2", dns::DnsName::must_parse("demo2.cdn-parent.test"),
        {kCloudGroup}});
    // The parent tier serves its children's services too: when every edge
    // cache for demo1 is drained, the edge C-DNS refers demo1 queries here
    // and the cloud cache (which holds the full demo1 catalog) serves them.
    mid_cdns_->add_delivery_service(cdn::DeliveryService{
        "demo1", dns::DnsName::must_parse("demo1.cdn-parent.test"),
        {kCloudGroup}});
    hierarchy_->delegate_to(dns::DnsName::must_parse("cdn-parent.test"),
                            dns::DnsName::must_parse("ns1.cdn-parent.test"),
                            mid_addr);
    // demo2 content exists at the cloud tier only.
    cdn::ContentCatalog tier2_catalog;
    tier2_catalog.add_series(tier2_name_, "segment", 8, 2 * 1024 * 1024);
    for (const auto& [url, object] : tier2_catalog.objects()) {
      cloud_cache_->warm(object);
      // The origin owns it too (the cloud cache's parent).
      // OriginServer catalogs are fixed at construction; demo2 objects were
      // not in the origin catalog, so keep them fully warmed at the cloud
      // cache (capacity is ample).
    }
  }

  switch (config_.deployment) {
    case Fig5Deployment::kProviderLdns: {
      const auto addr = Ipv4Address::must_parse("10.201.0.53");
      const simnet::NodeId node = net_->add_node("provider-ldns", addr);
      provider_node_ = node;
      pgw_provider_link_ = net_->add_link(
          ran_->pgw(), node, ran::wan_link(config_.provider_ldns_ms));
      provider_ldns_ = std::make_unique<dns::RecursiveResolver>(
          net_->runtime(node), "provider-ldns", server_processing(0.8), rcfg,
          addr);
      break;
    }
    case Fig5Deployment::kGoogleDns: {
      // Anycast brings Google's resolving site close to the backbone; the
      // dominant costs are the mobile exit and the resolver->C-DNS trip.
      const auto addr = Ipv4Address::must_parse("8.8.8.8");
      const simnet::NodeId node = net_->add_node("google-dns", addr);
      net_->add_link(backbone_, node, ran::wan_link(config_.google_ms));
      public_resolver_ = std::make_unique<dns::RecursiveResolver>(
          net_->runtime(node), "google-dns", server_processing(0.8), rcfg,
          addr);
      break;
    }
    case Fig5Deployment::kCloudflareDns: {
      // From the paper's testbed the Cloudflare path was ~2.5x worse than
      // Google's; model it as a distant resolving site.
      const auto addr = Ipv4Address::must_parse("1.1.1.1");
      const simnet::NodeId node = net_->add_node("cloudflare-dns", addr);
      net_->add_link(backbone_, node, ran::wan_link(config_.cloudflare_ms));
      public_resolver_ = std::make_unique<dns::RecursiveResolver>(
          net_->runtime(node), "cloudflare-dns", server_processing(0.8), rcfg,
          addr);
      break;
    }
    default:
      break;
  }

  // --- the UE, pointed at the scenario's resolver ---------------------------
  simnet::Endpoint dns_target;
  switch (config_.deployment) {
    case Fig5Deployment::kMecLdnsMecCdns:
    case Fig5Deployment::kMecLdnsLanCdns:
    case Fig5Deployment::kMecLdnsWanCdns:
      dns_target = site_->ldns_endpoint();
      break;
    case Fig5Deployment::kProviderLdns:
      dns_target = provider_ldns_->endpoint();
      break;
    case Fig5Deployment::kGoogleDns:
    case Fig5Deployment::kCloudflareDns:
      dns_target = public_resolver_->endpoint();
      break;
  }
  ue_ = std::make_unique<ran::UserEquipment>(
      *net_, *ran_, "ue", Ipv4Address::must_parse("10.45.0.2"), dns_target,
      config_.ue_dns_options);
}

simnet::NodeId Fig5Testbed::mec_ldns_node() const {
  return site_->ldns_node();
}

cdn::TrafficRouter& Fig5Testbed::active_router() {
  switch (config_.deployment) {
    case Fig5Deployment::kMecLdnsMecCdns:
      return *site_->router();
    case Fig5Deployment::kMecLdnsLanCdns:
      return *lan_cdns_;
    default:
      return *wan_cdns_;
  }
}

SeriesResult Fig5Testbed::measure(std::size_t queries, simnet::SimTime spacing) {
  return measure_name(content_name_, queries, spacing);
}

SeriesResult Fig5Testbed::measure_name(const dns::DnsName& name,
                                       std::size_t queries,
                                       simnet::SimTime spacing,
                                       std::size_t warmup) {
  QueryRunner runner(*net_, ue_->resolver(), tap_.get());
  runner.set_observers(trace_sink_, metrics_);
  runner.set_timeseries(timeseries_);
  QueryRunner::Options options;
  options.queries = queries;
  options.warmup = warmup;  // prime delegation caches, as a live resolver's
  options.spacing = spacing;
  return runner.run(name, dns::RecordType::kA, options);
}

void Fig5Testbed::export_metrics(obs::Registry& registry) const {
  site_->export_metrics(registry, "site.");
  if (lan_cdns_ != nullptr) {
    export_router(registry, "lan-cdns.", *lan_cdns_);
  }
  if (wan_cdns_ != nullptr) {
    export_router(registry, "wan-cdns.", *wan_cdns_);
  }
  if (mid_cdns_ != nullptr) {
    export_router(registry, "mid-cdns.", *mid_cdns_);
  }
  if (provider_ldns_ != nullptr) {
    export_server(registry, "provider-ldns.", *provider_ldns_);
  }
  if (public_resolver_ != nullptr) {
    export_server(registry, "public-resolver.", *public_resolver_);
  }
  if (cloud_cache_ != nullptr) {
    export_stats(registry, "cloud-cache.", cloud_cache_->stats());
  }
  if (origin_ != nullptr) {
    registry.add("origin.requests", origin_->requests());
  }
  if (tap_ != nullptr) {
    registry.add("tap.observed_queries", tap_->observed_queries());
    registry.add("tap.observed_responses", tap_->observed_responses());
  }
}

bool Fig5Testbed::is_mec_cache(simnet::Ipv4Address addr) const {
  for (std::size_t i = 0; i < site_->site_config().edge_caches; ++i) {
    if (site_->cache_address(i) == addr) return true;
  }
  return false;
}

}  // namespace mecdns::core
