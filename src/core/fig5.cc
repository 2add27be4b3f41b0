#include "core/fig5.h"

#include <stdexcept>

#include "core/metrics_export.h"
#include "core/topology.h"

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
}  // namespace

Fig5Testbed::Fig5Testbed(Config config)
    : config_(std::move(config)), content_name_(topology::content_name()) {
  build();
}

void Fig5Testbed::build() {
  sim_ = std::make_unique<simnet::Simulator>();
  net_ = std::make_unique<simnet::Network>(*sim_, util::Rng(config_.seed));
  const simnet::NodeId backbone = topology::add_backbone(*net_);

  // --- RAN: UE - eNB - S-GW - P-GW(NAT) -----------------------------------
  ran_ = topology::add_ran(*net_, "lte", config_.access);
  // The paper's tcpdump at P-GW: client-side DNS only (uplink queries still
  // carry the UE source here — taps run before the NAT — and downlink
  // responses are addressed to the gateway's public address), so a resolver
  // hairpinning upstream lookups through the core is not miscounted.
  const simnet::Cidr ue_subnet = topology::ue_subnet();
  const Ipv4Address pgw_public = ran_->pgw_public_addr();
  tap_ = std::make_unique<ran::DnsTap>(
      *net_, ran_->pgw(), [ue_subnet, pgw_public](const simnet::Packet& p) {
        return ue_subnet.contains(p.src.addr) || p.dst.addr == pgw_public;
      });
  pgw_backbone_link_ = topology::link_to_backbone(*net_, *ran_, backbone);

  // --- content, origin, the CDN's cloud tier and the public DNS -------------
  const cdn::ContentCatalog catalog = topology::demo_catalog();
  origin_ = topology::add_origin(*net_, backbone, catalog);
  cloud_cache_ = topology::add_cloud_cache(*net_, backbone, catalog);
  hierarchy_ = topology::add_public_dns(*net_, backbone);
  wan_cdns_ = topology::add_wan_cdns(*net_, backbone, *hierarchy_,
                                     config_.answer_ttl, config_.enable_ecs);

  // --- LAN C-DNS node (scenario 2's external router) ------------------------
  const auto lan_cdns_addr = Ipv4Address::must_parse("10.200.0.53");
  const simnet::NodeId lan_cdns_node = net_->add_node("lan-cdns", lan_cdns_addr);

  // --- the MEC site ----------------------------------------------------------
  std::optional<simnet::Endpoint> external_cdns;
  if (config_.deployment == Fig5Deployment::kMecLdnsLanCdns) {
    external_cdns = simnet::Endpoint{lan_cdns_addr, dns::kDnsPort};
  } else if (config_.deployment == Fig5Deployment::kMecLdnsWanCdns) {
    external_cdns = wan_cdns_->endpoint();
  }
  site_ = topology::add_site(*net_, *ran_,
                             topology::fig5_site(config_, external_cdns));
  net_->add_link(site_->gateway(), lan_cdns_node,
                 LatencyModel::constant(SimTime::millis(topology::kLanCdnsMs)));

  // LAN C-DNS: same routing scope as the in-cluster router, one LAN hop out.
  {
    cdn::TrafficRouter::Config lc;
    lc.cdn_domain = topology::cdn_domain();
    lc.answer_ttl = config_.answer_ttl;
    lc.use_ecs = config_.enable_ecs;
    lan_cdns_ = std::make_unique<cdn::TrafficRouter>(
        net_->runtime(lan_cdns_node), "lan-cdns",
        topology::server_processing(2.6), std::move(lc), dns::kDnsPort,
        lan_cdns_addr);
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
  const auto demo1_domain = dns::DnsName::must_parse("demo1.mycdn.ciab.test");
  lan_cdns_->add_delivery_service(
      cdn::DeliveryService{"demo1", demo1_domain, {kEdgeGroup}});
  wan_cdns_->add_cache(kCloudGroup, topology::cloud_cache_info());
  wan_cdns_->add_delivery_service(
      cdn::DeliveryService{"demo1", demo1_domain, {kEdgeGroup, kCloudGroup}});
  // The WAN router serves both worlds: queries arriving from the MEC
  // complex (scenario 3, or ECS disclosing the mobile gateway's subnet)
  // route to the MEC edge caches; everything else goes to the cloud tier.
  const simnet::Cidr pgw_subnet(pgw_public, 24);
  wan_cdns_->coverage().add(site_->node_cidr(), kEdgeGroup);
  wan_cdns_->coverage().add(site_->service_cidr(), kEdgeGroup);
  wan_cdns_->coverage().add(pgw_subnet, kEdgeGroup);
  wan_cdns_->coverage().set_default_group(kCloudGroup);
  lan_cdns_->coverage().add(pgw_subnet, kEdgeGroup);
  if (site_->router() != nullptr) {
    site_->router()->coverage().add(pgw_subnet, kEdgeGroup);
  }

  // --- alternative resolvers (scenarios 4-6) --------------------------------
  if (config_.provider_fallback &&
      config_.deployment != Fig5Deployment::kProviderLdns) {
    provider_ldns_ =
        topology::add_provider_ldns(*net_, *hierarchy_, {ran_->pgw()});
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

    // The parent CDN tier serves delivery service "demo2" (NOT deployed at
    // the MEC): the edge C-DNS refers demo2 queries there via a cascading
    // CNAME and the UE chases it through the provider path. It serves
    // demo1 too, so when every edge cache for demo1 is drained the cloud
    // cache (which holds the full demo1 catalog) takes over.
    tier2_name_ = dns::DnsName::must_parse("video.demo2.mycdn.ciab.test");
    mid_cdns_ = topology::add_mid_cdns(*net_, backbone, *hierarchy_,
                                       {"demo2", "demo1"});
    // demo2 content exists at the cloud tier only.
    const cdn::ContentCatalog demo2 = topology::demo2_catalog();
    for (const auto& [url, object] : demo2.objects()) {
      cloud_cache_->warm(object);
    }
  }

  dns::RecursiveResolver::Config rcfg;
  rcfg.root_servers = hierarchy_->root_hints();
  const auto add_public_resolver = [&](const std::string& name,
                                       const char* addr_text, double wan_ms) {
    const auto addr = Ipv4Address::must_parse(addr_text);
    const simnet::NodeId node = net_->add_node(name, addr);
    net_->add_link(backbone, node, ran::wan_link(wan_ms));
    public_resolver_ = std::make_unique<dns::RecursiveResolver>(
        net_->runtime(node), name, topology::server_processing(0.8), rcfg,
        addr);
  };
  switch (config_.deployment) {
    case Fig5Deployment::kProviderLdns:
      provider_ldns_ =
          topology::add_provider_ldns(*net_, *hierarchy_, {ran_->pgw()});
      break;
    case Fig5Deployment::kGoogleDns:
      // Anycast brings Google's resolving site close to the backbone; the
      // dominant costs are the mobile exit and the resolver->C-DNS trip.
      add_public_resolver("google-dns", "8.8.8.8", topology::kGoogleMs);
      break;
    case Fig5Deployment::kCloudflareDns:
      // From the paper's testbed the Cloudflare path was ~2.5x worse than
      // Google's; model it as a distant resolving site.
      add_public_resolver("cloudflare-dns", "1.1.1.1",
                          topology::kCloudflareMs);
      break;
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
      *net_, *ran_, "ue", topology::ue_address(), dns_target,
      config_.ue_dns_options);
}

simnet::Endpoint Fig5Testbed::provider_endpoint() const {
  return topology::provider_endpoint();
}

simnet::NodeId Fig5Testbed::provider_ldns_node() const {
  return provider_ldns_ == nullptr
             ? simnet::kInvalidNode
             : net_->find_node(topology::provider_endpoint().addr);
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
  export_router(registry, "lan-cdns.", *lan_cdns_);
  export_router(registry, "wan-cdns.", *wan_cdns_);
  if (mid_cdns_ != nullptr) {
    export_router(registry, "mid-cdns.", *mid_cdns_);
  }
  if (provider_ldns_ != nullptr) {
    export_server(registry, "provider-ldns.", *provider_ldns_);
  }
  if (public_resolver_ != nullptr) {
    export_server(registry, "public-resolver.", *public_resolver_);
  }
  export_stats(registry, "cloud-cache.", cloud_cache_->stats());
  registry.add("origin.requests", origin_->requests());
  registry.add("tap.observed_queries", tap_->observed_queries());
  registry.add("tap.observed_responses", tap_->observed_responses());
}

bool Fig5Testbed::is_mec_cache(simnet::Ipv4Address addr) const {
  return site_->is_edge_cache(addr);
}

}  // namespace mecdns::core
