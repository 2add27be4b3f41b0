#include "core/mec_cdn.h"

#include <stdexcept>

#include "core/metrics_export.h"

namespace mecdns::core {

namespace {
/// kube-dns traditionally gets service host .10 (10.96.0.10); edge caches
/// take the first free hosts above it.
constexpr std::uint32_t kCoreDnsServiceHost = 10;
/// Fixed cluster IP host for the Traffic Router service.
constexpr std::uint32_t kRouterServiceHost = 53;
/// Node host .1 is the gateway; workers take the first free hosts above it.
constexpr std::uint32_t kFirstWorkerHost = 2;

/// The cluster's internal service-discovery domain.
constexpr const char* kClusterDomain = "cluster.local";
/// Origin of the public (mobile-facing) app namespace. CDN domains are not
/// hosted here — they are stub-domain-forwarded to the C-DNS; this zone
/// carries the *other* MEC applications' public names.
constexpr const char* kPublicDomain = "apps.mec.test";
/// TTL of a service's cluster.local A record.
constexpr std::uint32_t kServiceTtl = 30;

// Intra-cluster fabric, one way: Normal(150 us, 40 us) floored at 30 us.
constexpr simnet::SimTime kFabricMean = simnet::SimTime::micros(150);
constexpr simnet::SimTime kFabricStddev = simnet::SimTime::micros(40);
constexpr simnet::SimTime kFabricFloor = simnet::SimTime::micros(30);

constexpr const char* kEdgeGroup = "mec-edge";

/// Capacity of each edge cache.
constexpr std::uint64_t kEdgeCacheCapacityBytes = 256ull * 1024 * 1024;
/// How long the L-DNS public-view cache keeps expired entries to serve
/// stale (RFC 8767) when Config::serve_stale is on.
constexpr simnet::SimTime kServeStaleWindow = simnet::SimTime::seconds(3600);

/// The first address of `cidr` at or above host `from` that no node owns;
/// nullopt when the block is used up (its last address is the broadcast).
std::optional<simnet::Ipv4Address> first_free(const simnet::Network& net,
                                              const simnet::Cidr& cidr,
                                              std::uint32_t from) {
  for (std::uint64_t host = from; host + 1 < cidr.size(); ++host) {
    const simnet::Ipv4Address addr =
        cidr.host(static_cast<std::uint32_t>(host));
    if (net.find_node(addr) == simnet::kInvalidNode) return addr;
  }
  return std::nullopt;
}

/// Service host `host` of `cidr`, for the fixed cluster IPs.
simnet::Ipv4Address fixed_host(const simnet::Cidr& cidr, std::uint32_t host) {
  if (host + std::uint64_t{1} >= cidr.size()) {
    throw std::out_of_range("service CIDR " + cidr.to_string() +
                            " has no host " + std::to_string(host));
  }
  return cidr.host(host);
}

std::shared_ptr<dns::Zone> make_zone(const std::string& origin,
                                     const std::string& primary) {
  const auto apex = dns::DnsName::must_parse(origin);
  auto zone = std::make_shared<dns::Zone>(apex);
  zone->must_add(dns::make_soa(
      apex, dns::DnsName::must_parse(primary + "." + origin), 1, 30, 30));
  return zone;
}
}  // namespace

MecCdnSite::MecCdnSite(simnet::Network& net, Config config)
    : net_(net), config_(std::move(config)),
      internal_zone_(make_zone(kClusterDomain, "kube-dns")),
      public_zone_(make_zone(kPublicDomain, "mec-dns")) {
  gateway_ = net_.add_node(config_.name + "-gw", config_.node_cidr.host(1));

  // --- CoreDNS (MEC L-DNS) -------------------------------------------------
  ldns_node_ = add_worker("infra");
  ldns_ip_ = fixed_host(config_.service_cidr, kCoreDnsServiceHost);
  add_service("kube-dns", "kube-system", ldns_node_, ldns_ip_);

  // --- C-DNS (Traffic Router) ----------------------------------------------
  if (!config_.external_cdns.has_value()) {
    const simnet::NodeId router_node = add_worker("router");
    cdns_ip_ = fixed_host(config_.service_cidr, kRouterServiceHost);
    add_service("traffic-router", "cdn", router_node, cdns_ip_);

    cdn::TrafficRouter::Config rc;
    rc.cdn_domain = config_.cdn_domain;
    rc.answer_ttl = config_.answer_ttl;
    rc.use_ecs = config_.enable_ecs;
    if (config_.parent_cdn_domain.has_value()) {
      rc.parent_domain = config_.parent_cdn_domain;
    }
    rc.cache_capacity_per_window = config_.cache_selection_capacity;
    router_ = std::make_unique<cdn::TrafficRouter>(
        net_.runtime(router_node), "mec-cdns", config_.cdns_processing,
        std::move(rc), dns::kDnsPort, cdns_ip_);
    router_->add_cache_group(kEdgeGroup);
    // The edge router's scope is only this site: everything it is asked
    // about resolves to the MEC cache group.
    router_->coverage().set_default_group(kEdgeGroup);
    router_->coverage().add(config_.node_cidr, kEdgeGroup);
    router_->coverage().add(config_.service_cidr, kEdgeGroup);
  }

  // --- edge caches -----------------------------------------------------------
  for (std::size_t i = 0; i < kEdgeCaches; ++i) {
    if (deploy_edge_cache() == nullptr) {
      throw std::length_error("MEC cluster " + config_.name +
                              " has no addresses for its edge caches");
    }
  }

  // --- split-namespace L-DNS -------------------------------------------------
  ldns_ = std::make_unique<dns::PluginChainServer>(
      net_.runtime(ldns_node_), "mec-coredns", config_.ldns_processing,
      dns::kDnsPort, ldns_ip_);
  if (config_.ldns_workers > 0) {
    ldns_->set_service_capacity(config_.ldns_workers, config_.ldns_max_queue);
  }
  public_cache_ = std::make_shared<dns::DnsCache>(4096);
  if (config_.serve_stale) {
    public_cache_->set_serve_stale(true, kServeStaleWindow);
  }

  // Internal view: VNF service discovery, exactly what the orchestrator's
  // DNS existed for. Matched by cluster-internal source addresses.
  dns::PluginChain& internal = ldns_->add_view(
      "internal", {config_.node_cidr, config_.service_cidr});
  internal.add(std::make_unique<dns::ZonePlugin>(internal_zone_));
  if (config_.provider_ldns.has_value()) {
    internal.add(std::make_unique<dns::ForwardPlugin>(
        dns::DnsName::root(),
        std::vector<simnet::Endpoint>{*config_.provider_ldns},
        ldns_->transport()));
  } else {
    internal.add(std::make_unique<dns::RefusePlugin>());
  }

  // Public view: the mobile-facing namespace. Populated when MEC-CDN
  // deploys; the CDN apex is stub-domain-forwarded to the C-DNS so the
  // whole resolution stays inside the MEC.
  dns::PluginChain& pub = ldns_->add_default_view("public");
  if (config_.overload_threshold_qps > 0) {
    auto guard = std::make_unique<mec::OverloadGuardPlugin>(
        ingress_, config_.overload_threshold_qps,
        config_.overload_action);
    guard->set_recovery_windows(config_.overload_recovery_windows);
    if (config_.overload_queue_limit > 0) {
      guard->set_queue_probe(
          [srv = ldns_.get()] { return srv->queue_depth(); },
          config_.overload_queue_limit);
    }
    guard_ = guard.get();
    pub.add(std::move(guard));
  }
  pub.add(std::make_unique<dns::CachePlugin>(public_cache_));
  const simnet::Endpoint cdns_target =
      config_.external_cdns.value_or(simnet::Endpoint{cdns_ip_, dns::kDnsPort});
  std::vector<simnet::Endpoint> cdns_upstreams{cdns_target};
  if (config_.cdns_fallback_to_provider &&
      config_.provider_ldns.has_value()) {
    cdns_upstreams.push_back(*config_.provider_ldns);
  }
  auto cdn_forward = std::make_unique<dns::ForwardPlugin>(
      config_.cdn_domain, std::move(cdns_upstreams), ldns_->transport());
  if (config_.enable_ecs) cdn_forward->set_add_ecs(true);
  cdn_forward_ = cdn_forward.get();
  pub.add(std::move(cdn_forward));
  pub.add(std::make_unique<dns::ZonePlugin>(public_zone_));
  if (config_.provider_ldns.has_value()) {
    pub.add(std::make_unique<dns::ForwardPlugin>(
        dns::DnsName::root(),
        std::vector<simnet::Endpoint>{*config_.provider_ldns},
        ldns_->transport()));
  } else {
    pub.add(std::make_unique<dns::RefusePlugin>());
  }
}

void MecCdnSite::add_delivery_service(const std::string& id,
                                      const cdn::ContentCatalog& content,
                                      bool warm_caches) {
  auto domain = dns::DnsName::must_parse(id).under(config_.cdn_domain);
  if (!domain.ok()) {
    throw std::invalid_argument("bad delivery service id: " + id);
  }
  if (router_ != nullptr) {
    router_->add_delivery_service(cdn::DeliveryService{
        id, domain.value(), {kEdgeGroup}});
  }
  if (warm_caches) {
    // Push the catalog to the edge (deploy-time content placement). With
    // consistent hashing each object really lives on one cache, but warming
    // all replicas keeps the first measured query representative.
    for (const auto& [url, object] : content.objects()) {
      for (auto& cache : caches_) cache->warm(object);
    }
    // Remember it so scale-up replicas get the same placement.
    warmed_catalogs_.push_back(content);
  }
}

cdn::CacheServer* MecCdnSite::add_edge_cache() {
  // Reactivate the lowest-index retired replica first: its node, address
  // and (still warm) cache contents are already in place.
  for (std::size_t i = 0; i < caches_.size(); ++i) {
    if (cache_active_[i]) continue;
    cache_active_[i] = true;
    if (router_ != nullptr) {
      router_->set_cache_healthy(kEdgeGroup, caches_[i]->name(), true);
    }
    return caches_[i].get();
  }
  return deploy_edge_cache();
}

simnet::NodeId MecCdnSite::add_worker(const std::string& role) {
  const auto addr = first_free(net_, config_.node_cidr, kFirstWorkerHost);
  if (!addr.has_value()) {
    throw std::length_error("node CIDR " + config_.node_cidr.to_string() +
                            " exhausted");
  }
  const simnet::NodeId node = net_.add_node(config_.name + "-" + role, *addr);
  net_.add_link(gateway_, node,
                simnet::LatencyModel::normal(kFabricMean, kFabricStddev,
                                             kFabricFloor));
  return node;
}

void MecCdnSite::add_service(const std::string& service,
                             const std::string& ns, simnet::NodeId worker,
                             simnet::Ipv4Address cluster_ip) {
  net_.add_address(worker, cluster_ip);
  internal_zone_->must_add(dns::make_a(
      dns::DnsName::must_parse(service + "." + ns + ".svc." + kClusterDomain),
      cluster_ip, kServiceTtl));
}

cdn::CacheServer* MecCdnSite::deploy_edge_cache() {
  const auto cluster_ip =
      first_free(net_, config_.service_cidr, kCoreDnsServiceHost);
  if (!cluster_ip.has_value() ||
      !first_free(net_, config_.node_cidr, kFirstWorkerHost).has_value()) {
    return nullptr;
  }
  const std::string cache_name =
      "edge-cache-" + std::to_string(caches_.size());
  const simnet::NodeId worker = add_worker(cache_name);
  add_service(cache_name, "cdn", worker, *cluster_ip);
  cache_ips_.push_back(*cluster_ip);

  cdn::CacheServer::Config cc;
  cc.capacity_bytes = kEdgeCacheCapacityBytes;
  cc.parent = config_.origin;
  caches_.push_back(std::make_unique<cdn::CacheServer>(
      net_.runtime(worker), cache_name, std::move(cc), cdn::kContentPort,
      *cluster_ip));
  cache_active_.push_back(true);
  cdn::CacheServer* cache = caches_.back().get();
  for (const auto& catalog : warmed_catalogs_) {
    for (const auto& [url, object] : catalog.objects()) cache->warm(object);
  }
  if (router_ != nullptr) {
    router_->add_cache(kEdgeGroup,
                       cdn::CacheInfo{cache_name, *cluster_ip, true});
  }
  return cache;
}

bool MecCdnSite::retire_edge_cache() {
  if (active_edge_caches() <= 1) return false;
  for (std::size_t i = caches_.size(); i-- > 0;) {
    if (!cache_active_[i]) continue;
    cache_active_[i] = false;
    if (router_ != nullptr) {
      router_->set_cache_healthy(kEdgeGroup, caches_[i]->name(), false);
    }
    return true;
  }
  return false;
}

std::size_t MecCdnSite::active_edge_caches() const {
  std::size_t n = 0;
  for (const bool active : cache_active_) n += active ? 1 : 0;
  return n;
}

simnet::Endpoint MecCdnSite::ldns_endpoint() const {
  return simnet::Endpoint{ldns_ip_, dns::kDnsPort};
}

simnet::Endpoint MecCdnSite::cdns_endpoint() const {
  if (config_.external_cdns.has_value()) return *config_.external_cdns;
  return simnet::Endpoint{cdns_ip_, dns::kDnsPort};
}

std::vector<cdn::CacheServer*> MecCdnSite::caches() {
  std::vector<cdn::CacheServer*> out;
  out.reserve(caches_.size());
  for (auto& cache : caches_) out.push_back(cache.get());
  return out;
}

void MecCdnSite::export_metrics(obs::Registry& registry,
                                const std::string& prefix) const {
  export_server(registry, prefix + "ldns.", *ldns_);
  registry.add(prefix + "ldns.view.internal.queries",
               ldns_->view_queries("internal"));
  registry.add(prefix + "ldns.view.public.queries",
               ldns_->view_queries("public"));
  export_stats(registry, prefix + "ldns.cache.", public_cache_->stats());
  export_transport(registry, prefix + "ldns.transport.",
                   static_cast<const dns::PluginChainServer&>(*ldns_)
                       .transport());
  if (cdn_forward_ != nullptr) {
    registry.add(prefix + "ldns.forward.forwarded", cdn_forward_->forwarded());
    registry.add(prefix + "ldns.forward.upstream_failures",
                 cdn_forward_->upstream_failures());
    registry.add(prefix + "ldns.forward.failovers",
                 cdn_forward_->failovers());
    registry.add(prefix + "ldns.forward.servfail_failovers",
                 cdn_forward_->servfail_failovers());
  }
  if (guard_ != nullptr) {
    registry.add(prefix + "ldns.overload.admitted", guard_->admitted());
    registry.add(prefix + "ldns.overload.shed", guard_->shed());
    registry.add(prefix + "ldns.overload.trips", guard_->trips());
    registry.add(prefix + "ldns.overload.recoveries", guard_->recoveries());
    // Full state machine under the mec.ingress.* convention, so reports can
    // explain a failed SLO window (shedding? queue-full sheds? flapping?).
    export_ingress(registry, prefix + "mec.ingress.", *guard_);
  }
  if (router_ != nullptr) {
    export_router(registry, prefix + "cdns.", *router_);
  }
  for (const auto& cache : caches_) {
    export_stats(registry, prefix + "cache." + cache->name() + ".",
                 cache->stats());
  }
  registry.set_gauge(prefix + "mec.edge_replicas",
                     static_cast<double>(active_edge_caches()));
}

}  // namespace mecdns::core
