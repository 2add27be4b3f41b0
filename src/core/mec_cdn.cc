#include "core/mec_cdn.h"

#include <stdexcept>

#include "core/metrics_export.h"

namespace mecdns::core {

namespace {
/// kube-dns traditionally gets service host .10 (10.96.0.10).
constexpr std::uint32_t kCoreDnsServiceHost = 10;
/// Fixed cluster IP host for the Traffic Router service.
constexpr std::uint32_t kRouterServiceHost = 53;

constexpr const char* kEdgeGroup = "mec-edge";

/// Capacity of each edge cache.
constexpr std::uint64_t kEdgeCacheCapacityBytes = 256ull * 1024 * 1024;
/// How long the L-DNS public-view cache keeps expired entries to serve
/// stale (RFC 8767) when Config::serve_stale is on.
constexpr simnet::SimTime kServeStaleWindow = simnet::SimTime::seconds(3600);
}  // namespace

MecCdnSite::MecCdnSite(simnet::Network& net, Config config)
    : net_(net), config_(std::move(config)) {
  orchestrator_ =
      std::make_unique<mec::Orchestrator>(net_, config_.orchestrator);
  mec::MecCluster& cluster = orchestrator_->cluster();

  // --- CoreDNS (MEC L-DNS) -------------------------------------------------
  ldns_node_ = cluster.add_worker("infra");
  const mec::Deployment coredns = orchestrator_->deploy(
      "kube-dns", "kube-system", ldns_node_, kCoreDnsServiceHost);
  ldns_ip_ = coredns.cluster_ip;

  // --- C-DNS (Traffic Router) ----------------------------------------------
  simnet::NodeId router_node = simnet::kInvalidNode;
  if (!config_.external_cdns.has_value()) {
    router_node = cluster.add_worker("router");
    const mec::Deployment tr = orchestrator_->deploy(
        "traffic-router", "cdn", router_node, kRouterServiceHost);
    cdns_ip_ = tr.cluster_ip;

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
    router_->coverage().add(cluster.config().node_cidr, kEdgeGroup);
    router_->coverage().add(cluster.config().service_cidr, kEdgeGroup);
  }

  // --- edge caches -----------------------------------------------------------
  for (std::size_t i = 0; i < kEdgeCaches; ++i) {
    const std::string cache_name = "edge-cache-" + std::to_string(i);
    const simnet::NodeId worker = cluster.add_worker(cache_name);
    const mec::Deployment dep =
        orchestrator_->deploy(cache_name, "cdn", worker);
    cache_ips_.push_back(dep.cluster_ip);

    cdn::CacheServer::Config cc;
    cc.capacity_bytes = kEdgeCacheCapacityBytes;
    cc.parent = config_.origin;
    caches_.push_back(std::make_unique<cdn::CacheServer>(
        net_.runtime(worker), cache_name, std::move(cc), cdn::kContentPort,
        dep.cluster_ip));
    cache_active_.push_back(true);
    if (router_ != nullptr) {
      router_->add_cache(kEdgeGroup,
                         cdn::CacheInfo{cache_name, dep.cluster_ip, true});
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
      "internal",
      {cluster.config().node_cidr, cluster.config().service_cidr});
  internal.add(std::make_unique<dns::ZonePlugin>(
      orchestrator_->registry().zone()));
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
        orchestrator_->ingress(), config_.overload_threshold_qps,
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
  pub.add(std::make_unique<dns::ZonePlugin>(orchestrator_->public_zone()));
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
  mec::MecCluster& cluster = orchestrator_->cluster();
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

  const std::string cache_name =
      "edge-cache-" + std::to_string(caches_.size());
  const simnet::NodeId worker = cluster.add_worker(cache_name);
  const mec::Deployment dep = orchestrator_->deploy(cache_name, "cdn", worker);
  cache_ips_.push_back(dep.cluster_ip);

  cdn::CacheServer::Config cc;
  cc.capacity_bytes = kEdgeCacheCapacityBytes;
  cc.parent = config_.origin;
  caches_.push_back(std::make_unique<cdn::CacheServer>(
      net_.runtime(worker), cache_name, std::move(cc), cdn::kContentPort,
      dep.cluster_ip));
  cache_active_.push_back(true);
  cdn::CacheServer* cache = caches_.back().get();
  for (const auto& catalog : warmed_catalogs_) {
    for (const auto& [url, object] : catalog.objects()) cache->warm(object);
  }
  if (router_ != nullptr) {
    router_->add_cache(kEdgeGroup,
                       cdn::CacheInfo{cache_name, dep.cluster_ip, true});
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
