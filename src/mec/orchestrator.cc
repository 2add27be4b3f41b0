#include "mec/orchestrator.h"

namespace mecdns::mec {

namespace {
/// The cluster's internal service-discovery domain.
constexpr const char* kClusterDomain = "cluster.local";
/// Origin of the public (mobile-facing) app namespace.
constexpr const char* kPublicDomain = "apps.mec.test";
}  // namespace

Orchestrator::Orchestrator(simnet::Network& net, Config config)
    : net_(net), config_(std::move(config)),
      public_domain_(dns::DnsName::must_parse(kPublicDomain)),
      cluster_(net, config_.cluster),
      registry_(dns::DnsName::must_parse(kClusterDomain)),
      public_zone_(std::make_shared<dns::Zone>(public_domain_)) {
  public_zone_->must_add(dns::make_soa(
      public_domain_,
      dns::DnsName::must_parse("mec-dns." + public_domain_.to_string()),
      1, 30, 30));
}

Deployment Orchestrator::deploy(const std::string& service,
                                const std::string& ns, simnet::NodeId worker,
                                std::optional<std::uint32_t> fixed_ip_host) {
  Deployment deployment;
  deployment.service = service;
  deployment.ns = ns;
  deployment.node = worker;
  deployment.cluster_ip = fixed_ip_host.has_value()
                              ? cluster_.allocate_service_ip(*fixed_ip_host)
                              : cluster_.allocate_service_ip();
  cluster_.expose_service_ip(worker, deployment.cluster_ip);
  registry_.register_service(service, ns, deployment.cluster_ip);
  deployments_[key(service, ns)] = deployment;
  return deployment;
}

void Orchestrator::undeploy(const std::string& service,
                            const std::string& ns) {
  registry_.deregister_service(service, ns);
  deployments_.erase(key(service, ns));
}

void Orchestrator::publish(const dns::DnsName& domain,
                           simnet::Ipv4Address addr, std::uint32_t ttl) {
  public_zone_->remove(domain, dns::RecordType::kA);
  public_zone_->must_add(dns::make_a(domain, addr, ttl));
}

void Orchestrator::unpublish(const dns::DnsName& domain) {
  public_zone_->remove_name(domain);
}

}  // namespace mecdns::mec
