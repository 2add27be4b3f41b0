// MEC orchestrator: deploys services onto the cluster and keeps both DNS
// namespaces in sync.
//
// The pivotal observation of §3 P1 is that the orchestrator *already knows*
// everything the MEC L-DNS must answer — which CDN domains are deployed
// where, and their addresses. Orchestrator models that: deploying a service
// allocates a cluster IP, exposes it on the hosting worker, and writes the
// record into the internal namespace; deploying a *MEC-CDN* additionally
// populates the split public namespace so mobile clients can resolve the
// CDN domain at the first hop.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "mec/cluster.h"
#include "mec/ingress.h"
#include "mec/registry.h"

namespace mecdns::mec {

struct Deployment {
  std::string service;
  std::string ns;
  simnet::NodeId node = simnet::kInvalidNode;
  simnet::Ipv4Address cluster_ip;
};

class Orchestrator {
 public:
  struct Config {
    MecCluster::Config cluster;
  };

  Orchestrator(simnet::Network& net, Config config);

  MecCluster& cluster() { return cluster_; }
  ServiceRegistry& registry() { return registry_; }
  IngressMonitor& ingress() { return ingress_; }

  /// Deploys a service on a worker; `fixed_ip_host` pins the cluster IP
  /// ("assign C-DNS a fixed cluster IP using k8s Service").
  Deployment deploy(const std::string& service, const std::string& ns,
                    simnet::NodeId worker,
                    std::optional<std::uint32_t> fixed_ip_host = std::nullopt);

  /// Tears a deployment down: releases nothing from simnet (addresses stay
  /// registered) but removes it from DNS so clients stop resolving to it.
  void undeploy(const std::string& service, const std::string& ns);

  /// Publishes `domain` -> `addr` in the public namespace (a MEC-CDN domain
  /// becoming visible to mobile clients). TTL small by default so scaling
  /// events propagate.
  void publish(const dns::DnsName& domain, simnet::Ipv4Address addr,
               std::uint32_t ttl = 30);
  void unpublish(const dns::DnsName& domain);

  /// The public namespace zone (served by the public view's ZonePlugin).
  std::shared_ptr<dns::Zone> public_zone() { return public_zone_; }

  const std::map<std::string, Deployment>& deployments() const {
    return deployments_;
  }

 private:
  static std::string key(const std::string& service, const std::string& ns) {
    return ns + "/" + service;
  }

  simnet::Network& net_;
  Config config_;
  /// Origin of the public (mobile-facing) app namespace. CDN domains are
  /// not hosted here — they are stub-domain-forwarded to the C-DNS; this
  /// zone carries the *other* MEC applications' public names.
  dns::DnsName public_domain_;
  MecCluster cluster_;
  ServiceRegistry registry_;
  IngressMonitor ingress_;
  std::shared_ptr<dns::Zone> public_zone_;
  std::map<std::string, Deployment> deployments_;
};

}  // namespace mecdns::mec
