// Kubernetes-like MEC cluster model.
//
// The paper's prototype runs everything — RAN functions, CoreDNS, the ATC
// Traffic Router and caches — as containers in one k8s cluster at the edge.
// MecCluster models the parts that matter to DNS/CDN behaviour: worker
// nodes on a fast fabric, a gateway node where external traffic enters, and
// stable *cluster IPs* allocated from a service CIDR ("we first assign
// C-DNS a fixed cluster IP using k8s Service"). Cluster IPs are the only
// addresses mobile clients ever see — the paper's public-IP-reuse benefit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "simnet/network.h"

namespace mecdns::mec {

class MecCluster {
 public:
  struct Config {
    std::string name = "mec";
    /// Node (host) addresses; .1 is the gateway.
    simnet::Cidr node_cidr = simnet::Cidr::must_parse("10.240.0.0/24");
    /// Cluster-IP (Service) range, like kube-proxy's service CIDR.
    simnet::Cidr service_cidr = simnet::Cidr::must_parse("10.96.0.0/16");
  };

  MecCluster(simnet::Network& net, Config config);

  /// The node external traffic enters through (link it to the P-GW / LAN).
  simnet::NodeId gateway() const { return gateway_; }

  /// Adds a worker node on the fabric; returns its simnet node.
  simnet::NodeId add_worker(const std::string& name);

  std::size_t worker_count() const { return workers_.size(); }
  simnet::NodeId worker(std::size_t i) const { return workers_.at(i); }

  /// Allocates the next free cluster IP.
  simnet::Ipv4Address allocate_service_ip();

  /// Allocates a *fixed* cluster IP (host index within the service CIDR).
  /// Throws if already taken.
  simnet::Ipv4Address allocate_service_ip(std::uint32_t host_index);

  /// Binds a cluster IP to the worker hosting the service's pod, making it
  /// routable (the role kube-proxy/routes play in the real cluster).
  void expose_service_ip(simnet::NodeId worker, simnet::Ipv4Address cluster_ip);

  const Config& config() const { return config_; }
  simnet::Network& network() { return net_; }

 private:
  simnet::Network& net_;
  Config config_;
  simnet::NodeId gateway_;
  std::vector<simnet::NodeId> workers_;
  std::uint32_t next_node_host_ = 2;     // .1 is the gateway
  std::uint32_t next_service_host_ = 10;
  std::map<std::uint32_t, bool> service_hosts_taken_;
};

}  // namespace mecdns::mec
