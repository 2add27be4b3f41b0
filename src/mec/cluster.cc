#include "mec/cluster.h"

#include <stdexcept>

namespace mecdns::mec {

namespace {

// Intra-cluster fabric, one way: Normal(150 us, 40 us) floored at 30 us.
constexpr simnet::SimTime kFabricMean = simnet::SimTime::micros(150);
constexpr simnet::SimTime kFabricStddev = simnet::SimTime::micros(40);
constexpr simnet::SimTime kFabricFloor = simnet::SimTime::micros(30);

}  // namespace

MecCluster::MecCluster(simnet::Network& net, Config config)
    : net_(net), config_(std::move(config)) {
  gateway_ = net_.add_node(config_.name + "-gw", config_.node_cidr.host(1));
}

simnet::NodeId MecCluster::add_worker(const std::string& name) {
  if (next_node_host_ >= config_.node_cidr.size() - 1) {
    throw std::length_error("node CIDR exhausted");
  }
  const simnet::NodeId node = net_.add_node(
      config_.name + "-" + name, config_.node_cidr.host(next_node_host_++));
  net_.add_link(gateway_, node,
                simnet::LatencyModel::normal(kFabricMean, kFabricStddev,
                                             kFabricFloor));
  workers_.push_back(node);
  return node;
}

simnet::Ipv4Address MecCluster::allocate_service_ip() {
  while (service_hosts_taken_.count(next_service_host_) != 0) {
    ++next_service_host_;
  }
  return allocate_service_ip(next_service_host_);
}

simnet::Ipv4Address MecCluster::allocate_service_ip(
    std::uint32_t host_index) {
  if (host_index == 0 || host_index >= config_.service_cidr.size() - 1) {
    throw std::out_of_range("service host index outside service CIDR");
  }
  if (service_hosts_taken_.count(host_index) != 0) {
    throw std::invalid_argument("cluster IP host index " +
                                std::to_string(host_index) +
                                " already allocated");
  }
  service_hosts_taken_[host_index] = true;
  return config_.service_cidr.host(host_index);
}

void MecCluster::expose_service_ip(simnet::NodeId worker,
                                   simnet::Ipv4Address cluster_ip) {
  net_.add_address(worker, cluster_ip);
}

}  // namespace mecdns::mec
