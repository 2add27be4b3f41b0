// A containerized 4G/5G RAN segment: eNB + S-GW + P-GW with NAT.
//
// Mirrors the paper's testbed (srsLTE eNB + NextEPC core, all collocated at
// the edge): user traffic enters at the eNB, traverses the core gateways,
// and leaves through the P-GW, which rewrites the UE's source address to
// its own public address — the reason "CDN servers see the public gateway's
// IP, not the end client's".
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "ran/profiles.h"
#include "simnet/network.h"

namespace mecdns::ran {

class RanSegment {
 public:
  struct Config {
    std::string name = "ran";
    simnet::Ipv4Address enb_addr;
    simnet::Ipv4Address sgw_addr;
    simnet::Ipv4Address pgw_addr;        ///< P-GW public (NAT) address
    simnet::Cidr ue_subnet;              ///< sources subject to NAT
    AccessProfile access;                ///< UE <-> eNB air interface
  };

  RanSegment(simnet::Network& net, Config config);

  /// Creates a UE node attached to this segment's eNB over the air
  /// interface. `addr` must be inside config.ue_subnet.
  simnet::NodeId attach_ue(const std::string& name, simnet::Ipv4Address addr);

  /// Link id of the air-interface link for a UE (for handoff up/down).
  simnet::LinkId ue_link(simnet::NodeId ue) const { return ue_links_.at(ue); }

  simnet::NodeId enb() const { return enb_; }
  simnet::NodeId sgw() const { return sgw_; }
  simnet::NodeId pgw() const { return pgw_; }
  simnet::Ipv4Address pgw_public_addr() const { return config_.pgw_addr; }

  /// Active NAT translations (visibility for tests).
  std::size_t nat_entries() const { return nat_out_.size(); }

 private:
  simnet::TransitAction nat(simnet::Packet& packet);

  simnet::Network& net_;
  Config config_;
  simnet::NodeId enb_ = simnet::kInvalidNode;
  simnet::NodeId sgw_ = simnet::kInvalidNode;
  simnet::NodeId pgw_ = simnet::kInvalidNode;
  std::map<simnet::NodeId, simnet::LinkId> ue_links_;

  // NAT tables: outward (UE endpoint -> public port) and return direction.
  std::map<simnet::Endpoint, std::uint16_t> nat_out_;
  std::map<std::uint16_t, simnet::Endpoint> nat_in_;
  std::uint16_t next_nat_port_ = 20000;
};

}  // namespace mecdns::ran
