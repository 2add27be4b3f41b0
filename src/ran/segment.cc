#include "ran/segment.h"

#include <stdexcept>

namespace mecdns::ran {

namespace {

// eNB <-> S-GW fronthaul and S-GW <-> P-GW core link, one way. GTP
// processing cost at the gateways is folded into these delays.
constexpr simnet::SimTime kFronthaulDelay = simnet::SimTime::micros(300);
constexpr simnet::SimTime kCoreLinkDelay = simnet::SimTime::micros(300);

}  // namespace

RanSegment::RanSegment(simnet::Network& net, Config config)
    : net_(net), config_(std::move(config)) {
  enb_ = net_.add_node(config_.name + "-enb", config_.enb_addr);
  sgw_ = net_.add_node(config_.name + "-sgw", config_.sgw_addr);
  pgw_ = net_.add_node(config_.name + "-pgw", config_.pgw_addr);
  net_.add_link(enb_, sgw_, simnet::LatencyModel::constant(kFronthaulDelay));
  net_.add_link(sgw_, pgw_, simnet::LatencyModel::constant(kCoreLinkDelay));
  net_.set_transit_hook(pgw_, [this](simnet::Packet& packet) {
    return nat(packet);
  });
}

simnet::NodeId RanSegment::attach_ue(const std::string& name,
                                     simnet::Ipv4Address addr) {
  if (!config_.ue_subnet.contains(addr)) {
    throw std::invalid_argument("UE address " + addr.to_string() +
                                " outside UE subnet " +
                                config_.ue_subnet.to_string());
  }
  const simnet::NodeId ue = net_.add_node(name, addr);
  const simnet::LinkId link = net_.add_link(
      ue, enb_, config_.access.uplink, config_.access.downlink);
  ue_links_.emplace(ue, link);
  return ue;
}

simnet::TransitAction RanSegment::nat(simnet::Packet& packet) {
  // Uplink: source inside the UE subnet is translated to the P-GW's public
  // address with a per-flow port.
  if (config_.ue_subnet.contains(packet.src.addr)) {
    auto it = nat_out_.find(packet.src);
    if (it == nat_out_.end()) {
      while (nat_in_.count(next_nat_port_) != 0) {
        ++next_nat_port_;
        if (next_nat_port_ < 20000) next_nat_port_ = 20000;
      }
      const std::uint16_t public_port = next_nat_port_++;
      if (next_nat_port_ < 20000) next_nat_port_ = 20000;
      it = nat_out_.emplace(packet.src, public_port).first;
      nat_in_.emplace(public_port, packet.src);
    }
    packet.src = simnet::Endpoint{config_.pgw_addr, it->second};
    return simnet::TransitAction::kForward;
  }
  // Downlink: destination is our public address on a translated port.
  if (packet.dst.addr == config_.pgw_addr) {
    const auto it = nat_in_.find(packet.dst.port);
    if (it == nat_in_.end()) {
      return simnet::TransitAction::kDrop;  // no mapping: unsolicited
    }
    packet.dst = it->second;
    return simnet::TransitAction::kForward;
  }
  return simnet::TransitAction::kForward;
}

}  // namespace mecdns::ran
