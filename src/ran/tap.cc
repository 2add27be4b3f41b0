#include "ran/tap.h"

#include "dns/server.h"
#include "dns/wire.h"

namespace mecdns::ran {

DnsTap::DnsTap(simnet::Network& net, simnet::NodeId node, Filter filter)
    : filter_(std::move(filter)) {
  net.add_tap(node, [this](const simnet::Packet& packet, simnet::SimTime at) {
    observe(packet, at);
  });
}

void DnsTap::observe(const simnet::Packet& packet, simnet::SimTime at) {
  // Only DNS traffic: to or from port 53.
  if (packet.dst.port != dns::kDnsPort && packet.src.port != dns::kDnsPort) {
    return;
  }
  if (filter_ && !filter_(packet)) return;
  // Like tcpdump, read only what identifies the transaction: the header
  // and the first question.
  auto head = dns::decode_header(packet.payload);
  if (!head.ok() || !head.value().question.has_value()) return;
  const dns::Header& header = head.value().header;
  const dns::DnsName& qname = head.value().question->name;
  Slot& slot = slots_[header.id];
  const bool same = slot.crossing.has_query && slot.qname.equals_exact(qname);
  if (header.qr) {
    ++observed_responses_;
    if (!same) return;  // its query was never seen, or was replaced
    slot.crossing.response_seen = at;
    slot.crossing.has_response = true;
    // A truncated answer is followed by a retry on the same id.
    slot.finished = !header.tc;
  } else {
    ++observed_queries_;
    if (same && !slot.finished) return;  // retransmission
    slot.qname = qname;
    slot.crossing = Crossing{at, simnet::SimTime::zero(), true, false};
    slot.finished = false;
  }
}

std::optional<DnsTap::Crossing> DnsTap::crossing(
    std::uint16_t dns_id, const std::string& qname) const {
  const auto it = slots_.find(dns_id);
  if (it == slots_.end() || !it->second.crossing.has_query ||
      it->second.qname.to_string() != qname) {
    return std::nullopt;
  }
  return it->second.crossing;
}

}  // namespace mecdns::ran
