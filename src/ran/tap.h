// DNS traffic tap — the paper's "tcpdump at P-GW".
//
// §4: "We perform the measurements using both dig from the client side and
// tcpdump at P-GW to track the DNS request packets", splitting each lookup
// into (i) the wireless delay between UE and P-GW and (ii) everything
// beyond the P-GW (core, resolvers, up/downlink). DnsTap observes packets
// at a node and timestamps when each transaction's query and response
// crossed — letting the experiment harness compute the same breakdown.
// Like tcpdump it parses only what it prints: the header (id, QR, TC) and
// the first question's name (dns::decode_header), so a crossing is recorded
// even when a later section of the message is malformed.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "dns/name.h"
#include "simnet/network.h"

namespace mecdns::ran {

class DnsTap {
 public:
  struct Crossing {
    simnet::SimTime query_seen;     ///< first time the query crossed
    simnet::SimTime response_seen;  ///< last time the response crossed
    bool has_query = false;
    bool has_response = false;
  };

  /// Selects which packets the tap records (beyond the DNS-port check).
  /// Typical use: restrict to client-side traffic so a resolver hairpinning
  /// its upstream queries through the same gateway is not captured.
  using Filter = std::function<bool(const simnet::Packet&)>;

  /// Installs a tap on `node` (typically the P-GW).
  DnsTap(simnet::Network& net, simnet::NodeId node, Filter filter = nullptr);

  /// Crossing times for the transaction (id, qname), if it is the latest
  /// one observed on that id.
  std::optional<Crossing> crossing(std::uint16_t dns_id,
                                   const std::string& qname) const;

  std::uint64_t observed_queries() const { return observed_queries_; }
  std::uint64_t observed_responses() const { return observed_responses_; }

 private:
  /// The latest transaction seen on one 16-bit id. A query for another
  /// name, or one after the final (untruncated) response, starts a new
  /// transaction in the slot; a retransmission keeps the first-seen time.
  struct Slot {
    dns::DnsName qname;
    Crossing crossing;
    bool finished = false;
  };

  void observe(const simnet::Packet& packet, simnet::SimTime at);

  Filter filter_;
  /// One slot per transaction id seen, so at most 65536.
  std::unordered_map<std::uint16_t, Slot> slots_;
  std::uint64_t observed_queries_ = 0;
  std::uint64_t observed_responses_ = 0;
};

}  // namespace mecdns::ran
