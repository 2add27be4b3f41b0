// EDNS(0) (RFC 6891) and the Client Subnet option (RFC 7871).
//
// ECS is central to the paper: it is the mechanism proposed elsewhere to fix
// DNS localization, and §4 evaluates it (finding it changes latency by
// ~1.01x/1.08x/0.95x while the MEC design sidesteps the need for it).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "simnet/ip.h"
#include "util/result.h"

namespace mecdns::dns {

/// EDNS Client Subnet option (RFC 7871). IPv4-only in this library.
struct ClientSubnet {
  simnet::Ipv4Address address;
  std::uint8_t source_prefix = 24;  ///< prefix length disclosed by the client
  std::uint8_t scope_prefix = 0;    ///< prefix length the answer is valid for

  /// The disclosed subnet as a CIDR (address truncated to source_prefix).
  simnet::Cidr subnet() const {
    return simnet::Cidr(address, source_prefix);
  }

  friend bool operator==(const ClientSubnet&, const ClientSubnet&) = default;
};

/// Parsed EDNS(0) state carried by a message's OPT pseudo-record.
struct Edns {
  std::uint16_t udp_payload_size = 1232;
  std::uint8_t extended_rcode = 0;
  std::uint8_t version = 0;
  bool dnssec_ok = false;
  std::optional<ClientSubnet> client_subnet;

  friend bool operator==(const Edns&, const Edns&) = default;
};

/// Encodes the EDNS options (currently: ECS) into OPT RDATA bytes.
std::vector<std::uint8_t> encode_edns_options(const Edns& edns);

/// Decodes OPT RDATA bytes into the option fields of `edns` (payload size /
/// rcode / version / DO come from the OPT record's fixed fields, handled by
/// the wire codec). Reads the bytes in place; nothing is copied.
util::Result<void> decode_edns_options(std::span<const std::uint8_t> rdata,
                                       Edns& edns);

}  // namespace mecdns::dns
