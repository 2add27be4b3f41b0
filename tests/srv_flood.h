// A hostile DNS message that is small on the wire and huge once re-encoded.
//
// One question whose name takes 245 octets on the wire, then 3000 SRV
// additionals whose owners and targets are all compression pointers to that
// name: 60,261 octets that decode without fault. The encoder writes SRV
// targets uncompressed (RFC 2782), so each 20-octet record would come back
// as 263 octets, 789,261 in all: far past the 65535-octet message limit.
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"

namespace mecdns::dns {

inline constexpr std::size_t kSrvFloodRecords = 3000;
inline constexpr std::size_t kSrvFloodOctets = 60261;

/// A name of 245 octets on the wire, under mycdn.test.
inline DnsName srv_flood_name() {
  return DnsName::must_parse(std::string(63, 'a') + "." +
                             std::string(63, 'b') + "." +
                             std::string(63, 'c') + "." +
                             std::string(40, 'd') + ".mycdn.test");
}

/// Appends the SRV flood to `head`: a 12-octet header and one question
/// (as encoded) whose name starts at offset 12. ARCOUNT is set to the
/// flood's record count; the other counts and flags are kept.
inline std::vector<std::uint8_t> srv_flood(
    std::span<const std::uint8_t> head) {
  std::vector<std::uint8_t> wire(head.begin(), head.end());
  wire[10] = static_cast<std::uint8_t>(kSrvFloodRecords >> 8);
  wire[11] = static_cast<std::uint8_t>(kSrvFloodRecords);
  for (std::size_t i = 0; i < kSrvFloodRecords; ++i) {
    const std::uint8_t record[] = {
        0xc0, 0x0c,              // owner: pointer to the question name
        0x00, 0x21, 0x00, 0x01,  // SRV IN
        0x00, 0x00, 0x00, 0x1e,  // TTL 30
        0x00, 0x08,              // RDLENGTH
        0x00, 0x01, 0x00, 0x01,  // priority, weight
        0x13, 0xc4,              // port 5060
        0xc0, 0x0c,              // target: pointer to the question name
    };
    wire.insert(wire.end(), std::begin(record), std::end(record));
  }
  return wire;
}

}  // namespace mecdns::dns
