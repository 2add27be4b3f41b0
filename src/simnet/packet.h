// The datagram that crosses the simulated network (and, through
// netio::Runtime handlers, a real socket): addresses, wire bytes and the
// number of nodes it has reached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simnet/ip.h"

namespace mecdns::simnet {

using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// A UDP-style datagram. `payload` carries real wire bytes (the dns library
/// encodes/decodes RFC 1035 messages into it).
struct Packet {
  /// Nodes the packet has arrived at, its origin included (1 at the origin).
  struct HopCount {
    std::uint32_t count = 0;
    /// perfbench (frozen outside benchmark changes) reads `hops.size()`.
    std::size_t size() const { return count; }
  };

  std::uint64_t id = 0;
  Endpoint src;
  Endpoint dst;
  std::vector<std::uint8_t> payload;
  HopCount hops;
};

}  // namespace mecdns::simnet
