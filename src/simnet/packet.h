// The datagram that crosses the simulated network (and, through
// netio::Runtime handlers, a real socket): addresses, wire bytes and the
// trail of nodes it traversed.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/ip.h"
#include "simnet/time.h"
#include "util/small_vector.h"

namespace mecdns::simnet {

using NodeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = ~NodeId{0};

/// One recorded traversal point of a packet (used for latency breakdowns).
struct Hop {
  NodeId node = kInvalidNode;
  SimTime at;
};

/// A UDP-style datagram. `payload` carries real wire bytes (the dns library
/// encodes/decodes RFC 1035 messages into it).
struct Packet {
  std::uint64_t id = 0;
  Endpoint src;
  Endpoint dst;
  std::vector<std::uint8_t> payload;
  /// Typical paths in the MEC topologies traverse <= 4 nodes, so the hop
  /// trail stays inline with the packet.
  util::SmallVector<Hop, 4> hops;
  int ttl = 64;
};

}  // namespace mecdns::simnet
