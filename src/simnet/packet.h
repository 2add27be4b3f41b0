// The datagram that crosses the simulated network (and, through
// netio::Runtime handlers, a real socket): addresses, wire bytes and the
// trail of nodes it traversed.
#pragma once

#include <cstddef>
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
  /// Size used for transmission-delay purposes on bandwidth-limited links.
  /// Defaults to the payload size; protocols that *stand for* a larger
  /// transfer (a content response representing megabytes of data) set it
  /// to the represented size so transfer time scales with object size.
  std::size_t virtual_size = 0;
  /// Typical paths in the MEC topologies traverse <= 4 nodes, so the hop
  /// trail stays inline with the packet.
  util::SmallVector<Hop, 4> hops;
  int ttl = 64;

  std::size_t wire_size() const {
    return virtual_size != 0 ? virtual_size : payload.size();
  }
};

}  // namespace mecdns::simnet
