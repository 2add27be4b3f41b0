// Simulated packet network: nodes, links, static shortest-path routing,
// UDP-style sockets, transit hooks (NAT) and taps (tcpdump).
//
// Packets are forwarded hop by hop so that mid-path elements — the P-GW's
// NAT, the paper's tcpdump measurement point, failure injection — observe
// and can rewrite traffic exactly where a real network element would.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netio/runtime.h"
#include "simnet/ip.h"
#include "simnet/latency.h"
#include "simnet/packet.h"
#include "simnet/simulator.h"
#include "simnet/time.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace mecdns::simnet {

using LinkId = std::uint32_t;

/// What a transit hook decided about a packet.
enum class TransitAction {
  kForward,  ///< continue normal forwarding (possibly after rewriting)
  kDrop,     ///< silently discard
};

/// Delivery/drop counters for the whole network.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_node_down = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_no_socket = 0;
  std::uint64_t dropped_by_hook = 0;
  std::uint64_t dropped_loss = 0;
};

class Network;
class SimRuntime;

/// A bound UDP socket. Owned by the Network; obtained via open_socket().
class UdpSocket final : public netio::DatagramSocket {
 public:
  NodeId node() const { return node_; }
  std::uint16_t port() const { return port_; }
  Ipv4Address address() const { return addr_; }
  Endpoint endpoint() const override { return Endpoint{addr_, port_}; }

  /// Sends a datagram to `dst` from this socket's address/port. `payload`
  /// is copied into a pooled packet buffer recycled at delivery/drop, so
  /// steady-state sends allocate nothing.
  void send(const Endpoint& dst,
            std::span<const std::uint8_t> payload) override;

 private:
  friend class Network;
  Network* net_ = nullptr;
  NodeId node_ = kInvalidNode;
  Ipv4Address addr_;
  std::uint16_t port_ = 0;
  ReceiveHandler handler_;
};

/// The network fabric. Nodes and links are added up front; routing tables
/// are (re)computed lazily from mean link delays whenever topology or link
/// state changes.
class Network {
 public:
  Network(Simulator& sim, util::Rng rng);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology -----------------------------------------------------------

  /// Adds a node; `primary_addr` (if non-zero) is registered to it.
  NodeId add_node(std::string name,
                  Ipv4Address primary_addr = Ipv4Address());

  /// Registers an additional address owned by `node`.
  void add_address(NodeId node, Ipv4Address addr);

  /// Adds a bidirectional link with the same delay model in both directions.
  LinkId add_link(NodeId a, NodeId b, LatencyModel model);

  /// Adds a bidirectional link with per-direction delay models.
  LinkId add_link(NodeId a, NodeId b, LatencyModel a_to_b,
                  LatencyModel b_to_a);

  void set_link_up(LinkId link, bool up);
  bool link_up(LinkId link) const;

  /// Random per-packet loss probability on a link (failure injection).
  void set_link_loss(LinkId link, double probability);

  void set_node_up(NodeId node, bool up);
  bool node_up(NodeId node) const;

  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(NodeId node) const;
  NodeId find_node(Ipv4Address addr) const;  // kInvalidNode if unknown

  // --- sockets ------------------------------------------------------------

  /// Binds a socket on `node`:`port` answering at `addr` (must be owned by
  /// the node; pass the default to use the node's first address). Port 0
  /// allocates an ephemeral port. Throws on conflicts.
  UdpSocket* open_socket(NodeId node, std::uint16_t port,
                         UdpSocket::ReceiveHandler handler,
                         Ipv4Address addr = Ipv4Address());

  void close_socket(UdpSocket* socket);

  /// The runtime every protocol component on `node` is built on (a
  /// SimRuntime, see simnet/sim_runtime.h). Created on first use and owned
  /// by this Network; components close the sockets they open through it.
  netio::Runtime& runtime(NodeId node);

  // --- middlebox hooks ----------------------------------------------------

  using TransitHook = std::function<TransitAction(Packet&)>;
  /// Installs a hook that runs whenever a packet arrives at `node`, before
  /// local delivery or forwarding. The hook may rewrite the packet (NAT).
  void set_transit_hook(NodeId node, TransitHook hook);

  using Tap = std::function<void(const Packet&, SimTime)>;
  /// Installs a read-only observer at `node` (the paper's tcpdump at P-GW).
  void add_tap(NodeId node, Tap tap);

  // --- accessors ----------------------------------------------------------

  Simulator& simulator() { return sim_; }
  SimTime now() const { return sim_.now(); }
  const NetworkStats& stats() const { return stats_; }

  /// Expected one-way delay along the current route between two nodes (the
  /// sum of mean link delays); useful for tests and calibration.
  std::optional<SimTime> route_cost(NodeId from, NodeId to);

 private:
  friend class UdpSocket;

  struct Link {
    NodeId a;
    NodeId b;
    LatencyModel a_to_b;
    LatencyModel b_to_a;
    bool up = true;
    double loss = 0.0;
  };

  struct NodeRec {
    std::string name;
    std::vector<Ipv4Address> addrs;
    bool up = true;
    TransitHook hook;
    std::vector<Tap> taps;
    std::vector<LinkId> links;
  };

  void send_from(NodeId node, Packet&& packet);
  /// Runs in the delivery event, on the Packet its capture owns.
  void arrive(NodeId node, Packet& packet);
  /// `dest_node` is the owner of packet.dst, resolved once by arrive().
  void forward(NodeId node, NodeId dest_node, Packet&& packet);
  void deliver_local(NodeId node, const Packet& packet);
  void ensure_routes();
  /// The first up link between two adjacent nodes, or kNoLink.
  LinkId pick_link(NodeId from, NodeId to) const;

  /// Forwarding-path maps probe with a mixed key: the raw address or
  /// (node, port) key would cluster linear probing on its low bits.
  struct MixHash {
    std::size_t operator()(std::uint64_t key) const {
      key *= 0x9e3779b97f4a7c15ULL;
      return static_cast<std::size_t>(key ^ (key >> 32));
    }
    std::size_t operator()(Ipv4Address addr) const {
      return (*this)(std::uint64_t{addr.value()});
    }
  };
  static std::uint64_t socket_key(NodeId node, std::uint16_t port) {
    return (std::uint64_t{node} << 16) | port;
  }

  /// Payload vectors are pooled: every packet that reaches a terminal point
  /// (delivered or dropped) donates its buffer back, and send() reuses one
  /// instead of allocating. Per-Network (so per campaign job), which keeps
  /// worker-count byte-identity: the pool's LIFO order only depends on the
  /// job's own deterministic event order.
  std::vector<std::uint8_t> acquire_payload(
      std::span<const std::uint8_t> bytes);
  void recycle_payload(std::vector<std::uint8_t>&& payload);

  Simulator& sim_;
  util::Rng rng_;
  std::vector<NodeRec> nodes_;
  std::vector<Link> links_;
  util::FlatHashMap<Ipv4Address, NodeId, MixHash> addr_to_node_;
  /// By socket_key(node, port).
  util::FlatHashMap<std::uint64_t, std::unique_ptr<UdpSocket>, MixHash>
      sockets_;
  std::uint16_t next_ephemeral_ = 49152;
  std::uint64_t next_packet_id_ = 1;
  bool routes_dirty_ = true;
  // next_link_[from * n + to] = the link forward() takes toward `to` (the
  // first up link to the route's next node, as pick_link() finds it), or
  // kNoLink when there is no route.
  std::vector<LinkId> next_link_;
  static constexpr LinkId kNoLink = ~LinkId{0};
  /// forward() drops a packet that has reached this many nodes.
  static constexpr std::uint32_t kHopLimit = 64;
  std::vector<std::int64_t> route_cost_ns_;
  NetworkStats stats_;
  std::vector<std::vector<std::uint8_t>> payload_pool_;
  /// Indexed by node; declared last so the adapters go before the sockets.
  std::vector<std::unique_ptr<SimRuntime>> runtimes_;
};

}  // namespace mecdns::simnet
