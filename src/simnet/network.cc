#include "simnet/network.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>

#include "simnet/sim_runtime.h"

namespace mecdns::simnet {

Network::Network(Simulator& sim, util::Rng rng)
    : sim_(sim), rng_(std::move(rng)) {}

Network::~Network() = default;

void UdpSocket::send(const Endpoint& dst,
                     std::span<const std::uint8_t> payload) {
  Packet packet;
  packet.src = endpoint();
  packet.dst = dst;
  packet.payload = net_->acquire_payload(payload);
  net_->send_from(node_, std::move(packet));
}

NodeId Network::add_node(std::string name, Ipv4Address primary_addr) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRec{std::move(name), {}, true, nullptr, {}, {}});
  if (!primary_addr.is_unspecified()) add_address(id, primary_addr);
  routes_dirty_ = true;
  return id;
}

void Network::add_address(NodeId node, Ipv4Address addr) {
  if (node >= nodes_.size()) throw std::out_of_range("bad node id");
  if (addr.is_unspecified()) throw std::invalid_argument("unspecified address");
  const auto [it, inserted] = addr_to_node_.emplace(addr, node);
  if (!inserted && it->second != node) {
    throw std::invalid_argument("address " + addr.to_string() +
                                " already owned by another node");
  }
  nodes_[node].addrs.push_back(addr);
}

LinkId Network::add_link(NodeId a, NodeId b, LatencyModel model) {
  return add_link(a, b, model, model);
}

LinkId Network::add_link(NodeId a, NodeId b, LatencyModel a_to_b,
                         LatencyModel b_to_a) {
  if (a >= nodes_.size() || b >= nodes_.size()) {
    throw std::out_of_range("bad node id in add_link");
  }
  if (a == b) throw std::invalid_argument("self-link");
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, a_to_b, b_to_a});
  nodes_[a].links.push_back(id);
  nodes_[b].links.push_back(id);
  routes_dirty_ = true;
  return id;
}

void Network::set_link_up(LinkId link, bool up) {
  links_.at(link).up = up;
  routes_dirty_ = true;
}

bool Network::link_up(LinkId link) const { return links_.at(link).up; }

void Network::set_link_loss(LinkId link, double probability) {
  links_.at(link).loss = probability;
}

void Network::set_node_up(NodeId node, bool up) {
  nodes_.at(node).up = up;
  routes_dirty_ = true;
}

bool Network::node_up(NodeId node) const { return nodes_.at(node).up; }

const std::string& Network::node_name(NodeId node) const {
  return nodes_.at(node).name;
}

NodeId Network::find_node(Ipv4Address addr) const {
  const auto it = addr_to_node_.find(addr);
  return it == addr_to_node_.end() ? kInvalidNode : it->second;
}

UdpSocket* Network::open_socket(NodeId node, std::uint16_t port,
                                UdpSocket::ReceiveHandler handler,
                                Ipv4Address addr) {
  if (node >= nodes_.size()) throw std::out_of_range("bad node id");
  const NodeRec& rec = nodes_[node];
  if (rec.addrs.empty()) {
    throw std::logic_error("node " + rec.name + " has no address");
  }
  if (addr.is_unspecified()) {
    addr = rec.addrs.front();
  } else if (std::find(rec.addrs.begin(), rec.addrs.end(), addr) ==
             rec.addrs.end()) {
    throw std::invalid_argument("socket address not owned by node");
  }
  if (port == 0) {
    while (sockets_.count(socket_key(node, next_ephemeral_)) != 0) {
      ++next_ephemeral_;
      if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
    }
    port = next_ephemeral_++;
    if (next_ephemeral_ == 0) next_ephemeral_ = 49152;
  } else if (sockets_.count(socket_key(node, port)) != 0) {
    throw std::invalid_argument("port " + std::to_string(port) +
                                " already bound on " + rec.name);
  }
  auto socket = std::make_unique<UdpSocket>();
  socket->net_ = this;
  socket->node_ = node;
  socket->addr_ = addr;
  socket->port_ = port;
  socket->handler_ = std::move(handler);
  UdpSocket* raw = socket.get();
  sockets_.emplace(socket_key(node, port), std::move(socket));
  return raw;
}

void Network::close_socket(UdpSocket* socket) {
  if (socket == nullptr) return;
  sockets_.erase(socket_key(socket->node_, socket->port_));
}

netio::Runtime& Network::runtime(NodeId node) {
  if (node >= nodes_.size()) throw std::out_of_range("bad node id");
  if (runtimes_.size() <= node) runtimes_.resize(nodes_.size());
  auto& runtime = runtimes_[node];
  if (!runtime) runtime = std::make_unique<SimRuntime>(*this, node);
  return *runtime;
}

void Network::set_transit_hook(NodeId node, TransitHook hook) {
  nodes_.at(node).hook = std::move(hook);
}

void Network::add_tap(NodeId node, Tap tap) {
  nodes_.at(node).taps.push_back(std::move(tap));
}

void Network::send_from(NodeId node, Packet&& packet) {
  packet.id = next_packet_id_++;
  ++stats_.sent;
  // Arrival processing at the origin node runs as its own event so that the
  // origin's taps and hooks see the packet exactly like any other node's.
  sim_.schedule_after(SimTime::zero(), [this, node, p = std::move(packet)]() mutable {
    arrive(node, p);
  });
}

void Network::arrive(NodeId node, Packet& packet) {
  NodeRec& rec = nodes_[node];
  if (!rec.up) {
    ++stats_.dropped_node_down;
    recycle_payload(std::move(packet.payload));
    return;
  }
  ++packet.hops.count;
  for (const auto& tap : rec.taps) tap(packet, sim_.now());
  if (rec.hook) {
    if (rec.hook(packet) == TransitAction::kDrop) {
      ++stats_.dropped_by_hook;
      recycle_payload(std::move(packet.payload));
      return;
    }
  }
  // Resolved after the hook, which may rewrite the destination (NAT).
  const NodeId owner = find_node(packet.dst.addr);
  if (owner == node) {
    deliver_local(node, packet);
    // The handler saw the packet by const reference; its buffer is free to
    // serve the next send() now.
    recycle_payload(std::move(packet.payload));
    return;
  }
  forward(node, owner, std::move(packet));
}

void Network::deliver_local(NodeId node, const Packet& packet) {
  const auto it = sockets_.find(socket_key(node, packet.dst.port));
  if (it == sockets_.end() || !it->second->handler_) {
    ++stats_.dropped_no_socket;
    return;
  }
  ++stats_.delivered;
  it->second->handler_(packet);
}

void Network::forward(NodeId node, NodeId dest_node, Packet&& packet) {
  if (packet.hops.count >= kHopLimit) {
    ++stats_.dropped_ttl;
    recycle_payload(std::move(packet.payload));
    return;
  }
  ensure_routes();
  const LinkId link_id = dest_node == kInvalidNode
                             ? kNoLink
                             : next_link_[node * nodes_.size() + dest_node];
  if (link_id == kNoLink) {
    ++stats_.dropped_no_route;
    recycle_payload(std::move(packet.payload));
    return;
  }
  const Link& link = links_[link_id];
  if (link.loss > 0.0 && rng_.bernoulli(link.loss)) {
    ++stats_.dropped_loss;
    recycle_payload(std::move(packet.payload));
    return;
  }
  const NodeId next = link.a == node ? link.b : link.a;
  const LatencyModel& model = link.a == node ? link.a_to_b : link.b_to_a;
  const SimTime delay = model.sample(rng_);
  sim_.schedule_after(delay, [this, next, p = std::move(packet)]() mutable {
    arrive(next, p);
  });
}

LinkId Network::pick_link(NodeId from, NodeId to) const {
  for (const LinkId id : nodes_[from].links) {
    const Link& link = links_[id];
    if (!link.up) continue;
    if ((link.a == from && link.b == to) || (link.b == from && link.a == to)) {
      return id;
    }
  }
  return kNoLink;
}

void Network::ensure_routes() {
  if (!routes_dirty_) return;
  const std::size_t n = nodes_.size();
  next_link_.assign(n * n, kNoLink);
  route_cost_ns_.assign(n * n, -1);

  // Dijkstra from every source over mean link delays. Topologies here are
  // tens of nodes, so O(n * m log m) is plenty fast.
  for (NodeId src = 0; src < n; ++src) {
    if (!nodes_[src].up) continue;
    std::vector<std::int64_t> dist(n, std::numeric_limits<std::int64_t>::max());
    std::vector<NodeId> first_hop(n, kInvalidNode);
    using Item = std::pair<std::int64_t, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[src] = 0;
    heap.emplace(0, src);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d != dist[u]) continue;
      for (const LinkId id : nodes_[u].links) {
        const Link& link = links_[id];
        if (!link.up) continue;
        const NodeId v = link.a == u ? link.b : link.a;
        if (!nodes_[v].up) continue;
        const LatencyModel& model = link.a == u ? link.a_to_b : link.b_to_a;
        const std::int64_t cost = std::max<std::int64_t>(
            1, model.mean().count_nanos());
        if (dist[u] + cost < dist[v]) {
          dist[v] = dist[u] + cost;
          first_hop[v] = (u == src) ? v : first_hop[u];
          heap.emplace(dist[v], v);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (first_hop[dst] != kInvalidNode) {
        next_link_[src * n + dst] = pick_link(src, first_hop[dst]);
      }
      if (dist[dst] != std::numeric_limits<std::int64_t>::max()) {
        route_cost_ns_[src * n + dst] = dist[dst];
      }
    }
  }
  routes_dirty_ = false;
}

std::vector<std::uint8_t> Network::acquire_payload(
    std::span<const std::uint8_t> bytes) {
  if (payload_pool_.empty()) {
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
  }
  std::vector<std::uint8_t> payload = std::move(payload_pool_.back());
  payload_pool_.pop_back();
  payload.assign(bytes.begin(), bytes.end());
  return payload;
}

void Network::recycle_payload(std::vector<std::uint8_t>&& payload) {
  // Cap the pool so a burst cannot pin unbounded memory; capacity kept in
  // the pooled vectors is bounded by the largest message each one carried.
  constexpr std::size_t kPoolCap = 1024;
  if (payload.capacity() == 0 || payload_pool_.size() >= kPoolCap) return;
  payload.clear();
  payload_pool_.push_back(std::move(payload));
}

std::optional<SimTime> Network::route_cost(NodeId from, NodeId to) {
  ensure_routes();
  if (from >= nodes_.size() || to >= nodes_.size()) return std::nullopt;
  if (from == to) return SimTime::zero();
  const std::int64_t cost = route_cost_ns_[from * nodes_.size() + to];
  if (cost < 0) return std::nullopt;
  return SimTime::nanos(cost);
}

}  // namespace mecdns::simnet
