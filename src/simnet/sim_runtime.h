// Runtime adapter over the discrete-event simulator.
//
// Binds the abstract clock/IO interface to one node of a simulated Network.
// Obtain one with Network::runtime(node): the Network creates it on first
// use and owns it, so every component on a node shares the same adapter.
// The adapter is deliberately thin — every call forwards to the exact
// Simulator/Network entry points the pre-abstraction code used, in the same
// order, so sim-mode artifacts (event order, ephemeral-port allocation,
// RNG draws) stay byte-identical.
#pragma once

#include "netio/runtime.h"
#include "simnet/network.h"

namespace mecdns::simnet {

class SimRuntime final : public netio::Runtime {
 public:
  /// All sockets opened through this runtime live on `node`.
  SimRuntime(Network& net, NodeId node) : net_(net), node_(node) {}

  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  SimTime now() const override { return net_.now(); }

  netio::TimerId schedule_after(SimTime delay, Callback&& fn) override {
    return net_.simulator().schedule_after(delay, std::move(fn));
  }

  void cancel(netio::TimerId timer) override { net_.simulator().cancel(timer); }

  /// The Network's own UdpSocket: sends borrow the caller's bytes into a
  /// pooled payload vector, so steady-state sends allocate nothing.
  netio::DatagramSocket* open_socket(
      std::uint16_t port, netio::DatagramSocket::ReceiveHandler handler,
      Ipv4Address addr = Ipv4Address()) override {
    return net_.open_socket(node_, port, std::move(handler), addr);
  }

  void close_socket(netio::DatagramSocket* socket) override {
    net_.close_socket(static_cast<UdpSocket*>(socket));
  }

  /// The node id, so components on different nodes draw different streams.
  std::uint64_t rng_stream() const override { return node_; }

 private:
  Network& net_;
  NodeId node_;
};

}  // namespace mecdns::simnet
