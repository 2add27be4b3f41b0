// Clock/IO abstraction: the seam between the DNS/MEC/CDN stack and the
// thing that moves time and datagrams.
//
// Everything above this interface — DnsTransport's retransmission ladder,
// DnsServer's processing-delay scheduling, the plugin chain, the mec
// ingress guard — only ever needs three primitives: what time is it
// (`now`), run this later (`schedule_after`/`cancel`), and send/receive
// datagrams (`open_socket` → DatagramSocket). Two implementations provide
// them:
//
//   * simnet::SimRuntime (simnet/sim_runtime.h) adapts the discrete-event
//     simulator + simulated Network, one per node via Network::runtime(),
//     so every sim-mode artifact stays byte-identical to the
//     pre-abstraction code.
//   * EpollRuntime (epoll_runtime.h) is an epoll event loop with
//     CLOCK_MONOTONIC wall-clock timers and real UDP sockets, turning the
//     identical resolver/server code into a live prototype `dig` can query.
//
// The interface deliberately reuses simnet's value types (SimTime as a
// nanosecond duration since the runtime's epoch, Endpoint, Packet) so
// one component class serves both modes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>

#include "simnet/ip.h"
#include "simnet/packet.h"
#include "simnet/event_queue.h"
#include "simnet/time.h"

namespace mecdns::netio {

/// Handle for a scheduled timer, usable with Runtime::cancel. Never
/// kNoTimer, so a component can keep "no timer armed" in the same field.
using TimerId = simnet::EventId;
inline constexpr TimerId kNoTimer = simnet::kNoEvent;

/// A bound datagram endpoint. Owned by the Runtime; obtained via
/// open_socket() and returned with close_socket().
class DatagramSocket {
 public:
  using ReceiveHandler = std::function<void(const simnet::Packet&)>;

  virtual ~DatagramSocket() = default;

  /// The bound local address/port (after ephemeral-port resolution).
  virtual simnet::Endpoint endpoint() const = 0;

  /// Sends a datagram to `dst`, borrowing `payload` — the bytes are copied
  /// (or written to the wire) before return, so callers may pass a view of
  /// the encoder's per-thread buffer.
  virtual void send(const simnet::Endpoint& dst,
                    std::span<const std::uint8_t> payload) = 0;
};

/// The clock + scheduler + datagram fabric a protocol component runs on.
class Runtime {
 public:
  using Callback = simnet::EventQueue::Callback;

  virtual ~Runtime() = default;

  /// Sim: current simulated time. Live: monotonic time since the runtime
  /// was constructed. Either way a nanosecond duration, so intervals and
  /// RTT math are mode-independent.
  virtual simnet::SimTime now() const = 0;

  /// Runs `fn` once, `delay` from now. The returned id is valid for
  /// cancel() until the timer fires. A lambda argument is built into a
  /// Callback temporary, which both runtimes relocate once, into its queue
  /// slot.
  virtual TimerId schedule_after(simnet::SimTime delay, Callback&& fn) = 0;

  /// A cancelled timer never runs (both runtimes keep timers in one
  /// simnet::EventQueue); cancelling kNoTimer or a fired, cancelled or
  /// stale id is a no-op. Components cancel a timer once its work is
  /// answered or superseded, or its owner dies — no staleness guards.
  virtual void cancel(TimerId timer) = 0;

  /// Binds a datagram socket (port 0 = ephemeral). `addr` selects the local
  /// address when the node/host has several; default picks the runtime's
  /// primary (sim: node's first address, live: 127.0.0.1).
  virtual DatagramSocket* open_socket(std::uint16_t port,
                                      DatagramSocket::ReceiveHandler handler,
                                      simnet::Ipv4Address addr =
                                          simnet::Ipv4Address()) = 0;

  virtual void close_socket(DatagramSocket* socket) = 0;

  /// Mixed into the RNG seed of every component built on this runtime:
  /// a simulated node's id (each node draws its own stream), 1 live.
  virtual std::uint64_t rng_stream() const = 0;
};

}  // namespace mecdns::netio
