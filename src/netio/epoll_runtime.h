// Runtime over real UDP sockets: an epoll event loop with wall-clock
// timers.
//
// The live half of the clock/IO split. now() is CLOCK_MONOTONIC relative to
// construction (a nanosecond duration, exactly like sim time), timers live
// in the simulator's EventQueue, whose next deadline bounds the epoll_wait
// timeout, and sockets are non-blocking AF_INET datagram sockets delivered
// to the same `Packet` handler signature the simulated Network uses. Single
// threaded by design: handlers and timer callbacks run on the thread that
// calls run()/run_until(), so ported components need no locking — the same
// property the simulator gave them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "netio/runtime.h"
#include "simnet/event_queue.h"

namespace mecdns::netio {

class EpollRuntime final : public Runtime {
 public:
  EpollRuntime();
  EpollRuntime(const EpollRuntime&) = delete;
  EpollRuntime& operator=(const EpollRuntime&) = delete;
  ~EpollRuntime() override;

  simnet::SimTime now() const override;
  TimerId schedule_after(simnet::SimTime delay, Callback&& fn) override {
    return timers_.push(now() + delay, std::move(fn));
  }
  void cancel(TimerId timer) override {
    if (timers_.cancel(timer)) ++timers_cancelled_;
  }
  /// Binds a real UDP socket; default address is 127.0.0.1 (the loopback
  /// prototype case). Throws std::system_error on bind failure.
  DatagramSocket* open_socket(
      std::uint16_t port, DatagramSocket::ReceiveHandler handler,
      simnet::Ipv4Address addr = simnet::Ipv4Address()) override;
  void close_socket(DatagramSocket* socket) override;
  std::uint64_t rng_stream() const override { return 1; }

  /// Runs the loop until stop() is called (checked at least every 250 ms,
  /// so a signal handler that sets a flag polled by a timer works).
  void run();

  /// Runs until `deadline` (a now()-relative instant) or stop(), whichever
  /// comes first. Returns false if stopped early.
  bool run_until(simnet::SimTime deadline);

  /// Ends the current run()/run_until() after the in-progress poll round;
  /// a later run() starts fresh (pending timers and sockets are kept).
  void stop() { stopped_ = true; }

  /// Open sockets right now — the CI smoke job's leak check: after every
  /// component is destroyed this must read 0.
  std::size_t open_sockets() const { return sockets_.size(); }

  std::uint64_t timers_fired() const { return timers_fired_; }
  /// Cancels that stopped an armed timer (no-op cancels do not count).
  std::uint64_t timers_cancelled() const { return timers_cancelled_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  /// sendto() failures (EAGAIN, unreachable, ...) — the datagram is dropped
  /// exactly as a congested real network would.
  std::uint64_t send_errors() const { return send_errors_; }

 private:
  class Socket;

  /// One epoll_wait + drain + fire-due-timers round, sleeping at most until
  /// `wake_by` (clamped to 250 ms so stop() stays responsive).
  void poll_once(simnet::SimTime wake_by);
  void drain_socket(Socket& socket);

  int epoll_fd_ = -1;
  std::int64_t epoch_ns_ = 0;
  std::vector<std::unique_ptr<Socket>> sockets_;
  simnet::EventQueue timers_;
  bool stopped_ = false;
  std::uint64_t timers_fired_ = 0;
  std::uint64_t timers_cancelled_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t send_errors_ = 0;
  /// Receive scratch reused across datagrams (payload capacity persists).
  simnet::Packet recv_packet_;
};

}  // namespace mecdns::netio
