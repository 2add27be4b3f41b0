#include "netio/epoll_runtime.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

namespace mecdns::netio {

namespace {

constexpr int kMaxEpollEvents = 64;
/// Longest single epoll_wait sleep: stop() and run_until deadlines are
/// re-checked at least this often.
constexpr int kMaxPollMs = 250;
/// Datagrams drained per socket per wake-up before yielding to timers, so
/// one chatty peer cannot starve the retransmission ladder.
constexpr int kMaxDrainPerWake = 64;
/// Receive buffer every socket asks for (the kernel caps it at rmem_max and
/// doubles it): the 212,992-B default holds ~256 small datagrams, which a
/// short stall of the loop overflows at tens of thousands of queries/s.
constexpr int kRecvBufferBytes = 4 << 20;

std::int64_t monotonic_nanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

sockaddr_in to_sockaddr(const simnet::Endpoint& ep) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(ep.addr.value());
  sa.sin_port = htons(ep.port);
  return sa;
}

simnet::Endpoint from_sockaddr(const sockaddr_in& sa) {
  return simnet::Endpoint{simnet::Ipv4Address(ntohl(sa.sin_addr.s_addr)),
                          ntohs(sa.sin_port)};
}

}  // namespace

/// A bound non-blocking UDP socket registered with the epoll set.
class EpollRuntime::Socket final : public DatagramSocket {
 public:
  Socket(EpollRuntime* owner, int fd, simnet::Endpoint local,
         ReceiveHandler handler)
      : owner_(owner), fd_(fd), local_(local), handler_(std::move(handler)) {}

  ~Socket() override {
    if (fd_ >= 0) ::close(fd_);
  }

  simnet::Endpoint endpoint() const override { return local_; }

  void send(const simnet::Endpoint& dst,
            std::span<const std::uint8_t> payload) override {
    const sockaddr_in sa = to_sockaddr(dst);
    const ssize_t sent =
        ::sendto(fd_, payload.data(), payload.size(), 0,
                 reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
    if (sent < 0) {
      ++owner_->send_errors_;
    } else {
      ++owner_->packets_sent_;
    }
  }

  int fd() const { return fd_; }
  void deliver(const simnet::Packet& packet) {
    if (handler_) handler_(packet);
  }

 private:
  EpollRuntime* owner_;
  int fd_;
  simnet::Endpoint local_;
  ReceiveHandler handler_;
};

EpollRuntime::EpollRuntime() : epoch_ns_(monotonic_nanos()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  recv_packet_.payload.reserve(4096);
}

EpollRuntime::~EpollRuntime() {
  sockets_.clear();  // each Socket closes its fd
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

simnet::SimTime EpollRuntime::now() const {
  return simnet::SimTime::nanos(monotonic_nanos() - epoch_ns_);
}

DatagramSocket* EpollRuntime::open_socket(std::uint16_t port,
                                          DatagramSocket::ReceiveHandler handler,
                                          simnet::Ipv4Address addr) {
  if (addr.is_unspecified()) addr = simnet::Ipv4Address(127, 0, 0, 1);
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  // Best effort: a smaller buffer still works, it only drops sooner.
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kRecvBufferBytes,
               sizeof(kRecvBufferBytes));
  sockaddr_in sa = to_sockaddr(simnet::Endpoint{addr, port});
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(),
                            "bind " + addr.to_string() + ":" +
                                std::to_string(port));
  }
  // Resolve the actual endpoint (port 0 -> kernel-assigned ephemeral).
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::system_error(err, std::generic_category(), "getsockname");
  }

  auto socket = std::make_unique<Socket>(this, fd, from_sockaddr(bound),
                                         std::move(handler));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = socket.get();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl add");
  }
  sockets_.push_back(std::move(socket));
  return sockets_.back().get();
}

void EpollRuntime::close_socket(DatagramSocket* socket) {
  if (socket == nullptr) return;
  const auto it = std::find_if(
      sockets_.begin(), sockets_.end(),
      [socket](const std::unique_ptr<Socket>& s) { return s.get() == socket; });
  if (it == sockets_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, (*it)->fd(), nullptr);
  sockets_.erase(it);  // destructor closes the fd
}

void EpollRuntime::drain_socket(Socket& socket) {
  sockaddr_in src{};
  socklen_t src_len = sizeof(src);
  std::uint8_t buf[65536];
  for (int i = 0; i < kMaxDrainPerWake; ++i) {
    src_len = sizeof(src);
    const ssize_t len =
        ::recvfrom(socket.fd(), buf, sizeof(buf), 0,
                   reinterpret_cast<sockaddr*>(&src), &src_len);
    if (len < 0) return;  // EAGAIN (drained) or transient error: move on
    ++packets_received_;
    recv_packet_.id = packets_received_;
    recv_packet_.src = from_sockaddr(src);
    recv_packet_.dst = socket.endpoint();
    recv_packet_.payload.assign(buf, buf + len);
    socket.deliver(recv_packet_);
  }
}

void EpollRuntime::poll_once(simnet::SimTime wake_by) {
  const simnet::SimTime wake = std::min(wake_by, timers_.next_at());
  int timeout_ms = kMaxPollMs;
  if (wake != simnet::SimTime::max()) {
    const simnet::SimTime until = wake - now();
    if (until <= simnet::SimTime::zero()) {
      timeout_ms = 0;
    } else {
      // Round up so we never wake a hair early and spin.
      const std::int64_t ms = (until.count_nanos() + 999'999) / 1'000'000;
      timeout_ms = static_cast<int>(std::min<std::int64_t>(ms, kMaxPollMs));
    }
  }

  epoll_event events[kMaxEpollEvents];
  const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, timeout_ms);
  if (n < 0 && errno != EINTR) {
    throw std::system_error(errno, std::generic_category(), "epoll_wait");
  }
  for (int i = 0; i < std::max(n, 0); ++i) {
    auto* socket = static_cast<Socket*>(events[i].data.ptr);
    // A handler earlier in this batch may have closed this socket; the
    // socket list is small, so re-validate the pointer before touching it.
    const bool live = std::any_of(
        sockets_.begin(), sockets_.end(),
        [socket](const std::unique_ptr<Socket>& s) { return s.get() == socket; });
    if (live) drain_socket(*socket);
  }
  while (timers_.next_at() <= now()) {
    timers_.fire_next([this](simnet::SimTime) { ++timers_fired_; });
  }
}

void EpollRuntime::run() {
  stopped_ = false;
  while (!stopped_) poll_once(simnet::SimTime::max());
}

bool EpollRuntime::run_until(simnet::SimTime deadline) {
  stopped_ = false;
  while (!stopped_ && now() < deadline) poll_once(deadline);
  return !stopped_;
}

}  // namespace mecdns::netio
