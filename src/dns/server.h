// DNS server base class and the authoritative server.
//
// A DnsServer binds a UDP port on a netio::Runtime — port 53 of a simulated
// node, or a real socket under the epoll event loop — decodes incoming
// queries, applies a configurable processing delay (the "time spent in the
// DNS resolvers" component the paper measures) and hands the query to a
// subclass. Responses may be produced asynchronously, so servers that need
// upstream lookups (forwarders, recursive resolvers, the CDN router's
// mid-tier referral) fit the same interface.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "dns/message.h"
#include "dns/wire.h"
#include "dns/zone.h"
#include "netio/runtime.h"
#include "obs/trace.h"
#include "simnet/latency.h"
#include "simnet/network.h"
#include "util/inline_function.h"
#include "util/rng.h"
#include "util/slot_pool.h"

namespace mecdns::dns {

inline constexpr std::uint16_t kDnsPort = 53;

struct ServerStats {
  std::uint64_t queries = 0;
  std::uint64_t responses = 0;
  std::uint64_t malformed = 0;
  std::uint64_t refused = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t servfail = 0;
  std::uint64_t truncated = 0;  ///< responses cut down to TC stubs
};

/// Network-level facts about a received query.
struct QueryContext {
  simnet::Endpoint client;      ///< source endpoint as seen by the server
  simnet::SimTime received;     ///< arrival time (before processing delay)
};

class DnsServer {
 public:
  /// Octets of the reply target every query's Responder starts as.
  static constexpr std::size_t kReplySize = 32;
  /// Buffer octets of a Responder: the reply behind one plugin wrapper the
  /// size of the cache plugin's (which keeps the Query) stays in place.
  static constexpr std::size_t kResponderCapacity = 176;
  /// Move-only and one-shot: the answer is handed over once, by rvalue.
  /// Plugins that observe the answer wrap() it in place.
  using Responder =
      util::InlineFunction<void(Message&&), kResponderCapacity>;

  /// Binds `port` (0 = ephemeral, useful for tests) at `addr` on
  /// `runtime`: a simulated node's (simnet::Network::runtime) or a live
  /// epoll loop. The processing-delay RNG is seeded from the runtime.
  DnsServer(netio::Runtime& runtime, std::string name,
            simnet::LatencyModel processing_delay,
            std::uint16_t port = kDnsPort,
            simnet::Ipv4Address addr = simnet::Ipv4Address());

  virtual ~DnsServer();
  DnsServer(const DnsServer&) = delete;
  DnsServer& operator=(const DnsServer&) = delete;

  const std::string& name() const { return name_; }
  simnet::Endpoint endpoint() const { return socket_->endpoint(); }
  const ServerStats& stats() const { return stats_; }

  /// Bounds service concurrency: at most `workers` queries are in their
  /// processing-delay phase at once; excess queries wait in a FIFO queue of
  /// at most `max_queue` entries (overflow is silently dropped, like a full
  /// socket buffer). `workers` = 0 restores the default: unlimited
  /// concurrency (an idealized server). Queueing makes saturation visible:
  /// latency rises smoothly with load until the server melts down — the
  /// regime the paper's ingress-overload policy exists for.
  void set_service_capacity(std::size_t workers, std::size_t max_queue = 256);

  std::uint64_t dropped_overflow() const { return dropped_overflow_; }
  std::size_t queue_depth() const { return work_queue_.size(); }
  /// Deepest the worker FIFO has ever been — the saturation high-water mark
  /// the load generator's queue-depth gauge reports.
  std::size_t max_queue_depth() const { return max_queue_depth_; }

  /// Fixed latency added on top of each sampled processing delay — the
  /// chaos layer's server-brownout knob (a degraded-but-alive server).
  /// Zero (the default) restores nominal service time; no RNG is drawn.
  void set_extra_processing(simnet::SimTime extra) { extra_processing_ = extra; }
  simnet::SimTime extra_processing() const { return extra_processing_; }

 protected:
  /// Subclass hook. Call `respond` at most once, or move it away to call
  /// later, into state the server owns (it captures the server); leaving
  /// it drops the query (the client's timeout handles it, as on a real
  /// network). `query` and `ctx` live only for the call; an answer given
  /// later keeps a copy of the Query.
  virtual void handle(const Query& query, const QueryContext& ctx,
                      Responder&& respond) = 0;

  util::Rng& rng() { return rng_; }
  /// The server's clock (simulated or wall), for cache TTL math etc.
  simnet::SimTime now() const { return rt_.now(); }
  /// The runtime this server is bound to, for subclasses that open their
  /// own upstream transports.
  netio::Runtime& runtime() { return rt_; }

 private:
  /// A received query from its arrival to the end of its processing event
  /// (through the worker FIFO, when workers are bounded). Slots are reused
  /// and never move, so the processing event captures an index, not the
  /// query. A slot keeps the Query, never the decoded message's records.
  struct InFlight {
    Query query;
    QueryContext ctx;
    Responder respond;
    obs::SpanRef span;  ///< serve span; queued work keeps its own context
    /// The processing event, cancelled if the server dies first.
    netio::TimerId timer = netio::kNoTimer;
  };

  void on_packet(const simnet::Packet& packet);
  void enqueue(std::uint32_t slot);
  void pump();
  /// Draws the query's processing delay and arms its processing event;
  /// `holds_worker` releases a worker slot (and pumps) when it ends.
  void start(std::uint32_t slot, bool holds_worker);
  /// The processing event: hands the query to handle() and frees its slot.
  void process(std::uint32_t slot, bool holds_worker);
  void release(std::uint32_t slot);

  netio::Runtime& rt_;
  std::string name_;
  simnet::LatencyModel processing_delay_;
  netio::DatagramSocket* socket_;
  util::Rng rng_;
  ServerStats stats_;
  std::size_t workers_ = 0;  ///< 0 = unlimited
  std::size_t max_queue_ = 256;
  simnet::SimTime extra_processing_ = simnet::SimTime::zero();
  std::size_t busy_ = 0;
  /// Never-moving slots: growing the pool never moves a query a running
  /// handle() still reads.
  util::SlotPool<InFlight> in_flight_;
  std::deque<std::uint32_t> work_queue_;  ///< slots waiting for a worker
  std::size_t max_queue_depth_ = 0;
  std::uint64_t dropped_overflow_ = 0;
};

/// Serves one or more zones authoritatively; chases in-zone CNAME chains and
/// emits referrals at zone cuts.
class AuthoritativeServer : public DnsServer {
 public:
  AuthoritativeServer(netio::Runtime& runtime, std::string name,
                      simnet::LatencyModel processing_delay,
                      std::uint16_t port = kDnsPort,
                      simnet::Ipv4Address addr = simnet::Ipv4Address());

  /// Sim-node shorthand; perfbench/tests.cc is its only caller.
  AuthoritativeServer(simnet::Network& net, simnet::NodeId node,
                      std::string name, simnet::LatencyModel processing_delay)
      : AuthoritativeServer(net.runtime(node), std::move(name),
                            processing_delay) {}

  /// Adds a zone. Zones must not be nested within each other's origins
  /// except via explicit delegation records.
  Zone& add_zone(DnsName origin);

  /// The zone with the longest origin matching `name`, or nullptr.
  Zone* find_zone(const DnsName& name);

  std::vector<Zone>& zones() { return zones_; }

 protected:
  void handle(const Query& query, const QueryContext& ctx,
              Responder&& respond) override;

 private:
  std::vector<Zone> zones_;
};

/// The authoritative answer to `query` from `zones` (one zone, or the
/// several an AuthoritativeServer hosts): the lookup's records in the
/// sections its status calls for, CNAMEs chased into any zone of `zones`
/// (8 steps, then SERVFAIL), and REFUSED when no zone holds the name.
Message zone_answer(std::span<const Zone> zones, const Query& query);

}  // namespace mecdns::dns
