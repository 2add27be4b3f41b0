// Client-side DNS-over-UDP transaction layer.
//
// Sends wire-encoded queries through a netio::Runtime (the simulated
// network or a real epoll/UDP event loop), matches responses to pending
// transactions by (id, server, question), and applies
// timeout/retransmission — the machinery under every resolver in this
// library (stub, recursive, forwarding).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dns/message.h"
#include "dns/wire.h"
#include "netio/runtime.h"
#include "obs/journal.h"
#include "obs/trace.h"
#include "simnet/context.h"
#include "simnet/network.h"
#include "util/flat_map.h"
#include "util/inline_function.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/slot_pool.h"

namespace mecdns::dns {

class DnsTransport {
 public:
  struct Options {
    simnet::SimTime timeout = simnet::SimTime::millis(2000);
    int max_retries = 0;  ///< retransmissions after the first attempt
    /// On a truncated (TC=1) response, automatically retry once with an
    /// EDNS buffer of `bufsize_on_tc` octets (the UDP analogue of falling
    /// back to TCP). Disabled by setting bufsize_on_tc to 0.
    std::uint16_t bufsize_on_tc = 4096;
    /// DNS-0x20: randomize the case of the outgoing qname and require the
    /// response to echo it byte-exactly, multiplying the work a blind
    /// spoofer must do beyond guessing the 16-bit id.
    bool use_0x20 = false;
    /// Multiplier applied to the retransmission timer after each attempt
    /// (RFC 1035 §4.2.1 suggests exponential backoff; 2.0 doubles per
    /// retry). 1.0 keeps the classic fixed interval.
    double backoff_factor = 1.0;
    /// Cap on the backed-off timer; zero means uncapped.
    simnet::SimTime max_backoff = simnet::SimTime::zero();
    /// Servers tried in order after the current one fails — exhausts its
    /// retry budget, or answers SERVFAIL. Each server gets the full
    /// `1 + max_retries` attempt budget; the last server's SERVFAIL is
    /// delivered.
    std::vector<simnet::Endpoint> fallback_servers = {};
    /// Failover observer: called as a transaction moves on to server
    /// `index` (1 = fallback_servers[0]) because the previous one timed out
    /// (`servfail` false) or answered SERVFAIL (true), before the resend.
    /// The transport is the one owner of failover; callers that journal or
    /// count it do so here.
    std::function<void(std::size_t index, bool servfail)> on_failover = {};
  };

  /// Buffer octets of a Callback: a forwarder's relay (a held Responder
  /// and the client's Query) stays in place.
  static constexpr std::size_t kCallbackCapacity = 320;
  /// Invoked exactly once per query(): with the response, handed over by
  /// rvalue, or with an error after the final timeout. `rtt` is time from
  /// first send to response. Move-only.
  using Callback = util::InlineFunction<
      void(util::Result<Message>&&, simnet::SimTime rtt), kCallbackCapacity>;

  /// Opens an ephemeral datagram socket on `runtime` — sim or live wire,
  /// the transaction machinery is identical. The RNG is seeded from the
  /// runtime and `id_seed`.
  explicit DnsTransport(netio::Runtime& runtime, std::uint64_t id_seed = 1);

  DnsTransport(const DnsTransport&) = delete;
  DnsTransport& operator=(const DnsTransport&) = delete;
  ~DnsTransport();

  /// Sends `query` to `server`, moving it into the transaction's record;
  /// a fresh transaction id is assigned (overwriting query.header.id).
  /// Every transaction shares its caller's `options`; null (`{}`) means
  /// default Options.
  void query(const simnet::Endpoint& server, Message&& query,
             std::shared_ptr<const Options> options, Callback&& callback);

  /// Inside a Callback: which server produced the result being delivered
  /// (0 = the one passed to query(), k = fallback_servers[k - 1]).
  std::size_t answered_by() const { return answered_by_; }

  simnet::Endpoint local_endpoint() const { return socket_->endpoint(); }

  /// Current runtime time (simulated or wall-clock), for callers (e.g.
  /// ForwardPlugin journaling) whose callbacks only receive an RTT.
  simnet::SimTime now() const { return rt_.now(); }

  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t tc_retries() const { return tc_retries_; }
  /// SERVFAIL responses received (distinguished from timeouts in stats).
  std::uint64_t servfails() const { return servfails_; }
  /// Times a transaction switched to a fallback server, leaving out
  /// transactions whose Options carry an on_failover observer: those
  /// failovers are the observer's to count (ForwardPlugin::failovers()).
  std::uint64_t failovers() const { return failovers_; }
  /// Queries rejected because all 65535 transaction ids were in flight
  /// (delivered as an immediate error instead of hunting a free id forever).
  std::uint64_t id_exhausted() const { return id_exhausted_; }

  /// Re-points every transaction pending against `from` at `to` and
  /// resends immediately with a fresh retry budget. This is the handoff
  /// fix: when a UE's resolver is switched to a new MEC L-DNS while a
  /// query is in flight, the transaction follows the re-target instead of
  /// waiting out the timeout ladder against a server it can no longer
  /// reach. Returns the number of transactions moved.
  std::size_t retarget_pending(const simnet::Endpoint& from,
                               const simnet::Endpoint& to);
  /// Transactions moved by retarget_pending.
  std::uint64_t retargets() const { return retargets_; }
  /// retarget_pending calls that actually moved something.
  std::uint64_t retarget_batches() const { return retarget_batches_; }

  /// Each non-empty retarget batch becomes a journal event (a = queries
  /// moved). Attach only to low-rate transports (a UE cohort, a health
  /// prober) — the journal records control transitions, not traffic.
  void set_journal(obs::Journal* journal, int cell = -1) {
    journal_ = journal;
    journal_cell_ = cell;
  }

  /// Test seam: forces the next transaction id, so tests can stage an id
  /// collision with an in-flight query (wrap-around regression).
  void set_next_id(std::uint16_t id) { next_id_ = id; }

 private:
  /// One transaction, built in place in its slot and never moved.
  struct Pending {
    simnet::Endpoint server;
    Message query;
    std::shared_ptr<const Options> options;
    Callback callback;
    simnet::SimTime first_sent;
    int attempts = 0;
    std::size_t server_index = 0;  ///< next entry of fallback_servers
    /// The armed retry timer (or, for a query refused for want of an id,
    /// the timer that delivers that error), cancelled whenever the
    /// transaction re-sends, completes, or is destroyed — so a firing is
    /// never stale.
    netio::TimerId timer = netio::kNoTimer;
    obs::SpanRef span;             ///< transport span (inert if untraced)
    /// Ambient token at query() time, restored around the callback so
    /// continuations (CNAME chases, next queries) become siblings of this
    /// transaction's span, not children of whatever event delivered it.
    simnet::TraceToken caller;
  };

  void on_packet(const simnet::Packet& packet);
  void send_attempt(Pending& p);
  void on_timeout(std::uint16_t id);
  static simnet::SimTime retry_interval(const Pending& pending);
  /// Switches to the next fallback server (full retry budget) if one
  /// remains; false once the list is exhausted.
  bool fail_over(Pending& p, bool servfail);
  /// Ends the transaction in `slot` (the caller has already erased its
  /// id, if it got one) and delivers `result` to its callback; the slot is
  /// free again before the callback runs.
  void complete(std::uint32_t slot, util::Result<Message>&& result);

  netio::Runtime& rt_;
  netio::DatagramSocket* socket_;
  util::Rng rng_;
  std::uint16_t next_id_;
  std::size_t answered_by_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t tc_retries_ = 0;
  std::uint64_t servfails_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t retargets_ = 0;
  std::uint64_t retarget_batches_ = 0;
  std::uint64_t id_exhausted_ = 0;
  obs::Journal* journal_ = nullptr;
  int journal_cell_ = -1;
  /// Transaction records, each built once in a slot that never moves.
  util::SlotPool<Pending> slots_;
  /// In-flight transactions: id -> slot. Touched on every
  /// send/receive/timeout, so it uses the open-addressing flat map; ids are
  /// scrambled before probing so sequential allocation doesn't cluster.
  struct IdHash {
    std::size_t operator()(std::uint16_t id) const {
      std::size_t h = id;
      h ^= h >> 7;
      h *= 0x9e3779b97f4a7c15ULL;
      return h ^ (h >> 32);
    }
  };
  util::FlatHashMap<std::uint16_t, std::uint32_t, IdHash> pending_;
};

}  // namespace mecdns::dns
