// Client-side stub resolver.
//
// What a UE runs: send the query to the configured L-DNS, wait, measure.
// The configured server can be switched at runtime (the paper's "when an
// end user connects to a particular base station, its target DNS is
// switched to that of the MEC DNS"), and a secondary server can be queried
// in parallel — the paper's multicast workaround for non-MEC domains.
#pragma once

#include <memory>
#include <optional>

#include "dns/message.h"
#include "dns/transport.h"
#include "util/inline_function.h"

namespace mecdns::obs {
class TraceSink;
}

namespace mecdns::dns {

/// Outcome of a stub resolution, with client-observed latency.
struct StubResult {
  bool ok = false;
  RCode rcode = RCode::kServFail;
  std::optional<simnet::Ipv4Address> address;  ///< first A record, if any
  Message response;                            ///< full response when ok
  simnet::SimTime latency;                     ///< query -> answer at client
  std::string error;                           ///< when !ok
  /// Which configured server produced the accepted answer (0 = primary,
  /// 1 = secondary); meaningful for multicast mode.
  int answered_by = 0;
};

class StubResolver {
 public:
  /// Buffer octets of a Callback; the transport's relay holds one in
  /// place, so it must stay well under DnsTransport::kCallbackCapacity.
  static constexpr std::size_t kCallbackCapacity = 96;
  /// Move-only; invoked exactly once per resolve().
  using Callback =
      util::InlineFunction<void(const StubResult&), kCallbackCapacity>;

  /// A client on `runtime`: a simulated UE's node or a real process's
  /// EpollRuntime.
  StubResolver(netio::Runtime& runtime, simnet::Endpoint server,
               DnsTransport::Options options = {});

  /// Sim-node shorthand; perfbench/tests.cc is its only caller.
  StubResolver(simnet::Network& net, simnet::NodeId node,
               simnet::Endpoint server)
      : StubResolver(net.runtime(node), server) {}

  /// Re-targets the primary DNS server (cellular handoff / MEC attach).
  /// With retarget-in-flight enabled, transactions still pending against
  /// the old server are resent to the new one immediately instead of
  /// timing out against a resolver the UE can no longer reach.
  void set_server(simnet::Endpoint server) {
    if (retarget_in_flight_ && server_ != server) {
      transport_->retarget_pending(server_, server);
    }
    server_ = server;
  }
  simnet::Endpoint server() const { return server_; }

  /// Opt-in for the handoff fix above. Off by default: the fragile
  /// baseline (query stranded until the timeout ladder fires) is exactly
  /// what the mobility benches measure robustness against.
  void set_retarget_in_flight(bool enable) { retarget_in_flight_ = enable; }

  /// The underlying transaction layer (timeout/retransmission counters).
  DnsTransport& transport() { return *transport_; }

  /// Configures a secondary server queried in parallel with the primary
  /// ("have DNS requests be multicast to both MEC DNS and the network's
  /// L-DNS"). The first usable answer wins; REFUSED answers lose to the
  /// other server's answer.
  void set_secondary(std::optional<simnet::Endpoint> server) {
    secondary_ = server;
  }

  /// When enabled, a response whose answer ends at a CNAME with no address
  /// is chased: the stub re-issues the query for the CNAME target (against
  /// the same server set). This is how a client follows a MEC C-DNS's
  /// cascading referral into a parent CDN tier ("C-DNS simply returns the
  /// address of another C-DNS running at a different CDN tier").
  void set_chase_cnames(bool enable, int max_hops = 4) {
    chase_cnames_ = enable;
    max_cname_hops_ = max_hops;
  }

  /// Attaches a trace sink: every subsequent resolve() opens a root
  /// "lookup" span that the whole downstream path (transport, servers,
  /// caches) nests under. nullptr (the default) disables tracing.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Resolves (name, type); invokes callback exactly once.
  void resolve(const DnsName& name, RecordType type, Callback callback);

  /// Resolve with an explicit EDNS Client Subnet attached.
  void resolve_with_ecs(const DnsName& name, RecordType type,
                        const ClientSubnet& ecs, Callback callback);

 private:
  void dispatch(Message&& query, Callback&& callback);
  /// Wraps `callback` so that terminal-CNAME answers restart at the target.
  Callback chase_wrapper(Callback&& callback, int hops_left,
                         simnet::SimTime accumulated);
  /// Opens the root lookup span (only under an active trace) and wraps
  /// `callback` to close it.
  void resolve_traced(const DnsName& name, Message&& query,
                      Callback&& callback);

  std::unique_ptr<DnsTransport> transport_;
  simnet::Endpoint server_;
  std::optional<simnet::Endpoint> secondary_;
  /// Shared by every transaction this stub starts.
  std::shared_ptr<const DnsTransport::Options> options_;
  bool chase_cnames_ = false;
  int max_cname_hops_ = 4;
  bool retarget_in_flight_ = false;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace mecdns::dns
