// CoreDNS-style plugin-chain DNS server with split-horizon views.
//
// The paper's P1 design re-purposes the MEC orchestrator's internal service
// DNS (CoreDNS in Kubernetes) as the mobile L-DNS, runs it with a *split
// namespace* — one view for internal VNFs, one for publicly visible
// MEC-CDN names — and chains the CDN's C-DNS behind a stub-domain
// ("configuration of stub-domain and upstream nameserver using CoreDNS").
// PluginChainServer implements exactly that composition model: an ordered
// chain of plugins per view, with the view chosen by the client's source
// address.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dns/cache.h"
#include "dns/server.h"
#include "dns/transport.h"
#include "dns/zone.h"
#include "obs/journal.h"

namespace mecdns::dns {

/// One element of a chain. A plugin either claims the query and returns
/// true — it answers now or later through `respond`, or drops it — or
/// returns false to pass the query on. A passing plugin may first wrap()
/// `respond` to observe the downstream answer (how the cache plugin works).
/// `query` and `ctx` live only for the call; a plugin that answers later
/// moves `respond` away and keeps a copy of the Query.
class Plugin {
 public:
  using Respond = DnsServer::Responder;

  virtual ~Plugin() = default;
  virtual std::string name() const = 0;
  virtual bool serve(const Query& query, const QueryContext& ctx,
                     Respond& respond) = 0;
};

/// Answers authoritatively from a Zone. With `registry zone` semantics this
/// is CoreDNS's `kubernetes` plugin: the mec library writes service records
/// into the zone and this plugin serves them. Out-of-zone queries fall
/// through to the next plugin.
class ZonePlugin : public Plugin {
 public:
  explicit ZonePlugin(std::shared_ptr<Zone> zone) : zone_(std::move(zone)) {}
  std::string name() const override { return "zone(" + zone_->origin().to_string() + ")"; }
  bool serve(const Query& query, const QueryContext& ctx,
             Respond& respond) override;

 private:
  std::shared_ptr<Zone> zone_;
};

/// Forwards queries under `match` to an upstream server (CoreDNS `forward`).
/// `match` = root forwards everything (the default-upstream case). The
/// upstream's response is relayed verbatim (with the client's id restored).
/// A failed upstream — a timeout, or a SERVFAIL from any but the last, the
/// RFC 2136 "try the next server" behaviour — fails over to the next in
/// configured order. The transport does the failing over: the upstreams
/// after the first are its fallback_servers, and the plugin counts and
/// journals failovers from its failover observer.
class ForwardPlugin : public Plugin {
 public:
  /// `options.fallback_servers` and `options.on_failover` are replaced by
  /// the upstreams after the first and this plugin's observer.
  ForwardPlugin(DnsName match, std::vector<simnet::Endpoint> upstreams,
                DnsTransport& transport,
                DnsTransport::Options options = {});
  std::string name() const override { return "forward(" + match_.to_string() + ")"; }
  bool serve(const Query& query, const QueryContext& ctx,
             Respond& respond) override;

  std::uint64_t forwarded() const { return forwarded_; }
  /// Upstream attempts that failed: every failover, plus queries whose
  /// last upstream timed out.
  std::uint64_t upstream_failures() const {
    return failovers_ + exhausted_;
  }
  /// Queries answered by a later upstream after an earlier one failed.
  std::uint64_t failovers() const { return failovers_; }
  /// Failovers triggered by a SERVFAIL answer (vs transport timeout).
  std::uint64_t servfail_failovers() const { return servfail_failovers_; }

  /// When enabled, attach an RFC 7871 Client Subnet option (the client's
  /// source address as a /24) to upstream queries that lack one —
  /// "enabling ECS support at L-DNS" in §4's experiment. This forwarder is
  /// the only ECS originator in the library.
  void set_add_ecs(bool enable) { add_ecs_ = enable; }
  bool add_ecs() const { return add_ecs_; }

  /// Journals the *edge into* failover operation (the first query that
  /// leaves the primary upstream after a run of primary answers) as
  /// ldns_failover, and the edge back as ldns_restore — not every
  /// failed-over query. For the C-DNS brownout and WAN-loss faults this
  /// forwarder is the component that reacts, so without this hook those
  /// incidents would grade as undetected.
  void set_journal(obs::Journal* journal, int cell = -1) {
    journal_ = journal;
    journal_cell_ = cell;
  }

 private:
  /// The transport's failover observer for this plugin's transactions.
  void on_failover(bool servfail);

  DnsName match_;
  bool add_ecs_ = false;
  simnet::Endpoint primary_;
  DnsTransport& transport_;
  /// Shared by every transaction this plugin starts.
  std::shared_ptr<const DnsTransport::Options> options_;
  obs::Journal* journal_ = nullptr;
  int journal_cell_ = -1;
  /// True between the first failover and the next primary answer.
  bool journal_failing_ = false;
  std::uint64_t forwarded_ = 0;
  std::uint64_t exhausted_ = 0;  ///< last upstream timed out (or no id)
  std::uint64_t failovers_ = 0;
  std::uint64_t servfail_failovers_ = 0;
};

/// Serves answers from a shared DnsCache and stores downstream answers
/// into it by DnsCache::insert_response's rule (CoreDNS `cache`); on a
/// downstream SERVFAIL it answers from a stale entry, if one is kept.
class CachePlugin : public Plugin {
 public:
  explicit CachePlugin(std::shared_ptr<DnsCache> cache)
      : cache_(std::move(cache)) {}
  std::string name() const override { return "cache"; }
  bool serve(const Query& query, const QueryContext& ctx,
             Respond& respond) override;

 private:
  std::shared_ptr<DnsCache> cache_;
};

/// Terminal plugin: REFUSED for anything that reaches it. Implements the
/// paper's "have the MEC DNS ignore queries not related to MEC-CDN" policy
/// boundary (clients then fall back to their provider L-DNS).
class RefusePlugin : public Plugin {
 public:
  std::string name() const override { return "refuse"; }
  bool serve(const Query& query, const QueryContext& ctx,
             Respond& respond) override;
};

/// A named, ordered plugin chain (one CoreDNS "server block").
class PluginChain {
 public:
  explicit PluginChain(std::string name) : name_(std::move(name)) {}

  PluginChain& add(std::unique_ptr<Plugin> plugin) {
    plugins_.push_back(std::move(plugin));
    return *this;
  }

  const std::string& name() const { return name_; }

  /// Offers the query to each plugin in order until one claims it. If none
  /// does, responds REFUSED.
  void run(const Query& query, const QueryContext& ctx,
           Plugin::Respond&& respond) const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Plugin>> plugins_;
};

/// A DNS server hosting one or more views, each with its own plugin chain.
/// The view is selected per query from the client's source address — the
/// split-namespace mechanism of §3 P1.
class PluginChainServer : public DnsServer {
 public:
  /// The forward plugins' transport shares `runtime`, so the MEC L-DNS
  /// runs the same on a simulated node and on a live UDP port.
  PluginChainServer(netio::Runtime& runtime, std::string name,
                    simnet::LatencyModel processing_delay,
                    std::uint16_t port = kDnsPort,
                    simnet::Ipv4Address addr = simnet::Ipv4Address());

  /// Adds a view matching clients whose source address is inside any of
  /// `client_subnets`. Views are evaluated in insertion order.
  PluginChain& add_view(std::string view_name,
                        std::vector<simnet::Cidr> client_subnets);

  /// Adds the catch-all view (matches any client not matched earlier).
  PluginChain& add_default_view(std::string view_name);

  /// Transactions transport for this server's forward plugins.
  DnsTransport& transport() { return *transport_; }
  const DnsTransport& transport() const { return *transport_; }

  /// Per-view query counters.
  std::uint64_t view_queries(const std::string& view_name) const;

 protected:
  void handle(const Query& query, const QueryContext& ctx,
              Responder&& respond) override;

 private:
  struct View {
    std::vector<simnet::Cidr> subnets;  ///< empty = match everything
    PluginChain chain;
    std::uint64_t queries = 0;
  };

  std::unique_ptr<DnsTransport> transport_;
  std::vector<View> views_;
};

}  // namespace mecdns::dns
