// Recursive (iterative-resolving) DNS server.
//
// Implements the full resolution loop of RFC 1034 §5.3.3: start from the
// root hints (or the closest cached delegation), follow referrals down the
// hierarchy, chase CNAMEs, resolve glue-less nameservers out of band, cache
// positive and negative answers. This is the model of the "hierarchical DNS
// deployed behind the cellular core" and of the public resolvers (Google,
// Cloudflare) in the paper's Figure 5. It sends no EDNS Client Subnet: the
// ECS originator of §4 is the MEC L-DNS's forwarder (ForwardPlugin).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "dns/cache.h"
#include "dns/server.h"
#include "dns/transport.h"
#include "util/inline_function.h"

namespace mecdns::dns {

class RecursiveResolver : public DnsServer {
 public:
  struct Config {
    std::vector<simnet::Endpoint> root_servers;  ///< root hints (required)
    std::size_t cache_entries = 8192;
    int query_budget = 24;   ///< max upstream queries per client query
    int max_cname_chain = 8;
    DnsTransport::Options upstream;
  };

  RecursiveResolver(netio::Runtime& runtime, std::string name,
                    simnet::LatencyModel processing_delay, Config config,
                    simnet::Ipv4Address addr = simnet::Ipv4Address());

  DnsCache& cache() { return cache_; }
  const Config& config() const { return config_; }

  /// Upstream queries issued since construction (visibility for tests and
  /// the ablation benches).
  std::uint64_t upstream_queries() const { return upstream_queries_; }

 protected:
  void handle(const Query& query, const QueryContext& ctx,
              Responder&& respond) override;

 private:
  /// One in-flight resolution (client-facing or internal NS lookup).
  struct Job {
    DnsName qname;            ///< current name being chased
    RecordType qtype = RecordType::kA;
    std::vector<ResourceRecord> answers;  ///< accumulated (CNAME chain + final)
    int cname_hops = 0;
    std::shared_ptr<int> budget;  ///< upstream queries left, per job tree
    /// Completion: rcode + whether answers are meaningful. Holds the
    /// client's Responder and Query in place.
    using Done = util::InlineFunction<void(RCode, std::shared_ptr<Job>), 320>;
    Done done;
  };

  void resolve(std::shared_ptr<Job> job);
  void query_servers(std::shared_ptr<Job> job,
                     std::vector<simnet::Endpoint> servers, std::size_t index);
  void on_response(std::shared_ptr<Job> job,
                   std::vector<simnet::Endpoint> servers, std::size_t index,
                   const Message& response);
  /// Candidate nameserver addresses for qname from cached delegations; falls
  /// back to the root hints. If a delegation exists but no address is known,
  /// `glueless` receives one NS owner name to resolve first.
  std::vector<simnet::Endpoint> candidate_servers(const DnsName& qname,
                                                  DnsName* glueless);
  void cache_response_sections(const Message& response);

  Config config_;
  DnsCache cache_;
  /// zone origin -> NS owner names (delegation cache).
  std::map<DnsName, std::vector<DnsName>> delegations_;
  std::unique_ptr<DnsTransport> transport_;
  /// config_.upstream, shared by every upstream transaction.
  std::shared_ptr<const DnsTransport::Options> upstream_options_;
  std::uint64_t upstream_queries_ = 0;
};

}  // namespace mecdns::dns
