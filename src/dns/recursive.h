// Recursive (iterative-resolving) DNS server.
//
// Implements the full resolution loop of RFC 1034 §5.3.3: start from the
// root hints (or the closest cached delegation), follow referrals down the
// hierarchy, chase CNAMEs, resolve glue-less nameservers out of band, cache
// positive and negative answers. This is the model of the "hierarchical DNS
// deployed behind the cellular core" and of the public resolvers (Google,
// Cloudflare) in the paper's Figure 5, and — with ECS enabled — of the
// RFC 7871 deployments its §4 evaluates.
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

/// How the resolver uses EDNS Client Subnet on upstream queries.
enum class EcsMode {
  kOff,      ///< never attach ECS
  kForward,  ///< forward the client's ECS, or synthesize one from the
             ///< client's source address (RFC 7871 recursive behaviour)
};

class RecursiveResolver : public DnsServer {
 public:
  struct Config {
    std::vector<simnet::Endpoint> root_servers;  ///< root hints (required)
    std::size_t cache_entries = 8192;
    int query_budget = 24;   ///< max upstream queries per client query
    int max_cname_chain = 8;
    DnsTransport::Options upstream;
    EcsMode ecs_mode = EcsMode::kOff;
    std::uint8_t ecs_prefix = 24;  ///< synthesized SOURCE PREFIX-LENGTH
  };

  RecursiveResolver(netio::Runtime& runtime, std::string name,
                    simnet::LatencyModel processing_delay, Config config,
                    simnet::Ipv4Address addr = simnet::Ipv4Address());

  DnsCache& cache() { return cache_; }
  const Config& config() const { return config_; }
  void set_ecs_mode(EcsMode mode) { config_.ecs_mode = mode; }

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
    std::optional<ClientSubnet> ecs;  ///< attached to upstream queries
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
  std::optional<ClientSubnet> make_ecs(const Query& query,
                                       const QueryContext& ctx) const;

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
