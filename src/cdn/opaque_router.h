// Opaque commercial CDN router.
//
// Models the behaviour the paper *measured* in §2 (Figure 3): for a fixed
// CDN domain queried from one geographic location, the set and mix of cache
// servers answering depends on which resolver asked — campus, home-ISP, or
// carrier L-DNS — through load-balancing and cascading-CNAME policies that
// are "opaque to end users and sometimes to the CDN itself" [45]. The
// router owns provider CIDR pools and a per-resolver-class weight table; it
// answers each A query with a host drawn from a pool sampled by those
// weights. This is deliberately a behavioural model, not a mechanism model:
// the paper's point is precisely that the mechanism is not observable.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dns/server.h"
#include "util/rng.h"
#include "util/stats.h"

namespace mecdns::cdn {

class OpaqueCdnRouter : public dns::DnsServer {
 public:
  struct Pool {
    std::string provider;  ///< e.g. "Akamai"
    simnet::Cidr range;    ///< e.g. 23.55.124.0/24
  };

  OpaqueCdnRouter(netio::Runtime& runtime, std::string name,
                  simnet::LatencyModel processing_delay, dns::DnsName domain,
                  std::uint64_t seed,
                  simnet::Ipv4Address addr = simnet::Ipv4Address());

  /// Adds a cache-server pool. Returns its index (weights refer to it).
  std::size_t add_pool(std::string provider, simnet::Cidr range);

  /// Classifies resolvers: queries from inside `subnet` belong to `cls`.
  void add_resolver_class(simnet::Cidr subnet, std::string cls);

  /// Per-class pool weights (same length as the number of pools). The
  /// class "" is the default for unclassified resolvers.
  void set_weights(const std::string& cls, std::vector<double> weights);

  std::uint32_t answer_ttl() const { return answer_ttl_; }
  void set_answer_ttl(std::uint32_t ttl) { answer_ttl_ = ttl; }

  /// Distribution of answers per resolver class: pool label -> count.
  /// Pool label is "<provider> (<cidr>)", matching the paper's legend.
  const util::FrequencyTable& distribution(const std::string& cls) const;

  static std::string pool_label(const Pool& pool) {
    return pool.provider + " (" + pool.range.to_string() + ")";
  }

 protected:
  void handle(const dns::Query& query, const dns::QueryContext& ctx,
              Responder&& respond) override;

 private:
  std::string classify(simnet::Ipv4Address resolver) const;

  dns::DnsName domain_;
  std::uint32_t answer_ttl_ = 20;
  std::vector<Pool> pools_;
  std::vector<std::pair<simnet::Cidr, std::string>> classes_;
  std::map<std::string, std::vector<double>> weights_;
  std::map<std::string, util::FrequencyTable> distributions_;
  util::Rng rng_;
};

}  // namespace mecdns::cdn
