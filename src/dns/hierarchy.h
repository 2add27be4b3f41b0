// Builder for an in-simulation public DNS hierarchy.
//
// Creates a root server, TLD servers, and per-domain authoritative servers
// with correct delegations and glue, so RecursiveResolver instances resolve
// exactly as they would against the real tree. Used by the Figure 2/5
// scenarios and the resolver tests.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dns/server.h"
#include "simnet/network.h"

namespace mecdns::dns {

class PublicDnsHierarchy {
 public:
  /// Creates the root server on a fresh node attached to `backbone` via a
  /// link with the given one-way latency model.
  PublicDnsHierarchy(simnet::Network& net, simnet::NodeId backbone,
                     simnet::LatencyModel root_link,
                     simnet::LatencyModel server_processing,
                     simnet::Ipv4Address root_addr =
                         simnet::Ipv4Address::must_parse("198.41.0.4"));

  /// Ensures a TLD server exists (e.g. "com", "net", "test"); creates its
  /// node/zone and the root delegation on first use.
  void ensure_tld(const std::string& tld, simnet::Ipv4Address addr,
                  simnet::LatencyModel link);

  /// Creates an authoritative server for `zone_origin` on a fresh node and
  /// wires the TLD delegation + glue. Returns the server so the caller can
  /// populate the zone. The TLD must have been created via ensure_tld.
  AuthoritativeServer& add_authoritative(const DnsName& zone_origin,
                                         simnet::Ipv4Address addr,
                                         simnet::LatencyModel link);

  /// Registers an externally hosted authoritative server (e.g. a CDN's
  /// C-DNS living on an existing node): only writes the delegation + glue.
  void delegate_to(const DnsName& zone_origin, const DnsName& ns_name,
                   simnet::Ipv4Address ns_addr);

  std::vector<simnet::Endpoint> root_hints() const {
    return {root_->endpoint()};
  }

  AuthoritativeServer& root() { return *root_; }
  AuthoritativeServer& tld(const std::string& name) { return *tlds_.at(name); }

 private:
  Zone& tld_zone(const DnsName& zone_origin);

  simnet::Network& net_;
  simnet::NodeId backbone_;
  simnet::LatencyModel processing_;
  std::unique_ptr<AuthoritativeServer> root_;
  std::map<std::string, std::unique_ptr<AuthoritativeServer>> tlds_;
  std::vector<std::unique_ptr<AuthoritativeServer>> authoritatives_;
};

}  // namespace mecdns::dns
