#include "dns/hierarchy.h"

#include <stdexcept>

#include "util/strings.h"

namespace mecdns::dns {

namespace {
constexpr std::uint32_t kInfraTtl = 172800;  // 2 days, like real root/TLD data
}  // namespace

PublicDnsHierarchy::PublicDnsHierarchy(simnet::Network& net,
                                       simnet::NodeId backbone,
                                       simnet::LatencyModel root_link,
                                       simnet::LatencyModel server_processing,
                                       simnet::Ipv4Address root_addr)
    : net_(net), backbone_(backbone), processing_(server_processing) {
  const simnet::NodeId node = net_.add_node("dns-root", root_addr);
  net_.add_link(backbone_, node, std::move(root_link));
  root_ = std::make_unique<AuthoritativeServer>(net_.runtime(node), "dns-root",
                                                processing_);
  Zone& zone = root_->add_zone(DnsName::root());
  zone.must_add(make_soa(DnsName::root(),
                         DnsName::must_parse("a.root-servers.net"), 1,
                         kInfraTtl, kInfraTtl));
}

void PublicDnsHierarchy::ensure_tld(const std::string& tld,
                                    simnet::Ipv4Address addr,
                                    simnet::LatencyModel link) {
  if (tlds_.count(tld) != 0) return;
  const DnsName origin = DnsName::must_parse(tld);
  const DnsName ns_name = DnsName::must_parse("a.gtld." + tld);

  const simnet::NodeId node = net_.add_node("dns-tld-" + tld, addr);
  net_.add_link(backbone_, node, std::move(link));
  auto server = std::make_unique<AuthoritativeServer>(net_.runtime(node),
                                                      "dns-tld-" + tld,
                                                      processing_);
  Zone& zone = server->add_zone(origin);
  zone.must_add(make_soa(origin, ns_name, 1, kInfraTtl, kInfraTtl));

  Zone* root_zone = root_->find_zone(DnsName::root());
  root_zone->must_add(make_ns(origin, ns_name, kInfraTtl));
  root_zone->must_add(make_a(ns_name, addr, kInfraTtl));
  tlds_.emplace(tld, std::move(server));
}

Zone& PublicDnsHierarchy::tld_zone(const DnsName& zone_origin) {
  if (zone_origin.is_root()) {
    throw std::invalid_argument("cannot delegate the root");
  }
  const std::string tld(zone_origin.label(zone_origin.label_count() - 1));
  const auto it = tlds_.find(tld);
  if (it == tlds_.end()) {
    throw std::logic_error("TLD '" + tld + "' not created; call ensure_tld");
  }
  return *it->second->find_zone(DnsName::must_parse(tld));
}

AuthoritativeServer& PublicDnsHierarchy::add_authoritative(
    const DnsName& zone_origin, simnet::Ipv4Address addr,
    simnet::LatencyModel link) {
  const DnsName ns_name =
      DnsName::must_parse("ns1." + zone_origin.to_string());

  const simnet::NodeId node =
      net_.add_node("dns-auth-" + zone_origin.to_string(), addr);
  net_.add_link(backbone_, node, std::move(link));
  auto server = std::make_unique<AuthoritativeServer>(
      net_.runtime(node), "dns-auth-" + zone_origin.to_string(), processing_);
  Zone& zone = server->add_zone(zone_origin);
  zone.must_add(make_soa(zone_origin, ns_name, 1, 300, 3600));
  zone.must_add(make_ns(zone_origin, ns_name, kInfraTtl));
  zone.must_add(make_a(ns_name, addr, kInfraTtl));

  delegate_to(zone_origin, ns_name, addr);
  authoritatives_.push_back(std::move(server));
  return *authoritatives_.back();
}

void PublicDnsHierarchy::delegate_to(const DnsName& zone_origin,
                                     const DnsName& ns_name,
                                     simnet::Ipv4Address ns_addr) {
  Zone& parent = tld_zone(zone_origin);
  // Delegate the origin itself from the TLD zone. (Delegating deeper,
  // multi-label origins directly from the TLD also works: the resolver
  // walks cached delegations most-specific first.)
  parent.must_add(make_ns(zone_origin, ns_name, kInfraTtl));
  parent.must_add(make_a(ns_name, ns_addr, kInfraTtl));
}

}  // namespace mecdns::dns
