// PublicDnsHierarchy builder tests.
#include <gtest/gtest.h>

#include "dns/hierarchy.h"
#include "dns/recursive.h"
#include "dns/stub.h"

namespace mecdns::dns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class HierarchyTest : public ::testing::Test {
 protected:
  HierarchyTest() : net_(sim_, util::Rng(61)) {
    backbone_ = net_.add_node("backbone", Ipv4Address::must_parse("192.0.2.1"));
    hierarchy_ = std::make_unique<PublicDnsHierarchy>(
        net_, backbone_, LatencyModel::constant(SimTime::millis(5)),
        LatencyModel::constant(SimTime::micros(300)));
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId backbone_;
  std::unique_ptr<PublicDnsHierarchy> hierarchy_;
};

TEST_F(HierarchyTest, RootHasSoa) {
  Zone* root_zone = hierarchy_->root().find_zone(DnsName::root());
  ASSERT_NE(root_zone, nullptr);
  EXPECT_FALSE(root_zone->find(DnsName::root(), RecordType::kSoa).empty());
  EXPECT_EQ(hierarchy_->root_hints().size(), 1u);
}

TEST_F(HierarchyTest, EnsureTldIsIdempotent) {
  hierarchy_->ensure_tld("test", Ipv4Address::must_parse("199.7.50.1"),
                         LatencyModel::constant(SimTime::millis(5)));
  const std::size_t nodes_after_first = net_.node_count();
  hierarchy_->ensure_tld("test", Ipv4Address::must_parse("199.7.50.99"),
                         LatencyModel::constant(SimTime::millis(5)));
  EXPECT_EQ(net_.node_count(), nodes_after_first);

  // The root delegates the TLD with glue.
  Zone* root_zone = hierarchy_->root().find_zone(DnsName::root());
  const auto result =
      root_zone->lookup(DnsName::must_parse("anything.test"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  EXPECT_EQ(result.glue.size(), 1u);
}

TEST_F(HierarchyTest, DelegateToUnknownTldThrows) {
  EXPECT_THROW(hierarchy_->delegate_to(
                   DnsName::must_parse("example.zzz"),
                   DnsName::must_parse("ns1.example.zzz"),
                   Ipv4Address::must_parse("198.51.100.1")),
               std::logic_error);
}

TEST_F(HierarchyTest, FullChainResolvesThroughResolver) {
  hierarchy_->ensure_tld("test", Ipv4Address::must_parse("199.7.50.1"),
                         LatencyModel::constant(SimTime::millis(5)));
  AuthoritativeServer& auth = hierarchy_->add_authoritative(
      DnsName::must_parse("site.test"), Ipv4Address::must_parse("198.51.100.9"),
      LatencyModel::constant(SimTime::millis(5)));
  auth.find_zone(DnsName::must_parse("site.test"))
      ->must_add(make_a(DnsName::must_parse("www.site.test"),
                        Ipv4Address::must_parse("198.18.7.7"), 300));

  const simnet::NodeId resolver_node =
      net_.add_node("resolver", Ipv4Address::must_parse("10.53.0.1"));
  net_.add_link(resolver_node, backbone_,
                LatencyModel::constant(SimTime::millis(1)));
  RecursiveResolver::Config config;
  config.root_servers = hierarchy_->root_hints();
  RecursiveResolver resolver(net_.runtime(resolver_node), "resolver",
                             LatencyModel::constant(SimTime::micros(300)),
                             config);

  const simnet::NodeId client =
      net_.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
  net_.add_link(client, resolver_node,
                LatencyModel::constant(SimTime::millis(1)));
  StubResolver stub(net_.runtime(client),
                    Endpoint{Ipv4Address::must_parse("10.53.0.1"), kDnsPort});
  StubResult out;
  stub.resolve(DnsName::must_parse("www.site.test"), RecordType::kA,
               [&](const StubResult& result) { out = result; });
  sim_.run();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(*out.address, Ipv4Address::must_parse("198.18.7.7"));
  // Exactly root -> tld -> authoritative on a cold cache.
  EXPECT_EQ(resolver.upstream_queries(), 3u);
}

TEST_F(HierarchyTest, AuthoritativeZoneHasInfrastructureRecords) {
  hierarchy_->ensure_tld("test", Ipv4Address::must_parse("199.7.50.1"),
                         LatencyModel::constant(SimTime::millis(5)));
  AuthoritativeServer& auth = hierarchy_->add_authoritative(
      DnsName::must_parse("site.test"),
      Ipv4Address::must_parse("198.51.100.9"),
      LatencyModel::constant(SimTime::millis(5)));
  Zone* zone = auth.find_zone(DnsName::must_parse("site.test"));
  ASSERT_NE(zone, nullptr);
  EXPECT_FALSE(zone->find(DnsName::must_parse("site.test"),
                          RecordType::kSoa)
                   .empty());
  EXPECT_FALSE(zone->find(DnsName::must_parse("site.test"), RecordType::kNs)
                   .empty());
  EXPECT_FALSE(zone->find(DnsName::must_parse("ns1.site.test"),
                          RecordType::kA)
                   .empty());
}

}  // namespace
}  // namespace mecdns::dns
