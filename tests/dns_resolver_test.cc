// Recursive resolver tests: full iteration over an in-sim hierarchy,
// caching, CNAME chasing across zones, glueless NS resolution, negatives,
// and ECS forwarding.
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

class ResolverTest : public ::testing::Test {
 protected:
  ResolverTest() : net_(sim_, util::Rng(9)) {
    backbone_ = net_.add_node("backbone", Ipv4Address::must_parse("192.0.2.1"));
    hierarchy_ = std::make_unique<PublicDnsHierarchy>(
        net_, backbone_, LatencyModel::constant(SimTime::millis(10)),
        LatencyModel::constant(SimTime::micros(500)));
    hierarchy_->ensure_tld("com", Ipv4Address::must_parse("199.7.50.1"),
                           LatencyModel::constant(SimTime::millis(10)));
    hierarchy_->ensure_tld("net", Ipv4Address::must_parse("199.7.50.2"),
                           LatencyModel::constant(SimTime::millis(10)));

    AuthoritativeServer& example = hierarchy_->add_authoritative(
        DnsName::must_parse("example.com"),
        Ipv4Address::must_parse("198.51.100.5"),
        LatencyModel::constant(SimTime::millis(8)));
    Zone* zone = example.find_zone(DnsName::must_parse("example.com"));
    zone->must_add(make_a(DnsName::must_parse("www.example.com"),
                          Ipv4Address::must_parse("198.18.0.1"), 300));
    zone->must_add(make_a(DnsName::must_parse("volatile.example.com"),
                          Ipv4Address::must_parse("198.18.0.9"), 0));
    zone->must_add(make_cname(DnsName::must_parse("alias.example.com"),
                              DnsName::must_parse("target.example.net"),
                              300));

    AuthoritativeServer& example_net = hierarchy_->add_authoritative(
        DnsName::must_parse("example.net"),
        Ipv4Address::must_parse("198.51.100.6"),
        LatencyModel::constant(SimTime::millis(8)));
    Zone* net_zone = example_net.find_zone(DnsName::must_parse("example.net"));
    net_zone->must_add(make_a(DnsName::must_parse("target.example.net"),
                              Ipv4Address::must_parse("198.18.0.2"), 300));

    resolver_node_ =
        net_.add_node("resolver", Ipv4Address::must_parse("10.53.0.53"));
    net_.add_link(resolver_node_, backbone_,
                  LatencyModel::constant(SimTime::millis(2)));
    RecursiveResolver::Config config;
    config.root_servers = hierarchy_->root_hints();
    resolver_ = std::make_unique<RecursiveResolver>(
        net_.runtime(resolver_node_), "resolver",
        LatencyModel::constant(SimTime::micros(800)), config);

    client_node_ = net_.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
    net_.add_link(client_node_, resolver_node_,
                  LatencyModel::constant(SimTime::millis(1)));
    stub_ = std::make_unique<StubResolver>(
        net_.runtime(client_node_),
        Endpoint{Ipv4Address::must_parse("10.53.0.53"), kDnsPort});
  }

  StubResult resolve(const std::string& name,
                     RecordType type = RecordType::kA) {
    StubResult out;
    bool done = false;
    stub_->resolve(DnsName::must_parse(name), type,
                   [&](const StubResult& result) {
                     out = result;
                     done = true;
                   });
    sim_.run();
    EXPECT_TRUE(done);
    return out;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId backbone_;
  simnet::NodeId resolver_node_;
  simnet::NodeId client_node_;
  std::unique_ptr<PublicDnsHierarchy> hierarchy_;
  std::unique_ptr<RecursiveResolver> resolver_;
  std::unique_ptr<StubResolver> stub_;
};

TEST_F(ResolverTest, FullIterativeResolution) {
  const StubResult result = resolve("www.example.com");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.0.1"));
  EXPECT_TRUE(result.response.header.ra);
  // Three upstream queries: root -> com -> example.com.
  EXPECT_EQ(resolver_->upstream_queries(), 3u);
}

TEST_F(ResolverTest, SecondQueryServedFromCache) {
  resolve("www.example.com");
  const auto upstream_before = resolver_->upstream_queries();
  const StubResult result = resolve("www.example.com");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(resolver_->upstream_queries(), upstream_before);  // pure cache hit
  // Cached answer: only the client RTT + processing.
  EXPECT_LT(result.latency, SimTime::millis(4));
}

TEST_F(ResolverTest, SiblingNameReusesDelegation) {
  resolve("www.example.com");
  const auto upstream_before = resolver_->upstream_queries();
  resolve("volatile.example.com");
  // Only one more upstream query: straight to the cached example.com NS.
  EXPECT_EQ(resolver_->upstream_queries(), upstream_before + 1);
}

TEST_F(ResolverTest, ZeroTtlAnswerNotCached) {
  resolve("volatile.example.com");
  const auto upstream_before = resolver_->upstream_queries();
  resolve("volatile.example.com");
  EXPECT_EQ(resolver_->upstream_queries(), upstream_before + 1);
}

TEST_F(ResolverTest, CnameAcrossZonesChased) {
  const StubResult result = resolve("alias.example.com");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.0.2"));
  // Answer carries the CNAME and the final A.
  EXPECT_EQ(result.response.answers.size(), 2u);
}

TEST_F(ResolverTest, NxDomainPropagatesAndCaches) {
  const StubResult first = resolve("missing.example.com");
  EXPECT_EQ(first.rcode, RCode::kNxDomain);
  const auto upstream_before = resolver_->upstream_queries();
  const StubResult second = resolve("missing.example.com");
  EXPECT_EQ(second.rcode, RCode::kNxDomain);
  EXPECT_EQ(resolver_->upstream_queries(), upstream_before);  // negative hit
}

TEST_F(ResolverTest, UnresolvableTldServfails) {
  const StubResult result = resolve("www.nowhere.zzz");
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.rcode == RCode::kServFail ||
              result.rcode == RCode::kNxDomain);
}

TEST_F(ResolverTest, GluelessNameserverResolvedOutOfBand) {
  // Delegate glueless.com to a nameserver whose address must itself be
  // resolved (ns.example.net, no glue at the TLD).
  AuthoritativeServer& glueless = hierarchy_->add_authoritative(
      DnsName::must_parse("helper.net"), Ipv4Address::must_parse("198.51.100.7"),
      LatencyModel::constant(SimTime::millis(8)));
  Zone* helper_zone = glueless.find_zone(DnsName::must_parse("helper.net"));
  helper_zone->must_add(make_a(DnsName::must_parse("ns.helper.net"),
                               Ipv4Address::must_parse("198.51.100.8"), 300));

  // The glueless.com server lives at 198.51.100.8 (= ns.helper.net).
  const simnet::NodeId node = net_.add_node(
      "glueless-auth", Ipv4Address::must_parse("198.51.100.8"));
  net_.add_link(node, backbone_, LatencyModel::constant(SimTime::millis(8)));
  auto auth = std::make_unique<AuthoritativeServer>(
      net_.runtime(node), "glueless-auth",
      LatencyModel::constant(SimTime::micros(500)));
  Zone& zone = auth->add_zone(DnsName::must_parse("glueless.com"));
  zone.must_add(make_soa(DnsName::must_parse("glueless.com"),
                         DnsName::must_parse("ns.helper.net"), 1, 300, 300));
  zone.must_add(make_a(DnsName::must_parse("www.glueless.com"),
                       Ipv4Address::must_parse("198.18.0.77"), 300));

  // Register the delegation WITHOUT glue: NS only.
  Zone& com_zone = *hierarchy_->tld("com").find_zone(DnsName::must_parse("com"));
  com_zone.must_add(make_ns(DnsName::must_parse("glueless.com"),
                            DnsName::must_parse("ns.helper.net"), 3600));

  const StubResult result = resolve("www.glueless.com");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.0.77"));
}

TEST_F(ResolverTest, QueryBudgetBoundsWork) {
  RecursiveResolver::Config tight;
  tight.root_servers = hierarchy_->root_hints();
  tight.query_budget = 1;  // not enough for root->tld->auth
  const simnet::NodeId node =
      net_.add_node("tight-resolver", Ipv4Address::must_parse("10.53.0.54"));
  net_.add_link(node, backbone_, LatencyModel::constant(SimTime::millis(2)));
  RecursiveResolver tight_resolver(
      net_.runtime(node), "tight", LatencyModel::constant(SimTime::micros(500)),
      tight);
  StubResolver stub(net_.runtime(client_node_),
                    Endpoint{Ipv4Address::must_parse("10.53.0.54"), kDnsPort});
  net_.add_link(client_node_, node,
                LatencyModel::constant(SimTime::millis(1)));

  StubResult out;
  stub.resolve(DnsName::must_parse("fresh.example.com"), RecordType::kA,
               [&](const StubResult& result) { out = result; });
  sim_.run();
  EXPECT_EQ(out.rcode, RCode::kServFail);
}

}  // namespace
}  // namespace mecdns::dns
