// End-to-end ECS (RFC 7871) through a shared recursive resolver: two
// clients in different subnets query the same CDN name via one resolver;
// with ECS the router localizes each to its own cache group, and the
// resolver must not serve one client's scoped answer to the other.
#include <gtest/gtest.h>

#include "cdn/traffic_router.h"
#include "dns/hierarchy.h"
#include "dns/recursive.h"
#include "dns/stub.h"

namespace mecdns::dns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class EcsEndToEndTest : public ::testing::Test {
 protected:
  EcsEndToEndTest() : net_(sim_, util::Rng(131)) {
    backbone_ = net_.add_node("backbone", Ipv4Address::must_parse("192.0.2.1"));
    hierarchy_ = std::make_unique<PublicDnsHierarchy>(
        net_, backbone_, LatencyModel::constant(SimTime::millis(5)),
        LatencyModel::constant(SimTime::micros(300)));
    hierarchy_->ensure_tld("test", Ipv4Address::must_parse("199.7.50.1"),
                           LatencyModel::constant(SimTime::millis(5)));

    // ECS-aware Traffic Router: east clients -> east cache, west -> west.
    const auto router_addr = Ipv4Address::must_parse("198.51.100.53");
    const simnet::NodeId router_node = net_.add_node("cdns", router_addr);
    net_.add_link(router_node, backbone_,
                  LatencyModel::constant(SimTime::millis(5)));
    cdn::TrafficRouter::Config rc;
    rc.cdn_domain = DnsName::must_parse("cdn.test");
    rc.answer_ttl = 300;  // long TTL: caching WOULD leak without scoping
    rc.use_ecs = true;
    router_ = std::make_unique<cdn::TrafficRouter>(
        net_.runtime(router_node), "cdns",
        LatencyModel::constant(SimTime::micros(500)), rc, dns::kDnsPort,
        router_addr);
    router_->add_cache("east", cdn::CacheInfo{
        "east-0", Ipv4Address::must_parse("198.18.1.1"), true});
    router_->add_cache("west", cdn::CacheInfo{
        "west-0", Ipv4Address::must_parse("198.18.2.1"), true});
    router_->coverage().add(simnet::Cidr::must_parse("10.10.0.0/16"), "east");
    router_->coverage().add(simnet::Cidr::must_parse("10.20.0.0/16"), "west");
    router_->coverage().set_default_group("east");
    router_->add_delivery_service(cdn::DeliveryService{
        "vod", DnsName::must_parse("vod.cdn.test"), {"east", "west"}});
    hierarchy_->delegate_to(DnsName::must_parse("cdn.test"),
                            DnsName::must_parse("ns1.cdn.test"), router_addr);

    // Shared resolver with ECS forwarding.
    const auto resolver_addr = Ipv4Address::must_parse("10.53.0.53");
    const simnet::NodeId resolver_node =
        net_.add_node("resolver", resolver_addr);
    net_.add_link(resolver_node, backbone_,
                  LatencyModel::constant(SimTime::millis(2)));
    RecursiveResolver::Config config;
    config.root_servers = hierarchy_->root_hints();
    config.ecs_mode = EcsMode::kForward;
    resolver_ = std::make_unique<RecursiveResolver>(
        net_.runtime(resolver_node), "resolver",
        LatencyModel::constant(SimTime::micros(300)), config);

    east_client_ = net_.add_node("east-client",
                                 Ipv4Address::must_parse("10.10.0.2"));
    west_client_ = net_.add_node("west-client",
                                 Ipv4Address::must_parse("10.20.0.2"));
    net_.add_link(east_client_, resolver_node,
                  LatencyModel::constant(SimTime::millis(1)));
    net_.add_link(west_client_, resolver_node,
                  LatencyModel::constant(SimTime::millis(1)));
  }

  StubResult resolve_from(simnet::NodeId client) {
    StubResolver stub(net_.runtime(client),
                      Endpoint{Ipv4Address::must_parse("10.53.0.53"),
                               kDnsPort});
    StubResult out;
    stub.resolve(DnsName::must_parse("movie.vod.cdn.test"), RecordType::kA,
                 [&](const StubResult& result) { out = result; });
    sim_.run();
    return out;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId backbone_;
  simnet::NodeId east_client_;
  simnet::NodeId west_client_;
  std::unique_ptr<PublicDnsHierarchy> hierarchy_;
  std::unique_ptr<cdn::TrafficRouter> router_;
  std::unique_ptr<RecursiveResolver> resolver_;
};

TEST_F(EcsEndToEndTest, EachSubnetGetsItsOwnCache) {
  const StubResult east = resolve_from(east_client_);
  const StubResult west = resolve_from(west_client_);
  ASSERT_TRUE(east.ok);
  ASSERT_TRUE(west.ok);
  EXPECT_EQ(*east.address, Ipv4Address::must_parse("198.18.1.1"));
  EXPECT_EQ(*west.address, Ipv4Address::must_parse("198.18.2.1"));
}

TEST_F(EcsEndToEndTest, ScopedAnswersAreNotCachedAcrossSubnets) {
  resolve_from(east_client_);
  const auto upstream_after_east = resolver_->upstream_queries();
  // The west client's query MUST go upstream again: the east answer was
  // scoped (scope_prefix > 0) and may not be reused.
  const StubResult west = resolve_from(west_client_);
  EXPECT_GT(resolver_->upstream_queries(), upstream_after_east);
  EXPECT_EQ(*west.address, Ipv4Address::must_parse("198.18.2.1"));
}

TEST_F(EcsEndToEndTest, WithoutEcsBothSubnetsShareTheResolverView) {
  resolver_->set_ecs_mode(EcsMode::kOff);
  router_->set_use_ecs(false);
  const StubResult east = resolve_from(east_client_);
  const StubResult west = resolve_from(west_client_);
  ASSERT_TRUE(east.ok);
  ASSERT_TRUE(west.ok);
  // Resolver-based localization: both land wherever the resolver's address
  // maps (default group), and the second answer comes from the cache.
  EXPECT_EQ(*east.address, *west.address);
  const auto upstream_after = resolver_->upstream_queries();
  resolve_from(west_client_);
  EXPECT_EQ(resolver_->upstream_queries(), upstream_after);  // cached
}

TEST_F(EcsEndToEndTest, ClientSuppliedEcsIsForwardedAndEchoed) {
  // A client that sends its own ECS (RFC 7871 stub behaviour): the resolver
  // forwards it verbatim upstream and echoes it in the answer. Note a
  // client that sends no EDNS gets no EDNS back — the synthesized upstream
  // option stays between resolver and authoritative.
  StubResolver stub(net_.runtime(west_client_),
                    Endpoint{Ipv4Address::must_parse("10.53.0.53"),
                             kDnsPort});
  ClientSubnet ecs;
  ecs.address = Ipv4Address::must_parse("10.10.0.0");  // claims the EAST net
  ecs.source_prefix = 16;
  StubResult out;
  stub.resolve_with_ecs(DnsName::must_parse("movie.vod.cdn.test"),
                        RecordType::kA, ecs,
                        [&](const StubResult& result) { out = result; });
  sim_.run();
  ASSERT_TRUE(out.ok);
  // Localized by the *claimed* subnet, not the sender's: east cache.
  EXPECT_EQ(*out.address, Ipv4Address::must_parse("198.18.1.1"));
  ASSERT_TRUE(out.response.edns.has_value());
  ASSERT_TRUE(out.response.edns->client_subnet.has_value());
  EXPECT_EQ(out.response.edns->client_subnet->subnet().to_string(),
            "10.10.0.0/16");
}

TEST_F(EcsEndToEndTest, NoEdnsInAnswerWhenClientSentNone) {
  const StubResult east = resolve_from(east_client_);
  ASSERT_TRUE(east.ok);
  EXPECT_FALSE(east.response.edns.has_value());
}

}  // namespace
}  // namespace mecdns::dns
