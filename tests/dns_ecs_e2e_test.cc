// End-to-end ECS (RFC 7871) through the MEC L-DNS shape of §4: two clients
// in different subnets query the same CDN name through one plugin-chain
// server (cache -> forward with ECS on -> ECS-aware Traffic Router). With
// ECS the router localizes each to its own cache group, and the shared
// cache must not serve one client's scoped answer to the other.
#include <gtest/gtest.h>

#include "cdn/traffic_router.h"
#include "dns/plugin.h"
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
    // ECS-aware Traffic Router: east clients -> east cache, west -> west.
    const auto router_addr = Ipv4Address::must_parse("198.51.100.53");
    const simnet::NodeId router_node = net_.add_node("cdns", router_addr);
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

    // Shared L-DNS: cache, then the CDN domain forwarded with ECS on.
    const simnet::NodeId ldns_node =
        net_.add_node("ldns", Ipv4Address::must_parse("10.53.0.53"));
    net_.add_link(ldns_node, router_node,
                  LatencyModel::constant(SimTime::millis(5)));
    ldns_ = std::make_unique<PluginChainServer>(
        net_.runtime(ldns_node), "ldns",
        LatencyModel::constant(SimTime::micros(300)));
    PluginChain& pub = ldns_->add_default_view("public");
    pub.add(std::make_unique<CachePlugin>(std::make_shared<DnsCache>()));
    auto forward = std::make_unique<ForwardPlugin>(
        DnsName::must_parse("cdn.test"),
        std::vector<Endpoint>{{router_addr, kDnsPort}}, ldns_->transport());
    forward->set_add_ecs(true);
    forward_ = forward.get();
    pub.add(std::move(forward));

    east_client_ = net_.add_node("east-client",
                                 Ipv4Address::must_parse("10.10.0.2"));
    west_client_ = net_.add_node("west-client",
                                 Ipv4Address::must_parse("10.20.0.2"));
    net_.add_link(east_client_, ldns_node,
                  LatencyModel::constant(SimTime::millis(1)));
    net_.add_link(west_client_, ldns_node,
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
  simnet::NodeId east_client_;
  simnet::NodeId west_client_;
  std::unique_ptr<cdn::TrafficRouter> router_;
  std::unique_ptr<PluginChainServer> ldns_;
  ForwardPlugin* forward_ = nullptr;
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
  const auto upstream_after_east = forward_->forwarded();
  // The west client's query MUST go upstream again: the east answer was
  // scoped (scope_prefix > 0) and may not be reused.
  const StubResult west = resolve_from(west_client_);
  EXPECT_GT(forward_->forwarded(), upstream_after_east);
  EXPECT_EQ(*west.address, Ipv4Address::must_parse("198.18.2.1"));
}

TEST_F(EcsEndToEndTest, WithoutEcsBothSubnetsShareTheResolverView) {
  forward_->set_add_ecs(false);
  router_->set_use_ecs(false);
  const StubResult east = resolve_from(east_client_);
  const StubResult west = resolve_from(west_client_);
  ASSERT_TRUE(east.ok);
  ASSERT_TRUE(west.ok);
  // Resolver-based localization: both land wherever the resolver's address
  // maps (default group), and the second answer comes from the cache.
  EXPECT_EQ(*east.address, *west.address);
  const auto upstream_after = forward_->forwarded();
  resolve_from(west_client_);
  EXPECT_EQ(forward_->forwarded(), upstream_after);  // cached
}

TEST_F(EcsEndToEndTest, ClientSuppliedEcsIsForwardedAndEchoed) {
  // A client that sends its own ECS (RFC 7871 stub behaviour): the
  // forwarder passes it upstream verbatim and the answer echoes it.
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
  // The /24 the forwarder synthesized stays between it and the router.
  const StubResult east = resolve_from(east_client_);
  ASSERT_TRUE(east.ok);
  EXPECT_FALSE(east.response.edns.has_value());
}

}  // namespace
}  // namespace mecdns::dns
