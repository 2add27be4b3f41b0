// Traffic Router (C-DNS) and opaque commercial-router tests.
#include <gtest/gtest.h>

#include "cdn/opaque_router.h"
#include "cdn/traffic_router.h"
#include "dns/stub.h"

namespace mecdns::cdn {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() : net_(sim_, util::Rng(41)) {
    edge_client_ =
        net_.add_node("edge-resolver", Ipv4Address::must_parse("10.240.0.2"));
    far_client_ =
        net_.add_node("far-resolver", Ipv4Address::must_parse("8.8.8.8"));
    router_node_ =
        net_.add_node("router", Ipv4Address::must_parse("198.51.100.53"));
    net_.add_link(edge_client_, router_node_,
                  LatencyModel::constant(SimTime::millis(1)));
    net_.add_link(far_client_, router_node_,
                  LatencyModel::constant(SimTime::millis(1)));

    TrafficRouter::Config config;
    config.cdn_domain = dns::DnsName::must_parse("mycdn.test");
    config.answer_ttl = 30;
    config.parent_domain = dns::DnsName::must_parse("mid.cdn.example");
    router_ = std::make_unique<TrafficRouter>(
        net_.runtime(router_node_), "router",
        LatencyModel::constant(SimTime::micros(500)), config);

    router_->add_cache("mec-edge",
                       CacheInfo{"edge-0", Ipv4Address::must_parse("10.96.1.1"),
                                 true});
    router_->add_cache("mec-edge",
                       CacheInfo{"edge-1", Ipv4Address::must_parse("10.96.1.2"),
                                 true});
    router_->add_cache("cloud",
                       CacheInfo{"cloud-0",
                                 Ipv4Address::must_parse("198.18.2.1"), true});
    router_->add_delivery_service(DeliveryService{
        "demo1", dns::DnsName::must_parse("demo1.mycdn.test"),
        {"mec-edge", "cloud"}});
    router_->coverage().add(simnet::Cidr::must_parse("10.240.0.0/24"),
                            "mec-edge");
    router_->coverage().set_default_group("cloud");
  }

  dns::StubResult resolve_from(simnet::NodeId node, const std::string& name,
                               dns::RecordType type = dns::RecordType::kA) {
    dns::StubResolver stub(
        net_.runtime(node),
        Endpoint{Ipv4Address::must_parse("198.51.100.53"), dns::kDnsPort});
    dns::StubResult out;
    stub.resolve(dns::DnsName::must_parse(name), type,
                 [&](const dns::StubResult& result) { out = result; });
    sim_.run();
    return out;
  }

  /// Resolves video.demo1.mycdn.test from the far resolver, with an edge
  /// client's /24 in ECS; `out` is filled when the answer arrives.
  void resolve_far_with_edge_ecs(dns::StubResolver& stub,
                                 dns::StubResult& out) {
    dns::ClientSubnet ecs;
    ecs.address = Ipv4Address::must_parse("10.240.0.0");
    ecs.source_prefix = 24;
    stub.resolve_with_ecs(
        dns::DnsName::must_parse("video.demo1.mycdn.test"),
        dns::RecordType::kA, ecs,
        [&out](const dns::StubResult& result) { out = result; });
  }

  bool is_edge(Ipv4Address addr) const {
    return simnet::Cidr::must_parse("10.96.0.0/16").contains(addr);
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId edge_client_;
  simnet::NodeId far_client_;
  simnet::NodeId router_node_;
  std::unique_ptr<TrafficRouter> router_;
};

TEST_F(RouterTest, RoutesEdgeResolverToEdgeCache) {
  const auto result = resolve_from(edge_client_, "video.demo1.mycdn.test");
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(is_edge(*result.address));
  EXPECT_EQ(result.response.answers[0].ttl, 30u);
  EXPECT_EQ(router_->router_stats().coverage_hits, 1u);
}

TEST_F(RouterTest, RoutesUnknownResolverToDefaultGroup) {
  const auto result = resolve_from(far_client_, "video.demo1.mycdn.test");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.2.1"));
}

TEST_F(RouterTest, ConsistentHashPinsNameToCache) {
  const auto first = resolve_from(edge_client_, "video.demo1.mycdn.test");
  for (int i = 0; i < 5; ++i) {
    const auto again = resolve_from(edge_client_, "video.demo1.mycdn.test");
    EXPECT_EQ(*again.address, *first.address);
  }
  // Different names may land on different caches; across many names both
  // edge caches should be used.
  std::set<std::uint32_t> used;
  for (int i = 0; i < 20; ++i) {
    const auto result = resolve_from(
        edge_client_, "obj" + std::to_string(i) + ".demo1.mycdn.test");
    used.insert(result.address->value());
  }
  EXPECT_EQ(used.size(), 2u);
}

TEST_F(RouterTest, UnhealthyCacheAvoided) {
  const auto before = resolve_from(edge_client_, "video.demo1.mycdn.test");
  const std::string failing =
      *before.address == Ipv4Address::must_parse("10.96.1.1") ? "edge-0"
                                                              : "edge-1";
  router_->set_cache_healthy("mec-edge", failing, false);
  const auto after = resolve_from(edge_client_, "video.demo1.mycdn.test");
  ASSERT_TRUE(after.ok);
  EXPECT_NE(*after.address, *before.address);
  EXPECT_TRUE(is_edge(*after.address));

  // Recovery restores the original consistent-hash assignment.
  router_->set_cache_healthy("mec-edge", failing, true);
  const auto recovered = resolve_from(edge_client_, "video.demo1.mycdn.test");
  EXPECT_EQ(*recovered.address, *before.address);
}

TEST_F(RouterTest, UnknownServiceGetsCascadingCname) {
  const auto result = resolve_from(edge_client_, "video.other.mycdn.test");
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.response.answers.size(), 1u);
  const auto* cname =
      std::get_if<dns::CnameRecord>(&result.response.answers[0].rdata);
  ASSERT_NE(cname, nullptr);
  // The relative labels are re-rooted under the parent tier's domain.
  EXPECT_EQ(cname->target,
            dns::DnsName::must_parse("video.other.mid.cdn.example"));
  EXPECT_EQ(router_->router_stats().referred_to_parent, 1u);
}

TEST_F(RouterTest, NoParentMeansNxDomainForUnknownService) {
  TrafficRouter::Config config;
  config.cdn_domain = dns::DnsName::must_parse("mycdn.test");
  const simnet::NodeId node =
      net_.add_node("router2", Ipv4Address::must_parse("198.51.100.54"));
  net_.add_link(edge_client_, node,
                LatencyModel::constant(SimTime::millis(1)));
  TrafficRouter bare(net_.runtime(node), "router2",
                     LatencyModel::constant(SimTime::micros(500)), config);
  dns::StubResolver stub(
      net_.runtime(edge_client_),
      Endpoint{Ipv4Address::must_parse("198.51.100.54"), dns::kDnsPort});
  dns::StubResult out;
  stub.resolve(dns::DnsName::must_parse("x.mycdn.test"), dns::RecordType::kA,
               [&](const dns::StubResult& result) { out = result; });
  sim_.run();
  EXPECT_EQ(out.rcode, dns::RCode::kNxDomain);
}

TEST_F(RouterTest, OutOfDomainRefused) {
  const auto result = resolve_from(edge_client_, "www.elsewhere.org");
  EXPECT_EQ(result.rcode, dns::RCode::kRefused);
}

TEST_F(RouterTest, NonAQueryGetsNoData) {
  const auto result =
      resolve_from(edge_client_, "video.demo1.mycdn.test",
                   dns::RecordType::kTxt);
  EXPECT_EQ(result.rcode, dns::RCode::kNoError);
  EXPECT_TRUE(result.response.answers.empty());
}

TEST_F(RouterTest, EcsOverridesResolverLocalization) {
  router_->set_use_ecs(true);
  // Far resolver forwards an edge client's subnet: answer must be edge.
  dns::StubResolver stub(
      net_.runtime(far_client_),
      Endpoint{Ipv4Address::must_parse("198.51.100.53"), dns::kDnsPort});
  dns::StubResult out;
  resolve_far_with_edge_ecs(stub, out);
  sim_.run();
  ASSERT_TRUE(out.ok);
  EXPECT_TRUE(is_edge(*out.address));
  // Scope reflects the localization (RFC 7871).
  ASSERT_TRUE(out.response.edns.has_value());
  EXPECT_EQ(out.response.edns->client_subnet->scope_prefix, 24);
  EXPECT_EQ(router_->router_stats().ecs_localized, 1u);
}

TEST_F(RouterTest, DestroyedRouterDropsPendingEcsAnswer) {
  router_->set_use_ecs(true);
  dns::StubResolver stub(
      net_.runtime(far_client_),
      Endpoint{Ipv4Address::must_parse("198.51.100.53"), dns::kDnsPort});
  dns::StubResult out;
  resolve_far_with_edge_ecs(stub, out);
  // The query is handled at 1.5 ms; its ECS-delayed answer is due at
  // 1.65 ms, from a timer that holds the router's responder.
  sim_.run_until(SimTime::micros(1600));
  router_.reset();
  sim_.run();
  // The held responder outlived its server and sent nothing.
  EXPECT_FALSE(out.ok);
}

TEST_F(RouterTest, EcsIgnoredWhenDisabled) {
  router_->set_use_ecs(false);
  dns::StubResolver stub(
      net_.runtime(far_client_),
      Endpoint{Ipv4Address::must_parse("198.51.100.53"), dns::kDnsPort});
  dns::StubResult out;
  resolve_far_with_edge_ecs(stub, out);
  sim_.run();
  ASSERT_TRUE(out.ok);
  // Resolver-based localization: far resolver -> cloud.
  EXPECT_EQ(*out.address, Ipv4Address::must_parse("198.18.2.1"));
  EXPECT_EQ(out.response.edns->client_subnet->scope_prefix, 0);
}

TEST_F(RouterTest, SelectionsAreCounted) {
  for (int i = 0; i < 10; ++i) {
    resolve_from(edge_client_, "obj" + std::to_string(i) + ".demo1.mycdn.test");
  }
  std::uint64_t total = 0;
  for (const auto& [cache, count] : router_->selections()) total += count;
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(router_->router_stats().routed, 10u);
}

TEST_F(RouterTest, GeoFallbackPicksNearestGroup) {
  // A resolver covered by neither coverage zone nor default: use geo.
  TrafficRouter::Config config;
  config.cdn_domain = dns::DnsName::must_parse("geo.test");
  const simnet::NodeId node =
      net_.add_node("router3", Ipv4Address::must_parse("198.51.100.55"));
  net_.add_link(far_client_, node, LatencyModel::constant(SimTime::millis(1)));
  TrafficRouter geo_router(net_.runtime(node), "router3",
                           LatencyModel::constant(SimTime::micros(500)),
                           config);
  geo_router.add_cache("near", CacheInfo{"n0",
                                         Ipv4Address::must_parse("10.10.0.1"),
                                         true});
  geo_router.add_cache("far", CacheInfo{"f0",
                                        Ipv4Address::must_parse("10.20.0.1"),
                                        true});
  geo_router.set_group_location("near", GeoPoint{10, 0});
  geo_router.set_group_location("far", GeoPoint{900, 0});
  geo_router.geo().add(simnet::Cidr::must_parse("8.8.8.0/24"), GeoPoint{0, 0},
                       "resolver-site");
  geo_router.add_delivery_service(DeliveryService{
      "vid", dns::DnsName::must_parse("vid.geo.test"), {"near", "far"}});

  dns::StubResolver stub(
      net_.runtime(far_client_),
      Endpoint{Ipv4Address::must_parse("198.51.100.55"), dns::kDnsPort});
  dns::StubResult out;
  stub.resolve(dns::DnsName::must_parse("x.vid.geo.test"), dns::RecordType::kA,
               [&](const dns::StubResult& result) { out = result; });
  sim_.run();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(*out.address, Ipv4Address::must_parse("10.10.0.1"));
  EXPECT_EQ(geo_router.router_stats().geo_fallbacks, 1u);
}

// --- OpaqueCdnRouter ---------------------------------------------------------

class OpaqueTest : public ::testing::Test {
 protected:
  OpaqueTest() : net_(sim_, util::Rng(43)) {
    campus_ = net_.add_node("campus", Ipv4Address::must_parse("172.16.0.53"));
    carrier_ = net_.add_node("carrier", Ipv4Address::must_parse("10.202.0.53"));
    router_node_ =
        net_.add_node("cdns", Ipv4Address::must_parse("198.51.100.60"));
    net_.add_link(campus_, router_node_,
                  LatencyModel::constant(SimTime::millis(1)));
    net_.add_link(carrier_, router_node_,
                  LatencyModel::constant(SimTime::millis(1)));
    router_ = std::make_unique<OpaqueCdnRouter>(
        net_.runtime(router_node_), "cdns",
        LatencyModel::constant(SimTime::micros(500)),
        dns::DnsName::must_parse("a0.muscache.com"), 5);
    router_->add_pool("Akamai", simnet::Cidr::must_parse("23.55.124.0/24"));
    router_->add_pool("Fastly", simnet::Cidr::must_parse("151.101.0.0/16"));
    router_->add_resolver_class(
        simnet::Cidr::must_parse("172.16.0.53/32"), "campus");
    router_->add_resolver_class(
        simnet::Cidr::must_parse("10.202.0.53/32"), "carrier");
    router_->set_weights("campus", {0.9, 0.1});
    router_->set_weights("carrier", {0.1, 0.9});
  }

  double share_akamai(simnet::NodeId from, int queries) {
    dns::StubResolver stub(
        net_.runtime(from),
        Endpoint{Ipv4Address::must_parse("198.51.100.60"), dns::kDnsPort});
    int akamai = 0;
    int total = 0;
    for (int i = 0; i < queries; ++i) {
      stub.resolve(dns::DnsName::must_parse("a0.muscache.com"),
                   dns::RecordType::kA, [&](const dns::StubResult& result) {
                     if (!result.ok) return;
                     ++total;
                     if (simnet::Cidr::must_parse("23.55.124.0/24")
                             .contains(*result.address)) {
                       ++akamai;
                     }
                   });
      sim_.run();
    }
    return total == 0 ? 0.0 : static_cast<double>(akamai) / total;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId campus_;
  simnet::NodeId carrier_;
  simnet::NodeId router_node_;
  std::unique_ptr<OpaqueCdnRouter> router_;
};

TEST_F(OpaqueTest, PerResolverClassWeightsApplied) {
  const double campus_share = share_akamai(campus_, 300);
  const double carrier_share = share_akamai(carrier_, 300);
  EXPECT_NEAR(campus_share, 0.9, 0.06);
  EXPECT_NEAR(carrier_share, 0.1, 0.06);
  // Router-side distribution bookkeeping agrees.
  EXPECT_NEAR(router_->distribution("campus").share(
                  "Akamai (23.55.124.0/24)"),
              0.9, 0.06);
}

TEST_F(OpaqueTest, AnswersAreInsidePoolCidrs) {
  dns::StubResolver stub(
      net_.runtime(campus_),
      Endpoint{Ipv4Address::must_parse("198.51.100.60"), dns::kDnsPort});
  for (int i = 0; i < 50; ++i) {
    stub.resolve(dns::DnsName::must_parse("a0.muscache.com"),
                 dns::RecordType::kA, [&](const dns::StubResult& result) {
                   ASSERT_TRUE(result.ok);
                   const bool in_pool =
                       simnet::Cidr::must_parse("23.55.124.0/24")
                           .contains(*result.address) ||
                       simnet::Cidr::must_parse("151.101.0.0/16")
                           .contains(*result.address);
                   EXPECT_TRUE(in_pool);
                 });
    sim_.run();
  }
}

TEST_F(OpaqueTest, OutOfDomainRefused) {
  dns::StubResolver stub(
      net_.runtime(campus_),
      Endpoint{Ipv4Address::must_parse("198.51.100.60"), dns::kDnsPort});
  dns::StubResult out;
  stub.resolve(dns::DnsName::must_parse("other.example.com"),
               dns::RecordType::kA,
               [&](const dns::StubResult& result) { out = result; });
  sim_.run();
  EXPECT_EQ(out.rcode, dns::RCode::kRefused);
}

TEST_F(OpaqueTest, WeightCountMustMatchPools) {
  EXPECT_THROW(router_->set_weights("x", {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace mecdns::cdn
