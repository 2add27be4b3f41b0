// MecCdnSite tests: the paper's assembled system as a reusable component.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/mec_cdn.h"
#include "dns/stub.h"

namespace mecdns::core {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class MecCdnSiteTest : public ::testing::Test {
 protected:
  MecCdnSiteTest() : net_(sim_, util::Rng(17)) {
    MecCdnSite::Config config;
    config.answer_ttl = 0;
    site_ = std::make_unique<MecCdnSite>(net_, config);

    // A "mobile" client one hop outside the cluster gateway.
    client_ = net_.add_node("mobile", Ipv4Address::must_parse("203.0.113.1"));
    net_.add_link(client_, site_->gateway(),
                  LatencyModel::constant(SimTime::millis(1)));

    cdn::ContentCatalog catalog;
    catalog.add_series(dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
                       "seg", 4, 1000);
    site_->add_delivery_service("demo1", catalog);
  }

  dns::StubResult resolve_as(simnet::NodeId node, const std::string& name) {
    return resolve_at(node, name, site_->ldns_endpoint());
  }

  dns::StubResult resolve_at(simnet::NodeId node, const std::string& name,
                             Endpoint ldns) {
    dns::StubResolver stub(net_.runtime(node), ldns,
                           dns::DnsTransport::Options{SimTime::millis(500),
                                                      0});
    dns::StubResult out;
    stub.resolve(dns::DnsName::must_parse(name), dns::RecordType::kA,
                 [&](const dns::StubResult& result) { out = result; });
    sim_.run();
    return out;
  }

  /// A VNF inside the cluster: a node-CIDR address behind the gateway.
  simnet::NodeId add_vnf() {
    const simnet::NodeId vnf =
        net_.add_node("vnf", site_->node_cidr().host(200));
    net_.add_link(vnf, site_->gateway(),
                  LatencyModel::constant(SimTime::micros(150)));
    return vnf;
  }

  bool is_cache_ip(Ipv4Address addr) const {
    for (std::size_t i = 0; i < MecCdnSite::kEdgeCaches; ++i) {
      if (site_->cache_address(i) == addr) return true;
    }
    return false;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  std::unique_ptr<MecCdnSite> site_;
  simnet::NodeId client_;
};

TEST_F(MecCdnSiteTest, MobileClientResolvesCdnDomainAtFirstHop) {
  const auto result = resolve_as(client_, "video.demo1.mycdn.ciab.test");
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(is_cache_ip(*result.address));
  // One hop + in-cluster forward: the whole lookup stays local.
  EXPECT_LT(result.latency, SimTime::millis(15));
}

TEST_F(MecCdnSiteTest, AnswersAreAlwaysClusterIps) {
  // The public-IP-reuse property: every address a mobile client learns is a
  // cluster IP from the service CIDR, never a node/host address.
  const auto& service_cidr = site_->service_cidr();
  for (int i = 0; i < 10; ++i) {
    const auto result = resolve_as(
        client_, "obj" + std::to_string(i) + ".demo1.mycdn.ciab.test");
    ASSERT_TRUE(result.ok) << i;
    EXPECT_TRUE(service_cidr.contains(*result.address));
  }
}

TEST_F(MecCdnSiteTest, InternalViewServesServiceDiscovery) {
  // A VNF inside the cluster resolves other services' names.
  const simnet::NodeId vnf = add_vnf();
  const auto result =
      resolve_as(vnf, "traffic-router.cdn.svc.cluster.local");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(*result.address, site_->cdns_endpoint().addr);
  EXPECT_EQ(site_->ldns().view_queries("internal"), 1u);
  EXPECT_EQ(site_->ldns().view_queries("public"), 0u);
}

TEST_F(MecCdnSiteTest, InternalNamespaceInvisibleToMobileClients) {
  const auto result =
      resolve_as(client_, "traffic-router.cdn.svc.cluster.local");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(site_->ldns().view_queries("internal"), 0u);
  EXPECT_EQ(site_->ldns().view_queries("public"), 1u);
}

TEST_F(MecCdnSiteTest, NonMecDomainRefusedWithoutProvider) {
  const auto result = resolve_as(client_, "www.google.com");
  EXPECT_EQ(result.rcode, dns::RCode::kRefused);
}

TEST_F(MecCdnSiteTest, PublishedMecAppResolvesPublicly) {
  site_->public_zone()->must_add(
      dns::make_a(dns::DnsName::must_parse("ar-game.apps.mec.test"),
                  Ipv4Address::must_parse("10.96.0.99"), 30));
  const auto result = resolve_as(client_, "ar-game.apps.mec.test");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("10.96.0.99"));
}

TEST_F(MecCdnSiteTest, UnknownDeliveryServiceNxDomainWithoutParent) {
  const auto result = resolve_as(client_, "video.ghost.mycdn.ciab.test");
  EXPECT_EQ(result.rcode, dns::RCode::kNxDomain);
}

TEST_F(MecCdnSiteTest, CachesWarmAfterDeploy) {
  for (auto* cache : site_->caches()) {
    EXPECT_TRUE(cache->cached(
        cdn::Url::must_parse("video.demo1.mycdn.ciab.test/seg0000")));
  }
}

TEST_F(MecCdnSiteTest, RouterKnowsDeliveryService) {
  ASSERT_NE(site_->router(), nullptr);
  EXPECT_TRUE(site_->router()->has_delivery_service("demo1"));
}

TEST_F(MecCdnSiteTest, ExternalCdnsConfigSkipsInClusterRouter) {
  MecCdnSite::Config config;
  config.name = "mec2";
  config.node_cidr = simnet::Cidr::must_parse("10.241.0.0/24");
  config.service_cidr = simnet::Cidr::must_parse("10.97.0.0/16");
  config.external_cdns =
      Endpoint{Ipv4Address::must_parse("198.51.100.53"), dns::kDnsPort};
  MecCdnSite external_site(net_, config);
  EXPECT_EQ(external_site.router(), nullptr);
  EXPECT_EQ(external_site.cdns_endpoint().addr,
            Ipv4Address::must_parse("198.51.100.53"));
}

TEST_F(MecCdnSiteTest, OverloadGuardPresentWhenConfigured) {
  EXPECT_EQ(site_->overload_guard(), nullptr);
  MecCdnSite::Config config;
  config.name = "mec3";
  config.node_cidr = simnet::Cidr::must_parse("10.242.0.0/24");
  config.service_cidr = simnet::Cidr::must_parse("10.98.0.0/16");
  config.overload_threshold_qps = 10;
  MecCdnSite guarded(net_, config);
  EXPECT_NE(guarded.overload_guard(), nullptr);
}

TEST_F(MecCdnSiteTest, EcsConfigEnablesForwardEcs) {
  EXPECT_FALSE(site_->cdn_forward()->add_ecs());
  MecCdnSite::Config config;
  config.name = "mec4";
  config.node_cidr = simnet::Cidr::must_parse("10.243.0.0/24");
  config.service_cidr = simnet::Cidr::must_parse("10.99.0.0/16");
  config.enable_ecs = true;
  MecCdnSite ecs_site(net_, config);
  EXPECT_TRUE(ecs_site.cdn_forward()->add_ecs());
}

TEST_F(MecCdnSiteTest, ClusterIpsAreInServiceCidrAndRoutable) {
  std::vector<Ipv4Address> cluster_ips{site_->ldns_endpoint().addr,
                                       site_->cdns_endpoint().addr};
  for (std::size_t i = 0; i < MecCdnSite::kEdgeCaches; ++i) {
    cluster_ips.push_back(site_->cache_address(i));
  }
  for (const Ipv4Address addr : cluster_ips) {
    EXPECT_TRUE(site_->service_cidr().contains(addr)) << addr.to_string();
    // Bound to the worker running the service's pod, which sits on the
    // node CIDR.
    const simnet::NodeId worker = net_.find_node(addr);
    ASSERT_NE(worker, simnet::kInvalidNode) << addr.to_string();
    EXPECT_NE(worker, site_->gateway());
    EXPECT_TRUE(net_.route_cost(site_->gateway(), worker).has_value());
  }
}

TEST_F(MecCdnSiteTest, EveryServiceHasAClusterLocalRecord) {
  const simnet::NodeId vnf = add_vnf();
  std::vector<std::pair<std::string, Ipv4Address>> services{
      {"kube-dns.kube-system", site_->ldns_endpoint().addr},
      {"traffic-router.cdn", site_->cdns_endpoint().addr}};
  for (std::size_t i = 0; i < MecCdnSite::kEdgeCaches; ++i) {
    services.emplace_back("edge-cache-" + std::to_string(i) + ".cdn",
                          site_->cache_address(i));
  }
  for (const auto& [service, addr] : services) {
    const auto result = resolve_as(vnf, service + ".svc.cluster.local");
    ASSERT_TRUE(result.ok) << service;
    EXPECT_EQ(*result.address, addr) << service;
  }
  EXPECT_EQ(site_->ldns().view_queries("internal"), services.size());
}

TEST_F(MecCdnSiteTest, RewrittenPublicRecordReplacesTheFirst) {
  const auto name = dns::DnsName::must_parse("ar-app.apps.mec.test");
  const auto zone = site_->public_zone();
  zone->must_add(dns::make_a(name, Ipv4Address::must_parse("10.96.0.80"), 0));
  EXPECT_EQ(*resolve_as(client_, "ar-app.apps.mec.test").address,
            Ipv4Address::must_parse("10.96.0.80"));

  // Republish: remove the A set, then a second must_add.
  zone->remove(name, dns::RecordType::kA);
  zone->must_add(dns::make_a(name, Ipv4Address::must_parse("10.96.0.81"), 0));
  const auto replaced = zone->lookup(name, dns::RecordType::kA);
  ASSERT_EQ(replaced.records.size(), 1u);
  EXPECT_EQ(*resolve_as(client_, "ar-app.apps.mec.test").address,
            Ipv4Address::must_parse("10.96.0.81"));
}

TEST_F(MecCdnSiteTest, NodeNamesAndServiceHostsArePinned) {
  // Per-layer step attribution keys on these node names, and the golden
  // sim artifacts on these addresses.
  const auto node_of = [&](Ipv4Address addr) {
    return net_.node_name(net_.find_node(addr));
  };
  const auto host = [&](std::uint32_t i) {
    return site_->service_cidr().host(i);
  };
  EXPECT_EQ(net_.node_name(site_->gateway()), "mec-gw");
  EXPECT_EQ(net_.find_node(site_->node_cidr().host(1)), site_->gateway());
  EXPECT_EQ(site_->ldns_endpoint().addr, host(10));
  EXPECT_EQ(node_of(host(10)), "mec-infra");
  EXPECT_EQ(site_->ldns_node(), net_.find_node(host(10)));
  EXPECT_EQ(site_->cdns_endpoint().addr, host(53));
  EXPECT_EQ(node_of(host(53)), "mec-router");
  EXPECT_EQ(site_->cache_address(0), host(11));
  EXPECT_EQ(node_of(host(11)), "mec-edge-cache-0");
  EXPECT_EQ(site_->cache_address(1), host(12));
  EXPECT_EQ(node_of(host(12)), "mec-edge-cache-1");

  ASSERT_NE(site_->add_edge_cache(), nullptr);
  EXPECT_EQ(site_->cache_address(2), host(13));
  EXPECT_EQ(node_of(host(13)), "mec-edge-cache-2");
}

TEST_F(MecCdnSiteTest, AddEdgeCacheReturnsNullWhenOutOfNodeAddresses) {
  // A /29 holds the gateway (.1) and five workers (.2-.6): the L-DNS, the
  // C-DNS, two edge caches and one scale-up replica.
  MecCdnSite::Config config;
  config.name = "mec5";
  config.node_cidr = simnet::Cidr::must_parse("10.244.0.0/29");
  config.service_cidr = simnet::Cidr::must_parse("10.102.0.0/16");
  config.answer_ttl = 0;
  MecCdnSite small(net_, config);
  const simnet::NodeId mobile =
      net_.add_node("mobile-5", Ipv4Address::must_parse("203.0.113.5"));
  net_.add_link(mobile, small.gateway(),
                LatencyModel::constant(SimTime::millis(1)));
  small.add_delivery_service("demo1", cdn::ContentCatalog{});

  ASSERT_NE(small.add_edge_cache(), nullptr);
  const std::size_t nodes = net_.node_count();
  EXPECT_EQ(small.add_edge_cache(), nullptr);
  EXPECT_EQ(small.add_edge_cache(), nullptr);
  EXPECT_EQ(net_.node_count(), nodes);  // nothing half-deployed
  EXPECT_EQ(small.active_edge_caches(), MecCdnSite::kEdgeCaches + 1);

  // The site still serves, from the replicas it has.
  const auto result =
      resolve_at(mobile, "video.demo1.mycdn.ciab.test", small.ldns_endpoint());
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(small.is_edge_cache(*result.address));
}

TEST_F(MecCdnSiteTest, AddEdgeCacheReturnsNullWhenOutOfServiceAddresses) {
  // A /28 service CIDR has hosts .1-.14; with the C-DNS outside the
  // cluster the L-DNS holds .10 and the caches .11 up to .14.
  MecCdnSite::Config config;
  config.name = "mec6";
  config.node_cidr = simnet::Cidr::must_parse("10.245.0.0/24");
  config.service_cidr = simnet::Cidr::must_parse("10.101.0.0/28");
  config.external_cdns =
      Endpoint{Ipv4Address::must_parse("198.51.100.53"), dns::kDnsPort};
  MecCdnSite small(net_, config);
  ASSERT_NE(small.add_edge_cache(), nullptr);
  ASSERT_NE(small.add_edge_cache(), nullptr);
  EXPECT_EQ(small.cache_address(3), small.service_cidr().host(14));
  EXPECT_EQ(small.add_edge_cache(), nullptr);
  EXPECT_EQ(small.caches().size(), MecCdnSite::kEdgeCaches + 2);
}

TEST_F(MecCdnSiteTest, ClusterIpsThatCannotBeHadAreRejected) {
  // The fixture's site already holds 10.96.0.10: a second cluster on the
  // same service CIDR cannot bind its L-DNS there.
  MecCdnSite::Config config;
  config.name = "mec7";
  config.node_cidr = simnet::Cidr::must_parse("10.246.0.0/24");
  EXPECT_THROW(MecCdnSite(net_, config), std::invalid_argument);

  // A /27 service CIDR has no host .53 for the in-cluster C-DNS.
  config.name = "mec8";
  config.node_cidr = simnet::Cidr::must_parse("10.247.0.0/24");
  config.service_cidr = simnet::Cidr::must_parse("10.103.0.0/27");
  EXPECT_THROW(MecCdnSite(net_, config), std::out_of_range);
}

}  // namespace
}  // namespace mecdns::core
