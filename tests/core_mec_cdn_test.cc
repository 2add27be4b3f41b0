// MecCdnSite tests: the paper's assembled system as a reusable component.
#include <gtest/gtest.h>

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
    net_.add_link(client_, site_->orchestrator().cluster().gateway(),
                  LatencyModel::constant(SimTime::millis(1)));

    cdn::ContentCatalog catalog;
    catalog.add_series(dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
                       "seg", 4, 1000);
    site_->add_delivery_service("demo1", catalog);
  }

  dns::StubResult resolve_as(simnet::NodeId node, const std::string& name) {
    dns::StubResolver stub(net_.runtime(node), site_->ldns_endpoint(),
                           dns::DnsTransport::Options{SimTime::millis(500),
                                                      0});
    dns::StubResult out;
    stub.resolve(dns::DnsName::must_parse(name), dns::RecordType::kA,
                 [&](const dns::StubResult& result) { out = result; });
    sim_.run();
    return out;
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
  const auto& service_cidr =
      site_->orchestrator().cluster().config().service_cidr;
  for (int i = 0; i < 10; ++i) {
    const auto result = resolve_as(
        client_, "obj" + std::to_string(i) + ".demo1.mycdn.ciab.test");
    ASSERT_TRUE(result.ok) << i;
    EXPECT_TRUE(service_cidr.contains(*result.address));
  }
}

TEST_F(MecCdnSiteTest, InternalViewServesServiceDiscovery) {
  // A VNF inside the cluster resolves other services' names.
  const simnet::NodeId vnf = site_->orchestrator().cluster().add_worker("vnf");
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
  site_->orchestrator().publish(
      dns::DnsName::must_parse("ar-game.apps.mec.test"),
      Ipv4Address::must_parse("10.96.0.99"));
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
  site_->router()->remove_delivery_service("demo1");
  EXPECT_FALSE(site_->router()->has_delivery_service("demo1"));
}

TEST_F(MecCdnSiteTest, ExternalCdnsConfigSkipsInClusterRouter) {
  MecCdnSite::Config config;
  config.orchestrator.cluster.name = "mec2";
  config.orchestrator.cluster.node_cidr =
      simnet::Cidr::must_parse("10.241.0.0/24");
  config.orchestrator.cluster.service_cidr =
      simnet::Cidr::must_parse("10.97.0.0/16");
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
  config.orchestrator.cluster.name = "mec3";
  config.orchestrator.cluster.node_cidr =
      simnet::Cidr::must_parse("10.242.0.0/24");
  config.orchestrator.cluster.service_cidr =
      simnet::Cidr::must_parse("10.98.0.0/16");
  config.overload_threshold_qps = 10;
  MecCdnSite guarded(net_, config);
  EXPECT_NE(guarded.overload_guard(), nullptr);
}

TEST_F(MecCdnSiteTest, EcsConfigEnablesForwardEcs) {
  EXPECT_FALSE(site_->cdn_forward()->add_ecs());
  MecCdnSite::Config config;
  config.orchestrator.cluster.name = "mec4";
  config.orchestrator.cluster.node_cidr =
      simnet::Cidr::must_parse("10.243.0.0/24");
  config.orchestrator.cluster.service_cidr =
      simnet::Cidr::must_parse("10.99.0.0/16");
  config.enable_ecs = true;
  MecCdnSite ecs_site(net_, config);
  EXPECT_TRUE(ecs_site.cdn_forward()->add_ecs());
}

}  // namespace
}  // namespace mecdns::core
