// Figure 5 scenario tests: every deployment resolves correctly, latencies
// order as the paper reports, and the breakdown/ECS machinery holds up.
#include <gtest/gtest.h>

#include "core/fig5.h"
#include "core/mobility.h"

namespace mecdns::core {
namespace {

// Each deployment runs as a parameterized case with its expected latency
// band (generous: shape, not absolute values) and answer class.
struct DeploymentExpectation {
  Fig5Deployment deployment;
  double mean_low_ms;
  double mean_high_ms;
  bool answers_from_mec;
};

class Fig5DeploymentTest
    : public ::testing::TestWithParam<DeploymentExpectation> {};

TEST_P(Fig5DeploymentTest, ResolvesInBandWithCorrectAnswers) {
  const DeploymentExpectation& expected = GetParam();
  Fig5Testbed::Config config;
  config.deployment = expected.deployment;
  Fig5Testbed testbed(config);
  const SeriesResult result = testbed.measure(25);

  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(result.samples.size(), 25u);

  const double mean = result.totals().mean();
  EXPECT_GT(mean, expected.mean_low_ms) << to_string(expected.deployment);
  EXPECT_LT(mean, expected.mean_high_ms) << to_string(expected.deployment);

  const double mec_share = result.answer_share(
      [&](simnet::Ipv4Address a) { return testbed.is_mec_cache(a); });
  const double cloud_share = result.answer_share(
      [&](simnet::Ipv4Address a) { return testbed.is_cloud_cache(a); });
  if (expected.answers_from_mec) {
    EXPECT_DOUBLE_EQ(mec_share, 1.0);
  } else {
    EXPECT_DOUBLE_EQ(cloud_share, 1.0);
  }

  // Breakdown via the P-GW tap must be valid and the wireless part must be
  // the LTE RTT (~20 ms) in every deployment.
  EXPECT_GT(result.wireless().size(), 20u);
  EXPECT_NEAR(result.wireless().mean(), 21.0, 3.0);
  EXPECT_NEAR(result.totals().mean(),
              result.wireless().mean() + result.beyond_pgw().mean(), 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllDeployments, Fig5DeploymentTest,
    ::testing::Values(
        DeploymentExpectation{Fig5Deployment::kMecLdnsMecCdns, 23, 36, true},
        DeploymentExpectation{Fig5Deployment::kMecLdnsLanCdns, 28, 42, true},
        DeploymentExpectation{Fig5Deployment::kMecLdnsWanCdns, 50, 72, true},
        DeploymentExpectation{Fig5Deployment::kProviderLdns, 95, 135, false},
        DeploymentExpectation{Fig5Deployment::kGoogleDns, 95, 130, false},
        DeploymentExpectation{Fig5Deployment::kCloudflareDns, 250, 320,
                              false}),
    [](const ::testing::TestParamInfo<DeploymentExpectation>& info) {
      std::string name = to_string(info.param.deployment);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(Fig5, PaperOrderingHolds) {
  // The paper's headline: MEC/MEC < MEC/LAN < MEC/WAN < {provider, Google}
  // < Cloudflare, with "up to 9x" between best and worst.
  std::map<Fig5Deployment, double> means;
  for (const auto deployment : all_fig5_deployments()) {
    Fig5Testbed::Config config;
    config.deployment = deployment;
    Fig5Testbed testbed(config);
    means[deployment] = testbed.measure(25).totals().mean();
  }
  EXPECT_LT(means[Fig5Deployment::kMecLdnsMecCdns],
            means[Fig5Deployment::kMecLdnsLanCdns]);
  EXPECT_LT(means[Fig5Deployment::kMecLdnsLanCdns],
            means[Fig5Deployment::kMecLdnsWanCdns]);
  EXPECT_LT(means[Fig5Deployment::kMecLdnsWanCdns],
            means[Fig5Deployment::kProviderLdns]);
  EXPECT_LT(means[Fig5Deployment::kGoogleDns],
            means[Fig5Deployment::kCloudflareDns]);

  const double speedup = means[Fig5Deployment::kCloudflareDns] /
                         means[Fig5Deployment::kMecLdnsMecCdns];
  EXPECT_GT(speedup, 7.0);
  EXPECT_LT(speedup, 13.0);
}

TEST(Fig5, MecLanGapIsAboutFiveMs) {
  // "The 5ms lower latency of MEC-CDN, compared to this ideal setting".
  Fig5Testbed::Config mec_config;
  mec_config.deployment = Fig5Deployment::kMecLdnsMecCdns;
  Fig5Testbed mec(mec_config);
  Fig5Testbed::Config lan_config;
  lan_config.deployment = Fig5Deployment::kMecLdnsLanCdns;
  Fig5Testbed lan(lan_config);
  const double gap =
      lan.measure(40).totals().mean() - mec.measure(40).totals().mean();
  EXPECT_NEAR(gap, 5.4, 2.0);
}

TEST(Fig5, BeyondPgwTimeIsSubTwentyOnlyWithinMecOrLan) {
  // §4: "other than MEC-CDN, only the ideal scenario of C-DNS ... on the
  // same LAN as MEC, makes it possible to serve a DNS request with sub-20ms"
  // (the non-wireless portion; the LTE air interface adds ~20ms on top).
  const auto beyond = [](Fig5Deployment deployment) {
    Fig5Testbed::Config config;
    config.deployment = deployment;
    Fig5Testbed testbed(config);
    return testbed.measure(25).beyond_pgw().mean();
  };
  EXPECT_LT(beyond(Fig5Deployment::kMecLdnsMecCdns), 20.0);
  EXPECT_LT(beyond(Fig5Deployment::kMecLdnsLanCdns), 20.0);
  EXPECT_GT(beyond(Fig5Deployment::kMecLdnsWanCdns), 20.0);
  EXPECT_GT(beyond(Fig5Deployment::kProviderLdns), 20.0);
}

TEST(Fig5, EcsKeepsAnswersCorrectAndRoughlyNeutral) {
  for (const auto deployment :
       {Fig5Deployment::kMecLdnsMecCdns, Fig5Deployment::kMecLdnsLanCdns,
        Fig5Deployment::kMecLdnsWanCdns}) {
    Fig5Testbed::Config base_config;
    base_config.deployment = deployment;
    Fig5Testbed base(base_config);
    const double base_mean = base.measure(30).totals().mean();

    Fig5Testbed::Config ecs_config;
    ecs_config.deployment = deployment;
    ecs_config.enable_ecs = true;
    Fig5Testbed ecs(ecs_config);
    const SeriesResult ecs_result = ecs.measure(30);

    EXPECT_EQ(ecs_result.failures(), 0u);
    EXPECT_DOUBLE_EQ(
        ecs_result.answer_share(
            [&](simnet::Ipv4Address a) { return ecs.is_mec_cache(a); }),
        1.0)
        << to_string(deployment);
    const double ratio = ecs_result.totals().mean() / base_mean;
    EXPECT_GT(ratio, 0.93) << to_string(deployment);
    EXPECT_LT(ratio, 1.12) << to_string(deployment);
  }
}

TEST(Fig5, FiveGAccessShrinksTheWirelessShare) {
  // §4: "Future 5G deployments will drastically reduce this time".
  Fig5Testbed::Config config;
  config.deployment = Fig5Deployment::kMecLdnsMecCdns;
  config.access = ran::nr5g();
  Fig5Testbed testbed(config);
  const SeriesResult result = testbed.measure(25);
  EXPECT_EQ(result.failures(), 0u);
  EXPECT_LT(result.totals().mean(), 15.0);  // vs ~29 on LTE
  EXPECT_LT(result.wireless().mean(), 6.0);
}

TEST(Fig5, DeterministicAcrossRunsWithSameSeed) {
  Fig5Testbed::Config config;
  config.deployment = Fig5Deployment::kMecLdnsMecCdns;
  Fig5Testbed a(config);
  Fig5Testbed b(config);
  const SeriesResult ra = a.measure(10);
  const SeriesResult rb = b.measure(10);
  ASSERT_EQ(ra.samples.size(), rb.samples.size());
  for (std::size_t i = 0; i < ra.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.samples[i].total_ms, rb.samples[i].total_ms);
  }
}

TEST(Fig5, DifferentSeedsGiveDifferentSamplesSameShape) {
  Fig5Testbed::Config a_config;
  a_config.deployment = Fig5Deployment::kMecLdnsMecCdns;
  a_config.seed = 1;
  Fig5Testbed::Config b_config = a_config;
  b_config.seed = 2;
  Fig5Testbed a(a_config);
  Fig5Testbed b(b_config);
  const double mean_a = a.measure(25).totals().mean();
  const double mean_b = b.measure(25).totals().mean();
  EXPECT_NE(mean_a, mean_b);
  EXPECT_NEAR(mean_a, mean_b, 4.0);
}

// The topology pinned node by node. Node ids seed every component's RNG and
// node names feed perfbench's layer map, so each testbed must create the
// same nodes in the same order. Route costs (sums of mean link delays) pin
// the calibration constants: UE -> resolver, then resolver -> the C-DNS the
// scenario resolves through.
std::string node_names(simnet::Network& net) {
  std::string names;
  for (simnet::NodeId id = 0; id < net.node_count(); ++id) {
    if (id > 0) names += ' ';
    names += net.node_name(id);
  }
  return names;
}

struct TopologyExpectation {
  Fig5Deployment deployment;
  std::string tail;           ///< node names after the shared head
  std::string fallback_tail;  ///< the same with provider_fallback
  std::int64_t ue_to_resolver_ns;
  std::int64_t resolver_to_cdns_ns;
};

TEST(Fig5, TopologyIsPinnedNodeByNode) {
  const std::string head =
      "internet-backbone lte-enb lte-sgw lte-pgw cloud-origin cloud-cache "
      "dns-root dns-tld-test wan-cdns lan-cdns mec-gw mec-infra ";
  const std::string caches = "mec-edge-cache-0 mec-edge-cache-1 ";
  const std::string tier = "dns-auth-webshop.test mid-cdns ";
  const std::string router = "mec-router " + caches;
  const std::vector<TopologyExpectation> expected = {
      {Fig5Deployment::kMecLdnsMecCdns, router + "ue",
       router + "provider-ldns " + tier + "ue", 11429483, 300000},
      {Fig5Deployment::kMecLdnsLanCdns, caches + "ue",
       caches + "provider-ldns " + tier + "ue", 11429483, 3450000},
      {Fig5Deployment::kMecLdnsWanCdns, caches + "ue",
       caches + "provider-ldns " + tier + "ue", 11429483, 16163390},
      {Fig5Deployment::kProviderLdns, router + "provider-ldns ue",
       router + tier + "provider-ldns ue", 25156542, 29890449},
      {Fig5Deployment::kGoogleDns, router + "google-dns ue",
       router + "provider-ldns " + tier + "google-dns ue", 28565535,
       25394530},
      {Fig5Deployment::kCloudflareDns, router + "cloudflare-dns ue",
       router + "provider-ldns " + tier + "cloudflare-dns ue", 71350874,
       68179869},
  };
  for (const TopologyExpectation& e : expected) {
    for (const bool provider_fallback : {false, true}) {
      SCOPED_TRACE(to_string(e.deployment) +
                   (provider_fallback ? " + provider fallback" : ""));
      Fig5Testbed::Config config;
      config.deployment = e.deployment;
      config.provider_fallback = provider_fallback;
      Fig5Testbed testbed(config);
      simnet::Network& net = testbed.network();
      EXPECT_EQ(node_names(net),
                head + (provider_fallback ? e.fallback_tail : e.tail));

      const simnet::NodeId resolver =
          net.find_node(testbed.ue().resolver().server().addr);
      ASSERT_NE(resolver, simnet::kInvalidNode);
      EXPECT_EQ(net.route_cost(testbed.ue().node(), resolver)->count_nanos(),
                e.ue_to_resolver_ns);
      const simnet::NodeId cdns =
          net.find_node(testbed.active_router().endpoint().addr);
      EXPECT_EQ(net.route_cost(resolver, cdns)->count_nanos(),
                e.resolver_to_cdns_ns);
    }
  }
}

TEST(Fig5, MobilityTopologyIsPinnedNodeByNode) {
  MobilityTestbed::Config config;
  config.knobs.cells = 3;
  MobilityTestbed testbed(config);
  std::string names =
      "internet-backbone cloud-origin cloud-cache dns-root dns-tld-test "
      "wan-cdns mid-cdns";
  for (int cell = 0; cell < 3; ++cell) {
    const std::string c = "cell-" + std::to_string(cell);
    const std::string m = "mec-" + std::to_string(cell);
    names += " " + c + "-enb " + c + "-sgw " + c + "-pgw " + m + "-gw " + m +
             "-infra " + m + "-router " + m + "-edge-cache-0 " + m +
             "-edge-cache-1";
  }
  names += " provider-ldns agg-ue-0 agg-ue-1 agg-ue-2";
  for (int i = 0; i < 8; ++i) names += " cohort-ue-" + std::to_string(i);
  EXPECT_EQ(testbed.network().node_count(), 43u);
  EXPECT_EQ(node_names(testbed.network()), names);
}

TEST(Fig5, ProviderEndpointIsTheBuiltProvider) {
  Fig5Testbed::Config config;
  config.provider_fallback = true;
  Fig5Testbed testbed(config);
  const simnet::NodeId node =
      testbed.network().find_node(testbed.provider_endpoint().addr);
  ASSERT_NE(node, simnet::kInvalidNode);
  EXPECT_EQ(node, testbed.provider_ldns_node());
  EXPECT_EQ(testbed.network().node_name(node), "provider-ldns");
}

// The provider address is fixed by the addressing plan, so a testbed that
// never builds the provider still reports it (clients list it as a
// fallback before the testbed exists).
TEST(Fig5, ProviderEndpointNeedsNoProvider) {
  Fig5Testbed testbed(Fig5Testbed::Config{});
  EXPECT_EQ(testbed.provider_ldns(), nullptr);
  EXPECT_EQ(testbed.provider_endpoint().to_string(), "10.201.0.53:53");
}

}  // namespace
}  // namespace mecdns::core
