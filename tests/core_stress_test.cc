// Stress: many concurrent clients interleaving through one MEC L-DNS.
//
// The plugin chain holds per-query state across asynchronous forward hops;
// this test drives heavy interleaving (internal + external clients, mixed
// namespaces, overlapping transactions) and checks every answer is correct
// and attributed to the right view.
#include <gtest/gtest.h>

#include <memory>

#include "core/mec_cdn.h"
#include "dns/stub.h"

namespace mecdns::core {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

TEST(Stress, ConcurrentMixedClientsThroughOneLdns) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(271828));
  MecCdnSite::Config config;
  config.answer_ttl = 0;
  MecCdnSite site(net, config);

  cdn::ContentCatalog catalog;
  catalog.add_series(dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"),
                     "segment", 8, 1 << 16);
  site.add_delivery_service("demo1", catalog);
  site.public_zone()->must_add(
      dns::make_a(dns::DnsName::must_parse("hud.apps.mec.test"),
                  Ipv4Address::must_parse("10.96.0.77"), 30));

  // 6 external (mobile-side) clients and 2 internal VNFs.
  constexpr int kExternal = 6;
  constexpr int kInternal = 2;
  constexpr int kQueriesEach = 50;
  std::vector<std::unique_ptr<dns::StubResolver>> stubs;
  const simnet::NodeId gateway = site.gateway();
  for (int i = 0; i < kExternal; ++i) {
    const simnet::NodeId node = net.add_node(
        "mobile-" + std::to_string(i),
        Ipv4Address(0xcb007100u + static_cast<std::uint32_t>(i + 1)));
    net.add_link(node, gateway, LatencyModel::uniform(SimTime::micros(300),
                                                      SimTime::millis(3)));
    stubs.push_back(std::make_unique<dns::StubResolver>(
        net.runtime(node), site.ldns_endpoint()));
  }
  for (int i = 0; i < kInternal; ++i) {
    // A VNF inside the cluster: a node-CIDR address behind the gateway.
    const auto host = static_cast<std::uint32_t>(200 + i);
    const simnet::NodeId node = net.add_node("vnf-" + std::to_string(i),
                                             site.node_cidr().host(host));
    net.add_link(node, gateway, LatencyModel::constant(SimTime::micros(150)));
    stubs.push_back(std::make_unique<dns::StubResolver>(
        net.runtime(node), site.ldns_endpoint()));
  }

  const auto& service_cidr = site.service_cidr();
  int answered = 0;
  int correct = 0;
  util::Rng rng(99);
  for (int q = 0; q < kQueriesEach; ++q) {
    for (std::size_t c = 0; c < stubs.size(); ++c) {
      const bool internal_client = c >= kExternal;
      // Interleave three query flavours with deliberately overlapping send
      // times (uniform jitter keeps transactions crossing each other).
      const auto at = SimTime::millis(10.0 * q + rng.uniform(0.0, 9.0));
      sim.schedule_at(at, [&, c, q, internal_client] {
        const int flavour = (q + static_cast<int>(c)) % 3;
        if (internal_client) {
          stubs[c]->resolve(
              dns::DnsName::must_parse(
                  "traffic-router.cdn.svc.cluster.local"),
              dns::RecordType::kA, [&](const dns::StubResult& result) {
                ++answered;
                if (result.ok &&
                    *result.address == site.cdns_endpoint().addr) {
                  ++correct;
                }
              });
          return;
        }
        if (flavour == 0) {
          stubs[c]->resolve(
              dns::DnsName::must_parse(
                  "obj" + std::to_string(q) + ".demo1.mycdn.ciab.test"),
              dns::RecordType::kA, [&](const dns::StubResult& result) {
                ++answered;
                if (result.ok && service_cidr.contains(*result.address)) {
                  ++correct;
                }
              });
        } else if (flavour == 1) {
          stubs[c]->resolve(dns::DnsName::must_parse("hud.apps.mec.test"),
                            dns::RecordType::kA,
                            [&](const dns::StubResult& result) {
                              ++answered;
                              if (result.ok &&
                                  *result.address ==
                                      Ipv4Address::must_parse("10.96.0.77")) {
                                ++correct;
                              }
                            });
        } else {
          // Non-MEC name: REFUSED is the correct outcome (no provider).
          stubs[c]->resolve(dns::DnsName::must_parse("www.elsewhere.org"),
                            dns::RecordType::kA,
                            [&](const dns::StubResult& result) {
                              ++answered;
                              if (result.rcode == dns::RCode::kRefused) {
                                ++correct;
                              }
                            });
        }
      });
    }
  }
  sim.run();

  const int expected = (kExternal + kInternal) * kQueriesEach;
  EXPECT_EQ(answered, expected);
  EXPECT_EQ(correct, expected);
  // The L-DNS really saw interleaved traffic from both views.
  EXPECT_EQ(site.ldns().view_queries("internal"),
            static_cast<std::uint64_t>(kInternal * kQueriesEach));
  EXPECT_EQ(site.ldns().view_queries("public"),
            static_cast<std::uint64_t>(kExternal * kQueriesEach));
}

}  // namespace
}  // namespace mecdns::core
