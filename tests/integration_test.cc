// End-to-end integration: DNS resolution + content fetch through the full
// stack (UE -> LTE RAN -> NAT P-GW -> MEC cluster -> CoreDNS -> Traffic
// Router -> edge cache -> origin), plus failure injection.
#include <gtest/gtest.h>

#include "core/fig5.h"
#include "workload/zipf.h"

namespace mecdns::core {
namespace {

using simnet::Ipv4Address;
using simnet::SimTime;

class EndToEndTest : public ::testing::Test {
 protected:
  EndToEndTest() {
    Fig5Testbed::Config config;
    config.deployment = Fig5Deployment::kMecLdnsMecCdns;
    testbed_ = std::make_unique<Fig5Testbed>(config);
  }

  ran::UserEquipment::FetchOutcome fetch(const std::string& url) {
    ran::UserEquipment::FetchOutcome out;
    bool done = false;
    testbed_->ue().resolve_and_fetch(
        cdn::Url::must_parse(url),
        [&](const ran::UserEquipment::FetchOutcome& outcome) {
          out = outcome;
          done = true;
        });
    testbed_->network().simulator().run();
    EXPECT_TRUE(done);
    return out;
  }

  std::unique_ptr<Fig5Testbed> testbed_;
};

TEST_F(EndToEndTest, ResolveAndFetchFromMecCache) {
  const auto outcome = fetch("video.demo1.mycdn.ciab.test/segment0000");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(testbed_->is_mec_cache(outcome.server));
  EXPECT_TRUE(outcome.response.served_from_cache);  // content was warmed
  EXPECT_EQ(outcome.response.size_bytes, 2u * 1024 * 1024);
  // DNS ~29ms + fetch one RTT over LTE into the cluster (~22ms).
  EXPECT_LT(outcome.total.to_millis(), 70.0);
  EXPECT_GT(outcome.dns_latency.to_millis(), 20.0);
  EXPECT_GT(outcome.fetch_latency.to_millis(), 15.0);
}

TEST_F(EndToEndTest, SmallManifestAlsoServedFromEdge) {
  const auto outcome = fetch("video.demo1.mycdn.ciab.test/index.m3u8");
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.response.size_bytes, 4096u);
  EXPECT_TRUE(outcome.response.served_from_cache);
  // All catalog content was pushed at deploy time: no origin traffic.
  std::uint64_t parent_fetches = 0;
  for (auto* cache : testbed_->site().caches()) {
    parent_fetches += cache->stats().parent_fetches;
  }
  EXPECT_EQ(parent_fetches, 0u);
}

TEST_F(EndToEndTest, UnknownObjectMissesToOriginAnd404s) {
  // An object outside the origin catalog: edge miss -> parent fetch -> 404.
  const auto outcome = fetch("video.demo1.mycdn.ciab.test/not-there.ts");
  EXPECT_FALSE(outcome.ok);
  std::uint64_t parent_fetches = 0;
  for (auto* cache : testbed_->site().caches()) {
    parent_fetches += cache->stats().parent_fetches;
  }
  EXPECT_EQ(parent_fetches, 1u);  // the miss was forwarded upstream
}

TEST_F(EndToEndTest, CacheFailureReroutesViaHealthCheck) {
  // Mark the cache that owns the object unhealthy; the router must answer
  // with the surviving cache and fetches must keep succeeding.
  const auto before = fetch("video.demo1.mycdn.ciab.test/segment0002");
  ASSERT_TRUE(before.ok);
  const Ipv4Address original = before.server;

  cdn::TrafficRouter* router = testbed_->site().router();
  ASSERT_NE(router, nullptr);
  const auto caches = testbed_->site().caches();
  for (std::size_t i = 0; i < caches.size(); ++i) {
    if (testbed_->site().cache_address(i) == original) {
      router->set_cache_healthy("mec-edge", caches[i]->name(), false);
    }
  }
  const auto after = fetch("video.demo1.mycdn.ciab.test/segment0002");
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_NE(after.server, original);
  EXPECT_TRUE(testbed_->is_mec_cache(after.server));
}

TEST_F(EndToEndTest, ZipfWorkloadKeepsHighHitRateOnWarmEdge) {
  cdn::ContentCatalog catalog;
  catalog.add_series(
      dns::DnsName::must_parse("video.demo1.mycdn.ciab.test"), "segment", 32,
      2 * 1024 * 1024);
  workload::RequestGenerator generator(catalog, 0.9, 99);

  int ok_count = 0;
  int hits = 0;
  for (int i = 0; i < 40; ++i) {
    const auto outcome = fetch(generator.next().to_string());
    if (outcome.ok) {
      ++ok_count;
      if (outcome.response.served_from_cache) ++hits;
    }
  }
  EXPECT_EQ(ok_count, 40);
  EXPECT_EQ(hits, 40);  // the whole catalog fits and is warmed
}

TEST_F(EndToEndTest, WirelessLossRecoversWithRetransmission) {
  // Inject 25% per-packet loss on the UE's air link; a stub with
  // retransmissions still resolves every time.
  Fig5Testbed::Config config;
  config.deployment = Fig5Deployment::kMecLdnsMecCdns;
  Fig5Testbed lossy(config);
  const simnet::LinkId air = lossy.ran().ue_link(lossy.ue().node());
  lossy.network().set_link_loss(air, 0.25);

  dns::StubResolver stub(
      lossy.network().runtime(lossy.ue().node()), lossy.site().ldns_endpoint(),
      dns::DnsTransport::Options{SimTime::millis(300), 6});
  int successes = 0;
  const int attempts = 30;
  for (int i = 0; i < attempts; ++i) {
    bool ok = false;
    stub.resolve(lossy.content_name(), dns::RecordType::kA,
                 [&](const dns::StubResult& result) { ok = result.ok; });
    lossy.network().simulator().run();
    if (ok) ++successes;
  }
  EXPECT_EQ(successes, attempts);
  EXPECT_GT(lossy.network().stats().dropped_loss, 0u);
}

TEST_F(EndToEndTest, NetworkStatsBalance) {
  fetch("video.demo1.mycdn.ciab.test/segment0003");
  const auto& stats = testbed_->network().stats();
  EXPECT_GT(stats.sent, 0u);
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_EQ(stats.dropped_no_route, 0u);
  EXPECT_EQ(stats.dropped_ttl, 0u);
}

}  // namespace
}  // namespace mecdns::core
