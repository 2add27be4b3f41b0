#include <gtest/gtest.h>

#include "cdn/cache_server.h"
#include "simnet/network.h"

namespace mecdns::cdn {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class CacheServerTest : public ::testing::Test {
 protected:
  CacheServerTest() : net_(sim_, util::Rng(31)) {
    client_node_ = net_.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
    cache_node_ = net_.add_node("edge", Ipv4Address::must_parse("10.0.0.2"));
    origin_node_ = net_.add_node("origin", Ipv4Address::must_parse("10.0.0.3"));
    net_.add_link(client_node_, cache_node_,
                  LatencyModel::constant(SimTime::millis(1)));
    net_.add_link(cache_node_, origin_node_,
                  LatencyModel::constant(SimTime::millis(20)));

    ContentCatalog catalog;
    catalog.add_series(dns::DnsName::must_parse("v.test"), "seg", 16, 1000);
    origin_ = std::make_unique<OriginServer>(
        net_.runtime(origin_node_), "origin", catalog,
        LatencyModel::constant(SimTime::millis(2)));

    CacheServer::Config config;
    config.capacity_bytes = 4096;  // 4 objects of 1000B fit
    config.parent = Endpoint{Ipv4Address::must_parse("10.0.0.3"),
                             kContentPort};
    config.service_time = LatencyModel::constant(SimTime::micros(200));
    cache_ = std::make_unique<CacheServer>(net_.runtime(cache_node_), "edge",
                                           config);
    client_ = std::make_unique<ContentClient>(net_.runtime(client_node_));
  }

  ContentResponse get(const std::string& url, SimTime* latency = nullptr) {
    ContentResponse out;
    client_->get(Endpoint{Ipv4Address::must_parse("10.0.0.2"), kContentPort},
                 Url::must_parse(url),
                 [&](util::Result<ContentResponse> response, SimTime rtt) {
                   if (response.ok()) out = response.value();
                   if (latency != nullptr) *latency = rtt;
                 });
    sim_.run();
    return out;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId client_node_;
  simnet::NodeId cache_node_;
  simnet::NodeId origin_node_;
  std::unique_ptr<OriginServer> origin_;
  std::unique_ptr<CacheServer> cache_;
  std::unique_ptr<ContentClient> client_;
};

TEST_F(CacheServerTest, MissFetchesFromParentThenHits) {
  SimTime miss_latency;
  const ContentResponse miss = get("v.test/seg0000", &miss_latency);
  EXPECT_EQ(miss.status, 200);
  EXPECT_FALSE(miss.served_from_cache);
  EXPECT_EQ(cache_->stats().misses, 1u);
  EXPECT_EQ(cache_->stats().parent_fetches, 1u);
  EXPECT_EQ(origin_->requests(), 1u);

  SimTime hit_latency;
  const ContentResponse hit = get("v.test/seg0000", &hit_latency);
  EXPECT_EQ(hit.status, 200);
  EXPECT_TRUE(hit.served_from_cache);
  EXPECT_EQ(origin_->requests(), 1u);  // no second fetch
  // Hit avoids the 40ms origin round trip.
  EXPECT_LT(hit_latency + SimTime::millis(35), miss_latency);
}

TEST_F(CacheServerTest, WarmedContentHitsImmediately) {
  cache_->warm(ContentObject{Url::must_parse("v.test/seg0005"), 1000});
  const ContentResponse hit = get("v.test/seg0005");
  EXPECT_TRUE(hit.served_from_cache);
  EXPECT_EQ(origin_->requests(), 0u);
}

TEST_F(CacheServerTest, UnknownContentIs404) {
  const ContentResponse missing = get("v.test/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_EQ(cache_->stats().not_found, 1u);
}

TEST_F(CacheServerTest, NoParentMeans404OnMiss) {
  // Replace the fixture's cache with one whose Config::parent is unset.
  cache_.reset();
  CacheServer::Config config;
  config.capacity_bytes = 4096;
  config.service_time = LatencyModel::constant(SimTime::micros(200));
  cache_ = std::make_unique<CacheServer>(net_.runtime(cache_node_), "edge",
                                         config);
  const ContentResponse response = get("v.test/seg0000");
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(origin_->requests(), 0u);
}

TEST_F(CacheServerTest, LruEvictionKeepsCapacity) {
  for (int i = 0; i < 8; ++i) {
    char url[32];
    std::snprintf(url, sizeof(url), "v.test/seg%04d", i);
    get(url);
  }
  EXPECT_LE(cache_->used_bytes(), 4096u);
  EXPECT_GT(cache_->stats().evictions, 0u);
  // Oldest object evicted, newest kept.
  EXPECT_FALSE(cache_->cached(Url::must_parse("v.test/seg0000")));
  EXPECT_TRUE(cache_->cached(Url::must_parse("v.test/seg0007")));
}

TEST_F(CacheServerTest, LruTouchOnHitProtectsHotObject) {
  get("v.test/seg0000");
  get("v.test/seg0001");
  get("v.test/seg0002");
  get("v.test/seg0003");          // cache now full
  get("v.test/seg0000");          // touch the oldest -> most recent
  get("v.test/seg0004");          // evicts seg0001, not seg0000
  EXPECT_TRUE(cache_->cached(Url::must_parse("v.test/seg0000")));
  EXPECT_FALSE(cache_->cached(Url::must_parse("v.test/seg0001")));
}

TEST_F(CacheServerTest, OversizedObjectNotCached) {
  cache_->warm(ContentObject{Url::must_parse("v.test/huge"), 10000});
  EXPECT_FALSE(cache_->cached(Url::must_parse("v.test/huge")));
  EXPECT_EQ(cache_->used_bytes(), 0u);
}

TEST_F(CacheServerTest, ParentTimeoutAnswers404) {
  net_.set_node_up(origin_node_, false);
  CacheServer::Config config;
  config.parent = Endpoint{Ipv4Address::must_parse("10.0.0.3"), kContentPort};
  config.parent_timeout = SimTime::millis(100);
  // Rebuild the cache server with the short timeout on a fresh node.
  const simnet::NodeId node2 =
      net_.add_node("edge2", Ipv4Address::must_parse("10.0.0.4"));
  net_.add_link(client_node_, node2,
                LatencyModel::constant(SimTime::millis(1)));
  net_.add_link(node2, origin_node_,
                LatencyModel::constant(SimTime::millis(5)));
  CacheServer isolated(net_.runtime(node2), "edge2", config);

  ContentResponse out;
  client_->get(Endpoint{Ipv4Address::must_parse("10.0.0.4"), kContentPort},
               Url::must_parse("v.test/seg0000"),
               [&](util::Result<ContentResponse> response, SimTime) {
                 if (response.ok()) out = response.value();
               });
  sim_.run();
  EXPECT_EQ(out.status, 404);
  EXPECT_EQ(isolated.stats().parent_failures, 1u);
}

TEST_F(CacheServerTest, ClientTimeoutWhenServerUnreachable) {
  net_.set_node_up(cache_node_, false);
  bool failed = false;
  client_->get(Endpoint{Ipv4Address::must_parse("10.0.0.2"), kContentPort},
               Url::must_parse("v.test/seg0000"),
               [&](util::Result<ContentResponse> response, SimTime) {
                 failed = !response.ok();
               },
               SimTime::millis(200));
  sim_.run();
  EXPECT_TRUE(failed);
}

TEST_F(CacheServerTest, BytesServedAccounted) {
  get("v.test/seg0000");
  get("v.test/seg0000");
  EXPECT_EQ(cache_->stats().bytes_served, 2000u);
  EXPECT_DOUBLE_EQ(cache_->stats().hit_rate(), 0.5);
}

TEST_F(CacheServerTest, AnsweredFetchesLeaveNoTimerBehind) {
  // A miss exercises both timeouts: the cache's parent fetch and the
  // client's request. Each is cancelled by its reply, so nothing is left
  // pending once the client has its answer.
  bool answered = false;
  SimTime answered_at;
  client_->get(Endpoint{Ipv4Address::must_parse("10.0.0.2"), kContentPort},
               Url::must_parse("v.test/seg0000"),
               [&](util::Result<ContentResponse> response, SimTime) {
                 answered = response.ok();
                 answered_at = sim_.now();
               });
  while (!answered && sim_.step()) {
  }
  ASSERT_TRUE(answered);
  EXPECT_EQ(cache_->stats().parent_fetches, 1u);
  EXPECT_EQ(sim_.pending(), 0u);
  sim_.run();
  EXPECT_EQ(sim_.now(), answered_at);
}

TEST_F(CacheServerTest, DestroyedOriginDropsRequestInService) {
  // The miss reaches the origin at 21.2 ms; its reply is due after the
  // 2 ms service time, at 23.2 ms.
  ContentResponse out;
  client_->get(Endpoint{Ipv4Address::must_parse("10.0.0.2"), kContentPort},
               Url::must_parse("v.test/seg0000"),
               [&](util::Result<ContentResponse> response, SimTime) {
                 if (response.ok()) out = response.value();
               });
  sim_.run_until(SimTime::millis(22));
  ASSERT_EQ(origin_->requests(), 1u);
  origin_.reset();
  sim_.run();
  // The origin never answers: the cache's parent fetch times out.
  EXPECT_EQ(cache_->stats().parent_failures, 1u);
  EXPECT_EQ(out.status, 404);
}

TEST_F(CacheServerTest, DestroyedCacheDropsRequestInService) {
  // The request reaches the cache at 1 ms; it is served after the 0.2 ms
  // service time, at 1.2 ms.
  bool called = false;
  bool ok = true;
  client_->get(Endpoint{Ipv4Address::must_parse("10.0.0.2"), kContentPort},
               Url::must_parse("v.test/seg0000"),
               [&](util::Result<ContentResponse> response, SimTime) {
                 called = true;
                 ok = response.ok();
               },
               SimTime::millis(100));
  sim_.run_until(SimTime::micros(1100));
  ASSERT_EQ(cache_->stats().requests, 1u);
  cache_.reset();
  sim_.run();
  // The cache never serves it: no parent fetch, and the client times out.
  EXPECT_EQ(origin_->requests(), 0u);
  EXPECT_TRUE(called);
  EXPECT_FALSE(ok);
}

}  // namespace
}  // namespace mecdns::cdn
