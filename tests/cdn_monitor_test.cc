// Traffic Monitor tests: automatic health detection and recovery.
#include <gtest/gtest.h>

#include "cdn/traffic_monitor.h"
#include "dns/stub.h"

namespace mecdns::cdn {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : net_(sim_, util::Rng(161)) {
    monitor_node_ =
        net_.add_node("monitor", Ipv4Address::must_parse("10.240.0.9"));
    router_node_ =
        net_.add_node("router", Ipv4Address::must_parse("10.240.0.53"));
    client_node_ =
        net_.add_node("client", Ipv4Address::must_parse("10.240.0.7"));
    cache_a_node_ =
        net_.add_node("cache-a", Ipv4Address::must_parse("10.240.0.11"));
    cache_b_node_ =
        net_.add_node("cache-b", Ipv4Address::must_parse("10.240.0.12"));
    for (const simnet::NodeId node :
         {router_node_, client_node_, cache_a_node_, cache_b_node_}) {
      net_.add_link(monitor_node_, node,
                    LatencyModel::constant(SimTime::micros(200)));
    }
    net_.add_link(client_node_, router_node_,
                  LatencyModel::constant(SimTime::micros(200)));
    net_.add_link(router_node_, cache_a_node_,
                  LatencyModel::constant(SimTime::micros(200)));

    TrafficRouter::Config config;
    config.cdn_domain = dns::DnsName::must_parse("cdn.test");
    config.answer_ttl = 0;
    router_ = std::make_unique<TrafficRouter>(
        net_.runtime(router_node_), "router",
        LatencyModel::constant(SimTime::micros(300)), config, dns::kDnsPort,
        Ipv4Address::must_parse("10.240.0.53"));
    router_->coverage().set_default_group("edge");
    router_->add_delivery_service(DeliveryService{
        "vod", dns::DnsName::must_parse("vod.cdn.test"), {"edge"}});

    const Url health = Url::must_parse("vod.cdn.test/_health");
    const auto add_cache = [&](const char* name, simnet::NodeId node,
                               const char* addr) {
      CacheServer::Config cc;
      auto cache = std::make_unique<CacheServer>(
          net_.runtime(node), name, cc, cdn::kContentPort,
          Ipv4Address::must_parse(addr));
      cache->warm(ContentObject{health, 64});
      cache->warm(ContentObject{Url::must_parse("vod.cdn.test/movie"), 1000});
      router_->add_cache("edge", CacheInfo{
          name, Ipv4Address::must_parse(addr), true});
      return cache;
    };
    cache_a_ = add_cache("cache-a", cache_a_node_, "10.240.0.11");
    cache_b_ = add_cache("cache-b", cache_b_node_, "10.240.0.12");

    TrafficMonitor::Config mc;
    mc.probe_interval = SimTime::millis(500);
    mc.probe_timeout = SimTime::millis(100);
    monitor_ = std::make_unique<TrafficMonitor>(net_.runtime(monitor_node_),
                                                *router_, mc);
    monitor_->watch("edge", "cache-a",
                    Endpoint{Ipv4Address::must_parse("10.240.0.11"),
                             kContentPort},
                    health);
    monitor_->watch("edge", "cache-b",
                    Endpoint{Ipv4Address::must_parse("10.240.0.12"),
                             kContentPort},
                    health);
  }

  Ipv4Address routed_answer_for(const std::string& name) {
    dns::StubResolver stub(
        net_.runtime(client_node_),
        Endpoint{Ipv4Address::must_parse("10.240.0.53"), dns::kDnsPort});
    Ipv4Address answer;
    stub.resolve(dns::DnsName::must_parse(name), dns::RecordType::kA,
                 [&](const dns::StubResult& result) {
                   if (result.ok) answer = *result.address;
                 });
    // Run only briefly so the monitor loop keeps going independently.
    sim_.run_until(sim_.now() + SimTime::millis(50));
    return answer;
  }

  Ipv4Address routed_answer() {
    return routed_answer_for("movie.vod.cdn.test");
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId monitor_node_;
  simnet::NodeId router_node_;
  simnet::NodeId client_node_;
  simnet::NodeId cache_a_node_;
  simnet::NodeId cache_b_node_;
  std::unique_ptr<TrafficRouter> router_;
  std::unique_ptr<CacheServer> cache_a_;
  std::unique_ptr<CacheServer> cache_b_;
  std::unique_ptr<TrafficMonitor> monitor_;
};

TEST_F(MonitorTest, HealthyCachesStayHealthy) {
  monitor_->start();
  sim_.run_until(SimTime::seconds(5));
  monitor_->stop();
  EXPECT_TRUE(monitor_->healthy("cache-a"));
  EXPECT_TRUE(monitor_->healthy("cache-b"));
  EXPECT_EQ(monitor_->transitions(), 0u);
  EXPECT_GE(monitor_->probes_sent(), 18u);  // ~10 rounds x 2 caches
}

TEST_F(MonitorTest, DeadCacheDetectedAndRoutedAround) {
  monitor_->start();
  sim_.run_until(SimTime::seconds(2));
  const Ipv4Address original = routed_answer();

  // Kill whichever cache currently serves the name.
  const bool killed_a = original == Ipv4Address::must_parse("10.240.0.11");
  net_.set_node_up(killed_a ? cache_a_node_ : cache_b_node_, false);

  // Two failed probes at 500ms intervals -> marked down within ~1.5s.
  sim_.run_until(sim_.now() + SimTime::seconds(3));
  EXPECT_FALSE(monitor_->healthy(killed_a ? "cache-a" : "cache-b"));
  EXPECT_EQ(monitor_->transitions(), 1u);

  const Ipv4Address rerouted = routed_answer();
  EXPECT_NE(rerouted, original);

  // Revive: after up_threshold successes, routing returns to the original.
  net_.set_node_up(killed_a ? cache_a_node_ : cache_b_node_, true);
  sim_.run_until(sim_.now() + SimTime::seconds(3));
  EXPECT_TRUE(monitor_->healthy(killed_a ? "cache-a" : "cache-b"));
  EXPECT_EQ(monitor_->transitions(), 2u);
  EXPECT_EQ(routed_answer(), original);

  monitor_->stop();
}

TEST_F(MonitorTest, BoundedRoundsDrainNaturally) {
  TrafficMonitor::Config mc;
  mc.probe_interval = SimTime::millis(100);
  mc.rounds = 5;
  TrafficMonitor bounded(net_.runtime(monitor_node_), *router_, mc);
  bounded.watch("edge", "cache-a",
                Endpoint{Ipv4Address::must_parse("10.240.0.11"),
                         kContentPort},
                Url::must_parse("vod.cdn.test/_health"));
  bounded.start();
  sim_.run();  // must terminate because rounds are bounded
  EXPECT_EQ(bounded.probes_sent(), 5u);
}

TEST_F(MonitorTest, SingleFailureBelowThresholdIsTolerated) {
  monitor_->start();
  // Probes fire at t = 0, 0.5, 1.0, ... . Go down strictly between probes
  // (after the 1.0 probe's response has landed) and come back before 2.0,
  // so exactly one probe (t=1.5) fails.
  sim_.run_until(SimTime::millis(1200));
  net_.set_node_up(cache_a_node_, false);
  sim_.run_until(SimTime::millis(1800));
  net_.set_node_up(cache_a_node_, true);
  sim_.run_until(sim_.now() + SimTime::seconds(2));
  EXPECT_TRUE(monitor_->healthy("cache-a"));
  EXPECT_EQ(monitor_->transitions(), 0u);
  monitor_->stop();
}

TEST_F(MonitorTest, IntermittentProbeLossDoesNotFlap) {
  // A lossy path that eats every other probe: the failure streak never
  // reaches down_threshold (2), so health must not flap. The outage
  // windows are placed around alternating probe instants (0.5s cadence)
  // so exactly probes at 1.5s, 2.5s, 3.5s and 4.5s are lost.
  monitor_->start();
  for (int k = 0; k < 4; ++k) {
    const SimTime down = SimTime::millis(1300 + k * 1000);
    const SimTime up = SimTime::millis(1700 + k * 1000);
    sim_.schedule_at(down, [this] { net_.set_node_up(cache_a_node_, false); });
    sim_.schedule_at(up, [this] { net_.set_node_up(cache_a_node_, true); });
  }
  sim_.run_until(SimTime::seconds(6));
  EXPECT_TRUE(monitor_->healthy("cache-a"));
  EXPECT_EQ(monitor_->transitions(), 0u);
  monitor_->stop();
}

TEST_F(MonitorTest, RouterNeverRoutesToDrainedCache) {
  // Once the monitor drains a cache, no qname — wherever it hashes on the
  // ring — may be answered with the drained address.
  monitor_->start();
  sim_.run_until(SimTime::seconds(1));
  net_.set_node_up(cache_a_node_, false);
  sim_.run_until(sim_.now() + SimTime::seconds(3));
  ASSERT_FALSE(monitor_->healthy("cache-a"));
  for (int i = 0; i < 16; ++i) {
    const std::string n = std::to_string(i);
    const Ipv4Address answer = routed_answer_for("m" + n + ".vod.cdn.test");
    EXPECT_NE(answer, Ipv4Address::must_parse("10.240.0.11"));
    EXPECT_EQ(answer, Ipv4Address::must_parse("10.240.0.12"));
  }
  monitor_->stop();
}

TEST_F(MonitorTest, DestroyedMonitorLeavesNoTimerBehind) {
  monitor_->start();  // unbounded rounds
  sim_.run_until(SimTime::millis(1250));
  EXPECT_EQ(sim_.pending(), 1u);  // the next round, at 1.5 s
  monitor_.reset();
  EXPECT_EQ(sim_.pending(), 0u);
  sim_.run();
  EXPECT_EQ(sim_.now(), SimTime::millis(1250));
}

}  // namespace
}  // namespace mecdns::cdn
