// Lifetime and exactly-once tests for the query path: servers destroyed
// while queries sit in their in-flight storage or worker FIFO or their
// responders are held (by a forward transaction, an ECS delay, a recursive
// job), and stub callbacks that must run exactly once however a lookup
// ends. Built with ASan in CI, where a use-after-free here fails loudly.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cdn/traffic_router.h"
#include "dns/plugin.h"
#include "dns/recursive.h"
#include "dns/stub.h"

namespace mecdns::dns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

const Ipv4Address kClient = Ipv4Address::must_parse("10.0.0.1");
const Ipv4Address kServer = Ipv4Address::must_parse("10.0.0.2");
const Ipv4Address kUpstream = Ipv4Address::must_parse("10.0.0.3");

/// client -- server -- upstream, 1 ms per link.
class LifetimeTest : public ::testing::Test {
 protected:
  LifetimeTest() : net_(sim_, util::Rng(17)) {
    client_ = net_.add_node("client", kClient);
    server_ = net_.add_node("server", kServer);
    upstream_ = net_.add_node("upstream", kUpstream);
    net_.add_link(client_, server_, LatencyModel::constant(SimTime::millis(1)));
    net_.add_link(server_, upstream_,
                  LatencyModel::constant(SimTime::millis(1)));
    DnsTransport::Options options;
    options.timeout = SimTime::millis(100);
    stub_ = std::make_unique<StubResolver>(net_.runtime(client_),
                                           Endpoint{kServer, kDnsPort},
                                           options);
  }

  /// Starts a lookup whose result lands in outcomes_[i]; counts calls.
  void lookup(const std::string& name) {
    const std::size_t i = outcomes_.size();
    outcomes_.emplace_back();
    stub_->resolve(DnsName::must_parse(name), RecordType::kA,
                   [this, i](const StubResult& r) {
                     ++outcomes_[i].calls;
                     outcomes_[i].ok = r.ok;
                   });
  }

  struct Outcome {
    int calls = 0;
    bool ok = false;
  };

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId client_;
  simnet::NodeId server_;
  simnet::NodeId upstream_;
  std::unique_ptr<StubResolver> stub_;
  std::vector<Outcome> outcomes_;
};

TEST_F(LifetimeTest, PluginChainServerDestroyedWithQueriesInFlight) {
  AuthoritativeServer upstream(net_.runtime(upstream_), "upstream",
                               LatencyModel::constant(SimTime::millis(5)));
  Zone& zone = upstream.add_zone(DnsName::must_parse("mycdn.test"));
  zone.must_add(make_a(DnsName::must_parse("video.mycdn.test"),
                       Ipv4Address::must_parse("198.18.5.5"), 30));

  auto server = std::make_unique<PluginChainServer>(
      net_.runtime(server_), "coredns",
      LatencyModel::constant(SimTime::micros(400)));
  PluginChain& chain = server->add_default_view("public");
  chain.add(std::make_unique<CachePlugin>(std::make_shared<DnsCache>(16)));
  chain.add(std::make_unique<ForwardPlugin>(
      DnsName::must_parse("mycdn.test"),
      std::vector<Endpoint>{{kUpstream, kDnsPort}}, server->transport()));

  // The first query is forwarded at 1.4 ms: its responder (wrapped by the
  // cache plugin) is held by the forward transaction until ~13 ms.
  lookup("video.mycdn.test");
  sim_.run_until(SimTime::micros(1500));
  // The second arrives at 2.5 ms and waits in the server's in-flight
  // storage for its processing event at 2.9 ms.
  lookup("video.mycdn.test");
  sim_.run_until(SimTime::micros(2600));
  server.reset();
  sim_.run();

  ASSERT_EQ(outcomes_.size(), 2u);
  for (const Outcome& o : outcomes_) {
    EXPECT_EQ(o.calls, 1);
    EXPECT_FALSE(o.ok);  // nothing answered: both time out at the stub
  }
}

TEST_F(LifetimeTest, WorkerLimitedServerDestroyedWithQueriesInFlight) {
  // One worker: the first query is in its 5 ms processing delay (arrived
  // 1 ms, due 6 ms) while the second waits in the worker FIFO.
  auto server = std::make_unique<AuthoritativeServer>(
      net_.runtime(server_), "auth",
      LatencyModel::constant(SimTime::millis(5)));
  server->set_service_capacity(1, 4);
  Zone& zone = server->add_zone(DnsName::must_parse("mec.test"));
  zone.must_add(make_a(DnsName::must_parse("video.mec.test"),
                       Ipv4Address::must_parse("192.0.2.7"), 30));

  lookup("video.mec.test");
  lookup("video.mec.test");
  sim_.run_until(SimTime::millis(2));
  ASSERT_EQ(server->stats().queries, 2u);
  ASSERT_EQ(server->queue_depth(), 1u);
  server.reset();
  sim_.run();

  ASSERT_EQ(outcomes_.size(), 2u);
  for (const Outcome& o : outcomes_) {
    EXPECT_EQ(o.calls, 1);
    EXPECT_FALSE(o.ok);  // neither is processed: both time out at the stub
  }
}

TEST_F(LifetimeTest, TrafficRouterDestroyedWithQueriesInFlight) {
  cdn::TrafficRouter::Config config;
  config.cdn_domain = DnsName::must_parse("mycdn.test");
  config.use_ecs = true;
  auto router = std::make_unique<cdn::TrafficRouter>(
      net_.runtime(server_), "router",
      LatencyModel::constant(SimTime::micros(500)), config);
  router->add_cache("edge", cdn::CacheInfo{
                                "edge-0", Ipv4Address::must_parse("10.96.1.1"),
                                true});
  router->add_delivery_service(cdn::DeliveryService{
      "demo1", DnsName::must_parse("demo1.mycdn.test"), {"edge"}});
  router->coverage().set_default_group("edge");

  // With ECS, the first answer is held by the router's ECS-delay timer
  // (handled at 1.5 ms, due at 1.65 ms) ...
  ClientSubnet ecs;
  ecs.address = kClient;
  ecs.source_prefix = 24;
  outcomes_.emplace_back();
  stub_->resolve_with_ecs(DnsName::must_parse("a.demo1.mycdn.test"),
                          RecordType::kA, ecs, [this](const StubResult& r) {
                            ++outcomes_[0].calls;
                            outcomes_[0].ok = r.ok;
                          });
  sim_.run_until(SimTime::micros(550));
  // ... while the second waits in in-flight storage (arrives 1.55 ms,
  // processed 2.05 ms).
  lookup("b.demo1.mycdn.test");
  sim_.run_until(SimTime::micros(1600));
  router.reset();
  sim_.run();

  ASSERT_EQ(outcomes_.size(), 2u);
  for (const Outcome& o : outcomes_) {
    EXPECT_EQ(o.calls, 1);
    EXPECT_FALSE(o.ok);
  }
}

TEST_F(LifetimeTest, RecursiveResolverDestroyedWithQueriesInFlight) {
  // The root hint never answers: the first query's responder is held by
  // its job's upstream transaction.
  RecursiveResolver::Config config;
  config.root_servers = {{kUpstream, kDnsPort}};
  config.upstream.timeout = SimTime::millis(50);
  auto resolver = std::make_unique<RecursiveResolver>(
      net_.runtime(server_), "resolver",
      LatencyModel::constant(SimTime::micros(800)), config, kServer);

  lookup("www.example.com");
  sim_.run_until(SimTime::micros(2000));
  lookup("www.example.com");  // in in-flight storage at 3.1 ms
  sim_.run_until(SimTime::micros(3100));
  resolver.reset();
  sim_.run();

  ASSERT_EQ(outcomes_.size(), 2u);
  for (const Outcome& o : outcomes_) {
    EXPECT_EQ(o.calls, 1);
    EXPECT_FALSE(o.ok);
  }
}

TEST_F(LifetimeTest, StubCallbackRunsOnceOnAnswer) {
  AuthoritativeServer server(net_.runtime(server_), "auth",
                             LatencyModel::constant(SimTime::micros(100)));
  Zone& zone = server.add_zone(DnsName::must_parse("mec.test"));
  zone.must_add(make_a(DnsName::must_parse("video.mec.test"),
                       Ipv4Address::must_parse("192.0.2.7"), 30));
  lookup("video.mec.test");
  sim_.run();
  ASSERT_EQ(outcomes_.size(), 1u);
  EXPECT_EQ(outcomes_[0].calls, 1);
  EXPECT_TRUE(outcomes_[0].ok);
}

TEST_F(LifetimeTest, StubCallbackRunsOnceOnTimeout) {
  // Nothing listens on the server node's port 53.
  lookup("video.mec.test");
  sim_.run();
  ASSERT_EQ(outcomes_.size(), 1u);
  EXPECT_EQ(outcomes_[0].calls, 1);
  EXPECT_FALSE(outcomes_[0].ok);
  EXPECT_EQ(stub_->transport().timeouts(), 1u);
}

TEST_F(LifetimeTest, StubCallbackRunsOnceOnIdExhaustion) {
  // A long timeout keeps all 65535 transaction ids in flight; the next
  // lookup fails fast, once, from the event loop.
  DnsTransport::Options options;
  options.timeout = SimTime::seconds(30);
  StubResolver stub(net_.runtime(client_), Endpoint{kServer, kDnsPort},
                    options);
  int in_flight_calls = 0;
  const DnsName name = DnsName::must_parse("video.mec.test");
  for (int i = 0; i < 0xFFFF; ++i) {
    stub.resolve(name, RecordType::kA,
                 [&in_flight_calls](const StubResult&) { ++in_flight_calls; });
  }
  int calls = 0;
  std::string error;
  stub.resolve(name, RecordType::kA, [&](const StubResult& r) {
    ++calls;
    error = r.error;
  });
  EXPECT_EQ(calls, 0);  // never re-entrant
  sim_.run_until(SimTime::millis(1));
  EXPECT_EQ(calls, 1);
  EXPECT_NE(error.find("exhausted"), std::string::npos);
  EXPECT_EQ(stub.transport().id_exhausted(), 1u);
  EXPECT_EQ(in_flight_calls, 0);
  sim_.run();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(in_flight_calls, 0xFFFF);  // each timed out, once
}

}  // namespace
}  // namespace mecdns::dns
