// Link bandwidth and forwarder failover tests.
#include <gtest/gtest.h>

#include "cdn/cache_server.h"
#include "dns/plugin.h"
#include "dns/stub.h"

namespace mecdns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class BandwidthTest : public ::testing::Test {
 protected:
  BandwidthTest() : net_(sim_, util::Rng(141)) {
    a_ = net_.add_node("a", Ipv4Address::must_parse("10.0.0.1"));
    b_ = net_.add_node("b", Ipv4Address::must_parse("10.0.0.2"));
    link_ = net_.add_link(a_, b_,
                          LatencyModel::constant(SimTime::millis(5)));
  }

  SimTime one_way(std::size_t virtual_size) {
    SimTime arrival;
    simnet::UdpSocket* receiver =
        net_.open_socket(b_, 80, [&](const simnet::Packet&) {
          arrival = net_.now();
        });
    net_.open_socket(a_, 0, nullptr)
        ->send_to(Endpoint{Ipv4Address::must_parse("10.0.0.2"), 80}, {1, 2},
                  virtual_size);
    sim_.run();
    net_.close_socket(receiver);
    return arrival;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId a_;
  simnet::NodeId b_;
  simnet::LinkId link_;
};

TEST_F(BandwidthTest, UnlimitedByDefault) {
  EXPECT_EQ(one_way(100 * 1024 * 1024), SimTime::millis(5));
}

TEST_F(BandwidthTest, TransmissionDelayScalesWithSize) {
  net_.set_link_bandwidth(link_, 8'000'000);  // 8 Mbit/s = 1 MB/s
  const SimTime small = one_way(1000);        // +1 ms
  EXPECT_EQ(small, SimTime::millis(5) + SimTime::millis(1) +
                       SimTime::millis(5) * 0);  // 5ms prop + 1ms tx
  // Re-run with a megabyte: +1000 ms.
  net_.set_link_bandwidth(link_, 8'000'000);
  const SimTime big = one_way(1'000'000);
  EXPECT_EQ(big, small + SimTime::seconds(0.999) + SimTime::millis(5) * 0 +
                     (SimTime::millis(5) + SimTime::millis(1)));
}

TEST_F(BandwidthTest, PayloadSizeUsedWhenNoVirtualSize) {
  net_.set_link_bandwidth(link_, 8000);  // 1 kB/s
  // 2-byte payload => 2 ms transmission.
  EXPECT_EQ(one_way(0), SimTime::millis(5) + SimTime::millis(2));
}

TEST_F(BandwidthTest, ContentFetchTimeScalesWithObjectSize) {
  // Cache server behind a 16 Mbit/s access link: a 2 MB object takes ~1 s
  // to transfer, a 4 kB manifest is immediate.
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(3));
  const simnet::NodeId client =
      net.add_node("client", Ipv4Address::must_parse("10.1.0.1"));
  const simnet::NodeId edge =
      net.add_node("edge", Ipv4Address::must_parse("10.1.0.2"));
  const simnet::LinkId access =
      net.add_link(client, edge, LatencyModel::constant(SimTime::millis(10)));
  net.set_link_bandwidth(access, 16'000'000);

  cdn::CacheServer::Config config;
  cdn::CacheServer cache(net.runtime(edge), "edge", config);
  cache.warm(cdn::ContentObject{cdn::Url::must_parse("v.test/big"),
                                2 * 1024 * 1024});
  cache.warm(cdn::ContentObject{cdn::Url::must_parse("v.test/small"), 4096});

  cdn::ContentClient fetcher(net.runtime(client));
  SimTime big_time;
  SimTime small_time;
  fetcher.get(Endpoint{Ipv4Address::must_parse("10.1.0.2"),
                       cdn::kContentPort},
              cdn::Url::must_parse("v.test/big"),
              [&](util::Result<cdn::ContentResponse> r, SimTime latency) {
                ASSERT_TRUE(r.ok());
                big_time = latency;
              },
              SimTime::seconds(10));
  sim.run();
  fetcher.get(Endpoint{Ipv4Address::must_parse("10.1.0.2"),
                       cdn::kContentPort},
              cdn::Url::must_parse("v.test/small"),
              [&](util::Result<cdn::ContentResponse> r, SimTime latency) {
                ASSERT_TRUE(r.ok());
                small_time = latency;
              },
              SimTime::seconds(10));
  sim.run();
  // 2 MiB * 8 / 16 Mbit/s ~ 1.05 s transfer.
  EXPECT_GT(big_time, SimTime::seconds(1.0));
  EXPECT_LT(small_time, SimTime::millis(25));
}

// --- forwarder failover -----------------------------------------------------------

TEST(ForwardFailover, SecondUpstreamAnswersWhenFirstIsDead) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(151));
  const simnet::NodeId client =
      net.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
  const simnet::NodeId proxy =
      net.add_node("proxy", Ipv4Address::must_parse("10.0.0.2"));
  const simnet::NodeId up1 =
      net.add_node("up1", Ipv4Address::must_parse("10.0.0.3"));
  const simnet::NodeId up2 =
      net.add_node("up2", Ipv4Address::must_parse("10.0.0.4"));
  net.add_link(client, proxy, LatencyModel::constant(SimTime::millis(1)));
  net.add_link(proxy, up1, LatencyModel::constant(SimTime::millis(1)));
  net.add_link(proxy, up2, LatencyModel::constant(SimTime::millis(1)));

  const auto make_auth = [&](simnet::NodeId node, const char* name,
                             const char* answer) {
    auto server = std::make_unique<dns::AuthoritativeServer>(
        net.runtime(node), name, LatencyModel::constant(SimTime::micros(100)));
    dns::Zone& zone = server->add_zone(dns::DnsName::must_parse("f.test"));
    zone.must_add(dns::make_a(dns::DnsName::must_parse("www.f.test"),
                              Ipv4Address::must_parse(answer), 30));
    return server;
  };
  auto auth1 = make_auth(up1, "up1", "198.18.0.1");
  auto auth2 = make_auth(up2, "up2", "198.18.0.2");
  net.set_node_up(up1, false);  // primary upstream is down

  dns::PluginChainServer server(net.runtime(proxy), "proxy",
                                LatencyModel::constant(SimTime::micros(200)));
  dns::PluginChain& chain = server.add_default_view("default");
  dns::DnsTransport::Options options;
  options.timeout = SimTime::millis(100);
  auto forward = std::make_unique<dns::ForwardPlugin>(
      dns::DnsName::root(),
      std::vector<Endpoint>{
          {Ipv4Address::must_parse("10.0.0.3"), dns::kDnsPort},
          {Ipv4Address::must_parse("10.0.0.4"), dns::kDnsPort}},
      server.transport(), options);
  dns::ForwardPlugin* forward_ptr = forward.get();
  chain.add(std::move(forward));

  dns::StubResolver stub(net.runtime(client),
                         Endpoint{Ipv4Address::must_parse("10.0.0.2"),
                                  dns::kDnsPort},
                         dns::DnsTransport::Options{SimTime::seconds(2), 0});
  dns::StubResult out;
  stub.resolve(dns::DnsName::must_parse("www.f.test"), dns::RecordType::kA,
               [&](const dns::StubResult& result) { out = result; });
  sim.run();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(*out.address, Ipv4Address::must_parse("198.18.0.2"));
  EXPECT_EQ(forward_ptr->failovers(), 1u);
  EXPECT_EQ(forward_ptr->upstream_failures(), 1u);
  // The answer took at least the failover timeout.
  EXPECT_GT(out.latency, SimTime::millis(100));
}

}  // namespace
}  // namespace mecdns
