// Forwarder failover tests: a ForwardPlugin whose first upstream is down
// answers from the second after one timeout.
#include <gtest/gtest.h>

#include "dns/plugin.h"
#include "dns/stub.h"

namespace mecdns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

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
