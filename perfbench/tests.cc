// The benchmark's own tests: percentile reporting and node -> layer step
// attribution.
#include <gtest/gtest.h>

#include <numeric>

#include "common.h"
#include "dns/server.h"
#include "dns/stub.h"
#include "step_tracer.h"

namespace perfbench {
namespace {

using namespace mecdns;

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, ReportsValueSampleCountAndSamplesBeyond) {
  std::vector<double> v = one_to(1000);
  const Percentile p99 = percentile(v, 99.0);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported());

  const Percentile p50 = percentile(v, 50.0);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  std::vector<double> v = one_to(999);
  const Percentile p99 = percentile(v, 99.0);
  EXPECT_EQ(p99.samples, 999u);
  EXPECT_EQ(p99.beyond, 9u);
  EXPECT_FALSE(p99.supported());

  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50.0).samples, 0u);
  EXPECT_FALSE(percentile(empty, 50.0).supported());
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Layer, TestbedNodeNamesMapToLayers) {
  EXPECT_EQ(layer_of("ue"), Layer::kStub);
  EXPECT_EQ(layer_of("lte-enb"), Layer::kRan);
  EXPECT_EQ(layer_of("lte-sgw"), Layer::kRan);
  EXPECT_EQ(layer_of("lte-pgw"), Layer::kRan);
  EXPECT_EQ(layer_of("internet-backbone"), Layer::kForward);
  EXPECT_EQ(layer_of("mec-gw"), Layer::kForward);
  EXPECT_EQ(layer_of("mec-infra"), Layer::kLdns);
  EXPECT_EQ(layer_of("mec-router"), Layer::kRouter);
  EXPECT_EQ(layer_of("wan-cdns"), Layer::kRouter);
  EXPECT_EQ(layer_of("provider-ldns"), Layer::kRecursive);
  EXPECT_EQ(layer_of("dns-root"), Layer::kAuth);
  EXPECT_EQ(layer_of("dns-tld-test"), Layer::kAuth);
  EXPECT_EQ(layer_of("cloud-cache"), Layer::kOther);
}

// Two nodes: a UE stub and an authoritative server. The server's arrival
// step, its processing timer (charged through the response's first hop)
// and the response's origin step all belong to the server; the query's
// origin step and the answer's arrival belong to the UE; a timer that
// sends nothing is idle.
TEST(StepTracer, ChargesEachStepToTheNodeItRanOn) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(3));
  const simnet::NodeId ue =
      net.add_node("ue", simnet::Ipv4Address::must_parse("10.0.0.1"));
  const simnet::NodeId root =
      net.add_node("dns-root", simnet::Ipv4Address::must_parse("10.0.0.2"));
  net.add_link(ue, root,
               simnet::LatencyModel::constant(simnet::SimTime::millis(1)));
  dns::AuthoritativeServer server(
      net, root, "root",
      simnet::LatencyModel::constant(simnet::SimTime::micros(500)));
  dns::Zone& zone = server.add_zone(dns::DnsName::must_parse("example.com"));
  zone.must_add(dns::make_a(dns::DnsName::must_parse("www.example.com"),
                            simnet::Ipv4Address::must_parse("198.18.0.1"),
                            60));
  dns::StubResolver stub(
      net, ue,
      simnet::Endpoint{simnet::Ipv4Address::must_parse("10.0.0.2"),
                       dns::kDnsPort});

  StepTracer tracer(net);
  bool answered = false;
  stub.resolve(dns::DnsName::must_parse("www.example.com"),
               dns::RecordType::kA,
               [&](const dns::StubResult& r) { answered = r.ok; });
  sim.schedule_after(simnet::SimTime::seconds(30), [] {});
  const std::size_t before = sim.executed();
  tracer.run();

  EXPECT_TRUE(answered);
  EXPECT_EQ(tracer.steps(), sim.executed() - before);
  EXPECT_EQ(tracer.node_steps(ue), 2u);
  EXPECT_EQ(tracer.node_steps(root), 3u);
  EXPECT_GE(tracer.idle_timers(), 1u);
  EXPECT_EQ(tracer.steps(), 5u + tracer.idle_timers());
  EXPECT_EQ(tracer.unresolved_ns(), 0);
  EXPECT_GT(tracer.layer_ns(Layer::kAuth), 0);
  EXPECT_GT(tracer.layer_ns(Layer::kStub), 0);
  EXPECT_EQ(tracer.layer_ns(Layer::kRan), 0);
  EXPECT_EQ(tracer.arrivals(), 4u);  // two packets, two nodes each
  EXPECT_EQ(tracer.total_ns(), tracer.layer_ns(Layer::kAuth) +
                                   tracer.layer_ns(Layer::kStub) +
                                   tracer.idle_ns());
}

TEST(StepTracer, PumpStepsSplitIntoIssueSpansAndGeneratorTime) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(3));
  net.add_node("ue", simnet::Ipv4Address::must_parse("10.0.0.1"));
  StepTracer tracer(net);
  sim.schedule_after(simnet::SimTime::millis(1),
                     [&] { tracer.add_issue_span(0); });
  tracer.run();
  EXPECT_EQ(tracer.steps(), 1u);
  EXPECT_EQ(tracer.idle_timers(), 0u);
  EXPECT_EQ(tracer.issue_ns(), 0);
  EXPECT_EQ(tracer.pump_ns(), tracer.total_ns());
}

}  // namespace
}  // namespace perfbench
