// Measurement-harness unit tests: SeriesResult aggregation and QueryRunner
// scheduling semantics.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "dns/server.h"

namespace mecdns::core {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

TEST(SeriesResult, AggregatesSplitByValidity) {
  SeriesResult series;
  QuerySample good;
  good.ok = true;
  good.total_ms = 30;
  good.wireless_ms = 20;
  good.beyond_pgw_ms = 10;
  good.breakdown_valid = true;
  good.address = Ipv4Address::must_parse("10.96.0.11");
  series.samples.push_back(good);

  QuerySample no_breakdown = good;
  no_breakdown.total_ms = 40;
  no_breakdown.breakdown_valid = false;
  series.samples.push_back(no_breakdown);

  QuerySample failed;
  failed.ok = false;
  series.samples.push_back(failed);

  EXPECT_EQ(series.totals().size(), 2u);
  EXPECT_DOUBLE_EQ(series.totals().mean(), 35.0);
  EXPECT_EQ(series.wireless().size(), 1u);
  EXPECT_EQ(series.beyond_pgw().size(), 1u);
  EXPECT_EQ(series.failures(), 1u);
  EXPECT_DOUBLE_EQ(series.answer_share([](Ipv4Address a) {
                     return a == Ipv4Address::must_parse("10.96.0.11");
                   }),
                   1.0);
}

class QueryRunnerTest : public ::testing::Test {
 protected:
  QueryRunnerTest() : net_(sim_, util::Rng(71)) {
    const simnet::NodeId server_node =
        net_.add_node("server", Ipv4Address::must_parse("10.0.0.2"));
    client_node_ = net_.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
    net_.add_link(client_node_, server_node,
                  LatencyModel::constant(SimTime::millis(2)));
    server_ = std::make_unique<dns::AuthoritativeServer>(
        net_.runtime(server_node), "auth",
        LatencyModel::constant(SimTime::micros(100)));
    dns::Zone& zone = server_->add_zone(dns::DnsName::must_parse("x.test"));
    zone.must_add(dns::make_a(dns::DnsName::must_parse("www.x.test"),
                              Ipv4Address::must_parse("198.18.0.1"), 0));
    stub_ = std::make_unique<dns::StubResolver>(
        net_.runtime(client_node_),
        Endpoint{Ipv4Address::must_parse("10.0.0.2"), dns::kDnsPort});
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId client_node_;
  std::unique_ptr<dns::AuthoritativeServer> server_;
  std::unique_ptr<dns::StubResolver> stub_;
};

TEST_F(QueryRunnerTest, RunsExactlyTheMeasuredQueries) {
  QueryRunner runner(net_, *stub_);
  QueryRunner::Options options;
  options.queries = 7;
  options.warmup = 3;
  options.spacing = SimTime::millis(100);
  const SeriesResult result = runner.run(
      dns::DnsName::must_parse("www.x.test"), dns::RecordType::kA, options);
  EXPECT_EQ(result.samples.size(), 7u);  // warmups excluded
  EXPECT_EQ(result.failures(), 0u);
  EXPECT_EQ(server_->stats().queries, 10u);  // but they did hit the server
}

TEST_F(QueryRunnerTest, SamplesCarryLatency) {
  QueryRunner runner(net_, *stub_);
  QueryRunner::Options options;
  options.queries = 4;
  options.spacing = SimTime::millis(50);
  const SeriesResult result = runner.run(
      dns::DnsName::must_parse("www.x.test"), dns::RecordType::kA, options);
  for (const auto& sample : result.samples) {
    EXPECT_NEAR(sample.total_ms, 4.1, 0.2);  // 2x2ms link + processing
    EXPECT_FALSE(sample.breakdown_valid);    // no tap installed
  }
}

TEST_F(QueryRunnerTest, NxDomainCountsAsFailure) {
  QueryRunner runner(net_, *stub_);
  QueryRunner::Options options;
  options.queries = 3;
  const SeriesResult result = runner.run(
      dns::DnsName::must_parse("missing.x.test"), dns::RecordType::kA,
      options);
  EXPECT_EQ(result.failures(), 3u);
  for (const auto& sample : result.samples) {
    EXPECT_EQ(sample.rcode, dns::RCode::kNxDomain);
  }
}

TEST_F(QueryRunnerTest, EcsOptionFlowsThrough) {
  QueryRunner runner(net_, *stub_);
  QueryRunner::Options options;
  options.queries = 1;
  options.with_ecs = true;
  options.ecs.address = Ipv4Address::must_parse("203.0.113.0");
  options.ecs.source_prefix = 24;
  const SeriesResult result = runner.run(
      dns::DnsName::must_parse("www.x.test"), dns::RecordType::kA, options);
  EXPECT_EQ(result.failures(), 0u);
}

}  // namespace
}  // namespace mecdns::core
