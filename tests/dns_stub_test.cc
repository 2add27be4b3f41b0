// Stub resolver behaviours: multicast racing and CNAME chasing.
#include <gtest/gtest.h>

#include "dns/server.h"
#include "dns/stub.h"

namespace mecdns::dns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class StubTest : public ::testing::Test {
 protected:
  StubTest() : net_(sim_, util::Rng(55)) {
    client_ = net_.add_node("client", Ipv4Address::must_parse("10.0.0.1"));

    // "fast" server: 1ms away, authoritative for fast.test, refuses others.
    fast_node_ = net_.add_node("fast", Ipv4Address::must_parse("10.0.0.2"));
    net_.add_link(client_, fast_node_,
                  LatencyModel::constant(SimTime::millis(1)));
    fast_ = std::make_unique<AuthoritativeServer>(
        net_.runtime(fast_node_), "fast",
        LatencyModel::constant(SimTime::micros(100)));
    Zone& fast_zone = fast_->add_zone(DnsName::must_parse("fast.test"));
    fast_zone.must_add(make_a(DnsName::must_parse("www.fast.test"),
                              Ipv4Address::must_parse("198.18.1.1"), 30));
    fast_zone.must_add(make_cname(DnsName::must_parse("hop.fast.test"),
                                  DnsName::must_parse("www.slow.test"), 30));

    // "slow" server: 20ms away, authoritative for slow.test AND fast.test
    // (returns a different answer for the shared name).
    slow_node_ = net_.add_node("slow", Ipv4Address::must_parse("10.0.0.3"));
    net_.add_link(client_, slow_node_,
                  LatencyModel::constant(SimTime::millis(20)));
    slow_ = std::make_unique<AuthoritativeServer>(
        net_.runtime(slow_node_), "slow",
        LatencyModel::constant(SimTime::micros(100)));
    Zone& slow_fast_zone = slow_->add_zone(DnsName::must_parse("fast.test"));
    slow_fast_zone.must_add(make_a(DnsName::must_parse("www.fast.test"),
                                   Ipv4Address::must_parse("198.18.2.2"),
                                   30));
    Zone& slow_zone = slow_->add_zone(DnsName::must_parse("slow.test"));
    slow_zone.must_add(make_a(DnsName::must_parse("www.slow.test"),
                              Ipv4Address::must_parse("198.18.3.3"), 30));

    stub_ = std::make_unique<StubResolver>(
        net_.runtime(client_), Endpoint{Ipv4Address::must_parse("10.0.0.2"),
                                kDnsPort});
  }

  StubResult resolve(const std::string& name) {
    StubResult out;
    stub_->resolve(DnsName::must_parse(name), RecordType::kA,
                   [&](const StubResult& result) { out = result; });
    sim_.run();
    return out;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId client_;
  simnet::NodeId fast_node_;
  simnet::NodeId slow_node_;
  std::unique_ptr<AuthoritativeServer> fast_;
  std::unique_ptr<AuthoritativeServer> slow_;
  std::unique_ptr<StubResolver> stub_;
};

TEST_F(StubTest, MulticastFirstAnswerWins) {
  stub_->set_secondary(Endpoint{Ipv4Address::must_parse("10.0.0.3"),
                                kDnsPort});
  const StubResult result = resolve("www.fast.test");
  ASSERT_TRUE(result.ok);
  // Both servers answer; the near one wins the race.
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.1.1"));
  EXPECT_EQ(result.answered_by, 0);
  EXPECT_LT(result.latency, SimTime::millis(5));
}

TEST_F(StubTest, MulticastRefusedLosesToRealAnswer) {
  stub_->set_secondary(Endpoint{Ipv4Address::must_parse("10.0.0.3"),
                                kDnsPort});
  // Only the slow server knows slow.test; the fast one REFUSES instantly.
  const StubResult result = resolve("www.slow.test");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.3.3"));
  EXPECT_EQ(result.answered_by, 1);
  EXPECT_GT(result.latency, SimTime::millis(35));
}

TEST_F(StubTest, MulticastBothRefuseReportsRefusal) {
  stub_->set_secondary(Endpoint{Ipv4Address::must_parse("10.0.0.3"),
                                kDnsPort});
  const StubResult result = resolve("www.nowhere.org");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.rcode, RCode::kRefused);
}

TEST_F(StubTest, MulticastSurvivesDeadPrimary) {
  net_.set_node_up(fast_node_, false);
  StubResolver stub(net_.runtime(client_),
                    Endpoint{Ipv4Address::must_parse("10.0.0.2"), kDnsPort},
                    DnsTransport::Options{SimTime::millis(200), 0});
  stub.set_secondary(Endpoint{Ipv4Address::must_parse("10.0.0.3"), kDnsPort});
  StubResult out;
  stub.resolve(DnsName::must_parse("www.slow.test"), RecordType::kA,
               [&](const StubResult& result) { out = result; });
  sim_.run();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.answered_by, 1);
}

TEST_F(StubTest, ChaseFollowsCrossServerCname) {
  // hop.fast.test -> CNAME www.slow.test, out of the fast server's zones.
  stub_->set_secondary(Endpoint{Ipv4Address::must_parse("10.0.0.3"),
                                kDnsPort});
  stub_->set_chase_cnames(true);
  const StubResult result = resolve("hop.fast.test");
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.3.3"));
  // Latency accumulates across both legs.
  EXPECT_GT(result.latency, SimTime::millis(40));
}

TEST_F(StubTest, NoChaseReturnsBareCname) {
  const StubResult result = resolve("hop.fast.test");
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(result.address.has_value());
}

TEST_F(StubTest, RetargetSwitchesServers) {
  EXPECT_EQ(*resolve("www.fast.test").address,
            Ipv4Address::must_parse("198.18.1.1"));
  stub_->set_server(Endpoint{Ipv4Address::must_parse("10.0.0.3"), kDnsPort});
  // Same name, different authority now answers with its own record.
  EXPECT_EQ(*resolve("www.fast.test").address,
            Ipv4Address::must_parse("198.18.2.2"));
}

TEST_F(StubTest, AnsweredLookupLeavesNoTimerBehind) {
  // The answer cancels the transport's retransmission timer, so the
  // simulation ends with the answer, not one 2 s timeout later.
  bool answered = false;
  SimTime answered_at;
  stub_->resolve(DnsName::must_parse("www.fast.test"), RecordType::kA,
                 [&](const StubResult& result) {
                   answered = result.ok;
                   answered_at = sim_.now();
                 });
  while (!answered && sim_.step()) {
  }
  ASSERT_TRUE(answered);
  EXPECT_EQ(sim_.pending(), 0u);
  sim_.run();
  EXPECT_EQ(sim_.now(), answered_at);
}

}  // namespace
}  // namespace mecdns::dns
