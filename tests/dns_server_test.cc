// Authoritative server behaviour over the simulated network.
#include <gtest/gtest.h>

#include "dns/server.h"
#include "dns/stub.h"

namespace mecdns::dns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class AuthServerTest : public ::testing::Test {
 protected:
  AuthServerTest() : net_(sim_, util::Rng(5)) {
    client_node_ = net_.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
    server_node_ = net_.add_node("server", Ipv4Address::must_parse("10.0.0.2"));
    net_.add_link(client_node_, server_node_,
                  LatencyModel::constant(SimTime::millis(1)));
    server_ = std::make_unique<AuthoritativeServer>(
        net_.runtime(server_node_), "auth",
        LatencyModel::constant(SimTime::micros(500)));
    Zone& zone = server_->add_zone(DnsName::must_parse("example.com"));
    zone.must_add(make_soa(DnsName::must_parse("example.com"),
                           DnsName::must_parse("ns1.example.com"), 1, 300,
                           3600));
    zone.must_add(make_a(DnsName::must_parse("www.example.com"),
                         Ipv4Address::must_parse("198.18.0.1"), 60));
    zone.must_add(make_cname(DnsName::must_parse("alias.example.com"),
                             DnsName::must_parse("www.example.com"), 60));
    zone.must_add(make_cname(DnsName::must_parse("hop1.example.com"),
                             DnsName::must_parse("hop2.example.com"), 60));
    zone.must_add(make_cname(DnsName::must_parse("hop2.example.com"),
                             DnsName::must_parse("www.example.com"), 60));
    zone.must_add(make_cname(DnsName::must_parse("loop-a.example.com"),
                             DnsName::must_parse("loop-b.example.com"), 60));
    zone.must_add(make_cname(DnsName::must_parse("loop-b.example.com"),
                             DnsName::must_parse("loop-a.example.com"), 60));
    zone.must_add(make_cname(DnsName::must_parse("away.example.com"),
                             DnsName::must_parse("elsewhere.net"), 60));
    stub_ = std::make_unique<StubResolver>(
        net_.runtime(client_node_),
        Endpoint{Ipv4Address::must_parse("10.0.0.2"), kDnsPort});
  }

  StubResult resolve(const std::string& name,
                     RecordType type = RecordType::kA) {
    StubResult out;
    stub_->resolve(DnsName::must_parse(name), type,
                   [&](const StubResult& result) { out = result; });
    sim_.run();
    return out;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId client_node_;
  simnet::NodeId server_node_;
  std::unique_ptr<AuthoritativeServer> server_;
  std::unique_ptr<StubResolver> stub_;
};

TEST_F(AuthServerTest, AnswersARecord) {
  const StubResult result = resolve("www.example.com");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.0.1"));
  EXPECT_TRUE(result.response.header.aa);
  // latency = 2ms RTT + 0.5ms processing
  EXPECT_EQ(result.latency, SimTime::micros(2500));
}

TEST_F(AuthServerTest, ChasesCnameInZone) {
  const StubResult result = resolve("alias.example.com");
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.response.answers.size(), 2u);  // CNAME + A
  EXPECT_EQ(result.response.answers[0].type, RecordType::kCname);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.0.1"));
}

TEST_F(AuthServerTest, ChasesMultiHopCname) {
  const StubResult result = resolve("hop1.example.com");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response.answers.size(), 3u);  // 2x CNAME + A
}

TEST_F(AuthServerTest, CnameLoopAnswersServfail) {
  const StubResult result = resolve("loop-a.example.com");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.rcode, RCode::kServFail);
}

TEST_F(AuthServerTest, CnameOutOfZoneReturnsPartialChain) {
  const StubResult result = resolve("away.example.com");
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.response.answers.size(), 1u);
  EXPECT_EQ(result.response.answers[0].type, RecordType::kCname);
  EXPECT_FALSE(result.address.has_value());
}

TEST_F(AuthServerTest, NxDomainCarriesSoa) {
  const StubResult result = resolve("missing.example.com");
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.rcode, RCode::kNxDomain);
  ASSERT_EQ(result.response.authorities.size(), 1u);
  EXPECT_EQ(result.response.authorities[0].type, RecordType::kSoa);
}

TEST_F(AuthServerTest, NoDataCarriesSoa) {
  const StubResult result = resolve("www.example.com", RecordType::kTxt);
  EXPECT_TRUE(result.rcode == RCode::kNoError);
  EXPECT_TRUE(result.response.answers.empty());
  ASSERT_EQ(result.response.authorities.size(), 1u);
}

TEST_F(AuthServerTest, RefusesOutOfZone) {
  const StubResult result = resolve("www.other.net");
  EXPECT_EQ(result.rcode, RCode::kRefused);
  EXPECT_EQ(server_->stats().refused, 1u);
}

TEST_F(AuthServerTest, DelegationReturnsReferral) {
  Zone* zone = server_->find_zone(DnsName::must_parse("example.com"));
  zone->must_add(make_ns(DnsName::must_parse("child.example.com"),
                         DnsName::must_parse("ns1.child.example.com"), 3600));
  zone->must_add(make_a(DnsName::must_parse("ns1.child.example.com"),
                        Ipv4Address::must_parse("198.18.0.53"), 3600));
  const StubResult result = resolve("www.child.example.com");
  EXPECT_TRUE(result.response.answers.empty());
  EXPECT_FALSE(result.response.header.aa);
  ASSERT_EQ(result.response.authorities.size(), 1u);
  EXPECT_EQ(result.response.authorities[0].type, RecordType::kNs);
  ASSERT_EQ(result.response.additionals.size(), 1u);  // glue
}

TEST_F(AuthServerTest, EcsEchoedWithScopeZero) {
  StubResult out;
  ClientSubnet ecs;
  ecs.address = Ipv4Address::must_parse("203.0.113.0");
  ecs.source_prefix = 24;
  ecs.scope_prefix = 0;
  stub_->resolve_with_ecs(DnsName::must_parse("www.example.com"),
                          RecordType::kA, ecs,
                          [&](const StubResult& result) { out = result; });
  sim_.run();
  EXPECT_TRUE(out.ok);
  ASSERT_TRUE(out.response.edns.has_value());
  ASSERT_TRUE(out.response.edns->client_subnet.has_value());
  EXPECT_EQ(out.response.edns->client_subnet->scope_prefix, 0);
  EXPECT_EQ(out.response.edns->client_subnet->subnet().to_string(),
            "203.0.113.0/24");
}

TEST_F(AuthServerTest, LongestZoneWins) {
  Zone& child = server_->add_zone(DnsName::must_parse("sub.example.com"));
  child.must_add(make_soa(DnsName::must_parse("sub.example.com"),
                          DnsName::must_parse("ns1.sub.example.com"), 1, 60,
                          60));
  child.must_add(make_a(DnsName::must_parse("www.sub.example.com"),
                        Ipv4Address::must_parse("198.18.9.9"), 60));
  const StubResult result = resolve("www.sub.example.com");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.9.9"));
}

TEST_F(AuthServerTest, CnameIntoAnotherHostedZoneIsChased) {
  Zone& net_zone = server_->add_zone(DnsName::must_parse("example.net"));
  net_zone.must_add(make_soa(DnsName::must_parse("example.net"),
                             DnsName::must_parse("ns1.example.net"), 1, 60,
                             60));
  net_zone.must_add(make_a(DnsName::must_parse("www.example.net"),
                           Ipv4Address::must_parse("198.18.7.7"), 60));
  server_->find_zone(DnsName::must_parse("example.com"))
      ->must_add(make_cname(DnsName::must_parse("over.example.com"),
                            DnsName::must_parse("www.example.net"), 60));
  const StubResult result = resolve("over.example.com");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.response.answers.size(), 2u);
  EXPECT_EQ(*result.address, Ipv4Address::must_parse("198.18.7.7"));
}

TEST_F(AuthServerTest, MalformedPacketCounted) {
  simnet::UdpSocket* raw = net_.open_socket(client_node_, 0, nullptr);
  constexpr std::uint8_t kJunk[] = {0x01, 0x02, 0x03};
  raw->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), kDnsPort}, kJunk);
  sim_.run();
  EXPECT_EQ(server_->stats().malformed, 1u);
  EXPECT_EQ(server_->stats().queries, 0u);
}

TEST_F(AuthServerTest, ResponsePacketToServerIgnored) {
  // A response (qr=1) arriving at a server must not be processed as a query.
  Message fake = make_query(7, DnsName::must_parse("www.example.com"),
                            RecordType::kA);
  fake.header.qr = true;
  simnet::UdpSocket* raw = net_.open_socket(client_node_, 0, nullptr);
  raw->send(Endpoint{Ipv4Address::must_parse("10.0.0.2"), kDnsPort},
            encode(fake));
  sim_.run();
  EXPECT_EQ(server_->stats().queries, 0u);
}

TEST_F(AuthServerTest, StatsCountResponses) {
  resolve("www.example.com");
  resolve("missing.example.com");
  EXPECT_EQ(server_->stats().queries, 2u);
  EXPECT_EQ(server_->stats().responses, 2u);
  EXPECT_EQ(server_->stats().nxdomain, 1u);
}

}  // namespace
}  // namespace mecdns::dns
