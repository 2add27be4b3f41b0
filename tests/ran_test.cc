// RAN substrate tests: access profiles, the NAT'ing P-GW, the DNS tap, the
// UE and handoff.
#include <gtest/gtest.h>

#include "dns/server.h"
#include "ran/handoff.h"
#include "ran/profiles.h"
#include "ran/segment.h"
#include "ran/tap.h"
#include "ran/ue.h"
#include "util/stats.h"

namespace mecdns::ran {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

/// A one-byte payload for tests that only care where a packet goes.
constexpr std::uint8_t kByte[] = {1};

TEST(Profiles, LteIsSlowerAndMoreVariableThanWired) {
  util::Rng rng(1);
  util::SampleSet lte_samples;
  util::SampleSet wired_samples;
  const AccessProfile lte_profile = lte();
  const AccessProfile wired_profile = wired_campus();
  for (int i = 0; i < 5000; ++i) {
    lte_samples.add(lte_profile.uplink.sample(rng).to_millis());
    wired_samples.add(wired_profile.uplink.sample(rng).to_millis());
  }
  EXPECT_GT(lte_samples.mean(), 8.0);
  EXPECT_LT(lte_samples.mean(), 13.0);
  EXPECT_LT(wired_samples.mean(), 0.5);
  EXPECT_GT(lte_samples.stddev(), 5 * wired_samples.stddev());
}

TEST(Profiles, FiveGBeatsLte) {
  util::Rng rng(2);
  const AccessProfile nr = nr5g();
  const AccessProfile lte_profile = lte();
  double nr_sum = 0;
  double lte_sum = 0;
  for (int i = 0; i < 2000; ++i) {
    nr_sum += nr.uplink.sample(rng).to_millis();
    lte_sum += lte_profile.uplink.sample(rng).to_millis();
  }
  EXPECT_LT(nr_sum * 4, lte_sum);  // 5G at least 4x faster
}

class SegmentTest : public ::testing::Test {
 protected:
  SegmentTest() : net_(sim_, util::Rng(7)) {
    RanSegment::Config config;
    config.name = "lte";
    config.enb_addr = Ipv4Address::must_parse("10.100.0.1");
    config.sgw_addr = Ipv4Address::must_parse("10.100.0.2");
    config.pgw_addr = Ipv4Address::must_parse("203.0.113.1");
    config.ue_subnet = simnet::Cidr::must_parse("10.45.0.0/16");
    config.access = AccessProfile{
        "fixed", LatencyModel::constant(SimTime::millis(10)),
        LatencyModel::constant(SimTime::millis(10))};
    segment_ = std::make_unique<RanSegment>(net_, config);

    server_node_ =
        net_.add_node("server", Ipv4Address::must_parse("198.51.100.1"));
    net_.add_link(segment_->pgw(), server_node_,
                  LatencyModel::constant(SimTime::millis(1)));
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  std::unique_ptr<RanSegment> segment_;
  simnet::NodeId server_node_;
};

TEST_F(SegmentTest, UplinkSourceIsNatted) {
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  Endpoint seen_src;
  net_.open_socket(server_node_, 80, [&](const simnet::Packet& p) {
    seen_src = p.src;
  });
  net_.open_socket(ue, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("198.51.100.1"), 80}, kByte);
  sim_.run();
  // The server sees the P-GW's public address, never the UE's.
  EXPECT_EQ(seen_src.addr, Ipv4Address::must_parse("203.0.113.1"));
  EXPECT_GE(seen_src.port, 20000);
  EXPECT_EQ(segment_->nat_entries(), 1u);
}

TEST_F(SegmentTest, ReplyIsTranslatedBackToUe) {
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  net_.open_socket(server_node_, 80, [&](const simnet::Packet& p) {
    // Echo back to whoever we saw (the NAT'd endpoint).
    net_.open_socket(server_node_, 0, nullptr)->send(p.src, kByte);
  });
  bool ue_got_reply = false;
  simnet::UdpSocket* ue_socket = net_.open_socket(
      ue, 0, [&](const simnet::Packet&) { ue_got_reply = true; });
  ue_socket->send(Endpoint{Ipv4Address::must_parse("198.51.100.1"), 80},
                  kByte);
  sim_.run();
  EXPECT_TRUE(ue_got_reply);
}

TEST_F(SegmentTest, UnsolicitedInboundDropped) {
  segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  // A packet to the P-GW public address on an unmapped port: dropped.
  net_.open_socket(server_node_, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("203.0.113.1"), 31337}, kByte);
  sim_.run();
  EXPECT_EQ(net_.stats().dropped_by_hook, 1u);
}

TEST_F(SegmentTest, TwoUesGetDistinctNatPorts) {
  const simnet::NodeId ue1 =
      segment_->attach_ue("ue1", Ipv4Address::must_parse("10.45.0.2"));
  const simnet::NodeId ue2 =
      segment_->attach_ue("ue2", Ipv4Address::must_parse("10.45.0.3"));
  std::set<std::uint16_t> ports;
  net_.open_socket(server_node_, 80, [&](const simnet::Packet& p) {
    ports.insert(p.src.port);
  });
  net_.open_socket(ue1, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("198.51.100.1"), 80}, kByte);
  net_.open_socket(ue2, 0, nullptr)
      ->send(Endpoint{Ipv4Address::must_parse("198.51.100.1"), 80}, kByte);
  sim_.run();
  EXPECT_EQ(ports.size(), 2u);
  EXPECT_EQ(segment_->nat_entries(), 2u);
}

TEST_F(SegmentTest, UeOutsideSubnetRejected) {
  EXPECT_THROW(
      segment_->attach_ue("bad", Ipv4Address::must_parse("192.168.1.1")),
      std::invalid_argument);
}

TEST_F(SegmentTest, DnsTapRecordsCrossings) {
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  DnsTap tap(net_, segment_->pgw());

  // A DNS server beyond the P-GW.
  auto server = std::make_unique<dns::AuthoritativeServer>(
      net_.runtime(server_node_), "auth",
      LatencyModel::constant(SimTime::millis(5)));
  dns::Zone& zone = server->add_zone(dns::DnsName::must_parse("example.com"));
  zone.must_add(dns::make_a(dns::DnsName::must_parse("www.example.com"),
                            Ipv4Address::must_parse("198.18.0.1"), 60));

  dns::StubResolver stub(net_.runtime(ue),
                         Endpoint{Ipv4Address::must_parse("198.51.100.1"),
                                  dns::kDnsPort});
  dns::StubResult out;
  stub.resolve(dns::DnsName::must_parse("www.example.com"),
               dns::RecordType::kA,
               [&](const dns::StubResult& result) { out = result; });
  sim_.run();
  ASSERT_TRUE(out.ok);

  const auto crossing =
      tap.crossing(out.response.header.id, "www.example.com");
  ASSERT_TRUE(crossing.has_value());
  ASSERT_TRUE(crossing->has_query);
  ASSERT_TRUE(crossing->has_response);
  // Query crossed after ~10.3ms (air+fronthaul+core), response ~2ms+5ms
  // processing later.
  const double beyond_ms =
      (crossing->response_seen - crossing->query_seen).to_millis();
  EXPECT_NEAR(beyond_ms, 7.0, 0.5);
  // Total = 2x10.6 wireless/core + beyond.
  EXPECT_NEAR(out.latency.to_millis() - beyond_ms, 21.2, 1.0);
  EXPECT_EQ(tap.observed_queries(), 1u);
  EXPECT_EQ(tap.observed_responses(), 1u);

  // The tap keeps one transaction per id: reusing the id for another name
  // replaces the finished one, and the new one reports its own times.
  zone.must_add(dns::make_a(dns::DnsName::must_parse("mail.example.com"),
                            Ipv4Address::must_parse("198.18.0.2"), 60));
  const std::uint16_t id = out.response.header.id;
  const simnet::SimTime second_start = sim_.now();
  stub.transport().set_next_id(id);
  stub.resolve(dns::DnsName::must_parse("mail.example.com"),
               dns::RecordType::kA,
               [&](const dns::StubResult& result) { out = result; });
  sim_.run();
  ASSERT_TRUE(out.ok);
  ASSERT_EQ(out.response.header.id, id);
  EXPECT_FALSE(tap.crossing(id, "www.example.com").has_value());
  const auto reused = tap.crossing(id, "mail.example.com");
  ASSERT_TRUE(reused.has_value());
  ASSERT_TRUE(reused->has_response);
  EXPECT_GT(reused->query_seen, second_start);
  EXPECT_NEAR((reused->response_seen - reused->query_seen).to_millis(), 7.0,
              0.5);
}

TEST_F(SegmentTest, DnsTapFilterExcludesTraffic) {
  const simnet::NodeId ue =
      segment_->attach_ue("ue", Ipv4Address::must_parse("10.45.0.2"));
  DnsTap tap(net_, segment_->pgw(),
             [](const simnet::Packet&) { return false; });
  dns::StubResolver stub(
      net_.runtime(ue),
      Endpoint{Ipv4Address::must_parse("198.51.100.1"), dns::kDnsPort},
      dns::DnsTransport::Options{SimTime::millis(50), 0});
  stub.resolve(dns::DnsName::must_parse("www.example.com"),
               dns::RecordType::kA, [](const dns::StubResult&) {});
  sim_.run();
  EXPECT_EQ(tap.observed_queries(), 0u);
}

TEST_F(SegmentTest, UserEquipmentFetchFailsCleanlyWithoutServers) {
  UserEquipment ue(net_, *segment_, "ue",
                   Ipv4Address::must_parse("10.45.0.2"),
                   Endpoint{Ipv4Address::must_parse("198.51.100.1"),
                            dns::kDnsPort},
                   dns::DnsTransport::Options{SimTime::millis(100), 0});
  bool done = false;
  ue.resolve_and_fetch(cdn::Url::must_parse("video.mycdn.test/x"),
                       [&](const UserEquipment::FetchOutcome& outcome) {
                         done = true;
                         EXPECT_FALSE(outcome.ok);
                         EXPECT_FALSE(outcome.error.empty());
                       });
  sim_.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace mecdns::ran
