// UDP truncation (TC bit) and EDNS payload-size negotiation.
#include <gtest/gtest.h>

#include "dns/server.h"
#include "dns/transport.h"

namespace mecdns::dns {
namespace {

using simnet::Endpoint;
using simnet::Ipv4Address;
using simnet::LatencyModel;
using simnet::SimTime;

class TruncationTest : public ::testing::Test {
 protected:
  TruncationTest() : net_(sim_, util::Rng(81)) {
    client_node_ = net_.add_node("client", Ipv4Address::must_parse("10.0.0.1"));
    const simnet::NodeId server_node =
        net_.add_node("server", Ipv4Address::must_parse("10.0.0.2"));
    net_.add_link(client_node_, server_node,
                  LatencyModel::constant(SimTime::millis(1)));
    server_ = std::make_unique<AuthoritativeServer>(
        net_.runtime(server_node), "auth",
        LatencyModel::constant(SimTime::micros(100)));
    Zone& zone = server_->add_zone(DnsName::must_parse("big.test"));
    zone.must_add(make_soa(DnsName::must_parse("big.test"),
                           DnsName::must_parse("ns1.big.test"), 1, 60, 60));
    // 60 A records ~= 60 * 16 bytes of answer: far beyond 512 octets.
    for (int i = 0; i < 60; ++i) {
      zone.must_add(make_a(
          DnsName::must_parse("many.big.test"),
          Ipv4Address(0x0a000000u + static_cast<std::uint32_t>(i)), 300));
    }
    zone.must_add(make_a(DnsName::must_parse("small.big.test"),
                         Ipv4Address::must_parse("198.18.0.1"), 300));
    transport_ = std::make_unique<DnsTransport>(net_.runtime(client_node_));
  }

  util::Result<Message> query(
      const std::string& name,
      std::shared_ptr<const DnsTransport::Options> options,
      bool with_edns = false, std::uint16_t bufsize = 1232) {
    Message q = make_query(0, DnsName::must_parse(name), RecordType::kA);
    if (with_edns) {
      q.edns = Edns{};
      q.edns->udp_payload_size = bufsize;
    }
    util::Result<Message> out = util::Err("no response");
    transport_->query(Endpoint{Ipv4Address::must_parse("10.0.0.2"), kDnsPort},
                      std::move(q), options,
                      [&](util::Result<Message> result, SimTime) {
                        out = std::move(result);
                      });
    sim_.run();
    return out;
  }

  simnet::Simulator sim_;
  simnet::Network net_;
  simnet::NodeId client_node_;
  std::unique_ptr<AuthoritativeServer> server_;
  std::unique_ptr<DnsTransport> transport_;
};

TEST_F(TruncationTest, SmallAnswerFitsWithoutEdns) {
  const auto result = query("small.big.test", {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().header.tc);
  EXPECT_EQ(result.value().answers.size(), 1u);
  EXPECT_EQ(server_->stats().truncated, 0u);
}

TEST_F(TruncationTest, OversizedAnswerTruncatedWithoutAutoRetry) {
  auto options = std::make_shared<DnsTransport::Options>();
  options->bufsize_on_tc = 0;  // disable the automatic retry
  const auto result = query("many.big.test", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().header.tc);
  EXPECT_TRUE(result.value().answers.empty());
  EXPECT_EQ(server_->stats().truncated, 1u);
}

TEST_F(TruncationTest, TransportRetriesWithLargerBufferAndSucceeds) {
  const auto result = query("many.big.test", {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().header.tc);
  EXPECT_EQ(result.value().answers.size(), 60u);
  EXPECT_EQ(transport_->tc_retries(), 1u);
  EXPECT_EQ(server_->stats().truncated, 1u);  // only the first attempt
  EXPECT_EQ(server_->stats().queries, 2u);
}

TEST_F(TruncationTest, LargeEdnsBufferAvoidsTruncationOutright) {
  const auto result = query("many.big.test", {}, /*with_edns=*/true, 4096);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().header.tc);
  EXPECT_EQ(result.value().answers.size(), 60u);
  EXPECT_EQ(transport_->tc_retries(), 0u);
  EXPECT_EQ(server_->stats().queries, 1u);
}

TEST_F(TruncationTest, SmallEdnsBufferStillTruncatesThenRetries) {
  const auto result = query("many.big.test", {}, /*with_edns=*/true, 512);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().header.tc);
  EXPECT_EQ(transport_->tc_retries(), 1u);
}

TEST_F(TruncationTest, StillTruncatedAtMaxBufferIsDeliveredAsIs) {
  // Cap the retry buffer below the answer size: the client must receive
  // the truncated response rather than loop forever.
  auto options = std::make_shared<DnsTransport::Options>();
  options->bufsize_on_tc = 600;
  const auto result = query("many.big.test", options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().header.tc);
  EXPECT_EQ(transport_->tc_retries(), 1u);
  EXPECT_EQ(server_->stats().queries, 2u);
}

}  // namespace
}  // namespace mecdns::dns
