// Coverage for the smaller public surfaces: printing/debug helpers, the
// logger and assorted accessors.
#include <gtest/gtest.h>

#include "dns/message.h"
#include "dns/zone.h"
#include "simnet/latency.h"
#include "simnet/network.h"
#include "util/log.h"

namespace mecdns {
namespace {

TEST(Printing, MessageToStringMentionsEverySection) {
  dns::Message msg = dns::make_query(
      7, dns::DnsName::must_parse("www.example.com"), dns::RecordType::kA);
  msg.header.qr = true;
  msg.answers.push_back(dns::make_a(
      dns::DnsName::must_parse("www.example.com"),
      simnet::Ipv4Address::must_parse("198.18.0.1"), 30));
  msg.authorities.push_back(dns::make_ns(
      dns::DnsName::must_parse("example.com"),
      dns::DnsName::must_parse("ns1.example.com"), 300));
  msg.edns = dns::Edns{};
  dns::ClientSubnet ecs;
  ecs.address = simnet::Ipv4Address::must_parse("203.0.113.0");
  msg.edns->client_subnet = ecs;

  const std::string text = msg.to_string();
  EXPECT_NE(text.find("response"), std::string::npos);
  EXPECT_NE(text.find("www.example.com"), std::string::npos);
  EXPECT_NE(text.find("198.18.0.1"), std::string::npos);
  EXPECT_NE(text.find("NS"), std::string::npos);
  EXPECT_NE(text.find("ecs=203.0.113.0/24"), std::string::npos);
}

TEST(Printing, RecordToStringByType) {
  EXPECT_NE(dns::make_cname(dns::DnsName::must_parse("a.test"),
                            dns::DnsName::must_parse("b.test"), 1)
                .to_string()
                .find("CNAME b.test"),
            std::string::npos);
  EXPECT_NE(dns::make_txt(dns::DnsName::must_parse("a.test"), {"hi"}, 1)
                .to_string()
                .find("\"hi\""),
            std::string::npos);
}

TEST(Printing, EnumNames) {
  EXPECT_EQ(dns::to_string(dns::RCode::kNxDomain), "NXDOMAIN");
  EXPECT_EQ(dns::to_string(dns::RecordType::kSoa), "SOA");
  EXPECT_EQ(dns::to_string(static_cast<dns::RecordType>(99)), "TYPE99");
  EXPECT_EQ(dns::to_string(dns::LookupStatus::kDelegation), "DELEGATION");
}

TEST(Logging, ThresholdGatesOutput) {
  // Capture stderr via the log level: messages below the threshold are
  // dropped without evaluating side effects of the sink.
  util::set_log_level(util::LogLevel::kWarn);
  EXPECT_EQ(util::log_level(), util::LogLevel::kWarn);
  MECDNS_LOG(kInfo, "test") << "this is dropped";
  MECDNS_LOG(kError, "test") << "this is emitted";
  util::set_log_level(util::LogLevel::kOff);
}

TEST(Network, NodeNamesAndLookup) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(1));
  const auto addr = simnet::Ipv4Address::must_parse("10.0.0.1");
  const simnet::NodeId node = net.add_node("alpha", addr);
  EXPECT_EQ(net.node_name(node), "alpha");
  EXPECT_EQ(net.find_node(addr), node);
  EXPECT_EQ(net.find_node(simnet::Ipv4Address::must_parse("9.9.9.9")),
            simnet::kInvalidNode);
  EXPECT_EQ(net.node_count(), 1u);
}

TEST(Network, SelfLinkAndBadNodeRejected) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(1));
  const simnet::NodeId node =
      net.add_node("a", simnet::Ipv4Address::must_parse("10.0.0.1"));
  EXPECT_THROW(net.add_link(node, node,
                            simnet::LatencyModel::constant(
                                simnet::SimTime::millis(1))),
               std::invalid_argument);
  EXPECT_THROW(net.add_link(node, 99,
                            simnet::LatencyModel::constant(
                                simnet::SimTime::millis(1))),
               std::out_of_range);
  EXPECT_THROW(net.open_socket(99, 1, nullptr), std::out_of_range);
}

TEST(Network, SocketOnAddresslessNodeRejected) {
  simnet::Simulator sim;
  simnet::Network net(sim, util::Rng(1));
  const simnet::NodeId bare = net.add_node("bare");
  EXPECT_THROW(net.open_socket(bare, 53, nullptr), std::logic_error);
}

}  // namespace
}  // namespace mecdns
