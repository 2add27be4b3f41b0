#include <gtest/gtest.h>

#include <array>

#include "dns/edns.h"
#include "dns/wire.h"
#include "srv_flood.h"
#include "util/perfcount.h"

namespace mecdns::dns {
namespace {

Message make_base_response() {
  Message msg = make_query(0x9ab3, DnsName::must_parse("www.example.com"),
                           RecordType::kA);
  msg.header.qr = true;
  msg.header.aa = true;
  msg.header.ra = true;
  return msg;
}

TEST(Wire, HeaderRoundTrip) {
  Message msg = make_base_response();
  msg.header.tc = true;
  msg.header.rcode = RCode::kNxDomain;
  msg.header.opcode = Opcode::kStatus;
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().header, msg.header);
  EXPECT_EQ(decoded.value().questions, msg.questions);
}

// Round-trip every structurally modelled record type.
struct RecordCase {
  std::string label;
  ResourceRecord rr;
};

class RecordRoundTrip : public ::testing::TestWithParam<RecordCase> {};

TEST_P(RecordRoundTrip, EncodeDecode) {
  Message msg = make_base_response();
  msg.answers.push_back(GetParam().rr);
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  ASSERT_EQ(decoded.value().answers.size(), 1u);
  EXPECT_EQ(decoded.value().answers.front(), GetParam().rr);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, RecordRoundTrip,
    ::testing::Values(
        RecordCase{"A",
                   make_a(DnsName::must_parse("www.example.com"),
                          simnet::Ipv4Address::must_parse("203.0.113.9"),
                          3600)},
        RecordCase{"CNAME",
                   make_cname(DnsName::must_parse("www.example.com"),
                              DnsName::must_parse("edge.cdn.example.net"),
                              300)},
        RecordCase{"NS", make_ns(DnsName::must_parse("example.com"),
                                 DnsName::must_parse("ns1.example.com"),
                                 86400)},
        RecordCase{"SOA", make_soa(DnsName::must_parse("example.com"),
                                   DnsName::must_parse("ns1.example.com"), 7,
                                   600, 3600)},
        RecordCase{"TXT",
                   make_txt(DnsName::must_parse("example.com"),
                            {"hello world", "second string"}, 60)},
        RecordCase{"PTR",
                   make_ptr(DnsName::must_parse("9.113.0.203.in-addr.arpa"),
                            DnsName::must_parse("www.example.com"), 60)},
        RecordCase{"SRV",
                   make_srv(DnsName::must_parse("_dns._udp.example.com"), 10,
                            20, 53, DnsName::must_parse("ns1.example.com"),
                            120)}),
    [](const ::testing::TestParamInfo<RecordCase>& info) {
      return info.param.label;
    });

TEST(Wire, AaaaRoundTrip) {
  Message msg = make_base_response();
  AaaaRecord aaaa;
  for (std::size_t i = 0; i < aaaa.address.size(); ++i) {
    aaaa.address[i] = static_cast<std::uint8_t>(i);
  }
  msg.answers.push_back(ResourceRecord{DnsName::must_parse("v6.example.com"),
                                       RecordType::kAaaa, RecordClass::kIn,
                                       60, aaaa});
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers.front(), msg.answers.front());
}

TEST(Wire, UnknownTypePreservedAsRaw) {
  Message msg = make_base_response();
  msg.answers.push_back(ResourceRecord{
      DnsName::must_parse("x.example.com"), static_cast<RecordType>(99),
      RecordClass::kIn, 60, RawRecord{99, {1, 2, 3, 4}}});
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  const auto* raw = std::get_if<RawRecord>(&decoded.value().answers[0].rdata);
  ASSERT_NE(raw, nullptr);
  EXPECT_EQ(raw->data, (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(Wire, CompressionShrinksRepeatedNames) {
  Message msg = make_base_response();
  for (int i = 0; i < 6; ++i) {
    msg.answers.push_back(make_a(
        DnsName::must_parse("www.example.com"),
        simnet::Ipv4Address(0x0a000001u + static_cast<std::uint32_t>(i)),
        60));
  }
  const auto wire = encode(msg);
  // Uncompressed, each answer would repeat the 17-byte owner name. With
  // compression every repeat is a 2-byte pointer.
  const std::size_t uncompressed_estimate = 12 + 21 + 6 * (17 + 14);
  EXPECT_LT(wire.size(), uncompressed_estimate - 5 * 13);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers.size(), 6u);
  EXPECT_EQ(decoded.value().answers[5].name,
            DnsName::must_parse("www.example.com"));
}

TEST(Wire, CompressionSharesSuffixes) {
  Message msg = make_base_response();
  msg.answers.push_back(make_cname(DnsName::must_parse("www.example.com"),
                                   DnsName::must_parse("cdn.example.com"),
                                   60));
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  const auto* cname = std::get_if<CnameRecord>(&decoded.value().answers[0].rdata);
  ASSERT_NE(cname, nullptr);
  EXPECT_EQ(cname->target, DnsName::must_parse("cdn.example.com"));
}

TEST(Wire, EcsOptionRoundTrip) {
  Message msg = make_base_response();
  msg.edns = Edns{};
  msg.edns->udp_payload_size = 4096;
  ClientSubnet ecs;
  ecs.address = simnet::Ipv4Address::must_parse("203.0.113.0");
  ecs.source_prefix = 24;
  ecs.scope_prefix = 16;
  msg.edns->client_subnet = ecs;

  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.value().edns.has_value());
  EXPECT_EQ(decoded.value().edns->udp_payload_size, 4096);
  ASSERT_TRUE(decoded.value().edns->client_subnet.has_value());
  EXPECT_EQ(*decoded.value().edns->client_subnet, ecs);
  // The OPT record itself must not remain in additionals after lifting.
  EXPECT_TRUE(decoded.value().additionals.empty());
}

TEST(Wire, EcsAddressTruncatedToSourcePrefix) {
  // RFC 7871 §6: ADDRESS carries only ceil(prefix/8) octets, low bits zero.
  Edns edns;
  ClientSubnet ecs;
  ecs.address = simnet::Ipv4Address::must_parse("10.45.77.200");
  ecs.source_prefix = 16;
  edns.client_subnet = ecs;
  std::array<std::uint8_t, 16> buf{};
  util::ByteWriter rdata(buf);
  write_edns_options(rdata, edns);
  // option header (4) + family/prefixes (4) + 2 address octets.
  EXPECT_EQ(rdata.size(), 10u);
  Edns back;
  ASSERT_TRUE(decode_edns_options(rdata.data(), back).ok());
  EXPECT_EQ(back.client_subnet->address,
            simnet::Ipv4Address::must_parse("10.45.0.0"));
}

TEST(Wire, EcsZeroPrefixMeansNoAddress) {
  Edns edns;
  ClientSubnet ecs;
  ecs.address = simnet::Ipv4Address::must_parse("10.45.77.200");
  ecs.source_prefix = 0;
  edns.client_subnet = ecs;
  std::array<std::uint8_t, 16> buf{};
  util::ByteWriter rdata(buf);
  write_edns_options(rdata, edns);
  Edns back;
  ASSERT_TRUE(decode_edns_options(rdata.data(), back).ok());
  EXPECT_EQ(back.client_subnet->source_prefix, 0);
  EXPECT_TRUE(back.client_subnet->address.is_unspecified());
}

TEST(Wire, MessagePastTheSizeLimitEncodesToNothing) {
  // 60,261 octets in, 789,261 octets out were it written: past RFC 1035's
  // 65535-octet limit, so both encoders report the overflow as an empty
  // result.
  const Message query =
      make_query(0x4242, srv_flood_name(), RecordType::kSrv);
  const std::vector<std::uint8_t> wire = srv_flood(encode(query));
  ASSERT_EQ(wire.size(), kSrvFloodOctets);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().additionals.size(), kSrvFloodRecords);

  EXPECT_TRUE(encode(decoded.value()).empty());
  EXPECT_TRUE(encode_view(decoded.value()).empty());
  // The buffer is whole again for the next message.
  EXPECT_EQ(decode(encode_view(query)).value().question(), query.question());
}

TEST(Wire, MultiSectionMessage) {
  Message msg = make_base_response();
  msg.answers.push_back(make_a(DnsName::must_parse("www.example.com"),
                               simnet::Ipv4Address::must_parse("198.18.0.1"),
                               30));
  msg.authorities.push_back(make_ns(DnsName::must_parse("example.com"),
                                    DnsName::must_parse("ns1.example.com"),
                                    86400));
  msg.additionals.push_back(
      make_a(DnsName::must_parse("ns1.example.com"),
             simnet::Ipv4Address::must_parse("198.18.0.53"), 86400));
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().answers.size(), 1u);
  EXPECT_EQ(decoded.value().authorities.size(), 1u);
  EXPECT_EQ(decoded.value().additionals.size(), 1u);
}

// Every truncation of a valid message must fail cleanly, never crash or
// read out of bounds.
class TruncationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TruncationTest, FailsGracefully) {
  Message msg = make_base_response();
  msg.answers.push_back(make_a(DnsName::must_parse("www.example.com"),
                               simnet::Ipv4Address::must_parse("198.18.0.1"),
                               30));
  msg.edns = Edns{};
  const auto wire = encode(msg);
  const std::size_t cut = GetParam();
  if (cut >= wire.size()) {
    GTEST_SKIP() << "message shorter than cut point";
  }
  const auto decoded =
      decode(std::span<const std::uint8_t>(wire.data(), cut));
  EXPECT_FALSE(decoded.ok());
}

INSTANTIATE_TEST_SUITE_P(Cuts, TruncationTest,
                         ::testing::Values(0, 1, 5, 11, 12, 13, 20, 28, 29,
                                           33, 40, 45, 50, 55));

TEST(Wire, PointerLoopDetected) {
  // Craft a message whose qname is a self-referencing compression pointer.
  std::vector<std::uint8_t> wire = {
      0x12, 0x34,  // id
      0x00, 0x00,  // flags
      0x00, 0x01,  // qdcount
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 0x0c,  // pointer to offset 12 = itself
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(decode(wire).ok());
}

TEST(Wire, ForwardPointerRejected) {
  std::vector<std::uint8_t> wire = {
      0x12, 0x34, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xc0, 0x40,  // pointer past the end of the message
      0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(decode(wire).ok());
}

TEST(Wire, ReservedLabelTypeRejected) {
  std::vector<std::uint8_t> wire = {
      0x12, 0x34, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x80, 0x01, 'x',  // 0b10xxxxxx is reserved
      0x00, 0x00, 0x01, 0x00, 0x01,
  };
  EXPECT_FALSE(decode(wire).ok());
}

TEST(Wire, RdlengthMismatchRejected) {
  Message msg = make_base_response();
  msg.answers.push_back(make_a(DnsName::must_parse("a.example.com"),
                               simnet::Ipv4Address::must_parse("1.2.3.4"),
                               60));
  auto wire = encode(msg);
  // Find the A record's RDLENGTH (last 6 bytes are len+rdata) and corrupt it.
  wire[wire.size() - 6] = 0;
  wire[wire.size() - 5] = 7;  // claims 7 bytes of RDATA, only 4 present
  EXPECT_FALSE(decode(wire).ok());
}

TEST(Wire, EmptyQuestionMessageRoundTrips) {
  Message msg;
  msg.header.id = 1;
  msg.header.qr = true;
  const auto decoded = decode(encode(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().questions.empty());
}

TEST(Wire, QueryIdAndFlagsSurviveManyValues) {
  for (std::uint32_t id = 0; id < 0x10000; id += 0x1111) {
    Message msg = make_query(static_cast<std::uint16_t>(id),
                             DnsName::must_parse("x.test"), RecordType::kA);
    const auto decoded = decode(encode(msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().header.id, static_cast<std::uint16_t>(id));
    EXPECT_TRUE(decoded.value().header.rd);
    EXPECT_FALSE(decoded.value().header.qr);
  }
}


// --- decoder contract ----------------------------------------------------------
//
// Exact accept/reject decisions and error texts of decode() on hostile and
// hand-assembled inputs. A rewrite of the decoder must keep every row.

/// Hand-assembled wire bytes, for inputs encode() never produces.
struct WireBuilder {
  std::vector<std::uint8_t> bytes;

  WireBuilder& u8(unsigned v) {
    bytes.push_back(static_cast<std::uint8_t>(v));
    return *this;
  }
  WireBuilder& u16(unsigned v) { return u8(v >> 8).u8(v); }
  WireBuilder& u32(std::uint32_t v) { return u16(v >> 16).u16(v & 0xffff); }
  WireBuilder& label(std::string_view text) {
    u8(static_cast<unsigned>(text.size()));
    for (const char c : text) u8(static_cast<unsigned char>(c));
    return *this;
  }
  /// The question "a." IN A: 7 bytes.
  WireBuilder& question_a() { return label("a").u8(0).u16(1).u16(1); }
  /// A record header (owner "a." at offset 12 via pointer) up to RDLENGTH.
  WireBuilder& record_head(unsigned type, unsigned rdlength,
                           unsigned cls = 1) {
    return u16(0xc00c).u16(type).u16(cls).u32(60).u16(rdlength);
  }
  /// An OPT pseudo-record (root owner) carrying `rdata`.
  WireBuilder& opt(std::vector<std::uint8_t> rdata, unsigned payload = 1232) {
    u8(0).u16(41).u16(payload).u32(0).u16(static_cast<unsigned>(rdata.size()));
    bytes.insert(bytes.end(), rdata.begin(), rdata.end());
    return *this;
  }
};

WireBuilder wire_header(unsigned qd, unsigned an, unsigned ns, unsigned ar) {
  WireBuilder w;
  w.u16(0x1234).u16(0x8180).u16(qd).u16(an).u16(ns).u16(ar);
  return w;
}

/// The name "a." followed by `octet` inside a one-label question.
std::vector<std::uint8_t> label_with(std::uint8_t octet) {
  return wire_header(1, 0, 0, 0)
      .u8(3).u8('x').u8(octet).u8('y').u8(0).u16(1).u16(1)
      .bytes;
}

/// A question whose name has labels of the given lengths ('a' octets).
std::vector<std::uint8_t> name_of_labels(std::initializer_list<unsigned> lens) {
  WireBuilder w = wire_header(1, 0, 0, 0);
  for (const unsigned len : lens) w.label(std::string(len, 'a'));
  return w.u8(0).u16(1).u16(1).bytes;
}

/// One answer whose owner is reached through a chain of `chases` pointers.
/// The chain lives in an unknown-type record's RDATA: pointer k points at
/// pointer k-1, and pointer 0 at the question name "a.".
std::vector<std::uint8_t> pointer_chain(unsigned chases) {
  WireBuilder w = wire_header(1, 2, 0, 0).question_a();
  const unsigned chain_links = 40;
  w.record_head(99, 2 * chain_links);
  const unsigned chain_at = static_cast<unsigned>(w.bytes.size());
  w.u16(0xc00c);
  for (unsigned k = 1; k < chain_links; ++k) {
    w.u16(0xc000 | (chain_at + 2 * (k - 1)));
  }
  // The owner pointer is chase 1; it lands on link chases-2, and every
  // link down to link 0 is one more chase.
  w.u16(0xc000 | (chain_at + 2 * (chases - 2)))
      .u16(1).u16(1).u32(60).u16(4).u32(0x01020304);
  return w.bytes;
}

/// A one-answer message whose RDLENGTH says `rdlength` and whose RDATA is
/// `rdata`, for the given record type.
std::vector<std::uint8_t> one_answer(unsigned type, unsigned rdlength,
                                     std::vector<std::uint8_t> rdata) {
  WireBuilder w = wire_header(1, 1, 0, 0).question_a().record_head(type,
                                                                   rdlength);
  w.bytes.insert(w.bytes.end(), rdata.begin(), rdata.end());
  return w.bytes;
}

/// SOA RDATA "a. a. 1 2 3 4 5" with both names as pointers to offset 12.
std::vector<std::uint8_t> soa_rdata() {
  return WireBuilder{}
      .u16(0xc00c).u16(0xc00c).u32(1).u32(2).u32(3).u32(4).u32(5)
      .bytes;
}

/// A message whose additionals are one OPT with the given RDATA.
std::vector<std::uint8_t> with_opt(std::vector<std::uint8_t> rdata) {
  return wire_header(1, 0, 0, 1).question_a().opt(std::move(rdata)).bytes;
}

/// ECS option (code 8) with the given family, prefixes and address octets.
std::vector<std::uint8_t> ecs_option(unsigned family, unsigned source,
                                     unsigned scope,
                                     std::vector<std::uint8_t> address) {
  WireBuilder w;
  w.u16(8).u16(static_cast<unsigned>(4 + address.size())).u16(family)
      .u8(source).u8(scope);
  w.bytes.insert(w.bytes.end(), address.begin(), address.end());
  return w.bytes;
}

struct ContractCase {
  std::string label;
  std::vector<std::uint8_t> wire;
  std::string error;  ///< empty: decode must succeed
};

class DecodeContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(DecodeContract, AcceptsOrRejectsWithExactError) {
  const ContractCase& c = GetParam();
  const auto decoded = decode(c.wire);
  if (c.error.empty()) {
    EXPECT_TRUE(decoded.ok()) << decoded.error().message;
  } else {
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().message, c.error);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, DecodeContract,
    ::testing::Values(
        ContractCase{"Empty", {}, "truncated: need 2 bytes"},
        ContractCase{"SelfPointer",
                     wire_header(1, 0, 0, 0).u16(0xc00c).u16(1).u16(1).bytes,
                     "compression pointer loop"},
        ContractCase{"TwoPointerLoop",
                     wire_header(1, 0, 0, 0)
                         .u16(0xc00e).u16(0xc00c).u16(1).u16(1).bytes,
                     "compression pointer loop"},
        ContractCase{"ChainOf32Pointers", pointer_chain(32), ""},
        ContractCase{"ChainOf33Pointers", pointer_chain(33),
                     "compression pointer loop"},
        ContractCase{"PointerPastEnd",
                     wire_header(1, 0, 0, 0).u16(0xc040).u16(1).u16(1).bytes,
                     "compression pointer past end"},
        ContractCase{"PointerToExactEnd",
                     wire_header(1, 0, 0, 0).u16(0xc012).u16(1).u16(1).bytes,
                     "compression pointer past end"},
        // Forward pointers and trailing octets are accepted.
        ContractCase{"ForwardPointer",
                     wire_header(1, 0, 0, 0)
                         .u16(0xc012).u16(1).u16(1).label("a").u8(0).bytes,
                     ""},
        ContractCase{"TruncatedPointer",
                     wire_header(1, 0, 0, 0).u8(0xc0).bytes,
                     "truncated: need 1 byte"},
        ContractCase{"LabelType40",
                     wire_header(1, 0, 0, 0)
                         .u8(0x40).u8('x').u8(0).u16(1).u16(1).bytes,
                     "reserved label type"},
        ContractCase{"LabelType80",
                     wire_header(1, 0, 0, 0)
                         .u8(0x80).u8('x').u8(0).u16(1).u16(1).bytes,
                     "reserved label type"},
        ContractCase{"LabelPastEnd",
                     wire_header(1, 0, 0, 0).u8(5).u8('a').u8('b').bytes,
                     "truncated: need 5 bytes, have 2"},
        ContractCase{"OneOctetLabelPastEnd",
                     wire_header(1, 0, 0, 0).u8(1).bytes,
                     "truncated: need 1 bytes, have 0"},
        ContractCase{"SpaceInLabel", label_with(' '),
                     "invalid character in label"},
        ContractCase{"DotInLabel", label_with('.'),
                     "invalid character in label"},
        ContractCase{"NulInLabel", label_with(0x00),
                     "invalid character in label"},
        ContractCase{"TabInLabel", label_with(0x09),
                     "invalid character in label"},
        ContractCase{"UnitSeparatorInLabel", label_with(0x1f),
                     "invalid character in label"},
        ContractCase{"DelInLabel", label_with(0x7f),
                     "invalid character in label"},
        ContractCase{"Octet80InLabel", label_with(0x80), ""},
        ContractCase{"OctetFfInLabel", label_with(0xff), ""},
        ContractCase{"Octet21InLabel", label_with(0x21), ""},
        ContractCase{"Name254DataOctets", name_of_labels({63, 63, 63, 61}),
                     ""},
        ContractCase{"Name255DataOctets", name_of_labels({63, 63, 63, 62}),
                     "name exceeds 255 octets"},
        ContractCase{"RdataPastEnd", one_answer(1, 7, {1, 2, 3, 4}),
                     "RDATA past end of message"},
        ContractCase{"ALongRdlength", one_answer(1, 5, {1, 2, 3, 4, 5}),
                     "A RDATA must be 4 octets"},
        ContractCase{"AShortRdlength", one_answer(1, 3, {1, 2, 3}),
                     "A RDATA must be 4 octets"},
        ContractCase{"AaaaShortRdlength", one_answer(28, 4, {1, 2, 3, 4}),
                     "AAAA RDATA must be 16 octets"},
        ContractCase{"SoaExact", one_answer(6, 24, soa_rdata()), ""},
        ContractCase{"SoaLongRdlength",
                     [] {
                       auto rdata = soa_rdata();
                       rdata.push_back(0);
                       return one_answer(6, 25, rdata);
                     }(),
                     "RDATA length mismatch for SOA"},
        // A short RDLENGTH: the SOA fields still read to their end.
        ContractCase{"SoaShortRdlength", one_answer(6, 23, soa_rdata()),
                     "RDATA length mismatch for SOA"},
        ContractCase{"SoaFieldsPastEnd", one_answer(6, 6, {0xc0, 0x0c, 0xc0,
                                                           0x0c, 0, 0}),
                     "truncated: need 4 bytes"},
        ContractCase{"CnameTargetPastRdata",
                     one_answer(5, 1, {1, 'b', 0}),
                     "RDATA length mismatch for CNAME"},
        ContractCase{"TxtStringPastRdata", one_answer(16, 3, {5, 'a', 'b'}),
                     "TXT string past RDATA"},
        ContractCase{"TxtEmptyRdata", one_answer(16, 0, {}), ""},
        ContractCase{"SrvPastEnd", one_answer(33, 0, {}),
                     "truncated: need 2 bytes"},
        ContractCase{"OptOptionHeaderTruncated", with_opt({0, 8, 0}),
                     "truncated: need 2 bytes"},
        ContractCase{"OptOptionBodyTruncated",
                     with_opt({0, 8, 0, 8, 0, 1, 24, 0}),
                     "truncated: need 8 bytes, have 4"},
        ContractCase{"OptUnknownOptionSkipped",
                     with_opt({0, 10, 0, 2, 0xab, 0xcd}), ""},
        ContractCase{"EcsBodyTooShort", with_opt({0, 8, 0, 2, 0, 1}),
                     "truncated: need 1 byte"},
        ContractCase{"EcsFamily2",
                     with_opt(ecs_option(2, 24, 0, {203, 0, 113})),
                     "ECS: unsupported address family 2"},
        ContractCase{"EcsSourcePrefix33",
                     with_opt(ecs_option(1, 33, 0, {1, 2, 3, 4, 5})),
                     "ECS: prefix length exceeds 32"},
        ContractCase{"EcsScopePrefix33",
                     with_opt(ecs_option(1, 24, 33, {1, 2, 3})),
                     "ECS: prefix length exceeds 32"},
        ContractCase{"EcsAddressTooLong",
                     with_opt(ecs_option(1, 24, 0, {1, 2, 3, 4})),
                     "ECS: address length mismatch"},
        ContractCase{"EcsAddressTooShort",
                     with_opt(ecs_option(1, 24, 0, {1, 2})),
                     "ECS: address length mismatch"},
        // Options are parsed after every section is read: a later record's
        // fault is reported ahead of a bad OPT's.
        ContractCase{"BadOptThenBadRecord",
                     wire_header(1, 0, 0, 2)
                         .question_a()
                         .opt(ecs_option(2, 24, 0, {203, 0, 113}))
                         .record_head(1, 5).u32(0).u8(0)
                         .bytes,
                     "A RDATA must be 4 octets"},
        ContractCase{"BadOptThenGoodRecord",
                     wire_header(1, 0, 0, 2)
                         .question_a()
                         .opt(ecs_option(2, 24, 0, {203, 0, 113}))
                         .record_head(1, 4).u32(0)
                         .bytes,
                     "ECS: unsupported address family 2"},
        // Only the first OPT is parsed; a second one stays raw.
        ContractCase{"GoodOptThenBadOpt",
                     wire_header(1, 0, 0, 2)
                         .question_a()
                         .opt({})
                         .opt(ecs_option(2, 24, 0, {203, 0, 113}))
                         .bytes,
                     ""},
        // An OPT outside additionals is an ordinary record.
        ContractCase{"BadOptInAnswers",
                     wire_header(1, 1, 0, 0)
                         .question_a()
                         .opt(ecs_option(2, 24, 0, {203, 0, 113}))
                         .bytes,
                     ""}),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      return info.param.label;
    });

TEST(WireContract, SecondOptStaysInAdditionals) {
  const auto wire = wire_header(1, 0, 0, 3)
                        .question_a()
                        .opt(ecs_option(1, 24, 0, {203, 0, 113}), 4096)
                        .record_head(1, 4).u32(0x0a000001)
                        .opt({0, 10, 0, 0}, 512)
                        .bytes;
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  const Message& msg = decoded.value();
  ASSERT_TRUE(msg.edns.has_value());
  EXPECT_EQ(msg.edns->udp_payload_size, 4096);
  ASSERT_TRUE(msg.edns->client_subnet.has_value());
  EXPECT_EQ(msg.edns->client_subnet->subnet().to_string(), "203.0.113.0/24");
  ASSERT_EQ(msg.additionals.size(), 2u);
  EXPECT_EQ(msg.additionals[0].type, RecordType::kA);
  EXPECT_EQ(msg.additionals[1].type, RecordType::kOpt);
  EXPECT_EQ(static_cast<unsigned>(msg.additionals[1].cls), 512u);
  const auto* opt = std::get_if<OptRecord>(&msg.additionals[1].rdata);
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(opt->options, (std::vector<std::uint8_t>{0, 10, 0, 0}));
}

TEST(WireContract, OptInAnswersIsNotLifted) {
  const auto decoded = decode(wire_header(1, 1, 0, 0)
                                  .question_a()
                                  .opt({0, 10, 0, 0})
                                  .bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().edns.has_value());
  ASSERT_EQ(decoded.value().answers.size(), 1u);
  EXPECT_EQ(decoded.value().answers[0].type, RecordType::kOpt);
}

TEST(WireContract, HighOctetsSurviveDecode) {
  const auto decoded = decode(label_with(0xff));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().question().name.label(0), "x\xffy");
}

/// The truncation table's message: a CNAME whose target and the following
/// A record's owner are compressed, and an OPT carrying ECS.
std::vector<std::uint8_t> truncation_subject() {
  Message msg = make_base_response();
  msg.answers.push_back(make_cname(DnsName::must_parse("www.example.com"),
                                   DnsName::must_parse("edge.example.com"),
                                   60));
  msg.answers.push_back(make_a(DnsName::must_parse("edge.example.com"),
                               simnet::Ipv4Address::must_parse("198.18.0.1"),
                               30));
  msg.edns = Edns{};
  ClientSubnet ecs;
  ecs.address = simnet::Ipv4Address::must_parse("203.0.113.0");
  ecs.source_prefix = 24;
  msg.edns->client_subnet = ecs;
  return encode(msg);
}

TEST(WireContract, TruncationAtEveryOffset) {
  const auto wire = truncation_subject();
  // Layout: header 0-11; qname "www.example.com" 12-28; qtype/qclass
  // 29-32; CNAME 33-51 (owner pointer 33, RDATA "edge"+pointer 45-51);
  // A 52-67 (owner pointer 52, RDATA 64-67); OPT 68-89 (RDATA 79-89).
  ASSERT_EQ(wire.size(), 90u);
  ASSERT_EQ(wire[33], 0xc0);
  ASSERT_EQ(wire[52], 0xc0);
  ASSERT_EQ(wire[68], 0x00);
  const std::string need1 = "truncated: need 1 byte";
  const std::string need2 = "truncated: need 2 bytes";
  const std::string need4 = "truncated: need 4 bytes";
  const std::string past = "RDATA past end of message";
  const auto label_cut = [](std::size_t len, std::size_t have) {
    return "truncated: need " + std::to_string(len) + " bytes, have " +
           std::to_string(have);
  };
  struct Span {
    std::size_t first, last;
    std::string error;
  };
  std::vector<Span> table = {{0, 11, need2}, {12, 12, need1}};
  for (std::size_t have = 0; have < 3; ++have) {
    table.push_back({13 + have, 13 + have, label_cut(3, have)});
  }
  table.push_back({16, 16, need1});
  for (std::size_t have = 0; have < 7; ++have) {
    table.push_back({17 + have, 17 + have, label_cut(7, have)});
  }
  table.push_back({24, 24, need1});
  for (std::size_t have = 0; have < 3; ++have) {
    table.push_back({25 + have, 25 + have, label_cut(3, have)});
  }
  table.push_back({28, 28, need1});
  table.push_back({29, 32, need2});
  // Each record: owner, then TYPE, CLASS, TTL, RDLENGTH, RDATA.
  const auto record = [&](std::size_t owner, std::size_t owner_end,
                          std::size_t end) {
    table.push_back({owner, owner_end, need1});
    table.push_back({owner_end + 1, owner_end + 4, need2});
    table.push_back({owner_end + 5, owner_end + 8, need4});
    table.push_back({owner_end + 9, owner_end + 10, need2});
    table.push_back({owner_end + 11, end, past});
  };
  record(33, 34, 51);
  record(52, 53, 67);
  record(68, 68, 89);

  std::size_t covered = 0;
  for (const Span& span : table) {
    ASSERT_EQ(span.first, covered) << "table gap before " << span.first;
    for (std::size_t cut = span.first; cut <= span.last; ++cut) {
      const auto decoded =
          decode(std::span<const std::uint8_t>(wire.data(), cut));
      ASSERT_FALSE(decoded.ok()) << "cut " << cut;
      EXPECT_EQ(decoded.error().message, span.error) << "cut " << cut;
    }
    covered = span.last + 1;
  }
  ASSERT_EQ(covered, wire.size());
  const auto whole = decode(wire);
  ASSERT_TRUE(whole.ok()) << whole.error().message;
  EXPECT_EQ(whole.value().answers.size(), 2u);
  EXPECT_EQ(whole.value().edns->client_subnet->subnet().to_string(),
            "203.0.113.0/24");
}


// --- header-only decode (the P-GW tap's parse) ------------------------------------

TEST(DecodeHeader, MatchesDecodeOnHeaderAndFirstQuestion) {
  const auto wire = truncation_subject();
  const auto full = decode(wire);
  const auto head = decode_header(wire);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(head.ok()) << head.error().message;
  EXPECT_EQ(head.value().header, full.value().header);
  ASSERT_TRUE(head.value().question.has_value());
  EXPECT_EQ(*head.value().question, full.value().question());
  EXPECT_TRUE(head.value().question->name.equals_exact(
      full.value().question().name));
}

TEST(DecodeHeader, NoQuestionLeavesItEmpty) {
  Message msg;
  msg.header.id = 77;
  msg.header.qr = true;
  msg.header.tc = true;
  const auto head = decode_header(encode(msg));
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.value().header, msg.header);
  EXPECT_FALSE(head.value().question.has_value());
}

TEST(DecodeHeader, IgnoresFaultsAfterTheFirstQuestion) {
  // A bad record after the question: decode() rejects, the tap's parse
  // still reads the transaction.
  const auto wire = one_answer(1, 5, {1, 2, 3, 4, 5});
  EXPECT_FALSE(decode(wire).ok());
  const auto head = decode_header(wire);
  ASSERT_TRUE(head.ok()) << head.error().message;
  EXPECT_EQ(head.value().header.id, 0x1234);
  EXPECT_TRUE(head.value().header.qr);
  EXPECT_EQ(head.value().question->name, DnsName::must_parse("a"));
}

TEST(DecodeHeader, QuestionFaultsMatchDecodeErrors) {
  const std::vector<std::vector<std::uint8_t>> bad = {
      {},
      wire_header(1, 0, 0, 0).bytes,
      wire_header(1, 0, 0, 0).u16(0xc00c).u16(1).u16(1).bytes,
      wire_header(1, 0, 0, 0).u16(0xc040).u16(1).u16(1).bytes,
      wire_header(1, 0, 0, 0).u8(0x80).u8('x').u8(0).u16(1).u16(1).bytes,
      label_with(0x7f),
      name_of_labels({63, 63, 63, 62}),
      wire_header(1, 0, 0, 0).label("a").u8(0).u16(1).bytes,
  };
  for (const auto& wire : bad) {
    const auto full = decode(wire);
    const auto head = decode_header(wire);
    ASSERT_FALSE(full.ok());
    ASSERT_FALSE(head.ok());
    EXPECT_EQ(head.error().message, full.error().message);
  }
}

TEST(DecodeHeader, CountsAsOneDecodedMessage) {
  const auto wire = truncation_subject();
  const auto& perf = util::perf::counters();
  const auto decoded = perf.dns_decoded;
  const auto bytes = perf.dns_bytes_decoded;
  ASSERT_TRUE(decode_header(wire).ok());
  EXPECT_EQ(perf.dns_decoded, decoded + 1);
  EXPECT_EQ(perf.dns_bytes_decoded, bytes + wire.size());
  // Failures count too, as they do for decode().
  ASSERT_FALSE(decode_header(std::span<const std::uint8_t>(wire.data(), 5))
                   .ok());
  EXPECT_EQ(perf.dns_decoded, decoded + 2);
  EXPECT_EQ(perf.dns_bytes_decoded, bytes + wire.size() + 5);
}

}  // namespace
}  // namespace mecdns::dns
