// Differential check of the wire codec against c-ares, an independent
// RFC 1035 implementation: our encode() must parse in c-ares to the same
// message, and c-ares' own encoding must decode() to it. Built only when
// CMake finds c-ares (>= 1.34) — see tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <ares.h>
#include <arpa/inet.h>

#include <memory>
#include <string>
#include <vector>

#include "dns/wire.h"

namespace mecdns::dns {
namespace {

using CaresRecord =
    std::unique_ptr<ares_dns_record_t, decltype(&ares_dns_record_destroy)>;

constexpr unsigned short kOptionClientSubnet = 8;

// --- names ------------------------------------------------------------------

/// c-ares spells the root as "" and other names without a trailing dot.
std::string cares_name(const DnsName& name) {
  return name.is_root() ? std::string() : name.to_string();
}

DnsName our_name(const char* text) {
  const std::string s = text == nullptr ? "" : text;
  return s.empty() ? DnsName::root() : DnsName::must_parse(s);
}

// --- ECS option body (RFC 7871 §6), written independently of dns/edns ---

std::vector<unsigned char> ecs_body(const ClientSubnet& ecs) {
  std::vector<unsigned char> body = {0, 1, ecs.source_prefix,
                                     ecs.scope_prefix};
  const std::uint32_t addr = ecs.address.value();
  for (int i = 0; i < (ecs.source_prefix + 7) / 8; ++i) {
    body.push_back(static_cast<unsigned char>(addr >> (24 - 8 * i)));
  }
  return body;
}

ClientSubnet parse_ecs_body(const unsigned char* body, std::size_t len) {
  EXPECT_GE(len, 4u);
  EXPECT_EQ((body[0] << 8) | body[1], 1);  // IPv4
  ClientSubnet ecs;
  ecs.source_prefix = body[2];
  ecs.scope_prefix = body[3];
  std::uint32_t addr = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    addr = (addr << 8) | (4 + i < len ? body[4 + i] : 0);
  }
  ecs.address = simnet::Ipv4Address(addr);
  return ecs;
}

// --- Message -> c-ares ------------------------------------------------------

void set_rdata(ares_dns_rr_t* rr, const ResourceRecord& ours) {
  struct Setter {
    ares_dns_rr_t* rr;
    void operator()(const ARecord& a) {
      in_addr addr{};
      addr.s_addr = htonl(a.address.value());
      ASSERT_EQ(ares_dns_rr_set_addr(rr, ARES_RR_A_ADDR, &addr), ARES_SUCCESS);
    }
    void operator()(const AaaaRecord& a) {
      ares_in6_addr addr{};
      std::copy(a.address.begin(), a.address.end(), addr._S6_un._S6_u8);
      ASSERT_EQ(ares_dns_rr_set_addr6(rr, ARES_RR_AAAA_ADDR, &addr),
                ARES_SUCCESS);
    }
    void operator()(const NsRecord& ns) {
      ASSERT_EQ(ares_dns_rr_set_str(rr, ARES_RR_NS_NSDNAME,
                                    cares_name(ns.nameserver).c_str()),
                ARES_SUCCESS);
    }
    void operator()(const CnameRecord& c) {
      ASSERT_EQ(ares_dns_rr_set_str(rr, ARES_RR_CNAME_CNAME,
                                    cares_name(c.target).c_str()),
                ARES_SUCCESS);
    }
    void operator()(const PtrRecord& p) {
      ASSERT_EQ(ares_dns_rr_set_str(rr, ARES_RR_PTR_DNAME,
                                    cares_name(p.target).c_str()),
                ARES_SUCCESS);
    }
    void operator()(const SoaRecord& soa) {
      ASSERT_EQ(ares_dns_rr_set_str(rr, ARES_RR_SOA_MNAME,
                                    cares_name(soa.mname).c_str()),
                ARES_SUCCESS);
      ASSERT_EQ(ares_dns_rr_set_str(rr, ARES_RR_SOA_RNAME,
                                    cares_name(soa.rname).c_str()),
                ARES_SUCCESS);
      const std::pair<ares_dns_rr_key_t, std::uint32_t> fields[] = {
          {ARES_RR_SOA_SERIAL, soa.serial},   {ARES_RR_SOA_REFRESH, soa.refresh},
          {ARES_RR_SOA_RETRY, soa.retry},     {ARES_RR_SOA_EXPIRE, soa.expire},
          {ARES_RR_SOA_MINIMUM, soa.minimum}};
      for (const auto& [key, value] : fields) {
        ASSERT_EQ(ares_dns_rr_set_u32(rr, key, value), ARES_SUCCESS);
      }
    }
    void operator()(const TxtRecord& txt) {
      for (const auto& s : txt.strings) {
        ASSERT_EQ(ares_dns_rr_add_abin(
                      rr, ARES_RR_TXT_DATA,
                      reinterpret_cast<const unsigned char*>(s.data()),
                      s.size()),
                  ARES_SUCCESS);
      }
    }
    void operator()(const SrvRecord& srv) {
      ASSERT_EQ(ares_dns_rr_set_u16(rr, ARES_RR_SRV_PRIORITY, srv.priority),
                ARES_SUCCESS);
      ASSERT_EQ(ares_dns_rr_set_u16(rr, ARES_RR_SRV_WEIGHT, srv.weight),
                ARES_SUCCESS);
      ASSERT_EQ(ares_dns_rr_set_u16(rr, ARES_RR_SRV_PORT, srv.port),
                ARES_SUCCESS);
      ASSERT_EQ(ares_dns_rr_set_str(rr, ARES_RR_SRV_TARGET,
                                    cares_name(srv.target).c_str()),
                ARES_SUCCESS);
    }
    void operator()(const OptRecord&) { FAIL() << "OPT rides in Message::edns"; }
    void operator()(const RawRecord&) { FAIL() << "no raw records here"; }
  };
  std::visit(Setter{rr}, ours.rdata);
}

CaresRecord to_cares(const Message& msg) {
  const Header& h = msg.header;
  unsigned short flags = 0;
  if (h.qr) flags |= ARES_FLAG_QR;
  if (h.aa) flags |= ARES_FLAG_AA;
  if (h.tc) flags |= ARES_FLAG_TC;
  if (h.rd) flags |= ARES_FLAG_RD;
  if (h.ra) flags |= ARES_FLAG_RA;
  ares_dns_record_t* raw = nullptr;
  EXPECT_EQ(ares_dns_record_create(&raw, h.id, flags,
                                   static_cast<ares_dns_opcode_t>(h.opcode),
                                   static_cast<ares_dns_rcode_t>(h.rcode)),
            ARES_SUCCESS);
  CaresRecord rec(raw, &ares_dns_record_destroy);
  for (const Question& q : msg.questions) {
    EXPECT_EQ(ares_dns_record_query_add(
                  rec.get(), cares_name(q.name).c_str(),
                  static_cast<ares_dns_rec_type_t>(q.type),
                  static_cast<ares_dns_class_t>(q.cls)),
              ARES_SUCCESS);
  }
  const std::pair<ares_dns_section_t, const RecordList*> sections[] = {
      {ARES_SECTION_ANSWER, &msg.answers},
      {ARES_SECTION_AUTHORITY, &msg.authorities},
      {ARES_SECTION_ADDITIONAL, &msg.additionals}};
  for (const auto& [section, records] : sections) {
    for (const ResourceRecord& ours : *records) {
      ares_dns_rr_t* rr = nullptr;
      EXPECT_EQ(ares_dns_record_rr_add(
                    &rr, rec.get(), section, cares_name(ours.name).c_str(),
                    static_cast<ares_dns_rec_type_t>(ours.type),
                    static_cast<ares_dns_class_t>(ours.cls), ours.ttl),
                ARES_SUCCESS);
      set_rdata(rr, ours);
    }
  }
  if (msg.edns.has_value()) {
    const Edns& edns = *msg.edns;
    ares_dns_rr_t* rr = nullptr;
    EXPECT_EQ(ares_dns_record_rr_add(&rr, rec.get(), ARES_SECTION_ADDITIONAL,
                                     "", ARES_REC_TYPE_OPT, ARES_CLASS_IN, 0),
              ARES_SUCCESS);
    EXPECT_EQ(ares_dns_rr_set_u16(rr, ARES_RR_OPT_UDP_SIZE,
                                  edns.udp_payload_size),
              ARES_SUCCESS);
    EXPECT_EQ(ares_dns_rr_set_u8(rr, ARES_RR_OPT_VERSION, edns.version),
              ARES_SUCCESS);
    EXPECT_EQ(ares_dns_rr_set_u16(rr, ARES_RR_OPT_FLAGS,
                                  edns.dnssec_ok ? 0x8000 : 0),
              ARES_SUCCESS);
    if (edns.client_subnet.has_value()) {
      const auto body = ecs_body(*edns.client_subnet);
      EXPECT_EQ(ares_dns_rr_set_opt(rr, ARES_RR_OPT_OPTIONS,
                                    kOptionClientSubnet, body.data(),
                                    body.size()),
                ARES_SUCCESS);
    }
  }
  return rec;
}

// --- c-ares -> Message ------------------------------------------------------

ResourceRecord from_cares_rr(const ares_dns_rr_t* rr) {
  ResourceRecord ours;
  ours.name = our_name(ares_dns_rr_get_name(rr));
  ours.type = static_cast<RecordType>(ares_dns_rr_get_type(rr));
  ours.cls = static_cast<RecordClass>(ares_dns_rr_get_class(rr));
  ours.ttl = ares_dns_rr_get_ttl(rr);
  const auto str = [&](ares_dns_rr_key_t key) {
    return our_name(ares_dns_rr_get_str(rr, key));
  };
  switch (ours.type) {
    case RecordType::kA:
      ours.rdata = ARecord{simnet::Ipv4Address(
          ntohl(ares_dns_rr_get_addr(rr, ARES_RR_A_ADDR)->s_addr))};
      break;
    case RecordType::kAaaa: {
      AaaaRecord aaaa;
      const auto* addr = ares_dns_rr_get_addr6(rr, ARES_RR_AAAA_ADDR);
      std::copy(addr->_S6_un._S6_u8, addr->_S6_un._S6_u8 + 16,
                aaaa.address.begin());
      ours.rdata = aaaa;
      break;
    }
    case RecordType::kNs:
      ours.rdata = NsRecord{str(ARES_RR_NS_NSDNAME)};
      break;
    case RecordType::kCname:
      ours.rdata = CnameRecord{str(ARES_RR_CNAME_CNAME)};
      break;
    case RecordType::kPtr:
      ours.rdata = PtrRecord{str(ARES_RR_PTR_DNAME)};
      break;
    case RecordType::kSoa:
      ours.rdata = SoaRecord{str(ARES_RR_SOA_MNAME),
                             str(ARES_RR_SOA_RNAME),
                             ares_dns_rr_get_u32(rr, ARES_RR_SOA_SERIAL),
                             ares_dns_rr_get_u32(rr, ARES_RR_SOA_REFRESH),
                             ares_dns_rr_get_u32(rr, ARES_RR_SOA_RETRY),
                             ares_dns_rr_get_u32(rr, ARES_RR_SOA_EXPIRE),
                             ares_dns_rr_get_u32(rr, ARES_RR_SOA_MINIMUM)};
      break;
    case RecordType::kTxt: {
      TxtRecord txt;
      for (std::size_t i = 0;
           i < ares_dns_rr_get_abin_cnt(rr, ARES_RR_TXT_DATA); ++i) {
        std::size_t len = 0;
        const unsigned char* s =
            ares_dns_rr_get_abin(rr, ARES_RR_TXT_DATA, i, &len);
        txt.strings.emplace_back(reinterpret_cast<const char*>(s), len);
      }
      ours.rdata = std::move(txt);
      break;
    }
    case RecordType::kSrv:
      ours.rdata = SrvRecord{ares_dns_rr_get_u16(rr, ARES_RR_SRV_PRIORITY),
                             ares_dns_rr_get_u16(rr, ARES_RR_SRV_WEIGHT),
                             ares_dns_rr_get_u16(rr, ARES_RR_SRV_PORT),
                             str(ARES_RR_SRV_TARGET)};
      break;
    default:
      ADD_FAILURE() << "unexpected type " << to_string(ours.type);
      break;
  }
  return ours;
}

Edns edns_from_cares(const ares_dns_rr_t* rr) {
  Edns edns;
  edns.udp_payload_size = ares_dns_rr_get_u16(rr, ARES_RR_OPT_UDP_SIZE);
  edns.version = ares_dns_rr_get_u8(rr, ARES_RR_OPT_VERSION);
  edns.dnssec_ok = (ares_dns_rr_get_u16(rr, ARES_RR_OPT_FLAGS) & 0x8000) != 0;
  for (std::size_t i = 0; i < ares_dns_rr_get_opt_cnt(rr, ARES_RR_OPT_OPTIONS);
       ++i) {
    const unsigned char* body = nullptr;
    std::size_t len = 0;
    const unsigned short code =
        ares_dns_rr_get_opt(rr, ARES_RR_OPT_OPTIONS, i, &body, &len);
    if (code == kOptionClientSubnet) {
      edns.client_subnet = parse_ecs_body(body, len);
    }
  }
  return edns;
}

Message from_cares(const ares_dns_record_t* rec) {
  Message msg;
  Header& h = msg.header;
  h.id = ares_dns_record_get_id(rec);
  const unsigned short flags = ares_dns_record_get_flags(rec);
  h.qr = (flags & ARES_FLAG_QR) != 0;
  h.aa = (flags & ARES_FLAG_AA) != 0;
  h.tc = (flags & ARES_FLAG_TC) != 0;
  h.rd = (flags & ARES_FLAG_RD) != 0;
  h.ra = (flags & ARES_FLAG_RA) != 0;
  h.opcode = static_cast<Opcode>(ares_dns_record_get_opcode(rec));
  h.rcode = static_cast<RCode>(ares_dns_record_get_rcode(rec));
  for (std::size_t i = 0; i < ares_dns_record_query_cnt(rec); ++i) {
    const char* name = nullptr;
    ares_dns_rec_type_t type{};
    ares_dns_class_t cls{};
    EXPECT_EQ(ares_dns_record_query_get(rec, i, &name, &type, &cls),
              ARES_SUCCESS);
    msg.questions.push_back(Question{our_name(name),
                                     static_cast<RecordType>(type),
                                     static_cast<RecordClass>(cls)});
  }
  const std::pair<ares_dns_section_t, RecordList*> sections[] = {
      {ARES_SECTION_ANSWER, &msg.answers},
      {ARES_SECTION_AUTHORITY, &msg.authorities},
      {ARES_SECTION_ADDITIONAL, &msg.additionals}};
  for (const auto& [section, records] : sections) {
    for (std::size_t i = 0; i < ares_dns_record_rr_cnt(rec, section); ++i) {
      const ares_dns_rr_t* rr = ares_dns_record_rr_get_const(rec, section, i);
      if (ares_dns_rr_get_type(rr) == ARES_REC_TYPE_OPT) {
        EXPECT_FALSE(msg.edns.has_value()) << "second OPT";
        msg.edns = edns_from_cares(rr);
      } else {
        records->push_back(from_cares_rr(rr));
      }
    }
  }
  return msg;
}

// --- the messages -----------------------------------------------------------

DnsName n(const char* text) { return DnsName::must_parse(text); }
simnet::Ipv4Address ip(const char* text) {
  return simnet::Ipv4Address::must_parse(text);
}

Message response_to(const char* qname, RecordType qtype) {
  Message msg = make_query(0x4d2e, n(qname), qtype);
  msg.header.qr = true;
  msg.header.ra = true;
  return msg;
}

Edns edns_with_ecs(const char* subnet_address, std::uint8_t source,
                   std::uint8_t scope) {
  Edns edns;
  edns.udp_payload_size = 4096;
  edns.client_subnet = ClientSubnet{ip(subnet_address), source, scope};
  return edns;
}

struct DiffCase {
  std::string label;
  Message msg;
};

std::vector<DiffCase> diff_cases() {
  std::vector<DiffCase> cases;
  {
    // The MEC CDN answer: a CNAME into the CDN, its A record, ECS scoped.
    Message m = response_to("www.example.com", RecordType::kA);
    m.answers.push_back(make_cname(n("www.example.com"),
                                   n("edge.cdn.example.com"), 60));
    m.answers.push_back(make_a(n("edge.cdn.example.com"), ip("198.18.0.7"), 30));
    m.edns = edns_with_ecs("203.0.113.0", 24, 24);
    cases.push_back({"CnameChainWithEcs", std::move(m)});
  }
  {
    Message m = response_to("v6.example.com", RecordType::kAaaa);
    AaaaRecord aaaa;
    for (std::size_t i = 0; i < 16; ++i) {
      aaaa.address[i] = static_cast<std::uint8_t>(0x20 + i);
    }
    m.answers.push_back(ResourceRecord{n("v6.example.com"), RecordType::kAaaa,
                                       RecordClass::kIn, 300, aaaa});
    m.authorities.push_back(make_ns(n("example.com"), n("ns1.example.com"),
                                    86400));
    m.authorities.push_back(make_ns(n("example.com"), n("ns2.example.net"),
                                    86400));
    m.additionals.push_back(make_a(n("ns1.example.com"), ip("192.0.2.53"),
                                   86400));
    cases.push_back({"AaaaWithReferralAndGlue", std::move(m)});
  }
  {
    Message m = response_to("missing.example.com", RecordType::kA);
    m.header.aa = true;
    m.header.rcode = RCode::kNxDomain;
    SoaRecord soa{n("ns1.example.com"), n("hostmaster.example.com"),
                  2024010101, 7200, 900, 1209600, 300};
    m.authorities.push_back(ResourceRecord{n("example.com"), RecordType::kSoa,
                                           RecordClass::kIn, 3600, soa});
    cases.push_back({"NxdomainWithSoa", std::move(m)});
  }
  {
    Message m = response_to("7.0.18.198.in-addr.arpa", RecordType::kPtr);
    m.answers.push_back(make_ptr(n("7.0.18.198.in-addr.arpa"),
                                 n("edge.cdn.example.com"), 120));
    cases.push_back({"Ptr", std::move(m)});
  }
  {
    Message m = response_to("example.com", RecordType::kTxt);
    m.answers.push_back(make_txt(n("example.com"),
                                 {"v=spf1 -all", "", std::string(255, 'x')},
                                 60));
    cases.push_back({"Txt", std::move(m)});
  }
  {
    Message m = response_to("_dns._udp.mec.test", RecordType::kSrv);
    m.answers.push_back(make_srv(n("_dns._udp.mec.test"), 10, 20, 53,
                                 n("ldns.mec.test"), 120));
    m.answers.push_back(make_srv(n("_dns._udp.mec.test"), 20, 0, 5353,
                                 n("backup.mec.test"), 120));
    cases.push_back({"Srv", std::move(m)});
  }
  {
    // A truncated UDP answer: TC set, empty sections, EDNS with DO.
    Message m = response_to("big.example.com", RecordType::kTxt);
    m.header.tc = true;
    m.edns = Edns{};
    m.edns->udp_payload_size = 512;
    m.edns->dnssec_ok = true;
    cases.push_back({"Truncated", std::move(m)});
  }
  {
    // The stub's query as the MEC L-DNS sees it: RD, ECS /20.
    Message m = make_query(0x0102, n("video.mec.test"), RecordType::kA);
    m.edns = edns_with_ecs("10.45.64.0", 20, 0);
    cases.push_back({"QueryWithEcs", std::move(m)});
  }
  return cases;
}

void expect_same(const Message& got, const Message& want) {
  EXPECT_EQ(got.header, want.header);
  EXPECT_EQ(got.questions, want.questions);
  EXPECT_EQ(got.answers, want.answers);
  EXPECT_EQ(got.authorities, want.authorities);
  EXPECT_EQ(got.additionals, want.additionals);
  EXPECT_TRUE(got.edns == want.edns);
}

class CaresDiff : public ::testing::TestWithParam<DiffCase> {};

TEST_P(CaresDiff, OurEncodingParsesInCares) {
  const Message& msg = GetParam().msg;
  const auto wire = encode(msg);
  ares_dns_record_t* raw = nullptr;
  ASSERT_EQ(ares_dns_parse(wire.data(), wire.size(), 0, &raw), ARES_SUCCESS);
  CaresRecord parsed(raw, &ares_dns_record_destroy);
  expect_same(from_cares(parsed.get()), msg);
}

TEST_P(CaresDiff, CaresEncodingDecodesHere) {
  const Message& msg = GetParam().msg;
  const CaresRecord rec = to_cares(msg);
  unsigned char* buf = nullptr;
  std::size_t len = 0;
  ASSERT_EQ(ares_dns_write(rec.get(), &buf, &len), ARES_SUCCESS);
  const std::vector<std::uint8_t> wire(buf, buf + len);
  ares_free_string(buf);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  expect_same(decoded.value(), msg);
  // The tap's header-only parse reads c-ares' bytes the same way.
  const auto head = decode_header(wire);
  ASSERT_TRUE(head.ok()) << head.error().message;
  EXPECT_EQ(head.value().header, msg.header);
  EXPECT_EQ(*head.value().question, msg.questions.front());
}

INSTANTIATE_TEST_SUITE_P(Messages, CaresDiff, ::testing::ValuesIn(diff_cases()),
                         [](const ::testing::TestParamInfo<DiffCase>& info) {
                           return info.param.label;
                         });

TEST(CaresDiff, CaresCompressesAndWeFollowItsPointers) {
  // c-ares picks its own compression targets; the repeated owner names of
  // this message must come out as pointers, and decode must follow them.
  const Message msg = diff_cases().front().msg;
  const CaresRecord rec = to_cares(msg);
  unsigned char* buf = nullptr;
  std::size_t len = 0;
  ASSERT_EQ(ares_dns_write(rec.get(), &buf, &len), ARES_SUCCESS);
  const std::vector<std::uint8_t> wire(buf, buf + len);
  ares_free_string(buf);
  std::size_t pointers = 0;
  for (std::size_t i = 12; i + 1 < wire.size(); ++i) {
    if (wire[i] == 0xc0 && wire[i + 1] >= 12 && wire[i + 1] < wire.size()) {
      ++pointers;
    }
  }
  EXPECT_GE(pointers, 2u);
  const auto decoded = decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  expect_same(decoded.value(), msg);
}

}  // namespace
}  // namespace mecdns::dns
