// Property-style tests: randomized inputs checked against invariants or
// reference models, parameterized over seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>

#include "cdn/consistent_hash.h"
#include "dns/cache.h"
#include "dns/wire.h"
#include "util/rng.h"

namespace mecdns {
namespace {

// --- random DNS message <-> wire roundtrip -------------------------------------

dns::DnsName random_name(util::Rng& rng) {
  const std::size_t labels = 1 + rng.uniform_int(4u);
  std::string text;
  for (std::size_t i = 0; i < labels; ++i) {
    if (i != 0) text += ".";
    const std::size_t len = 1 + rng.uniform_int(12u);
    for (std::size_t j = 0; j < len; ++j) {
      text += static_cast<char>('a' + rng.uniform_int(26u));
    }
  }
  return dns::DnsName::must_parse(text);
}

dns::ResourceRecord random_record(util::Rng& rng) {
  dns::ResourceRecord rr;
  rr.name = random_name(rng);
  rr.ttl = static_cast<std::uint32_t>(rng.uniform_int(100000u));
  switch (rng.uniform_int(6u)) {
    case 0:
      rr.type = dns::RecordType::kA;
      rr.rdata = dns::ARecord{
          simnet::Ipv4Address(static_cast<std::uint32_t>(rng.next()))};
      break;
    case 1:
      rr.type = dns::RecordType::kCname;
      rr.rdata = dns::CnameRecord{random_name(rng)};
      break;
    case 2:
      rr.type = dns::RecordType::kNs;
      rr.rdata = dns::NsRecord{random_name(rng)};
      break;
    case 3: {
      rr.type = dns::RecordType::kTxt;
      dns::TxtRecord txt;
      const std::size_t n = 1 + rng.uniform_int(3u);
      for (std::size_t i = 0; i < n; ++i) {
        // Appended rather than `"s" + to_string(...)`, which trips GCC 12's
        // -Wrestrict false positive once this function is inlined.
        std::string text = "s";
        text += std::to_string(rng.uniform_int(1000u));
        txt.strings.push_back(std::move(text));
      }
      rr.rdata = std::move(txt);
      break;
    }
    case 4: {
      rr.type = dns::RecordType::kSrv;
      dns::SrvRecord srv;
      srv.priority = static_cast<std::uint16_t>(rng.next());
      srv.weight = static_cast<std::uint16_t>(rng.next());
      srv.port = static_cast<std::uint16_t>(rng.next());
      srv.target = random_name(rng);
      rr.rdata = std::move(srv);
      break;
    }
    default: {
      rr.type = dns::RecordType::kSoa;
      dns::SoaRecord soa;
      soa.mname = random_name(rng);
      soa.rname = random_name(rng);
      soa.serial = static_cast<std::uint32_t>(rng.next());
      soa.minimum = static_cast<std::uint32_t>(rng.uniform_int(86400u));
      rr.rdata = std::move(soa);
      break;
    }
  }
  return rr;
}

class WireRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTripProperty, RandomMessagesSurviveEncodeDecode) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    dns::Message msg;
    msg.header.id = static_cast<std::uint16_t>(rng.next());
    msg.header.qr = rng.bernoulli(0.5);
    msg.header.aa = rng.bernoulli(0.5);
    msg.header.rd = rng.bernoulli(0.5);
    msg.header.ra = rng.bernoulli(0.5);
    msg.header.rcode = static_cast<dns::RCode>(rng.uniform_int(6u));
    msg.questions.push_back(dns::Question{random_name(rng),
                                          dns::RecordType::kA,
                                          dns::RecordClass::kIn});
    const std::size_t answers = rng.uniform_int(5u);
    for (std::size_t i = 0; i < answers; ++i) {
      msg.answers.push_back(random_record(rng));
    }
    const std::size_t authorities = rng.uniform_int(3u);
    for (std::size_t i = 0; i < authorities; ++i) {
      msg.authorities.push_back(random_record(rng));
    }
    if (rng.bernoulli(0.5)) {
      msg.edns = dns::Edns{};
      if (rng.bernoulli(0.7)) {
        dns::ClientSubnet ecs;
        ecs.address =
            simnet::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
        ecs.source_prefix = static_cast<std::uint8_t>(rng.uniform_int(33u));
        // The wire truncates the address to the prefix; normalize so the
        // roundtrip comparison is exact.
        ecs.address = ecs.subnet().network();
        ecs.scope_prefix = static_cast<std::uint8_t>(rng.uniform_int(33u));
        msg.edns->client_subnet = ecs;
      }
      msg.edns->dnssec_ok = rng.bernoulli(0.5);
    }

    const auto decoded = dns::decode(dns::encode(msg));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded.value().header, msg.header);
    EXPECT_EQ(decoded.value().questions, msg.questions);
    EXPECT_EQ(decoded.value().answers, msg.answers);
    EXPECT_EQ(decoded.value().authorities, msg.authorities);
    EXPECT_EQ(decoded.value().edns == msg.edns, true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// Random byte strings never crash the decoder (it may succeed by luck, but
// must never read out of bounds; asan/ubsan in debug builds back this up).
class WireFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzProperty, RandomBytesNeverCrashDecoder) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t size = rng.uniform_int(80u);
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    (void)dns::decode(bytes);
  }
}

TEST_P(WireFuzzProperty, TruncatedValidMessagesNeverCrashDecoder) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    dns::Message msg = dns::make_query(
        static_cast<std::uint16_t>(rng.next()), random_name(rng),
        dns::RecordType::kA);
    msg.answers.push_back(random_record(rng));
    auto wire = dns::encode(msg);
    // Also flip a few random bytes.
    for (int flips = 0; flips < 3; ++flips) {
      wire[rng.uniform_int(wire.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8u));
    }
    for (std::size_t cut = 0; cut <= wire.size();
         cut += 1 + rng.uniform_int(4u)) {
      (void)dns::decode(std::span<const std::uint8_t>(wire.data(), cut));
    }
  }
}

// --- structure-aware mutation ---------------------------------------------------
//
// Valid messages, encoded, then perturbed where a decoder is most likely to
// go wrong: label lengths, compression pointers, section counts, RDLENGTH
// and OPT option lengths. The mutator knows where those fields sit because
// it walks the valid encoding first.

/// Owner names drawn from a small pool with shared suffixes (and mixed
/// case), so the encoder emits compression pointers.
dns::DnsName pooled_name(util::Rng& rng) {
  static const char* const kPool[] = {
      "www.example.com", "cdn.example.com", "example.com", "EDGE.Example.com",
      "video.mec.test",  "a.b.mec.test",    "mec.test",    "x"};
  return dns::DnsName::must_parse(kPool[rng.uniform_int(std::size(kPool))]);
}

dns::Message seed_message(util::Rng& rng) {
  dns::Message msg = dns::make_query(static_cast<std::uint16_t>(rng.next()),
                                     pooled_name(rng), dns::RecordType::kA);
  msg.header.qr = rng.bernoulli(0.7);
  msg.header.tc = rng.bernoulli(0.1);
  const auto add_records = [&](dns::RecordList& section, unsigned max) {
    const std::size_t n = rng.uniform_int(max + 1);
    for (std::size_t i = 0; i < n; ++i) {
      dns::ResourceRecord rr = random_record(rng);
      rr.name = pooled_name(rng);
      if (auto* cname = std::get_if<dns::CnameRecord>(&rr.rdata)) {
        cname->target = pooled_name(rng);
      }
      section.push_back(std::move(rr));
    }
  };
  add_records(msg.answers, 3);
  add_records(msg.authorities, 1);
  add_records(msg.additionals, 1);
  if (rng.bernoulli(0.7)) {
    msg.edns = dns::Edns{};
    if (rng.bernoulli(0.7)) {
      dns::ClientSubnet ecs;
      ecs.source_prefix = static_cast<std::uint8_t>(rng.uniform_int(33u));
      ecs.address = simnet::Cidr(simnet::Ipv4Address(static_cast<std::uint32_t>(
                                     rng.next())),
                                 ecs.source_prefix)
                        .network();
      msg.edns->client_subnet = ecs;
    }
  }
  return msg;
}

/// Offsets of the fields the mutator targets in a valid encoding.
struct WireMap {
  std::vector<std::size_t> label_lengths;
  std::vector<std::size_t> pointers;
  std::vector<std::size_t> counts = {4, 6, 8, 10};
  std::vector<std::size_t> rdlengths;
  std::vector<std::size_t> option_lengths;
};

WireMap map_wire(const std::vector<std::uint8_t>& w) {
  WireMap map;
  const auto u16 = [&](std::size_t at) {
    return static_cast<std::size_t>((w[at] << 8) | w[at + 1]);
  };
  const auto skip_name = [&](std::size_t at) {
    while (true) {
      const std::uint8_t len = w[at];
      if ((len & 0xc0) == 0xc0) {
        map.pointers.push_back(at);
        return at + 2;
      }
      if (len == 0) return at + 1;
      map.label_lengths.push_back(at);
      at += 1 + len;
    }
  };
  std::size_t at = 12;
  for (std::size_t q = u16(4); q > 0; --q) at = skip_name(at) + 4;
  for (std::size_t n = u16(6) + u16(8) + u16(10); n > 0; --n) {
    at = skip_name(at);
    const auto type = static_cast<dns::RecordType>(u16(at));
    map.rdlengths.push_back(at + 8);
    const std::size_t rdata = at + 10;
    const std::size_t end = rdata + u16(at + 8);
    switch (type) {
      case dns::RecordType::kNs:
      case dns::RecordType::kCname:
      case dns::RecordType::kPtr:
        skip_name(rdata);
        break;
      case dns::RecordType::kSoa:
        skip_name(skip_name(rdata));
        break;
      case dns::RecordType::kSrv:
        skip_name(rdata + 6);
        break;
      case dns::RecordType::kOpt:
        for (std::size_t opt = rdata; opt < end; opt += 4 + u16(opt + 2)) {
          map.option_lengths.push_back(opt + 2);
        }
        break;
      default:
        break;
    }
    at = end;
  }
  return map;
}

/// Applies one to three structure-aware perturbations, sometimes followed
/// by a truncation.
void mutate(std::vector<std::uint8_t>& w, util::Rng& rng) {
  const WireMap map = map_wire(w);
  const auto pick = [&](const std::vector<std::size_t>& v) {
    return v[rng.uniform_int(v.size())];
  };
  const auto nudge = [&](std::size_t at, unsigned wide) {
    // Off by one either way, or an arbitrary value.
    const unsigned old = wide ? (w[at] << 8) | w[at + 1] : w[at];
    unsigned next = old;
    switch (rng.uniform_int(3u)) {
      case 0: next = old + 1; break;
      case 1: next = old - 1; break;
      default: next = static_cast<unsigned>(rng.next()); break;
    }
    if (wide) w[at++] = static_cast<std::uint8_t>(next >> 8);
    w[at] = static_cast<std::uint8_t>(next);
  };
  const std::size_t edits = rng.bernoulli(0.5) ? 1 : 2 + rng.uniform_int(2u);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (rng.uniform_int(5u)) {
      case 0:
        if (!map.label_lengths.empty()) {
          const std::size_t at = pick(map.label_lengths);
          if (rng.bernoulli(0.2)) {
            w[at] = static_cast<std::uint8_t>(rng.bernoulli(0.5) ? 0x40 : 0x80) |
                    (w[at] & 0x3f);
          } else {
            nudge(at, 0);
          }
        }
        break;
      case 1:
        if (!map.pointers.empty()) {
          const std::size_t at = pick(map.pointers);
          if (rng.bernoulli(0.5)) {
            nudge(at + 1, 0);  // retarget within the same 256-byte page
          } else {
            w[at] = static_cast<std::uint8_t>(0xc0 | rng.uniform_int(64u));
          }
        }
        break;
      case 2:
        nudge(pick(map.counts), 1);
        break;
      case 3:
        if (!map.rdlengths.empty()) nudge(pick(map.rdlengths), 1);
        break;
      default:
        if (!map.option_lengths.empty()) nudge(pick(map.option_lengths), 1);
        break;
    }
  }
  if (rng.bernoulli(0.2)) w.resize(rng.uniform_int(w.size() + 1));
}

/// The encoder zeroes ECS address bits beyond the source prefix (RFC 7871
/// §6), which the decoder keeps as sent: compare modulo that one rewrite.
dns::Message ecs_normalized(dns::Message msg) {
  if (msg.edns.has_value() && msg.edns->client_subnet.has_value()) {
    auto& ecs = *msg.edns->client_subnet;
    ecs.address = ecs.subnet().network();
  }
  return msg;
}

void expect_same_message(const dns::Message& a, const dns::Message& b) {
  EXPECT_EQ(a.header, b.header);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.authorities, b.authorities);
  EXPECT_EQ(a.additionals, b.additionals);
  EXPECT_TRUE(a.edns == b.edns);
}

/// The header-only parse must equal a full decode of the same bytes with
/// the section counts clipped to the first question.
std::vector<std::uint8_t> clipped_to_first_question(
    std::vector<std::uint8_t> w) {
  if (w.size() >= 12) {
    if (w[4] != 0 || w[5] != 0) {
      w[4] = 0;
      w[5] = 1;
    }
    std::fill(w.begin() + 6, w.begin() + 12, 0);
  }
  return w;
}

TEST_P(WireFuzzProperty, MutatedMessagesKeepDecoderInvariants) {
  util::Rng rng(GetParam());
  std::size_t accepted = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<std::uint8_t> wire = dns::encode(seed_message(rng));
    mutate(wire, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));

    const auto decoded = dns::decode(wire);
    const auto head = dns::decode_header(wire);
    if (decoded.ok()) {
      ++accepted;
      const dns::Message& m = decoded.value();
      // decode(encode(m)) == m.
      const auto again = dns::decode(dns::encode(m));
      ASSERT_TRUE(again.ok()) << again.error().message;
      expect_same_message(again.value(), ecs_normalized(m));
      // The tap's parse agrees with the full decode.
      ASSERT_TRUE(head.ok()) << head.error().message;
      EXPECT_EQ(head.value().header, m.header);
      ASSERT_EQ(head.value().question.has_value(), !m.questions.empty());
      if (!m.questions.empty()) {
        EXPECT_EQ(*head.value().question, m.questions.front());
        EXPECT_TRUE(
            head.value().question->name.equals_exact(m.questions.front().name));
      }
    }
    // decode_header fails exactly when the header or the first question is
    // malformed, with decode()'s error text.
    const auto first = dns::decode(clipped_to_first_question(wire));
    ASSERT_EQ(head.ok(), first.ok());
    if (!head.ok()) {
      EXPECT_EQ(head.error().message, first.error().message);
      ASSERT_FALSE(decoded.ok());
      EXPECT_EQ(decoded.error().message, head.error().message);
    } else if (!first.value().questions.empty()) {
      EXPECT_TRUE(head.value().question->name.equals_exact(
          first.value().questions.front().name));
    }
  }
  // The mutations must leave a share of inputs decodable, or the round-trip
  // property above checks nothing.
  EXPECT_GT(accepted, kTrials / 20);
  EXPECT_LT(accepted, kTrials);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzProperty,
                         ::testing::Values(101, 202, 303, 404));

// --- cache vs reference model -----------------------------------------------------

class CacheModelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheModelProperty, MatchesReferenceModel) {
  util::Rng rng(GetParam());
  dns::DnsCache cache(/*max_entries=*/64);

  struct ModelEntry {
    simnet::SimTime expires;
  };
  std::map<std::string, ModelEntry> model;

  simnet::SimTime now = simnet::SimTime::zero();
  for (int op = 0; op < 2000; ++op) {
    now += simnet::SimTime::seconds(static_cast<double>(rng.uniform_int(5u)));
    const std::string n = std::to_string(rng.uniform_int(40u));
    const std::string host = "h" + n;
    const auto name = dns::DnsName::must_parse(host + ".example.com");

    if (rng.bernoulli(0.5)) {
      const auto ttl = static_cast<std::uint32_t>(rng.uniform_int(30u));
      cache.insert(name, dns::RecordType::kA,
                   {dns::make_a(name, simnet::Ipv4Address(1), ttl)}, now);
      if (ttl > 0) {
        model[host] = ModelEntry{
            now + simnet::SimTime::seconds(static_cast<double>(ttl))};
      }
    } else {
      const auto hit = cache.lookup(name, dns::RecordType::kA, now);
      const auto it = model.find(host);
      const bool model_live = it != model.end() && it->second.expires > now;
      if (hit.has_value()) {
        // A real hit must be live in the model (the cache may have evicted
        // entries the model kept, so the converse does not hold).
        EXPECT_TRUE(model_live) << host << " at " << now.to_string();
      }
      if (it != model.end() && it->second.expires <= now) model.erase(it);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelProperty,
                         ::testing::Values(7, 77, 777));

// --- consistent hash invariants -----------------------------------------------------

class HashRingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HashRingProperty, PickAlwaysReturnsALiveMember) {
  util::Rng rng(GetParam());
  cdn::ConsistentHashRing ring(32);
  std::map<std::string, bool> live;
  for (int op = 0; op < 500; ++op) {
    const std::string n = std::to_string(rng.uniform_int(12u));
    const std::string member = "m" + n;
    switch (rng.uniform_int(3u)) {
      case 0:
        ring.add(member);
        live[member] = true;
        break;
      case 1:
        ring.remove(member);
        live[member] = false;
        break;
      default: {
        const auto pick =
            ring.pick("key" + std::to_string(rng.uniform_int(1000u)));
        std::size_t live_count = 0;
        for (const auto& [m, alive] : live) {
          if (alive) ++live_count;
        }
        EXPECT_EQ(pick.has_value(), live_count > 0);
        if (pick.has_value()) {
          EXPECT_TRUE(live[*pick]) << *pick;
        }
        break;
      }
    }
    EXPECT_EQ(ring.size(), static_cast<std::size_t>(std::count_if(
                               live.begin(), live.end(),
                               [](const auto& kv) { return kv.second; })));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashRingProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace mecdns
