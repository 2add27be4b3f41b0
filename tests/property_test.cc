// Property-style tests: randomized inputs checked against invariants or
// reference models, parameterized over seeds.
#include <gtest/gtest.h>

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
        txt.strings.push_back("s" + std::to_string(rng.uniform_int(1000u)));
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
