#include <gtest/gtest.h>

#include "dns/cache.h"

namespace mecdns::dns {
namespace {

using simnet::SimTime;

ResourceRecord a_record(const std::string& name, std::uint32_t ttl) {
  return make_a(DnsName::must_parse(name),
                simnet::Ipv4Address::must_parse("198.18.0.1"), ttl);
}

std::vector<ResourceRecord> soa_with_minimum(std::uint32_t minimum,
                                             std::uint32_t ttl) {
  return {make_soa(DnsName::must_parse("example.com"),
                   DnsName::must_parse("ns1.example.com"), 1, minimum, ttl)};
}

const Question kGone{DnsName::must_parse("gone.example.com"), RecordType::kA};

/// A response with `rcode` and the given answer and authority sections.
Message response(RCode rcode, RecordList answers,
                 std::vector<ResourceRecord> authorities = {}) {
  Message msg;
  msg.header.qr = true;
  msg.header.rcode = rcode;
  msg.answers = std::move(answers);
  for (auto& rr : authorities) msg.authorities.push_back(std::move(rr));
  return msg;
}

TEST(DnsCache, HitWithinTtl) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 60)}, SimTime::seconds(0));
  const auto hit = cache.lookup(DnsName::must_parse("www.example.com"),
                                RecordType::kA, SimTime::seconds(59));
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->negative);
  ASSERT_EQ(hit->records.size(), 1u);
}

TEST(DnsCache, ExpiresAtTtl) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 60)}, SimTime::seconds(0));
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("www.example.com"),
                           RecordType::kA, SimTime::seconds(60))
                   .has_value());
  EXPECT_EQ(cache.stats().expired, 1u);
}

TEST(DnsCache, TtlDecrementsWithAge) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 100)}, SimTime::seconds(0));
  const auto hit = cache.lookup(DnsName::must_parse("www.example.com"),
                                RecordType::kA, SimTime::seconds(40));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->records[0].ttl, 60u);
}

TEST(DnsCache, ZeroTtlNeverCached) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 0)}, SimTime::seconds(0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("www.example.com"),
                           RecordType::kA, SimTime::seconds(0))
                   .has_value());
}

TEST(DnsCache, RrsetUsesMinimumTtl) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 100),
                a_record("www.example.com", 10)},
               SimTime::seconds(0));
  EXPECT_TRUE(cache
                  .lookup(DnsName::must_parse("www.example.com"),
                          RecordType::kA, SimTime::seconds(9))
                  .has_value());
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("www.example.com"),
                           RecordType::kA, SimTime::seconds(10))
                   .has_value());
}

TEST(DnsCache, NegativeCachingUsesSoaMinimum) {
  // NXDOMAIN, and NOERROR with only an SOA (NODATA), are stored negative.
  for (const RCode rcode : {RCode::kNxDomain, RCode::kNoError}) {
    SCOPED_TRACE(to_string(rcode));
    DnsCache cache;
    // RFC 2308: negative TTL = min(SOA TTL, SOA.minimum) = min(3600, 30).
    cache.insert_response(
        kGone, response(rcode, {}, soa_with_minimum(30, 3600)),
        SimTime::seconds(0));
    const auto hit = cache.lookup(DnsName::must_parse("gone.example.com"),
                                  RecordType::kA, SimTime::seconds(29));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->negative);
    EXPECT_EQ(hit->rcode, rcode);
    EXPECT_FALSE(cache
                     .lookup(DnsName::must_parse("gone.example.com"),
                             RecordType::kA, SimTime::seconds(31))
                     .has_value());
  }
}

TEST(DnsCache, NegativeTtlCappedBySoaRecordTtl) {
  DnsCache cache;
  // min(SOA TTL=20, minimum=3600) = 20.
  cache.insert_response(
      kGone, response(RCode::kNxDomain, {}, soa_with_minimum(3600, 20)),
      SimTime::seconds(0));
  EXPECT_TRUE(cache
                  .lookup(DnsName::must_parse("gone.example.com"),
                          RecordType::kA, SimTime::seconds(19))
                  .has_value());
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("gone.example.com"),
                           RecordType::kA, SimTime::seconds(21))
                   .has_value());
}

TEST(DnsCache, NegativeWithoutSoaNotCached) {
  DnsCache cache;
  cache.insert_response(kGone, response(RCode::kNxDomain, {}),
                        SimTime::seconds(0));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DnsCache, InsertResponseKeepsOnlyAnswersForEveryClient) {
  // RFC 7871 §7.3: entries are not keyed by subnet, so an answer scoped to
  // one /24 must not be served to every client; scope 0 is valid for all.
  for (const std::uint8_t scope : {0, 24}) {
    SCOPED_TRACE(scope);
    Message answer =
        response(RCode::kNoError, {a_record("www.example.com", 60)});
    ClientSubnet ecs;
    ecs.address = simnet::Ipv4Address::must_parse("203.0.113.0");
    ecs.source_prefix = 24;
    ecs.scope_prefix = scope;
    answer.edns = Edns{};
    answer.edns->client_subnet = ecs;
    DnsCache cache;
    const Question www{DnsName::must_parse("www.example.com"),
                       RecordType::kA};
    cache.insert_response(www, answer, SimTime::seconds(0));
    const auto hit = cache.lookup(www.name, www.type, SimTime::seconds(1));
    EXPECT_EQ(hit.has_value(), scope == 0);
  }
}

TEST(DnsCache, InsertResponseDoesNotStoreAReferral) {
  // NOERROR, no answer, NS in the authority section: a referral, not
  // NODATA, even with an SOA alongside.
  DnsCache cache;
  std::vector<ResourceRecord> authorities = soa_with_minimum(30, 3600);
  authorities.push_back(make_ns(DnsName::must_parse("gone.example.com"),
                                DnsName::must_parse("ns1.gone.example.com"),
                                30));
  cache.insert_response(
      kGone, response(RCode::kNoError, {}, std::move(authorities)),
      SimTime::seconds(0));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DnsCache, KeyIsNameAndType) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 60)}, SimTime::seconds(0));
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("www.example.com"),
                           RecordType::kTxt, SimTime::seconds(1))
                   .has_value());
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("other.example.com"),
                           RecordType::kA, SimTime::seconds(1))
                   .has_value());
}

TEST(DnsCache, EvictsClosestToExpiryWhenFull) {
  DnsCache cache(/*max_entries=*/2);
  cache.insert(DnsName::must_parse("short.example.com"), RecordType::kA,
               {a_record("short.example.com", 10)}, SimTime::seconds(0));
  cache.insert(DnsName::must_parse("long.example.com"), RecordType::kA,
               {a_record("long.example.com", 1000)}, SimTime::seconds(0));
  cache.insert(DnsName::must_parse("new.example.com"), RecordType::kA,
               {a_record("new.example.com", 500)}, SimTime::seconds(0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Heap-backed eviction examines exactly one item here: the soonest-expiry
  // entry is live, so no stale heap entries had to be skipped.
  EXPECT_EQ(cache.stats().eviction_scan_steps, 1u);
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("short.example.com"),
                           RecordType::kA, SimTime::seconds(1))
                   .has_value());
  EXPECT_TRUE(cache
                  .lookup(DnsName::must_parse("long.example.com"),
                          RecordType::kA, SimTime::seconds(1))
                  .has_value());
}

TEST(DnsCache, EvictionSkipsStaleHeapEntries) {
  DnsCache cache(/*max_entries=*/2);
  // Refreshing an entry leaves its original expiry-heap item behind as a
  // stale tombstone; eviction must skip it (counting the scan step) rather
  // than evict the refreshed entry at its old deadline.
  cache.insert(DnsName::must_parse("a.example.com"), RecordType::kA,
               {a_record("a.example.com", 10)}, SimTime::seconds(0));
  cache.insert(DnsName::must_parse("a.example.com"), RecordType::kA,
               {a_record("a.example.com", 1000)}, SimTime::seconds(0));
  cache.insert(DnsName::must_parse("b.example.com"), RecordType::kA,
               {a_record("b.example.com", 500)}, SimTime::seconds(0));
  cache.insert(DnsName::must_parse("c.example.com"), RecordType::kA,
               {a_record("c.example.com", 700)}, SimTime::seconds(0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // One stale heap item skipped, then the live soonest-expiry victim.
  EXPECT_EQ(cache.stats().eviction_scan_steps, 2u);
  EXPECT_TRUE(cache
                  .lookup(DnsName::must_parse("a.example.com"), RecordType::kA,
                          SimTime::seconds(1))
                  .has_value());
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("b.example.com"), RecordType::kA,
                           SimTime::seconds(1))
                   .has_value());
}

TEST(DnsCache, HitRateAccounting) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("a.example.com"), RecordType::kA,
               {a_record("a.example.com", 60)}, SimTime::seconds(0));
  (void)cache.lookup(DnsName::must_parse("a.example.com"), RecordType::kA,
                     SimTime::seconds(1));
  (void)cache.lookup(DnsName::must_parse("miss.example.com"), RecordType::kA,
                     SimTime::seconds(1));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(DnsCache, ServeStaleAnswersExpiredEntry) {
  DnsCache cache;
  cache.set_serve_stale(true);
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 60)}, SimTime::seconds(0));
  // Expired for the regular lookup path...
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("www.example.com"),
                           RecordType::kA, SimTime::seconds(90))
                   .has_value());
  // ...but the stale path still has it, at the RFC 8767 §4 30s TTL.
  const auto stale = cache.lookup_stale(
      DnsName::must_parse("www.example.com"), RecordType::kA,
      SimTime::seconds(90));
  ASSERT_TRUE(stale.has_value());
  ASSERT_EQ(stale->records.size(), 1u);
  EXPECT_EQ(stale->records[0].ttl, 30u);
  EXPECT_EQ(cache.stats().stale_hits, 1u);
}

TEST(DnsCache, ServeStaleOffByDefault) {
  DnsCache cache;
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 60)}, SimTime::seconds(0));
  EXPECT_FALSE(cache
                   .lookup_stale(DnsName::must_parse("www.example.com"),
                                 RecordType::kA, SimTime::seconds(90))
                   .has_value());
  EXPECT_EQ(cache.stats().stale_hits, 0u);
}

TEST(DnsCache, ServeStaleNeverServesFreshEntryAsStale) {
  // A live entry belongs to lookup(); lookup_stale() must not double-serve.
  DnsCache cache;
  cache.set_serve_stale(true);
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 60)}, SimTime::seconds(0));
  EXPECT_FALSE(cache
                   .lookup_stale(DnsName::must_parse("www.example.com"),
                                 RecordType::kA, SimTime::seconds(10))
                   .has_value());
}

TEST(DnsCache, ServeStaleWindowBoundsRetention) {
  DnsCache cache;
  cache.set_serve_stale(true, /*max_stale=*/SimTime::seconds(100));
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 60)}, SimTime::seconds(0));
  // Within expiry + max_stale: served.
  EXPECT_TRUE(cache
                  .lookup_stale(DnsName::must_parse("www.example.com"),
                                RecordType::kA, SimTime::seconds(159))
                  .has_value());
  // Past the window: gone for good.
  EXPECT_FALSE(cache
                   .lookup_stale(DnsName::must_parse("www.example.com"),
                                 RecordType::kA, SimTime::seconds(161))
                   .has_value());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(DnsCache, ServeStaleKeepsExpiredEntryResident) {
  // With serve-stale on, a regular lookup of an expired entry is a miss
  // but must not erase the entry (it is the stale path's inventory).
  DnsCache cache;
  cache.set_serve_stale(true);
  cache.insert(DnsName::must_parse("www.example.com"), RecordType::kA,
               {a_record("www.example.com", 60)}, SimTime::seconds(0));
  EXPECT_FALSE(cache
                   .lookup(DnsName::must_parse("www.example.com"),
                           RecordType::kA, SimTime::seconds(61))
                   .has_value());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache
                  .lookup_stale(DnsName::must_parse("www.example.com"),
                                RecordType::kA, SimTime::seconds(61))
                  .has_value());
}

}  // namespace
}  // namespace mecdns::dns
