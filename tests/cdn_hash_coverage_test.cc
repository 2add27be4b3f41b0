// Consistent hashing, coverage zones and GeoIP tests — the selection
// machinery behind the C-DNS.
#include <gtest/gtest.h>

#include <map>

#include "cdn/consistent_hash.h"
#include "cdn/coverage.h"
#include "cdn/geo.h"

namespace mecdns::cdn {
namespace {

TEST(ConsistentHash, PickIsDeterministic) {
  ConsistentHashRing ring;
  ring.add("a");
  ring.add("b");
  ring.add("c");
  for (int i = 0; i < 50; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_EQ(ring.pick(key), ring.pick(key));
  }
}

TEST(ConsistentHash, EmptyRingPicksNothing) {
  ConsistentHashRing ring;
  EXPECT_FALSE(ring.pick("x").has_value());
}

TEST(ConsistentHash, BalanceAcrossMembers) {
  // Ring balance improves with virtual-node count; 256 vnodes keeps every
  // member within a factor ~2 of fair share (arc lengths on a hash ring
  // have high variance at low vnode counts — that is expected, not a bug).
  ConsistentHashRing ring(256);
  const int members = 8;
  for (int i = 0; i < members; ++i) ring.add("cache-" + std::to_string(i));
  std::map<std::string, int> counts;
  const int keys = 20000;
  for (int i = 0; i < keys; ++i) {
    ++counts[*ring.pick("object-" + std::to_string(i))];
  }
  EXPECT_EQ(counts.size(), static_cast<std::size_t>(members));
  for (const auto& [member, count] : counts) {
    EXPECT_GT(count, keys / members / 2) << member;
    EXPECT_LT(count, keys / members * 2) << member;
  }
}

TEST(ConsistentHash, MoreVnodesImproveBalance) {
  const auto spread = [](unsigned vnodes) {
    ConsistentHashRing ring(vnodes);
    for (int i = 0; i < 8; ++i) ring.add("cache-" + std::to_string(i));
    std::map<std::string, int> counts;
    for (int i = 0; i < 8000; ++i) {
      ++counts[*ring.pick("object-" + std::to_string(i))];
    }
    int lo = 8000;
    int hi = 0;
    for (const auto& [member, count] : counts) {
      lo = std::min(lo, count);
      hi = std::max(hi, count);
    }
    return hi - lo;
  };
  EXPECT_LT(spread(512), spread(8));
}

TEST(ConsistentHash, MinimalDisruptionOnMemberRemoval) {
  ConsistentHashRing ring(64);
  for (int i = 0; i < 8; ++i) ring.add("cache-" + std::to_string(i));
  std::map<std::string, std::string> before;
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "object-" + std::to_string(i);
    before[key] = *ring.pick(key);
  }
  ring.remove("cache-3");
  int moved = 0;
  for (const auto& [key, owner] : before) {
    if (*ring.pick(key) != owner) ++moved;
  }
  // Only keys owned by the removed member (~1/8) should move; allow slack.
  EXPECT_LT(moved, 5000 / 8 * 2);
  // And keys that were NOT on cache-3 must not move at all.
  for (const auto& [key, owner] : before) {
    if (owner != "cache-3") {
      EXPECT_EQ(*ring.pick(key), owner);
    }
  }
}

TEST(ConsistentHash, AddRemoveContainsSize) {
  ConsistentHashRing ring;
  ring.add("a");
  ring.add("a");  // idempotent
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring.contains("a"));
  ring.remove("a");
  EXPECT_FALSE(ring.contains("a"));
  EXPECT_TRUE(ring.empty());
  ring.remove("a");  // idempotent
  EXPECT_EQ(ring.size(), 0u);
}

// --- coverage zones -------------------------------------------------------------

TEST(Coverage, LongestPrefixWins) {
  CoverageZoneMap map;
  map.add(simnet::Cidr::must_parse("10.0.0.0/8"), "wide");
  map.add(simnet::Cidr::must_parse("10.45.0.0/16"), "narrow");
  EXPECT_EQ(*map.lookup(simnet::Ipv4Address::must_parse("10.45.1.1")),
            "narrow");
  EXPECT_EQ(*map.lookup(simnet::Ipv4Address::must_parse("10.46.1.1")),
            "wide");
  EXPECT_FALSE(
      map.lookup(simnet::Ipv4Address::must_parse("192.168.1.1")).has_value());
}

TEST(Coverage, DefaultGroupFallback) {
  CoverageZoneMap map;
  map.add(simnet::Cidr::must_parse("10.0.0.0/8"), "edge");
  EXPECT_FALSE(
      map.resolve(simnet::Ipv4Address::must_parse("8.8.8.8")).has_value());
  map.set_default_group("cloud");
  EXPECT_EQ(*map.resolve(simnet::Ipv4Address::must_parse("8.8.8.8")),
            "cloud");
  EXPECT_EQ(*map.resolve(simnet::Ipv4Address::must_parse("10.1.1.1")),
            "edge");
}

// --- GeoIP ------------------------------------------------------------------------

TEST(Geo, Distance) {
  EXPECT_DOUBLE_EQ(distance_km({0, 0}, {3, 4}), 5.0);
}

TEST(Geo, ExactLookupLongestPrefix) {
  GeoIpDatabase db;
  db.add(simnet::Cidr::must_parse("203.0.0.0/8"), {100, 100}, "country");
  db.add(simnet::Cidr::must_parse("203.0.113.0/24"), {1, 1}, "city");
  const auto entry =
      db.locate_exact(simnet::Ipv4Address::must_parse("203.0.113.7"));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->label, "city");
  EXPECT_FALSE(
      db.locate_exact(simnet::Ipv4Address::must_parse("10.0.0.1")).has_value());
}

TEST(Geo, PerfectAccuracyReturnsTrueLocation) {
  GeoIpDatabase db(GeoAccuracy{0.0, 0.0});
  db.add(simnet::Cidr::must_parse("203.0.113.0/24"), {10, 20}, "site");
  for (int i = 0; i < 50; ++i) {
    const auto point =
        db.locate(simnet::Ipv4Address::must_parse("203.0.113.7"));
    ASSERT_TRUE(point.has_value());
    EXPECT_EQ(*point, (GeoPoint{10, 20}));
  }
}

TEST(Geo, MislocationRateApproximatelyConfigured) {
  GeoIpDatabase db(GeoAccuracy{0.3, 0.0}, /*seed=*/77);
  db.add(simnet::Cidr::must_parse("203.0.113.0/24"), {0, 0}, "here");
  db.add(simnet::Cidr::must_parse("198.51.100.0/24"), {500, 0}, "there");
  int wrong = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const auto point =
        db.locate(simnet::Ipv4Address::must_parse("203.0.113.7"));
    // A mislocation picks a random entry; half of those land back on the
    // true row, so expect ~15% observable error.
    if (point->x_km != 0.0) ++wrong;
  }
  EXPECT_NEAR(static_cast<double>(wrong) / n, 0.15, 0.04);
}

TEST(Geo, NoiseStaysWithinRadius) {
  GeoIpDatabase db(GeoAccuracy{0.0, 25.0}, 3);
  db.add(simnet::Cidr::must_parse("203.0.113.0/24"), {0, 0}, "here");
  for (int i = 0; i < 200; ++i) {
    const auto point =
        db.locate(simnet::Ipv4Address::must_parse("203.0.113.7"));
    EXPECT_LE(distance_km(*point, {0, 0}), 25.0 + 1e-9);
  }
}

}  // namespace
}  // namespace mecdns::cdn
