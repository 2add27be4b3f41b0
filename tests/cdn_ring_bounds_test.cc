// ConsistentHashRing bounded-load and churn properties: the O(K/n) remap
// envelope, the capacity invariant, and the colliding-virtual-node edge
// case that motivates the multimap ring.
#include "cdn/consistent_hash.h"

#include <gtest/gtest.h>

#include "dns/name.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mecdns {
namespace {

using cdn::ConsistentHashRing;

ConsistentHashRing make_ring(std::size_t members, unsigned vnodes = 64) {
  ConsistentHashRing ring(vnodes);
  for (std::size_t i = 0; i < members; ++i) {
    ring.add("cache-" + std::to_string(i));
  }
  return ring;
}

TEST(RingBoundsTest, AddingOneMemberRemapsAboutOneOverN) {
  // Growing n -> n+1 must move ~1/(n+1) of the keyspace: the defining
  // consistency property. Allow generous slack for vnode variance, but
  // stay far from the ~(1 - 1/n) a modulo-hash would move.
  for (const std::size_t n : {3u, 8u, 16u}) {
    ConsistentHashRing before = make_ring(n);
    ConsistentHashRing after = make_ring(n);
    after.add("cache-new");
    const double remap =
        ConsistentHashRing::remap_fraction(before, after, 2048);
    const double ideal = 1.0 / static_cast<double>(n + 1);
    EXPECT_GT(remap, 0.0) << "n=" << n;
    EXPECT_LT(remap, 3.0 * ideal) << "n=" << n << " remap=" << remap;
  }
}

TEST(RingBoundsTest, RemovingOneMemberRemapsOnlyItsOwnShare) {
  for (const std::size_t n : {4u, 10u}) {
    ConsistentHashRing before = make_ring(n);
    ConsistentHashRing after = make_ring(n);
    after.remove("cache-1");
    const double remap =
        ConsistentHashRing::remap_fraction(before, after, 2048);
    const double ideal = 1.0 / static_cast<double>(n);
    EXPECT_GT(remap, 0.2 * ideal) << "n=" << n;
    EXPECT_LT(remap, 3.0 * ideal) << "n=" << n << " remap=" << remap;
  }
}

TEST(RingBoundsTest, IdenticalRingsRemapNothing) {
  const ConsistentHashRing a = make_ring(5);
  const ConsistentHashRing b = make_ring(5);
  EXPECT_EQ(ConsistentHashRing::remap_fraction(a, b, 1024), 0.0);
}

TEST(RingBoundsTest, BoundedPickNeverExceedsCapacity) {
  ConsistentHashRing ring = make_ring(4);
  for (const std::string& m : ring.members()) {
    ring.set_capacity(m, 100);
  }
  // Drive 400 selections (exactly the aggregate capacity), charging each
  // pick as the router does. No member may ever exceed its bound.
  std::size_t picked = 0;
  for (std::size_t i = 0; i < 400; ++i) {
    const auto member = ring.pick_bounded("/object/" + std::to_string(i));
    ASSERT_TRUE(member.has_value()) << "exhausted early at " << i;
    ring.add_load(*member);
    ++picked;
    for (const std::string& m : ring.members()) {
      ASSERT_LE(ring.load(m), ring.capacity(m));
    }
  }
  EXPECT_EQ(picked, 400u);
  // The aggregate is now full: the next pick must report exhaustion
  // rather than overload anyone.
  EXPECT_FALSE(ring.pick_bounded("/object/one-more").has_value());
  // A new accounting window restores service.
  ring.reset_loads();
  EXPECT_TRUE(ring.pick_bounded("/object/one-more").has_value());
}

TEST(RingBoundsTest, OverflowSpillsToNextMemberClockwise) {
  ConsistentHashRing ring = make_ring(3);
  const std::string key = "/hot/object";
  const auto primary = ring.pick(key);
  ASSERT_TRUE(primary.has_value());
  ring.set_capacity(*primary, 1);
  ring.add_load(*primary);  // primary is now full

  bool overflowed = false;
  const auto spill = ring.pick_bounded(key, &overflowed);
  ASSERT_TRUE(spill.has_value());
  EXPECT_TRUE(overflowed);
  EXPECT_NE(*spill, *primary);
  // Unlimited members (capacity 0) absorb any load.
  EXPECT_EQ(ring.capacity(*spill), 0u);
}

TEST(RingBoundsTest, UnboundedMembersNeverOverflow) {
  ConsistentHashRing ring = make_ring(3);
  bool overflowed = true;
  const auto pick = ring.pick_bounded("/cold/object", &overflowed);
  ASSERT_TRUE(pick.has_value());
  EXPECT_FALSE(overflowed);
  EXPECT_EQ(*pick, *ring.pick("/cold/object"));
}

TEST(RingBoundsTest, CollidingVirtualNodesCoexistAndRemoveCleanly) {
  // Force every virtual node of every member onto the same ring position:
  // the degenerate case a map-backed ring silently corrupts (last add
  // wins, remove erases someone else's vnode).
  ConsistentHashRing ring(8);
  ring.set_hasher([](const std::string&) { return 42ULL; });
  ring.add("cache-a");
  ring.add("cache-b");
  ring.add("cache-c");
  EXPECT_EQ(ring.size(), 3u);

  // All three coexist at one position; picks still resolve to someone.
  const auto owner = ring.pick("/any");
  ASSERT_TRUE(owner.has_value());

  // Removing one member must leave the other two reachable.
  ring.remove("cache-b");
  EXPECT_EQ(ring.size(), 2u);
  const auto after = ring.pick("/any");
  ASSERT_TRUE(after.has_value());
  EXPECT_NE(*after, "cache-b");

  // And bounded picks must still walk the collided bucket correctly.
  ring.set_capacity(*after, 1);
  ring.add_load(*after);
  bool overflowed = false;
  const auto spill = ring.pick_bounded("/any", &overflowed);
  ASSERT_TRUE(spill.has_value());
  EXPECT_TRUE(overflowed);
  EXPECT_NE(*spill, *after);
}

TEST(RingBoundsTest, WireNameHashEqualsPresentationHash) {
  // The C-DNS hashes a query name from its wire labels; the ring's choices
  // stay those of hashing name.to_string(): root, mixed case (presentation
  // octets are hashed as they are, not folded) and a 63-octet label.
  const std::string long_label(63, 'x');
  for (const char* text :
       {".", "video.demo1.mycdn.ciab.test", "ViDeO.Demo1.MyCDN.test", "a",
        "o123.demo1.mycdn.ciab.test"}) {
    const dns::DnsName name = dns::DnsName::must_parse(text);
    EXPECT_EQ(ConsistentHashRing::hash_wire_name(name.wire_labels()),
              ConsistentHashRing::hash(name.to_string()))
        << text;
  }
  const dns::DnsName longest =
      dns::DnsName::must_parse(long_label + ".Example." + long_label);
  EXPECT_EQ(ConsistentHashRing::hash_wire_name(longest.wire_labels()),
            ConsistentHashRing::hash(longest.to_string()));
  // And so are the picks.
  ConsistentHashRing ring = make_ring(5);
  const dns::DnsName name = dns::DnsName::must_parse("Obj7.demo1.mycdn.test");
  EXPECT_EQ(ring.pick_name(name), ring.pick(name.to_string()));
  bool by_name = true;
  bool by_string = false;
  EXPECT_EQ(ring.pick_bounded_name(name, &by_name),
            ring.pick_bounded(name.to_string(), &by_string));
  EXPECT_EQ(by_name, by_string);
}

TEST(RingBoundsTest, NamePicksFollowAnInstalledHasher) {
  // Under a test hasher a name is positioned by hashing its presentation
  // string, as pick() positions any key. This one puts every key (no '#')
  // at 0, so all picks land on the first virtual node.
  ConsistentHashRing ring(4);
  ring.set_hasher([](const std::string& text) {
    return text.find('#') == std::string::npos ? 0
                                               : ConsistentHashRing::hash(text);
  });
  ring.add("cache-a");
  ring.add("cache-b");
  ring.add("cache-c");
  const auto first = ring.pick("any key");
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 20; ++i) {
    const dns::DnsName name =
        dns::DnsName::must_parse("Obj" + std::to_string(i) + ".demo1.test");
    EXPECT_EQ(ring.pick_name(name), first) << i;
    EXPECT_EQ(ring.pick_bounded_name(name), first) << i;
  }
}

}  // namespace
}  // namespace mecdns
