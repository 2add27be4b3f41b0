#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "dns/name.h"

namespace mecdns::dns {
namespace {

TEST(DnsName, ParseBasics) {
  const auto name = DnsName::must_parse("www.example.com");
  EXPECT_EQ(name.label_count(), 3u);
  EXPECT_EQ(name.label(0), "www");
  EXPECT_EQ(name.to_string(), "www.example.com");
}

TEST(DnsName, TrailingDotIgnored) {
  EXPECT_EQ(DnsName::must_parse("example.com."),
            DnsName::must_parse("example.com"));
}

TEST(DnsName, RootParsesAndPrints) {
  const auto root = DnsName::must_parse(".");
  EXPECT_TRUE(root.is_root());
  EXPECT_EQ(root.to_string(), ".");
  EXPECT_EQ(root, DnsName::root());
}

TEST(DnsName, CaseInsensitiveEqualityAndHash) {
  const auto a = DnsName::must_parse("WWW.Example.COM");
  const auto b = DnsName::must_parse("www.example.com");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<DnsName> set;
  set.insert(a);
  EXPECT_EQ(set.count(b), 1u);
}

TEST(DnsName, SubdomainRelation) {
  const auto apex = DnsName::must_parse("mycdn.ciab.test");
  EXPECT_TRUE(DnsName::must_parse("video.demo1.mycdn.ciab.test")
                  .is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(apex));
  EXPECT_TRUE(apex.is_subdomain_of(DnsName::root()));
  EXPECT_FALSE(DnsName::must_parse("ciab.test").is_subdomain_of(apex));
  // Label boundaries matter: notmycdn.ciab.test is NOT under mycdn.ciab.test.
  EXPECT_FALSE(
      DnsName::must_parse("notmycdn.ciab.test").is_subdomain_of(apex));
}

TEST(DnsName, ParentWalk) {
  auto name = DnsName::must_parse("a.b.c");
  name = name.parent();
  EXPECT_EQ(name, DnsName::must_parse("b.c"));
  name = name.parent();
  name = name.parent();
  EXPECT_TRUE(name.is_root());
  EXPECT_TRUE(name.parent().is_root());
}

TEST(DnsName, PrefixAndUnder) {
  const auto base = DnsName::must_parse("example.com");
  EXPECT_EQ(base.with_prefix("www").value(),
            DnsName::must_parse("www.example.com"));
  const auto rel = DnsName::must_parse("video.demo1");
  EXPECT_EQ(rel.under(DnsName::must_parse("mycdn.test")).value(),
            DnsName::must_parse("video.demo1.mycdn.test"));
}

TEST(DnsName, WildcardSibling) {
  EXPECT_EQ(DnsName::must_parse("video.demo1.cdn").wildcard_sibling(),
            DnsName::must_parse("*.demo1.cdn"));
}

TEST(DnsName, WireLength) {
  // 3www7example3com0 = 1+3 + 1+7 + 1+3 + 1 = 17
  EXPECT_EQ(DnsName::must_parse("www.example.com").wire_length(), 17u);
  EXPECT_EQ(DnsName::root().wire_length(), 1u);
}

TEST(DnsName, RejectsOversizedLabels) {
  const std::string long_label(64, 'a');
  EXPECT_FALSE(DnsName::parse(long_label + ".com").ok());
  const std::string max_label(63, 'a');
  EXPECT_TRUE(DnsName::parse(max_label + ".com").ok());
}

TEST(DnsName, RejectsOversizedNames) {
  // 5 labels x 63 bytes = 320 wire octets > 255.
  std::string big;
  for (int i = 0; i < 5; ++i) {
    if (i != 0) big += ".";
    big += std::string(63, 'a' + i);
  }
  EXPECT_FALSE(DnsName::parse(big).ok());
}

struct BadNameCase {
  const char* text;
};
class BadNameTest : public ::testing::TestWithParam<BadNameCase> {};

TEST_P(BadNameTest, Rejected) {
  EXPECT_FALSE(DnsName::parse(GetParam().text).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BadNameTest,
    ::testing::Values(BadNameCase{""}, BadNameCase{".."},
                      BadNameCase{".example.com"}, BadNameCase{"a..b"},
                      BadNameCase{"has space.com"}, BadNameCase{"tab\tx.com"}));

TEST(DnsName, CanonicalOrderingIsByLabelFromTheRight) {
  // Canonical (DNSSEC) order: compare rightmost labels first.
  EXPECT_LT(DnsName::must_parse("example.com"),
            DnsName::must_parse("example.net"));
  EXPECT_LT(DnsName::must_parse("example.com"),
            DnsName::must_parse("a.example.com"));
  EXPECT_LT(DnsName::must_parse("a.example.com"),
            DnsName::must_parse("b.example.com"));
  EXPECT_FALSE(DnsName::must_parse("EXAMPLE.com") <
               DnsName::must_parse("example.COM"));
  EXPECT_FALSE(DnsName::must_parse("example.COM") <
               DnsName::must_parse("EXAMPLE.com"));
}

TEST(DnsName, CanonicalOrderMatchesTheRfc4034Example) {
  // RFC 4034 §6.1's example list, in canonical order. "\001.z.example" is
  // left out: validation rejects control octets. Octets compare unsigned,
  // so "\200" sorts after "*" (0x2a).
  const std::vector<DnsName> names = {
      DnsName::must_parse("example"),
      DnsName::must_parse("a.example"),
      DnsName::must_parse("yljkjljk.a.example"),
      DnsName::must_parse("Z.a.example"),
      DnsName::must_parse("zABC.a.EXAMPLE"),
      DnsName::must_parse("z.example"),
      DnsName::must_parse("*.z.example"),
      DnsName::from_labels({"\200", "z", "example"}).value(),
  };
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = 0; j < names.size(); ++j) {
      EXPECT_EQ(names[i] < names[j], i < j)
          << names[i].to_string() << " vs " << names[j].to_string();
    }
  }
}

TEST(DnsName, FromLabelsValidates) {
  EXPECT_TRUE(DnsName::from_labels({"a", "b"}).ok());
  EXPECT_FALSE(DnsName::from_labels({"a", ""}).ok());
}

TEST(DnsName, MaxLabelRoundTripsAtSixtyThreeBytes) {
  const std::string max_label(63, 'x');
  const auto name = DnsName::must_parse(max_label + ".example.com");
  EXPECT_EQ(name.label(0), max_label);
  EXPECT_EQ(name.to_string(), max_label + ".example.com");
  // 64 + 8 + 4 wire bytes of label data + root byte.
  EXPECT_EQ(name.wire_length(), 64u + 8u + 4u + 1u);
}

TEST(DnsName, NameAtExactWireLimitRoundTrips) {
  // Three 63-byte labels (64 wire bytes each) plus one 61-byte label
  // (62 wire bytes): 254 data bytes, 255 with the root byte — the RFC 1035
  // maximum exactly.
  std::string text = std::string(63, 'a') + "." + std::string(63, 'b') + "." +
                     std::string(63, 'c') + "." + std::string(61, 'd');
  const auto name = DnsName::must_parse(text);
  EXPECT_EQ(name.wire_length(), 255u);
  EXPECT_EQ(name.label_count(), 4u);
  EXPECT_EQ(name.to_string(), text);
  // One more byte anywhere pushes it over.
  EXPECT_FALSE(DnsName::parse(text + ".e").ok());
  std::string over = std::string(63, 'a') + "." + std::string(63, 'b') + "." +
                     std::string(63, 'c') + "." + std::string(62, 'd');
  EXPECT_FALSE(DnsName::parse(over).ok());
}

TEST(DnsName, InlineToHeapBoundaryIsSeamless) {
  // Build names straddling the small-buffer capacity and check that
  // representation (inline vs heap) never leaks into behaviour.
  const std::string base = "example.com";  // 13 wire data bytes
  std::string text = base;
  DnsName prev = DnsName::must_parse(text);
  for (int i = 0; i < 12; ++i) {
    text = std::string(18, static_cast<char>('a' + i)) + "." + text;
    const auto name = DnsName::must_parse(text);
    EXPECT_EQ(name.to_string(), text);
    EXPECT_EQ(name.parent(), prev);
    EXPECT_TRUE(name.is_subdomain_of(DnsName::must_parse(base)));
    const DnsName copy = name;          // deep copy when on heap
    EXPECT_EQ(copy, name);
    EXPECT_EQ(copy.hash(), name.hash());
    DnsName scratch(name);
    const DnsName moved = std::move(scratch);
    EXPECT_EQ(moved, copy);
    prev = name;
  }
  // The loop crossed kInlineCapacity several labels ago.
  EXPECT_GT(prev.wire_length(), DnsName::kInlineCapacity + 1);
}

TEST(DnsName, WithPrefixCrossesIntoHeap) {
  const auto base = DnsName::must_parse("mycdn.ciab.test");  // inline
  const std::string big(63, 'z');
  const auto child = base.with_prefix(big);
  ASSERT_TRUE(child.ok());
  EXPECT_EQ(child.value().to_string(), big + ".mycdn.ciab.test");
  EXPECT_EQ(child.value().parent(), base);
  EXPECT_GT(child.value().wire_length(), DnsName::kInlineCapacity + 1);
}

}  // namespace
}  // namespace mecdns::dns
