#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dns/zone.h"
#include "util/rng.h"

namespace mecdns::dns {
namespace {

class ZoneTest : public ::testing::Test {
 protected:
  ZoneTest() : zone_(DnsName::must_parse("example.com")) {
    zone_.must_add(make_soa(DnsName::must_parse("example.com"),
                            DnsName::must_parse("ns1.example.com"), 1, 300,
                            3600));
    zone_.must_add(make_a(DnsName::must_parse("www.example.com"),
                          simnet::Ipv4Address::must_parse("198.18.0.1"), 60));
  }

  Zone zone_;
};

TEST_F(ZoneTest, ExactMatch) {
  const auto result =
      zone_.lookup(DnsName::must_parse("www.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(std::get<ARecord>(result.records[0].rdata).address,
            simnet::Ipv4Address::must_parse("198.18.0.1"));
}

TEST_F(ZoneTest, NoDataForWrongType) {
  const auto result =
      zone_.lookup(DnsName::must_parse("www.example.com"), RecordType::kTxt);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
  ASSERT_EQ(result.soa.size(), 1u);  // SOA for negative caching
}

TEST_F(ZoneTest, NxDomainWithSoa) {
  const auto result =
      zone_.lookup(DnsName::must_parse("nope.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNxDomain);
  ASSERT_EQ(result.soa.size(), 1u);
}

TEST_F(ZoneTest, OutOfZone) {
  const auto result =
      zone_.lookup(DnsName::must_parse("www.other.net"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kOutOfZone);
}

TEST_F(ZoneTest, EmptyNonTerminalIsNoDataNotNxDomain) {
  zone_.must_add(make_a(DnsName::must_parse("deep.sub.example.com"),
                        simnet::Ipv4Address::must_parse("198.18.0.2"), 60));
  // "sub.example.com" exists only as an ancestor: NODATA per RFC 4592.
  const auto result =
      zone_.lookup(DnsName::must_parse("sub.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
}

TEST_F(ZoneTest, CnameReturnedForOtherTypes) {
  zone_.must_add(make_cname(DnsName::must_parse("alias.example.com"),
                            DnsName::must_parse("www.example.com"), 60));
  const auto result =
      zone_.lookup(DnsName::must_parse("alias.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kCname);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(std::get<CnameRecord>(result.records[0].rdata).target,
            DnsName::must_parse("www.example.com"));
}

TEST_F(ZoneTest, CnameQueryReturnsTheCnameItself) {
  zone_.must_add(make_cname(DnsName::must_parse("alias.example.com"),
                            DnsName::must_parse("www.example.com"), 60));
  const auto result = zone_.lookup(DnsName::must_parse("alias.example.com"),
                                   RecordType::kCname);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
}

TEST_F(ZoneTest, CnameConflictsRejected) {
  zone_.must_add(make_cname(DnsName::must_parse("alias.example.com"),
                            DnsName::must_parse("www.example.com"), 60));
  // Other data at a CNAME owner is illegal (RFC 1034 §3.6.2)...
  const auto data_at_cname =
      zone_.add(make_a(DnsName::must_parse("alias.example.com"),
                       simnet::Ipv4Address::must_parse("1.2.3.4"), 60));
  ASSERT_FALSE(data_at_cname.ok());
  EXPECT_EQ(data_at_cname.error().message,
            "data at alias.example.com conflicts with existing CNAME");
  // ...as is a second CNAME...
  const auto second_cname =
      zone_.add(make_cname(DnsName::must_parse("alias.example.com"),
                           DnsName::must_parse("y.example.com"), 60));
  ASSERT_FALSE(second_cname.ok());
  EXPECT_EQ(second_cname.error().message,
            "CNAME at alias.example.com conflicts with existing CNAME");
  // ...and a CNAME at a name that already has data, which names the
  // owner's lowest type.
  zone_.must_add(make_txt(DnsName::must_parse("www.example.com"), {"x"}, 60));
  const auto over_data =
      zone_.add(make_cname(DnsName::must_parse("www.example.com"),
                           DnsName::must_parse("x.example.com"), 60));
  ASSERT_FALSE(over_data.ok());
  EXPECT_EQ(over_data.error().message,
            "CNAME at www.example.com conflicts with existing A");
}

TEST_F(ZoneTest, DelegationReturnsNsAndGlue) {
  zone_.must_add(make_ns(DnsName::must_parse("child.example.com"),
                         DnsName::must_parse("ns1.child.example.com"), 3600));
  zone_.must_add(make_a(DnsName::must_parse("ns1.child.example.com"),
                        simnet::Ipv4Address::must_parse("198.18.0.53"),
                        3600));
  const auto result = zone_.lookup(
      DnsName::must_parse("deep.www.child.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kDelegation);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, RecordType::kNs);
  ASSERT_EQ(result.glue.size(), 1u);
  EXPECT_EQ(std::get<ARecord>(result.glue[0].rdata).address,
            simnet::Ipv4Address::must_parse("198.18.0.53"));
}

TEST_F(ZoneTest, ApexNsIsAuthoritativeNotDelegation) {
  zone_.must_add(make_ns(DnsName::must_parse("example.com"),
                         DnsName::must_parse("ns1.example.com"), 3600));
  const auto result =
      zone_.lookup(DnsName::must_parse("example.com"), RecordType::kNs);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
}

TEST_F(ZoneTest, NsQueryAtZoneCutIsReferral) {
  zone_.must_add(make_ns(DnsName::must_parse("child.example.com"),
                         DnsName::must_parse("ns1.child.example.com"), 3600));
  // Querying the cut itself for NS: answered from the NS set (not a lookup
  // below the cut), which our implementation treats as authoritative-style
  // success for the NS type.
  const auto result = zone_.lookup(DnsName::must_parse("child.example.com"),
                                   RecordType::kNs);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
}

TEST_F(ZoneTest, WildcardSynthesis) {
  zone_.must_add(make_a(DnsName::must_parse("*.apps.example.com"),
                        simnet::Ipv4Address::must_parse("198.18.0.7"), 60));
  const auto result =
      zone_.lookup(DnsName::must_parse("foo.apps.example.com"),
                   RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
  EXPECT_TRUE(result.from_wildcard);
  // Synthesized owner is the query name, not the wildcard.
  EXPECT_EQ(result.records[0].name,
            DnsName::must_parse("foo.apps.example.com"));
}

TEST_F(ZoneTest, WildcardDoesNotCoverExistingName) {
  zone_.must_add(make_a(DnsName::must_parse("*.apps.example.com"),
                        simnet::Ipv4Address::must_parse("198.18.0.7"), 60));
  zone_.must_add(make_txt(DnsName::must_parse("real.apps.example.com"),
                          {"x"}, 60));
  // The name exists (with TXT only): wildcard must NOT synthesize an A.
  const auto result = zone_.lookup(
      DnsName::must_parse("real.apps.example.com"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNoData);
}

TEST_F(ZoneTest, AnyQueryCollectsAllTypes) {
  zone_.must_add(make_txt(DnsName::must_parse("www.example.com"), {"v=1"},
                          60));
  const auto result =
      zone_.lookup(DnsName::must_parse("www.example.com"), RecordType::kAny);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
  EXPECT_EQ(result.records.size(), 2u);  // A + TXT
}

TEST_F(ZoneTest, RemoveByNameAndType) {
  EXPECT_EQ(zone_.remove(DnsName::must_parse("www.example.com"),
                         RecordType::kA),
            1u);
  EXPECT_EQ(
      zone_.lookup(DnsName::must_parse("www.example.com"), RecordType::kA)
          .status,
      LookupStatus::kNxDomain);
  EXPECT_EQ(zone_.remove(DnsName::must_parse("www.example.com"),
                         RecordType::kA),
            0u);
}

TEST_F(ZoneTest, RemoveName) {
  zone_.must_add(make_txt(DnsName::must_parse("www.example.com"), {"x"}, 60));
  EXPECT_EQ(zone_.remove_name(DnsName::must_parse("www.example.com")), 2u);
}

TEST_F(ZoneTest, RecordOutsideOriginRejected) {
  EXPECT_FALSE(zone_.add(make_a(DnsName::must_parse("www.other.org"),
                                simnet::Ipv4Address::must_parse("1.1.1.1"),
                                60))
                   .ok());
}

TEST_F(ZoneTest, MultipleRecordsFormRrset) {
  zone_.must_add(make_a(DnsName::must_parse("www.example.com"),
                        simnet::Ipv4Address::must_parse("198.18.0.2"), 60));
  const auto result =
      zone_.lookup(DnsName::must_parse("www.example.com"), RecordType::kA);
  EXPECT_EQ(result.records.size(), 2u);
}

TEST_F(ZoneTest, CaseInsensitiveLookup) {
  const auto result =
      zone_.lookup(DnsName::must_parse("WWW.EXAMPLE.COM"), RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
}

TEST_F(ZoneTest, CountsRecords) {
  EXPECT_EQ(zone_.record_count(), 2u);
  EXPECT_EQ(zone_.all().size(), 2u);
  EXPECT_FALSE(zone_.empty());
}

TEST_F(ZoneTest, EmptyNonTerminalGoesWithItsLastDescendant) {
  const auto ent = DnsName::must_parse("sub.example.com");
  const auto a = DnsName::must_parse("a.sub.example.com");
  const auto b = DnsName::must_parse("b.sub.example.com");
  const auto status = [&](const DnsName& name) {
    return zone_.lookup(name, RecordType::kA).status;
  };
  zone_.must_add(make_a(a, simnet::Ipv4Address::must_parse("198.18.0.2"), 60));
  zone_.must_add(make_txt(b, {"x"}, 60));
  EXPECT_EQ(status(ent), LookupStatus::kNoData);

  // Via remove(): the ENT stays while any descendant has data.
  EXPECT_EQ(zone_.remove(a, RecordType::kA), 1u);
  EXPECT_EQ(status(a), LookupStatus::kNxDomain);
  EXPECT_EQ(status(ent), LookupStatus::kNoData);
  EXPECT_EQ(zone_.remove(b, RecordType::kTxt), 1u);
  EXPECT_EQ(status(b), LookupStatus::kNxDomain);
  EXPECT_EQ(status(ent), LookupStatus::kNxDomain);

  // A re-add brings it back; remove_name() takes it away again.
  zone_.must_add(make_txt(b, {"y"}, 60));
  zone_.must_add(make_a(b, simnet::Ipv4Address::must_parse("198.18.0.3"), 60));
  EXPECT_EQ(status(ent), LookupStatus::kNoData);
  EXPECT_EQ(zone_.remove_name(b), 2u);
  EXPECT_EQ(status(b), LookupStatus::kNxDomain);
  EXPECT_EQ(status(ent), LookupStatus::kNxDomain);
  EXPECT_EQ(zone_.remove_name(b), 0u);
  EXPECT_EQ(zone_.record_count(), 2u);  // the fixture's SOA and www A
}

TEST_F(ZoneTest, WildcardStopsAtTheClosestEncloserAfterRemovals) {
  zone_.must_add(make_a(DnsName::must_parse("*.example.com"),
                        simnet::Ipv4Address::must_parse("198.18.0.9"), 60));
  const auto deep = DnsName::must_parse("deep.sub.example.com");
  zone_.must_add(make_a(deep, simnet::Ipv4Address::must_parse("198.18.0.2"),
                        60));
  const auto qname = DnsName::must_parse("q.sub.example.com");
  // sub.example.com exists (an ENT) and has no "*" child: NXDOMAIN, the
  // apex wildcard does not reach past the closest encloser.
  auto result = zone_.lookup(qname, RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kNxDomain);
  EXPECT_FALSE(result.from_wildcard);

  // Once the ENT is gone the closest encloser is the apex, and its
  // wildcard answers.
  zone_.remove(deep, RecordType::kA);
  result = zone_.lookup(qname, RecordType::kA);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
  EXPECT_TRUE(result.from_wildcard);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].name, qname);

  // And back: a new descendant makes sub.example.com an encloser again.
  zone_.must_add(make_txt(DnsName::must_parse("other.sub.example.com"),
                          {"x"}, 60));
  EXPECT_EQ(zone_.lookup(qname, RecordType::kA).status,
            LookupStatus::kNxDomain);
}

TEST_F(ZoneTest, AnyReturnsRrsetsInTypeOrder) {
  const auto www = DnsName::must_parse("www.example.com");
  zone_.must_add(make_srv(www, 0, 0, 443, www, 60));
  zone_.must_add(make_txt(www, {"v=1"}, 60));
  zone_.must_add(make_ptr(www, DnsName::must_parse("host.example.com"), 60));
  zone_.must_add(make_txt(www, {"v=2"}, 60));
  const auto result = zone_.lookup(www, RecordType::kAny);
  EXPECT_EQ(result.status, LookupStatus::kSuccess);
  std::vector<RecordType> types;
  for (const auto& rr : result.records) types.push_back(rr.type);
  EXPECT_EQ(types, (std::vector<RecordType>{
                       RecordType::kA, RecordType::kPtr, RecordType::kTxt,
                       RecordType::kTxt, RecordType::kSrv}));
  // Within an RRset, records keep their insertion order.
  EXPECT_EQ(std::get<TxtRecord>(result.records[2].rdata).strings.front(),
            "v=1");
}

TEST_F(ZoneTest, MixedCaseOwnersAndQueriesMeet) {
  // A mixed-case owner answers a lower-case query...
  zone_.must_add(make_a(DnsName::must_parse("Video.SUB.Example.com"),
                        simnet::Ipv4Address::must_parse("192.0.2.7"), 60));
  EXPECT_EQ(zone_.lookup(DnsName::must_parse("video.sub.example.com"),
                         RecordType::kA)
                .status,
            LookupStatus::kSuccess);
  // ...a mixed-case query hits a lower-case owner...
  EXPECT_EQ(zone_.lookup(DnsName::must_parse("WwW.eXaMpLe.CoM"),
                         RecordType::kA)
                .status,
            LookupStatus::kSuccess);
  // ...and the ENT an owner implies exists under any spelling.
  EXPECT_EQ(
      zone_.lookup(DnsName::must_parse("sub.EXAMPLE.com"), RecordType::kA)
          .status,
      LookupStatus::kNoData);
  // Records under one spelling join the RRset of the other.
  zone_.must_add(make_a(DnsName::must_parse("VIDEO.sub.example.COM"),
                        simnet::Ipv4Address::must_parse("192.0.2.8"), 60));
  EXPECT_EQ(zone_.lookup(DnsName::must_parse("video.sub.example.com"),
                         RecordType::kA)
                .records.size(),
            2u);
  EXPECT_EQ(zone_.remove(DnsName::must_parse("VIDEO.SUB.EXAMPLE.COM"),
                         RecordType::kA),
            2u);
  EXPECT_EQ(
      zone_.lookup(DnsName::must_parse("sub.example.com"), RecordType::kA)
          .status,
      LookupStatus::kNxDomain);
}

TEST_F(ZoneTest, AllIsInCanonicalOrder) {
  zone_.must_add(make_a(DnsName::must_parse("b.example.com"),
                        simnet::Ipv4Address::must_parse("198.18.0.3"), 60));
  zone_.must_add(make_txt(DnsName::must_parse("A.example.com"), {"x"}, 60));
  zone_.must_add(make_a(DnsName::must_parse("a.example.com"),
                        simnet::Ipv4Address::must_parse("198.18.0.2"), 60));
  std::vector<std::pair<std::string, RecordType>> got;
  for (const auto& rr : zone_.all()) {
    got.emplace_back(rr.name.to_string(), rr.type);
  }
  EXPECT_EQ(got, (std::vector<std::pair<std::string, RecordType>>{
                     {"example.com", RecordType::kSoa},
                     {"a.example.com", RecordType::kA},
                     {"A.example.com", RecordType::kTxt},
                     {"b.example.com", RecordType::kA},
                     {"www.example.com", RecordType::kA}}));
}

// Random add/remove churn over a small name tree, with mixed-case
// spellings, checked after every step against a brute-force oracle: a name
// exists exactly when some record's owner is the name or below it.
TEST(ZoneChurn, NameExistenceMatchesABruteForceOracle) {
  const auto origin = DnsName::must_parse("example.com");
  std::vector<DnsName> names{origin};
  for (const char* l1 : {"a", "b", "c"}) {
    const DnsName n1 = DnsName::must_parse(std::string(l1) + ".example.com");
    names.push_back(n1);
    for (const char* l2 : {"a", "b", "c"}) {
      const DnsName n2 = n1.with_prefix(l2).value();
      names.push_back(n2);
      for (const char* l3 : {"a", "b"}) {
        names.push_back(n2.with_prefix(l3).value());
      }
    }
  }
  const auto spelled = [](const DnsName& name, util::Rng& rng) {
    std::string text = name.to_string();
    for (char& c : text) {
      if (rng.next() % 2 == 0) c = static_cast<char>(std::toupper(c));
    }
    return DnsName::must_parse(text);
  };

  Zone zone(origin);
  std::map<std::pair<std::size_t, RecordType>, std::size_t> oracle;
  util::Rng rng(20201104);
  for (int step = 0; step < 3000; ++step) {
    const std::size_t pick = rng.next() % names.size();
    const DnsName name = spelled(names[pick], rng);
    const RecordType type =
        rng.next() % 2 == 0 ? RecordType::kA : RecordType::kTxt;
    switch (rng.next() % 4) {
      case 0:
      case 1:
        zone.must_add(type == RecordType::kA
                          ? make_a(name, simnet::Ipv4Address(0xc0000201u), 60)
                          : make_txt(name, {"t"}, 60));
        ++oracle[{pick, type}];
        break;
      case 2: {
        const auto it = oracle.find({pick, type});
        const std::size_t want = it == oracle.end() ? 0 : it->second;
        ASSERT_EQ(zone.remove(name, type), want) << "step " << step;
        if (it != oracle.end()) oracle.erase(it);
        break;
      }
      default: {
        std::size_t want = 0;
        for (auto it = oracle.begin(); it != oracle.end();) {
          if (it->first.first == pick) {
            want += it->second;
            it = oracle.erase(it);
          } else {
            ++it;
          }
        }
        ASSERT_EQ(zone.remove_name(name), want) << "step " << step;
        break;
      }
    }

    std::size_t records = 0;
    for (const auto& [key, count] : oracle) records += count;
    ASSERT_EQ(zone.record_count(), records) << "step " << step;
    ASSERT_EQ(zone.all().size(), records) << "step " << step;
    ASSERT_EQ(zone.empty(), records == 0) << "step " << step;
    for (std::size_t i = 0; i < names.size(); ++i) {
      bool exists = false;
      bool has_a = false;
      for (const auto& [key, count] : oracle) {
        if (names[key.first].is_subdomain_of(names[i])) exists = true;
        if (key.first == i && key.second == RecordType::kA) has_a = true;
      }
      const LookupResult result = zone.lookup(spelled(names[i], rng),
                                              RecordType::kA);
      const LookupStatus want = has_a    ? LookupStatus::kSuccess
                                : exists ? LookupStatus::kNoData
                                         : LookupStatus::kNxDomain;
      ASSERT_EQ(result.status, want)
          << "step " << step << " name " << names[i].to_string();
    }
  }
}

}  // namespace
}  // namespace mecdns::dns
