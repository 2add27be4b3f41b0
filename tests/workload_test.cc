#include <gtest/gtest.h>

#include "simnet/ip.h"
#include "workload/domains.h"
#include "workload/zipf.h"

namespace mecdns::workload {
namespace {

TEST(Domains, Table1MatchesPaper) {
  const auto& table = table1_domains();
  ASSERT_EQ(table.size(), 5u);
  EXPECT_EQ(table[0].website, "Airbnb");
  EXPECT_EQ(table[0].cdn_domain, "a0.muscache.com");
  EXPECT_EQ(table[4].cdn_domain, "a.cdn.intentmedia.net");
}

TEST(Domains, ProfilesAreInternallyConsistent) {
  for (const auto& profile : figure3_profiles()) {
    EXPECT_FALSE(profile.pools.empty()) << profile.website;
    for (const auto& [cls, weights] : profile.weights) {
      EXPECT_EQ(weights.size(), profile.pools.size()) << profile.website;
      double sum = 0;
      for (const double w : weights) {
        EXPECT_GE(w, 0.0);
        sum += w;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9) << profile.website << "/" << cls;
    }
    // All three network classes must be present.
    for (const auto& cls : network_classes()) {
      EXPECT_EQ(profile.weights.count(cls), 1u) << profile.website;
    }
    // Every pool CIDR parses.
    for (const auto& pool : profile.pools) {
      EXPECT_TRUE(simnet::Cidr::parse(pool.cidr).ok()) << pool.cidr;
    }
  }
}

TEST(Domains, ProfilesCoverTable1) {
  const auto& profiles = figure3_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  for (const auto& entry : table1_domains()) {
    bool found = false;
    for (const auto& profile : profiles) {
      if (profile.cdn_domain == entry.cdn_domain) found = true;
    }
    EXPECT_TRUE(found) << entry.cdn_domain;
  }
}

TEST(Zipf, RankZeroIsMostPopular) {
  ZipfGenerator zipf(100, 1.0);
  util::Rng rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[90]);
  // With s=1, rank 0 should take roughly 1/H(100) ~ 19%.
  EXPECT_NEAR(counts[0] / 50000.0, 0.19, 0.03);
}

TEST(Zipf, HigherSkewConcentratesMore) {
  util::Rng rng1(6);
  util::Rng rng2(6);
  ZipfGenerator mild(1000, 0.6);
  ZipfGenerator steep(1000, 1.4);
  int mild_top = 0;
  int steep_top = 0;
  for (int i = 0; i < 20000; ++i) {
    if (mild.sample(rng1) < 10) ++mild_top;
    if (steep.sample(rng2) < 10) ++steep_top;
  }
  EXPECT_GT(steep_top, mild_top * 2);
}

TEST(Zipf, RejectsEmptySupport) {
  EXPECT_THROW(ZipfGenerator(0, 1.0), std::invalid_argument);
}

TEST(RequestGenerator, DrawsFromCatalog) {
  cdn::ContentCatalog catalog;
  catalog.add_series(dns::DnsName::must_parse("v.test"), "seg", 50, 1000);
  RequestGenerator generator(catalog, 0.9, 11);
  EXPECT_EQ(generator.distinct(), 50u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(catalog.contains(generator.next()));
  }
}

}  // namespace
}  // namespace mecdns::workload
