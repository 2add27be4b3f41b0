#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace mecdns::util {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntFullAndHalfRangeSpansDoNotOverflow) {
  // Regression: the inclusive-range overload used to compute hi - lo + 1 in
  // int64, which is signed-overflow UB once the span exceeds INT64_MAX —
  // UBSan flagged [INT64_MIN, INT64_MAX] and [INT64_MIN, 0]. The span is now
  // computed in uint64 (0 meaning the full 2^64 range). This test runs under
  // the UBSan job in check.sh stage 1, which is what actually exercises the
  // old overflow.
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(13);
  bool saw_negative = false;
  bool saw_positive = false;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(kMin, kMax);
    saw_negative = saw_negative || v < 0;
    saw_positive = saw_positive || v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(rng.uniform_int(kMin, std::int64_t{0}), 0);
    EXPECT_GE(rng.uniform_int(std::int64_t{0}, kMax), 0);
  }
  // Degenerate one-value ranges at the extremes.
  EXPECT_EQ(rng.uniform_int(kMax, kMax), kMax);
  EXPECT_EQ(rng.uniform_int(kMin, kMin), kMin);
}

TEST(Rng, UniformIntCoversSupport) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.uniform_int(8u)];
  }
  for (const int c : counts) {
    EXPECT_GT(c, 800);  // expected 1000 each; very loose bound
    EXPECT_LT(c, 1200);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, LognormalIsPositiveAndSkewed) {
  Rng rng(19);
  double below_median = 0;
  const double median = std::exp(1.0);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.lognormal(1.0, 0.8);
    EXPECT_GT(x, 0.0);
    if (x < median) ++below_median;
  }
  EXPECT_NEAR(below_median / 20000.0, 0.5, 0.03);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[rng.weighted_index(weights)];
  }
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.03);
  EXPECT_NEAR(counts[2] / 20000.0, 0.6, 0.03);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(31);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// --- stats --------------------------------------------------------------------

TEST(SampleSet, EmptyIsAllZero) {
  SampleSet set;
  EXPECT_EQ(set.mean(), 0.0);
  EXPECT_EQ(set.percentile(50), 0.0);
  const Summary s = set.summarize();
  EXPECT_EQ(s.count, 0u);
}

TEST(SampleSet, BasicMoments) {
  SampleSet set;
  set.add_all({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(set.mean(), 3.0);
  EXPECT_DOUBLE_EQ(set.min(), 1.0);
  EXPECT_DOUBLE_EQ(set.max(), 5.0);
  EXPECT_NEAR(set.stddev(), std::sqrt(2.5), 1e-12);
}

TEST(SampleSet, PercentileInterpolates) {
  SampleSet set;
  set.add_all({10, 20, 30, 40});
  EXPECT_DOUBLE_EQ(set.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(set.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(set.percentile(50), 25.0);
}

TEST(SampleSet, TrimmedSummaryDropsTailsButKeepsWhiskers) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(i);
  set.add(10000);  // outlier
  const Summary s = set.summarize_trimmed(8, 92);
  EXPECT_LT(s.mean, 60.0);     // outlier excluded from the bar
  EXPECT_EQ(s.max, 10000.0);   // but shown as the whisker
  EXPECT_EQ(s.min, 1.0);
  EXPECT_LT(s.count, set.size());
}

TEST(FrequencyTable, SharesSumToOne) {
  FrequencyTable table;
  table.add("a", 3);
  table.add("b");
  table.add("a");
  EXPECT_EQ(table.count("a"), 4u);
  EXPECT_EQ(table.count("b"), 1u);
  EXPECT_EQ(table.count("missing"), 0u);
  EXPECT_DOUBLE_EQ(table.share("a") + table.share("b"), 1.0);
  EXPECT_EQ(table.keys_by_count().front(), "a");
}

// --- bytes --------------------------------------------------------------------

TEST(Bytes, RoundTripIntegers) {
  std::array<std::uint8_t, 16> buf{};
  ByteWriter w(buf);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_TRUE(r.at_end());
}

TEST(Bytes, BigEndianLayout) {
  std::array<std::uint8_t, 16> buf{};
  ByteWriter w(buf);
  w.u16(0x0102);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[1], 0x02);
}

TEST(Bytes, TruncatedReadsFail) {
  const std::vector<std::uint8_t> one = {0x42};
  ByteReader r(one);
  EXPECT_FALSE(r.u16().ok());
  EXPECT_TRUE(r.u8().ok());
  EXPECT_FALSE(r.u8().ok());
}

TEST(Bytes, SeekAndView) {
  std::array<std::uint8_t, 16> buf{};
  ByteWriter w(buf);
  w.u16(7);
  w.u16(9);
  ByteReader r(w.data());
  EXPECT_TRUE(r.seek(2).ok());
  EXPECT_EQ(r.u16().value(), 9);
  EXPECT_FALSE(r.seek(5).ok());
  EXPECT_TRUE(r.seek(1).ok());
  const auto run = r.view(2);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run.value().data(), w.data().data() + 1);  // borrowed, not copied
  EXPECT_EQ(r.position(), 3u);
  EXPECT_EQ(r.view(2).error().message, "truncated: need 2 bytes, have 1");
  EXPECT_EQ(r.u16().error().message, "truncated: need 2 bytes");
  EXPECT_EQ(r.u32().error().message, "truncated: need 4 bytes");
  EXPECT_TRUE(r.u8().ok());
  EXPECT_EQ(r.u8().error().message, "truncated: need 1 byte");
}

TEST(Bytes, EmptyAppendIsANoOp) {
  // An empty OPT RDATA reaches the writer as a null pointer of length 0.
  std::array<std::uint8_t, 16> buf{};
  ByteWriter w(buf);
  w.bytes(std::span<const std::uint8_t>());
  EXPECT_EQ(w.size(), 0u);
  w.u8(1);
  w.bytes(std::span<const std::uint8_t>());
  EXPECT_EQ(w.size(), 1u);
}

TEST(Bytes, WriteThatDoesNotFitSetsOverflowAndWritesNothing) {
  std::array<std::uint8_t, 6> buf{};
  ByteWriter w(buf);
  w.u32(0x01020304);
  EXPECT_FALSE(w.overflowed());
  w.u32(0x05060708);  // 4 octets into the 2 that are left
  EXPECT_TRUE(w.overflowed());
  EXPECT_EQ(w.size(), 4u);
  // Every later write is refused too, even one that would fit, and the
  // octets past the written prefix are never touched.
  w.u8(9);
  w.u16(0x0a0b);
  w.bytes(std::string_view("c"));
  w.patch_u16(0, 0xffff);
  EXPECT_EQ(w.size(), 4u);
  EXPECT_EQ(buf, (std::array<std::uint8_t, 6>{1, 2, 3, 4, 0, 0}));
}

TEST(Bytes, PatchU16) {
  std::array<std::uint8_t, 16> buf{};
  ByteWriter w(buf);
  w.u16(0);
  w.u8(1);
  w.patch_u16(0, 0xbeef);
  EXPECT_EQ(w.data()[0], 0xbe);
  EXPECT_EQ(w.data()[1], 0xef);
  EXPECT_THROW(w.patch_u16(2, 1), std::out_of_range);
}

// --- result -------------------------------------------------------------------

TEST(Result, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad(Err("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(bad.value_or(-1), -1);
  EXPECT_THROW(bad.value(), std::logic_error);
}

TEST(Result, VoidSpecialization) {
  Result<void> ok = Ok();
  EXPECT_TRUE(ok.ok());
  Result<void> bad = Err("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "nope");
}

// --- strings ------------------------------------------------------------------

TEST(Strings, SplitJoin) {
  EXPECT_EQ(split("a.b.c", '.'), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(join({"x", "y"}, "::"), "x::y");
}

TEST(Strings, CaseAndTrim) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_TRUE(ends_with_icase("foo.EXAMPLE.com", "example.COM"));
  EXPECT_FALSE(ends_with_icase("com", "example.com"));
}

TEST(Strings, WithSlugGoesBeforeTheExtension) {
  EXPECT_EQ(with_slug("trace.json", "mec-mec"), "trace.mec-mec.json");
  EXPECT_EQ(with_slug("out/series.json", "node-down/robust"),
            "out/series.node-down.robust.json");
  EXPECT_EQ(with_slug("trace", "mec-mec"), "trace.mec-mec");
  EXPECT_EQ(with_slug("out.d/trace", "a/b"), "out.d/trace.a.b");
}

TEST(Strings, FmtFixed) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(10.0, 0), "10");
}

TEST(Strings, AsciiBar) {
  EXPECT_EQ(ascii_bar(5, 10, 10), "#####     ");
  EXPECT_EQ(ascii_bar(10, 10, 4), "####");
  EXPECT_EQ(ascii_bar(0, 10, 4), "    ");
  EXPECT_EQ(ascii_bar(20, 10, 4), "####");   // clamped above
  EXPECT_EQ(ascii_bar(-3, 10, 4), "    ");   // clamped below
  EXPECT_EQ(ascii_bar(1, 0, 4), "    ");     // degenerate max
  EXPECT_EQ(ascii_bar(1, 1, 0), "");
}

}  // namespace
}  // namespace mecdns::util
